"""Shared fixtures: the paper's Figure 1 sample and small XMark documents."""

from __future__ import annotations

import pytest

from repro.xml.text_parser import parse_document, parse_forest
from repro.xmark.generator import generate_document
from repro.xmark.queries import FIGURE1_SAMPLE


@pytest.fixture(scope="session")
def figure1_doc():
    """The Figure 1 XMark fragment as a parsed document root."""
    return parse_document(FIGURE1_SAMPLE)


@pytest.fixture(scope="session")
def figure1_forest():
    """The Figure 1 sample as a forest (single tree)."""
    return parse_forest(FIGURE1_SAMPLE)


@pytest.fixture(scope="session")
def xmark_tiny():
    """A deterministic tiny XMark document (~750 nodes)."""
    return generate_document(0.0005, seed=42)


@pytest.fixture(scope="session")
def xmark_small():
    """A deterministic small XMark document (~3000 nodes)."""
    return generate_document(0.002, seed=42)


@pytest.fixture
def shrink_int64(monkeypatch):
    """Make the engine's int64 only ``bits`` wide, so that documents of
    tier-1 size do what only large ones do under the real limit: trip
    the kernels' overflow bound, and with it the evaluator's two
    remedies.  ``shrink_int64(bits)`` returns a counter of how often
    each ran (``"renormalise"``, ``"compact"``); ``kernels.reblock``
    rank-compressing a lifted chain's iteration blocks counts as
    ``"renormalise"`` (it calls that kernel).
    """
    from collections import Counter

    from repro.engine import kernels
    from repro.engine.evaluator import DIEngine

    def shrink(bits: int) -> Counter:
        remedies: Counter = Counter()
        renormalise, compact = kernels.renormalise, DIEngine._compact

        def counted_renormalise(cols, width, blocks=None):
            remedies["renormalise"] += 1
            return renormalise(cols, width, blocks)

        def counted_compact(self, envs, offsets, width, outer):
            numbers, fan = compact(self, envs, offsets, width, outer)
            # Dense numbering gives an environment fewer iterations than
            # its trees have rows, so fewer than ``width``.
            if fan != width:
                remedies["compact"] += 1
            return numbers, fan

        monkeypatch.setattr(kernels, "INT64_MAX", 2 ** bits - 1)
        monkeypatch.setattr(kernels, "renormalise", counted_renormalise)
        monkeypatch.setattr(DIEngine, "_compact", counted_compact)
        return remedies

    return shrink


@pytest.fixture
def nodes_built(monkeypatch):
    """``nodes_built()`` is how many :class:`Node` objects this process
    has constructed since the fixture was set up — the text-in → XML-out
    path is required to construct none."""
    from repro.xml.forest import Node

    built = [0]
    construct = Node.__init__

    def counted(self, label, children=()):
        built[0] += 1
        construct(self, label, children)

    monkeypatch.setattr(Node, "__init__", counted)
    return lambda: built[0]
