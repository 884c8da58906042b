"""Golden-output regression tests.

The XMark generator is seeded and the evaluators deterministic, so every
query has one exact answer per (scale, seed).  These digests pin the
end-to-end behaviour: any change to the generator, the lowering, an
operator, or the engine that alters any query's result — even by one
character or a reordering — fails here.

If a change is *intentional* (e.g. the generator's sampling changed),
regenerate the table with::

    python -c "import tests.test_golden_outputs as g; g.regenerate()"
"""

import hashlib

import pytest

from repro import run_xquery
from repro.xmark.generator import generate_document
from repro.xmark.queries import EXTRA_QUERIES, QUERIES

SCALE = 0.0005
SEED = 42

#: query name -> (sha256[:16] of result XML, result length).
GOLDEN = {
    "Q1": ("e3b0c44298fc1c14", 0),
    "Q13": ("8e220e74852d2af4", 414),
    "Q15": ("cb3b8d67eca2db17", 521),
    "Q17": ("ce96e54ed8e5652a", 190),
    "Q19": ("ffb4fe25c333de20", 51),
    "Q6": ("4b708ec5e1e089c7", 114),
    "Q7": ("e3b308a08cca0e1d", 55),
    "Q8": ("ffb3bb5f613c3213", 144),
    "Q8_ORIGINAL": ("2050923d257c68ee", 471),
    "Q9": ("ea1416fc21e1bc67", 221),
}

ALL_QUERIES = {**QUERIES, **EXTRA_QUERIES}


def _digest(value: str) -> str:
    return hashlib.sha256(value.encode()).hexdigest()[:16]


@pytest.fixture(scope="module")
def documents():
    return {"auction.xml": (generate_document(SCALE, seed=SEED),)}


def test_golden_table_covers_all_queries():
    assert set(GOLDEN) == set(ALL_QUERIES)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_output(name, documents):
    output = run_xquery(ALL_QUERIES[name], documents).to_xml()
    expected_digest, expected_length = GOLDEN[name]
    assert len(output) == expected_length, f"{name} length changed"
    assert _digest(output) == expected_digest, f"{name} content changed"


@pytest.mark.parametrize("name", ["Q8", "Q9", "Q13"])
def test_golden_holds_across_backends(name, documents):
    """The pinned output is backend-independent, the nested-loop
    competitor included."""
    expected_digest, _ = GOLDEN[name]
    for backend, strategy in (("interpreter", "msj"), ("engine", "nlj"),
                              ("naive", "msj")):
        output = run_xquery(ALL_QUERIES[name], documents,
                            backend=backend, strategy=strategy).to_xml()
        assert _digest(output) == expected_digest


def regenerate() -> None:  # pragma: no cover — developer tool
    documents = {"auction.xml": (generate_document(SCALE, seed=SEED),)}
    for name in sorted(ALL_QUERIES):
        output = run_xquery(ALL_QUERIES[name], documents).to_xml()
        print(f'    "{name}": ("{_digest(output)}", {len(output)}),')
