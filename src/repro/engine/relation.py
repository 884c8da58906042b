"""Tuple-list interval relations and their block arithmetic.

An interval relation is a sequence of ``(s, l, r)`` tuples **sorted by
the left endpoint** — document order.  Every physical operator in the DI
engine consumes and produces relations in this order (the paper's central
implementation invariant, Section 5), so multi-pass pipelines never
re-sort.  This module is the plain-list form the reference algebra
(:mod:`repro.engine.operators`) works on; the evaluator's relations are
:class:`~repro.engine.columns.IntervalColumns`, which carry their own
block arithmetic.

A relation of width ``w`` encodes a sequence of environments: the tuples
with ``l // w == i`` form environment ``i``'s forest.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterator, Sequence

from repro.encoding.interval import IntervalTuple

Relation = list[IntervalTuple]


def check_sorted(rel: Sequence[IntervalTuple]) -> None:
    """Assert the document-order invariant (used by tests and debug mode)."""
    for previous, current in zip(rel, rel[1:]):
        if previous[1] >= current[1]:
            raise AssertionError(
                f"relation not sorted by l: {previous} before {current}"
            )


def env_of(left: int, width: int) -> int:
    """The environment (block) index of a tuple with left endpoint ``left``."""
    return left // width


def _left_of(row: IntervalTuple) -> int:
    """Sort key for :func:`bisect_left` over tuple-form relations."""
    return row[1]


def group_by_env(rel: Sequence[IntervalTuple], width: int
                 ) -> Iterator[tuple[int, Sequence[IntervalTuple]]]:
    """Yield ``(env, block)`` runs in ascending env order.

    Block boundaries are found with binary search on the sorted left
    endpoints — O(b·log n) for b blocks instead of an O(n) tuple-by-tuple
    rescan — and each block is a single slice of the input, not a
    per-block ``list(...)`` re-copy.
    """
    if width <= 0:
        return
    start = 0
    size = len(rel)
    while start < size:
        env = rel[start][1] // width
        end = bisect_left(rel, (env + 1) * width, lo=start, key=_left_of)
        yield env, rel[start:end]
        start = end


def env_blocks(rel: Sequence[IntervalTuple], width: int
               ) -> dict[int, list[IntervalTuple]]:
    """All environment blocks as a dict (for random access by index)."""
    return dict(group_by_env(rel, width))


def env_slice(rel: Sequence[IntervalTuple], width: int, env: int
              ) -> Sequence[IntervalTuple]:
    """The block of environment ``env`` via binary search (no full scan)."""
    start = bisect_left(rel, env * width, key=_left_of)
    end = bisect_left(rel, (env + 1) * width, lo=start, key=_left_of)
    return rel[start:end]


def shift_block(block: Sequence[IntervalTuple], offset: int) -> Relation:
    """Shift every interval in a block by ``offset``."""
    return [(s, l + offset, r + offset) for (s, l, r) in block]


def localize(block: Sequence[IntervalTuple], width: int, env: int) -> Relation:
    """Shift a block back to local coordinates ``[0, width)``."""
    return shift_block(block, -env * width)


def filter_by_index(rel: Sequence[IntervalTuple], width: int,
                    index: Sequence[int]) -> Sequence[IntervalTuple]:
    """Keep only tuples whose env belongs to the sorted ``index``.

    One pass: a merge of the relation with the index.
    """
    result: Relation = []
    keep = iter(index)
    current = next(keep, None)
    for row in rel:
        env = row[1] // width
        while current is not None and current < env:
            current = next(keep, None)
        if current is None:
            break
        if current == env:
            result.append(row)
    return result


def tree_slices(block: Sequence[IntervalTuple]) -> Iterator[list[IntervalTuple]]:
    """Split a single environment block into its top-level tree slices.

    One linear pass: a tuple opens a new tree when its left endpoint passes
    the current root's right endpoint (the Algorithm 5.2 criterion).
    """
    current: list[IntervalTuple] = []
    max_right = -1
    for row in block:
        if row[1] > max_right:
            if current:
                yield current
            current = [row]
            max_right = row[2]
        else:
            current.append(row)
    if current:
        yield current


def subtree_range(rel: Sequence[IntervalTuple], position: int) -> int:
    """End index (exclusive) of the subtree rooted at ``rel[position]``.

    Relies on document order: the subtree is the contiguous run of tuples
    whose left endpoints stay below the root's right endpoint.
    """
    root_right = rel[position][2]
    return bisect_right(rel, root_right, lo=position, key=_left_of)
