"""Runtime invariant checks for engine values (debug mode).

``DIEngine(validate=True)`` verifies, after every plan node, the
representation invariants everything else silently relies on:

0. **one representation** — the relation is an
   :class:`~repro.engine.columns.IntervalColumns` with int64 endpoint
   columns, the empty relation included, and the environment index it
   is evaluated under is a strictly increasing int64 array
   (:func:`validate_index`);
1. **document order** — the relation is sorted by left endpoint;
2. **block containment** — every tuple lies inside the block of an
   environment present in the current index, and never crosses a block
   boundary;
3. **well-formed nesting** — within each block the intervals form a valid
   Definition 3.1 encoding;
4. **carried columns** — the depth column equals what the intervals
   alone determine, and every label code is in the dictionary with its
   label's kind in the low two bits (kernels carry both instead of
   recomputing, so drift would otherwise be silent).

The checks are linear passes; they exist for tests and debugging, not for
production evaluation.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.engine.columns import (
    KIND_MASK,
    IntervalColumns,
    _label_of,
    derive_depths,
)
from repro.errors import ExecutionError
from repro.xml.labels import label_kind


def validate_value(rel: IntervalColumns, width: int,
                   index: Sequence[int], context: str = "") -> None:
    """Raise :class:`ExecutionError` unless the invariants hold."""
    where = f" (after {context})" if context else ""
    if not isinstance(rel, IntervalColumns):
        raise ExecutionError(
            f"relation is a {type(rel).__name__}, not IntervalColumns{where}")
    for column in (rel.l, rel.r):
        if getattr(column, "dtype", None) != np.int64:
            raise ExecutionError(
                f"endpoint column is not an int64 array{where}")
    if width == 0:
        if rel:
            raise ExecutionError(
                f"zero-width relation contains tuples{where}")
        return
    _validate_codes(rel.c, where)  # before any label is read through them
    allowed = set(np.asarray(index).tolist())
    previous_left = None
    open_rights: list[int] = []
    current_env = None
    for s, l, r in rel:
        if previous_left is not None and l <= previous_left:
            raise ExecutionError(
                f"document order violated at ({s!r},{l},{r}){where}")
        previous_left = l
        if l >= r:
            raise ExecutionError(
                f"degenerate interval ({s!r},{l},{r}){where}")
        env = l // width
        if env not in allowed:
            raise ExecutionError(
                f"tuple ({s!r},{l},{r}) in env {env} not in the index{where}")
        if r >= (env + 1) * width:
            raise ExecutionError(
                f"tuple ({s!r},{l},{r}) crosses the block boundary of env "
                f"{env} (width {width}){where}")
        if env != current_env:
            current_env = env
            open_rights.clear()
        while open_rights and open_rights[-1] < l:
            open_rights.pop()
        if open_rights and r > open_rights[-1]:
            raise ExecutionError(
                f"tuple ({s!r},{l},{r}) partially overlaps an open "
                f"interval{where}")
        open_rights.append(r)
    carried = rel.d.tolist()
    derived = derive_depths(rel.l.tolist(), rel.r.tolist()).tolist()
    if carried != derived:
        raise ExecutionError(
            f"column 'd' drifted from the intervals{where}: "
            f"carried {carried}, derived {derived}")


def _validate_codes(codes: np.ndarray, where: str) -> None:
    """Every distinct code names a label of the dictionary and carries
    that label's kind in its low two bits."""
    for code in np.unique(codes).tolist():
        label = _label_of.get(code)
        if label is None:
            raise ExecutionError(
                f"column 'c' drifted{where}: code {code} names no label")
        if code & KIND_MASK != label_kind(label):
            raise ExecutionError(
                f"column 'c' drifted{where}: code {code} carries kind "
                f"{code & KIND_MASK}, its label {label!r} is of kind "
                f"{label_kind(label)}")


def validate_index(index: np.ndarray, context: str = "") -> None:
    """The environment index must be a one-dimensional int64 array of
    non-negative, strictly increasing numbers (a wrapped product shows
    as a negative or falling number) — one vector compare."""
    where = f" (after {context})" if context else ""
    if not isinstance(index, np.ndarray) or index.dtype != np.int64 \
            or index.ndim != 1:
        raise ExecutionError(
            f"environment index is a {type(index).__name__}, not a "
            f"one-dimensional int64 array{where}")
    if len(index) and index[0] < 0:
        raise ExecutionError(
            f"environment index starts below 0{where}: {int(index[0])}")
    falls = np.flatnonzero(index[1:] <= index[:-1])
    if len(falls):
        at = int(falls[0])
        raise ExecutionError(
            f"environment index not strictly increasing{where}: "
            f"{int(index[at])} then {int(index[at + 1])}")
