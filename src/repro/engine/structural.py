"""Structural comparison operators over interval streams.

``deep_compare`` is Algorithm 5.3 of the paper: a single linear pass over
two document-ordered tuple streams that decides the structural order of
the encoded forests using a stack bounded by document depth.  It never
inspects absolute coordinates — only their relative nesting — so it works
on non-tight encodings directly.

(The paper's pseudo-code contains two typos which this implementation
fixes: the termination test reads ``TR==null && TR==NULL`` where the first
operand must be ``TL``, and the ancestor-popping loop condition uses ``<``
where the intended comparison — "the node has moved past the saved right
endpoint" — is ``>``.)

``canonical_key`` produces a hashable total-order key for a forest: the
DFS sequence of ``(depth, label)`` pairs.  Tuple comparison of such keys
coincides with ``deep_compare`` (greater depth at the first difference
means a *present* sibling where the other forest already closed its
ancestor, hence greater), which the property-based tests verify.  Keys
order ``sort`` and ``Less``; what only needs *equality* — joins,
``distinct``, ``Equal`` / ``SomeEqual`` — compares the integer span ids
of :func:`repro.engine.kernels.span_ids`, which these keys are the
reference for.
"""

from __future__ import annotations

from typing import Sequence

from repro.encoding.interval import IntervalTuple

#: A canonical structural key: DFS sequence of (depth, label) pairs.
StructuralKey = tuple[tuple[int, str], ...]

LESS = -1
EQUAL = 0
GREATER = 1


def deep_compare(left: Sequence[IntervalTuple],
                 right: Sequence[IntervalTuple]) -> int:
    """Algorithm 5.3: three-way structural comparison of two encoded forests.

    Both inputs must be sorted by left endpoint.  Runs in time linear in
    the smaller forest with stack space bounded by document depth.
    """
    stack: list[tuple[int, int]] = []  # saved (left_r, right_r) pairs
    left_pos = 0
    right_pos = 0
    while True:
        left_row = left[left_pos] if left_pos < len(left) else None
        right_row = right[right_pos] if right_pos < len(right) else None
        left_pos += 1
        right_pos += 1
        if left_row is None and right_row is None:
            return EQUAL
        if left_row is None:
            return LESS
        if right_row is None:
            return GREATER
        # Pop ancestors that both nodes have moved past; if only one stream
        # left the saved ancestor, the other stream has an extra sibling
        # inside it, making that forest greater ("missing sibling" check).
        while stack and (left_row[2] > stack[-1][0] or right_row[2] > stack[-1][1]):
            if left_row[2] <= stack[-1][0]:
                return GREATER  # right exited, left still inside
            if right_row[2] <= stack[-1][1]:
                return LESS  # left exited, right still inside
            stack.pop()
        if left_row[0] != right_row[0]:
            return LESS if left_row[0] < right_row[0] else GREATER
        stack.append((left_row[2], right_row[2]))


def canonical_key(block: Sequence[IntervalTuple]) -> StructuralKey:
    """The (depth, label) DFS key of an encoded forest — one linear pass."""
    key: list[tuple[int, str]] = []
    open_rights: list[int] = []
    for s, l, r in block:
        while open_rights and open_rights[-1] < l:
            open_rights.pop()
        key.append((len(open_rights), s))
        open_rights.append(r)
    return tuple(key)


def tree_keys(block: Sequence[IntervalTuple]) -> list[StructuralKey]:
    """Canonical keys of each top-level tree of an environment block."""
    from repro.engine.relation import tree_slices

    return [canonical_key(slice_) for slice_ in tree_slices(block)]


def forests_equal(left: Sequence[IntervalTuple],
                  right: Sequence[IntervalTuple]) -> bool:
    """Structural equality of two encoded forests."""
    return deep_compare(left, right) == EQUAL
