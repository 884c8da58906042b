"""Interval encoding of XML forests (Definition 3.1, Example 3.2).

A forest is encoded as a set of triples ``(s, l, r)`` — one per node — such
that

* ``l < r`` for every triple,
* ancestors strictly bracket descendants (``l_anc < l_desc`` and
  ``r_desc < r_anc``), and
* a left sibling closes before its right sibling opens (``r_1 < l_2``).

A *width* ``w`` is any value strictly greater than every right endpoint.
Widths need not be tight; the SQL translation relies on that freedom to
allocate compile-time widths (Section 4.3).

The canonical encoder below implements Example 3.2: a depth-first traversal
with a single incrementing counter assigning ``l`` on entry and ``r`` on
exit, which reproduces Figure 4 of the paper exactly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.errors import EncodingError
from repro.xml.forest import (
    Forest,
    Node,
    PreorderForest,
    build_trees,
    preorder,
)

if TYPE_CHECKING:  # pragma: no cover - engine.columns imports this module
    from repro.engine.columns import IntervalColumns

#: One encoded node: (label, left endpoint, right endpoint).
IntervalTuple = tuple[str, int, int]


class EncodedForest:
    """An interval-encoded forest: tuples in document order plus a width.

    ``tuples`` are kept sorted by left endpoint — document order — which is
    the representation invariant every physical operator of the DI engine
    relies upon (Section 5).
    """

    __slots__ = ("tuples", "width")

    def __init__(self, tuples: Iterable[IntervalTuple], width: int, *, sort: bool = True):
        rows = list(tuples)
        if sort:
            rows.sort(key=lambda row: row[1])
        self.tuples: list[IntervalTuple] = rows
        self.width = int(width)

    def __len__(self) -> int:
        return len(self.tuples)

    def __iter__(self):
        return iter(self.tuples)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EncodedForest):
            return NotImplemented
        return self.tuples == other.tuples and self.width == other.width

    def __repr__(self) -> str:
        return f"EncodedForest({len(self.tuples)} tuples, width={self.width})"

    def labels(self) -> list[str]:
        """Node labels in document order."""
        return [row[0] for row in self.tuples]

    def max_right(self) -> int:
        """The largest right endpoint (-1 for an empty encoding)."""
        if not self.tuples:
            return -1
        return max(row[2] for row in self.tuples)

    def shifted(self, offset: int) -> "EncodedForest":
        """A copy with every interval shifted by ``offset`` (width unchanged)."""
        return EncodedForest(
            [(s, l + offset, r + offset) for (s, l, r) in self.tuples],
            self.width,
            sort=False,
        )

    def validate(self) -> None:
        """Raise :class:`EncodingError` unless Definition 3.1 holds."""
        validate_encoding(self.tuples, self.width)

    def decode(self) -> Forest:
        """Rebuild the XF forest this relation encodes."""
        return decode(self)


def encode(trees: Forest | Node, start: int = 0) -> EncodedForest:
    """Encode a forest using the DFS counter scheme of Example 3.2.

    ``start`` is the initial counter value (0 reproduces Figure 4).  The
    resulting width is ``start + 2 * node_count`` — one counter tick per
    interval endpoint.
    """
    if isinstance(trees, Node):
        trees = (trees,)
    rows: list[IntervalTuple] = []
    counter = start
    # Iterative DFS with explicit post-visit actions so deep documents do
    # not hit Python's recursion limit.
    stack: list[tuple[Node, int | None]] = [(tree, None) for tree in reversed(trees)]
    while stack:
        node, row_index = stack.pop()
        if row_index is not None:
            # Post-visit: assign the right endpoint.
            label, left, _ = rows[row_index]
            rows[row_index] = (label, left, counter)
            counter += 1
            continue
        rows.append((node.label, counter, -1))
        counter += 1
        stack.append((node, len(rows) - 1))
        for child in reversed(node.children):
            stack.append((child, None))
    return EncodedForest(rows, counter if counter > start else start, sort=False)


def encode_columns(trees: Forest | Node):
    """Encode straight into columnar form: ``(IntervalColumns, width)``.

    The numbering of :func:`encode` from the forest's preorder stream
    (:meth:`~repro.engine.columns.IntervalColumns.from_preorder`) — the
    same builder the text reader feeds, so a document read from text and
    the same trees encoded here are equal column for column.
    """
    from repro.engine.columns import IntervalColumns

    return IntervalColumns.from_preorder(
        *preorder((trees,) if isinstance(trees, Node) else trees))


def decode(encoded: "EncodedForest | Sequence[IntervalTuple] | IntervalColumns"
           ) -> "Forest | PreorderForest":
    """Decode an interval relation back into an XF forest.

    Accepts any valid (possibly non-tight) encoding: only the relative order
    and nesting of intervals matter.  Raises :class:`EncodingError` on
    degenerate (``l >= r``) or partially overlapping intervals.

    Tuple rows (in any order) come back as a tuple of :class:`Node` trees.
    An :class:`~repro.engine.columns.IntervalColumns` — an engine or SQL
    result — is checked column-wise (:func:`validate_columns`) and comes
    back in *preorder form*
    (:class:`~repro.xml.forest.PreorderForest`): its label codes, depths
    and subtree ends as int32 arrays, no label string or node built
    until a caller asks for one.
    """
    from repro.engine.columns import IntervalColumns

    if isinstance(encoded, IntervalColumns):
        return PreorderForest(encoded.c.astype(np.int32),
                              encoded.d.astype(np.int32),
                              validate_columns(encoded))
    rows = sorted(encoded.tuples if isinstance(encoded, EncodedForest)
                  else encoded, key=lambda row: row[1])
    labels: list[str] = []
    depths: list[int] = []
    # Right endpoints of the open ancestors; its length is the depth.
    open_rights: list[int] = []
    for label, left, right in rows:
        if left >= right:
            raise EncodingError(f"interval for {label!r} has l >= r ({left} >= {right})")
        while open_rights and open_rights[-1] < left:
            open_rights.pop()
        if open_rights and right > open_rights[-1]:
            raise EncodingError(
                f"interval for {label!r} [{left},{right}] overlaps its parent"
            )
        labels.append(label)
        depths.append(len(open_rights))
        open_rights.append(right)
    return build_trees(labels, depths)


def validate_columns(rel: "IntervalColumns") -> np.ndarray:
    """The checks of :func:`decode` as vector compares on the columns;
    returns each row's subtree end (its last descendant's row).

    Sorted by value, the 2n endpoints of a valid encoding *are* the tag
    stream of the serialized forest (Example 3.2: ``l`` on entry, ``r`` on
    exit of one DFS): every interval must close at the nesting level it
    opened at, and that level is the row's depth.  The serializer trusts
    the carried ``d`` column, so besides the two checks the row sweep
    makes, document order and ``d`` itself are verified here — an engine
    result's, an SQL result's (whose ``d`` the translation's templates
    compute), an inserted run's.  The same stream gives each row's
    subtree end: the last row opened before the row closes.
    """
    l, r, d = rel.l, rel.r, rel.d
    count = len(l)

    def fail(row: int, problem: str) -> None:
        raise EncodingError(f"interval for {rel[row][0]!r} "
                            f"[{l[row]},{r[row]}] {problem}")

    bad = l >= r
    if bad.any():
        fail(bad.argmax(), "has l >= r")
    bad = l[1:] <= l[:-1]
    if bad.any():
        fail(bad.argmax() + 1, "is out of document order")
    # Opens (the first half) sort before closes of equal value, the way
    # the row sweep keeps an interval open while r >= the next l.
    order = np.argsort(np.concatenate((l, r)), kind="stable")
    opens = order < count
    level = np.cumsum(np.where(opens, 1, -1))
    # l ascends, so the opens are met in row order.
    opened = level[opens]
    closes = ~opens
    closing = order[closes] - count
    shut = level[closes]
    bad = shut != opened[closing] - 1
    if bad.any():
        fail(closing[bad.argmax()], "partially overlaps another")
    bad = opened - 1 != d
    if bad.any():
        fail(bad.argmax(), "does not sit at the depth its d column carries")
    # After event k, (k + 1 + level) / 2 events were opens: at a close,
    # the last of them is the closing row's last descendant.
    end = np.empty(count, dtype=np.int32)
    end[closing] = (closes.nonzero()[0] + shut - 1) >> 1
    return end


def validate_encoding(rows: Sequence[IntervalTuple], width: int | None = None) -> None:
    """Check the Definition 3.1 constraints, raising :class:`EncodingError`.

    Every pair of intervals must be either disjoint or strictly nested, all
    endpoints must be distinct, and when ``width`` is given it must exceed
    every right endpoint.
    """
    ordered = sorted(rows, key=lambda row: row[1])
    seen_endpoints: set[int] = set()
    for label, left, right in ordered:
        if left >= right:
            raise EncodingError(f"interval for {label!r} has l >= r ({left} >= {right})")
        for endpoint in (left, right):
            if endpoint in seen_endpoints:
                raise EncodingError(f"duplicate interval endpoint {endpoint}")
            seen_endpoints.add(endpoint)
    # Sweep: maintain a stack of open right endpoints.
    open_rights: list[int] = []
    for label, left, right in ordered:
        while open_rights and open_rights[-1] < left:
            open_rights.pop()
        if open_rights and right > open_rights[-1]:
            raise EncodingError(
                f"interval for {label!r} [{left},{right}] partially overlaps another"
            )
        open_rights.append(right)
    if width is not None and ordered:
        max_right = max(row[2] for row in ordered)
        if width <= max_right:
            raise EncodingError(
                f"width {width} does not exceed maximum right endpoint {max_right}"
            )
