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

from typing import Iterable, Sequence

from repro.errors import EncodingError
from repro.xml.forest import Forest, Node

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


def encode_columns(trees: Forest | Node, start: int = 0):
    """Encode straight into columnar form: ``(IntervalColumns, width)``.

    Same DFS counter scheme as :func:`encode`, but the triples land
    directly in the columns the DI engine operates on — no intermediate
    tuple list, no re-copy when the encoding is cached — and the walk
    records each node's depth on the way, so the engine's ``d`` column
    costs one append per node and ``c`` one dictionary lookup.
    """
    from repro.engine.columns import IntervalColumns

    if isinstance(trees, Node):
        trees = (trees,)
    labels: list[str] = []
    lefts: list[int] = []
    rights: list[int] = []
    depths: list[int] = []
    counter = start
    # Entries are (node, depth) on the way down and (None, row) on the
    # way back up.
    stack: list[tuple[Node | None, int]] = [
        (tree, 0) for tree in reversed(trees)]
    while stack:
        node, value = stack.pop()
        if node is None:
            rights[value] = counter
            counter += 1
            continue
        stack.append((None, len(labels)))
        labels.append(node.label)
        lefts.append(counter)
        rights.append(-1)
        depths.append(value)
        counter += 1
        value += 1
        for child in reversed(node.children):
            stack.append((child, value))
    columns = IntervalColumns.from_lists(labels, lefts, rights, depths)
    return columns, (counter if counter > start else start)


def decode(encoded: EncodedForest | Sequence[IntervalTuple]) -> Forest:
    """Decode an interval relation back into an XF forest.

    Accepts any valid (possibly non-tight) encoding: only the relative order
    and nesting of intervals matter.  Raises :class:`EncodingError` on
    overlapping intervals.
    """
    rows = list(encoded.tuples if isinstance(encoded, EncodedForest) else encoded)
    rows.sort(key=lambda row: row[1])
    top: list[Node] = []
    # Stack of (right endpoint, label, children collected so far).
    stack: list[tuple[int, str, list[Node]]] = []
    for label, left, right in rows:
        if left >= right:
            raise EncodingError(f"interval for {label!r} has l >= r ({left} >= {right})")
        while stack and stack[-1][0] < left:
            _close_top(stack, top)
        if stack and right > stack[-1][0]:
            raise EncodingError(
                f"interval for {label!r} [{left},{right}] overlaps its parent"
            )
        stack.append((right, label, []))
    while stack:
        _close_top(stack, top)
    return tuple(top)


def _close_top(stack: list[tuple[int, str, list[Node]]], top: list[Node]) -> None:
    _, label, children = stack.pop()
    node = Node(label, children)
    if stack:
        stack[-1][2].append(node)
    else:
        top.append(node)


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
