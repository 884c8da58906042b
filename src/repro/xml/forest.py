"""The XF data model: ordered forests of rooted, node-labeled, ordered trees.

Definition 2.1 of the paper defines XML forests inductively:

    XF = [] | [ <s> XF </s> ] | XF @ XF

A forest is represented here as a plain Python ``tuple`` of :class:`Node`
values; the empty forest is the empty tuple.  Nodes are immutable so that
forests can be shared freely between environments during query evaluation,
hashed for memoization, and used as dictionary keys.

The module also defines *structural* comparison of trees and forests
(the ``equal`` and ``less`` primitives of Figure 2).  Structural order is
the recursive lexicographic order:

* trees compare by label first, then by their children forests;
* forests compare tree-by-tree, a strict prefix being smaller.

This order coincides with what Algorithm 5.3 (``DeepCompare``) computes
over interval encodings; the engine decides it with the collation-ranked
byte keys of :func:`repro.engine.kernels.collation_keys`, and the
equivalence is exercised by property-based tests.
"""

from __future__ import annotations

import threading
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.xml.labels import (
    ATTRIBUTE,
    ATTRIBUTE_PREFIX,
    ELEMENT,
    ELEMENT_PREFIX,
    TEXT,
    _label_of,
    adopt_labels,
    label_codes,
    label_kind,
)

#: A forest is a tuple of nodes; this alias documents intent in signatures.
Forest = tuple["Node", ...]

EMPTY_FOREST: Forest = ()


class Node:
    """A single rooted, ordered, node-labeled tree.

    ``label`` follows the paper's conventions: ``"<tag>"`` for elements,
    ``"@name"`` for attributes, and the raw string for text nodes.
    ``children`` is an ordered forest (tuple of nodes).
    """

    __slots__ = ("label", "children", "_hash", "_size")

    def __init__(self, label: str, children: Iterable["Node"] = ()):
        if not isinstance(label, str):
            raise TypeError(f"node label must be a string, got {type(label).__name__}")
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "children", tuple(children))
        for child in self.children:
            if not isinstance(child, Node):
                raise TypeError(
                    f"children must be Node instances, got {type(child).__name__}"
                )
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_size", None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Node instances are immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError("Node instances are immutable")

    def __reduce__(self):
        # Immutable slots + a raising __setattr__ break default pickling;
        # rebuild through the constructor instead.  (Pickling recurses per
        # level, so kilometre-deep pathological trees may still exceed the
        # pickler's limits — real documents are shallow.)
        return (Node, (self.label, self.children))

    # -- structural identity ------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Node):
            return NotImplemented
        # Iterative comparison: document depth must not be limited by the
        # Python recursion limit (tests exercise 5000-deep documents).
        stack: list[tuple[Node, Node]] = [(self, other)]
        while stack:
            left, right = stack.pop()
            if left is right:
                continue
            if left.label != right.label:
                return False
            if len(left.children) != len(right.children):
                return False
            stack.extend(zip(left.children, right.children))
        return True

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __hash__(self) -> int:
        cached = self._hash
        if cached is None:
            # Iterative post-order so deep documents hash without hitting
            # the recursion limit; each node's hash is cached on the way up.
            stack: list[tuple[Node, bool]] = [(self, False)]
            while stack:
                node, ready = stack.pop()
                if node._hash is not None:
                    continue
                if ready:
                    child_hashes = tuple(c._hash for c in node.children)
                    object.__setattr__(
                        node, "_hash", hash((node.label, child_hashes))
                    )
                else:
                    stack.append((node, True))
                    stack.extend((c, False) for c in node.children)
            cached = self._hash
        return cached

    # -- structural order ---------------------------------------------------

    def __lt__(self, other: "Node") -> bool:
        if not isinstance(other, Node):
            return NotImplemented
        return compare_trees(self, other) < 0

    def __le__(self, other: "Node") -> bool:
        if not isinstance(other, Node):
            return NotImplemented
        return compare_trees(self, other) <= 0

    def __gt__(self, other: "Node") -> bool:
        if not isinstance(other, Node):
            return NotImplemented
        return compare_trees(self, other) > 0

    def __ge__(self, other: "Node") -> bool:
        if not isinstance(other, Node):
            return NotImplemented
        return compare_trees(self, other) >= 0

    # -- introspection ------------------------------------------------------

    @property
    def size(self) -> int:
        """Total number of nodes in this tree (including this node)."""
        cached = self._size
        if cached is None:
            cached = sum(1 for _ in self.iter_dfs())
            object.__setattr__(self, "_size", cached)
        return cached

    @property
    def depth(self) -> int:
        """Height of this tree: 1 for a leaf."""
        deepest = 1
        stack: list[tuple[Node, int]] = [(self, 1)]
        while stack:
            node, level = stack.pop()
            if level > deepest:
                deepest = level
            stack.extend((child, level + 1) for child in node.children)
        return deepest

    def is_element(self) -> bool:
        """True if this node's label denotes an element tag."""
        return is_element_label(self.label)

    def is_attribute(self) -> bool:
        """True if this node's label denotes an attribute."""
        return is_attribute_label(self.label)

    def is_text(self) -> bool:
        """True if this node is a text (CDATA) node."""
        return is_text_label(self.label)

    @property
    def tag(self) -> str:
        """The bare element tag (without angle brackets).

        Raises ``ValueError`` for non-element nodes.
        """
        if not self.is_element():
            raise ValueError(f"node {self.label!r} is not an element")
        return self.label[1:-1]

    @property
    def attribute_name(self) -> str:
        """The bare attribute name (without the ``@`` prefix)."""
        if not self.is_attribute():
            raise ValueError(f"node {self.label!r} is not an attribute")
        return self.label[1:]

    def iter_dfs(self) -> Iterator["Node"]:
        """Yield all nodes of this tree in document (depth-first) order."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def string_value(self) -> str:
        """The XPath string value: concatenated text descendants in order."""
        parts = [n.label for n in self.iter_dfs() if n.is_text()]
        return "".join(parts)

    def __repr__(self) -> str:
        if not self.children:
            return f"Node({self.label!r})"
        return f"Node({self.label!r}, {list(self.children)!r})"


# -- constructors -----------------------------------------------------------


def element(tag: str, children: Iterable[Node] = ()) -> Node:
    """Build an element node; ``tag`` is the bare tag name."""
    if tag.startswith(ELEMENT_PREFIX):
        raise ValueError(f"tag must not include angle brackets: {tag!r}")
    return Node(f"<{tag}>", children)


def attribute(name: str, value: str) -> Node:
    """Build an attribute node ``@name`` holding a single text child."""
    if name.startswith(ATTRIBUTE_PREFIX):
        raise ValueError(f"attribute name must not include '@': {name!r}")
    return Node(f"@{name}", (Node(value),))


def text(value: str) -> Node:
    """Build a text node whose label is the raw character data."""
    return Node(value)


def forest(*nodes: Node) -> Forest:
    """Build a forest from the given trees (convenience constructor)."""
    return tuple(nodes)


# -- label classification ----------------------------------------------------


def is_element_label(label: str) -> bool:
    """True if ``label`` follows the ``"<tag>"`` element convention."""
    return label_kind(label) == ELEMENT


def is_attribute_label(label: str) -> bool:
    """True if ``label`` follows the ``"@name"`` attribute convention."""
    return label_kind(label) == ATTRIBUTE


def is_text_label(label: str) -> bool:
    """True if ``label`` is raw character data (neither element nor attribute)."""
    return label_kind(label) == TEXT


# -- structural comparison ----------------------------------------------------


def compare_trees(left: Node, right: Node) -> int:
    """Three-way structural comparison of two trees.

    Returns a negative number, zero, or a positive number as ``left`` is
    structurally smaller than, equal to, or greater than ``right``.
    """
    if left is right:
        return 0
    return compare_forests((left,), (right,))


def _dfs_pairs(trees: Forest) -> Iterator[tuple[int, str]]:
    """The (depth, label) DFS stream that canonically encodes a forest."""
    stack: list[tuple[Node, int]] = [(node, 0) for node in reversed(trees)]
    while stack:
        node, depth = stack.pop()
        yield depth, node.label
        stack.extend((child, depth + 1) for child in reversed(node.children))


# -- preorder form -------------------------------------------------------------

#: Serializes the first-touch tree build of every :class:`PreorderForest`
#: (one lock for all: a result is built at most once, rarely contended).
_build_lock = threading.Lock()


class PreorderForest:
    """A forest as its preorder stream of label codes and depths.

    Three parallel int32 arrays in document order, roots at depth 0:

    ``c``    each row's label code (:mod:`repro.xml.labels`: kind in the
             low two bits, the label's id in the process-wide dictionary
             above them);
    ``d``    each row's depth — with ``c``, the canonical stream of
             :func:`_dfs_pairs`, which determines the forest;
    ``end``  the last row of each row's subtree.

    This is how a result leaves the DI engine
    (:func:`repro.encoding.interval.decode` on columns, which copies
    ``c`` and ``d`` out of the relation — so a result pins no document
    and no shared-memory segment — and reads ``end`` off the endpoint
    sort it checks the encoding with).  The serializer emits XML from
    the arrays and its per-label piece tables; :attr:`parent` is derived
    from ``d`` when it asks for it.

    A forest that crossed a process boundary arrives as its
    distinct-label table and each row's position in it; the table is
    adopted into this process's dictionary (once per distinct label)
    the first time ``c`` is read, so reading only :attr:`labels` or the
    trees never grows the dictionary.

    Read as a :data:`Forest` it behaves like the tuple of trees it
    denotes — ``len`` is the number of roots; iteration, indexing, ``==``
    against a tuple and ``hash`` go through :meth:`trees`, which builds
    the :class:`Node` trees once, on first touch.
    """

    __slots__ = ("d", "end", "_c", "_shipped", "_parent", "_roots",
                 "_labels", "_trees")

    def __init__(self, c: np.ndarray, d: np.ndarray, end: np.ndarray):
        self._c = c
        self.d = d
        self.end = end
        #: ``(labels, codes, positions)`` of a forest another process sent.
        self._shipped: tuple | None = None
        self._parent: np.ndarray | None = None
        self._roots = int(np.count_nonzero(d == 0))
        self._labels: list[str] | None = None
        self._trees: Forest | None = None

    @classmethod
    def from_lists(cls, labels: Sequence[str],
                   depths: Sequence[int]) -> "PreorderForest":
        """The preorder form of a ``(labels, depths)`` stream, its labels
        interned (``depths`` must be a valid preorder depth sequence)."""
        return cls(label_codes(labels), np.array(depths, dtype=np.int32),
                   np.array(tree_links(depths)[0], dtype=np.int32))

    @property
    def c(self) -> np.ndarray:
        """Each row's label code in this process's dictionary."""
        c = self._c
        if c is None:
            labels, codes, positions = self._shipped
            local = np.array(adopt_labels(labels, codes.tolist()),
                             dtype=np.int32)
            c = self._c = local[positions]
        return c

    @property
    def parent(self) -> np.ndarray:
        """Each row's parent row, ``-1`` for a root (derived once)."""
        parent = self._parent
        if parent is None:
            parent = self._parent = parent_rows(self.d)
        return parent

    @property
    def labels(self) -> list[str]:
        """The rows' labels as a list of strings (built once)."""
        labels = self._labels
        if labels is None:
            if self._c is None:
                table, _codes, positions = self._shipped
                labels = list(map(table.__getitem__, positions.tolist()))
            else:
                labels = list(map(_label_of.__getitem__, self._c.tolist()))
            self._labels = labels
        return labels

    @property
    def depths(self) -> list[int]:
        """The rows' depths as a list of ints."""
        return self.d.tolist()

    def __reduce__(self):
        # What crosses a pipe: the distinct labels with their codes and
        # each row's position among them; integers as bytes, so no array
        # is pickled.
        if self._c is None:
            labels, codes, positions = self._shipped
        else:
            codes, positions = np.unique(self._c, return_inverse=True)
            labels = list(map(_label_of.__getitem__, codes.tolist()))
        return (_arrived, (labels, codes.astype(np.int32).tobytes(),
                           positions.astype(np.int32).tobytes(),
                           self.d.tobytes(), self.end.tobytes()))

    def trees(self) -> Forest:
        """The forest as a real tuple of :class:`Node` trees (cached)."""
        built = self._trees
        if built is None:
            with _build_lock:
                built = self._trees
                if built is None:
                    built = self._trees = build_trees(self.labels,
                                                      self.depths)
        return built

    def __len__(self) -> int:
        return self._roots

    def __iter__(self) -> Iterator[Node]:
        return iter(self.trees())

    def __getitem__(self, item):
        return self.trees()[item]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PreorderForest):
            return (np.array_equal(self.d, other.d)
                    and self.labels == other.labels)
        if isinstance(other, tuple):
            return self.trees() == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.trees())

    def __repr__(self) -> str:
        return (f"PreorderForest({self._roots} trees, "
                f"{len(self.d)} nodes)")


def _arrived(labels: list[str], codes: bytes, positions: bytes, d: bytes,
             end: bytes) -> PreorderForest:
    """Unpickle a :class:`PreorderForest` (another process's codes)."""
    forest = PreorderForest(None, np.frombuffer(d, dtype=np.int32),
                            np.frombuffer(end, dtype=np.int32))
    forest._shipped = (labels, np.frombuffer(codes, dtype=np.int32),
                       np.frombuffer(positions, dtype=np.int32))
    return forest


def tree_links(depths: Sequence[int]) -> tuple[list[int], list[int]]:
    """Each row's subtree end and parent row (``-1`` for a root), from a
    preorder depth list, in one sweep with the open rows on a stack.

    For a forest of nodes, which is walked node by node anyway; a
    decoded result has its ends from :func:`repro.encoding.interval.decode`
    and its parents from :func:`parent_rows`.
    """
    ends = list(range(len(depths)))
    parents: list[int] = []
    opened: list[int] = []
    for row, depth in enumerate(depths):
        while len(opened) > depth:
            ends[opened.pop()] = row - 1
        parents.append(opened[-1] if opened else -1)
        opened.append(row)
    for row in opened:
        ends[row] = len(depths) - 1
    return ends, parents


def parent_rows(d: np.ndarray) -> np.ndarray:
    """Each row's parent row (``-1`` for a root), from a preorder depth
    column.

    Sorted by depth (stably, so in document order at each depth), a
    node's children are one run, opened by a first child — a row one
    deeper than the row before it, which is the parent.
    """
    count = len(d)
    by_depth = np.argsort(d, kind="stable")
    first_child = np.zeros(count, dtype=np.bool_)
    first_child[1:] = d[1:] > d[:-1]
    run = np.where(first_child[by_depth], np.arange(count), 0)
    np.maximum.accumulate(run, out=run)
    parent = np.empty(count, dtype=np.intp)
    # Roots sort first and no first child is among them: run 0, row 0.
    parent[by_depth] = by_depth[run] - 1
    return parent


def preorder(trees: "Forest | PreorderForest") -> tuple[list[str], list[int]]:
    """The parallel ``(labels, depths)`` lists of a forest, in document order."""
    if isinstance(trees, PreorderForest):
        return trees.labels, trees.depths
    labels: list[str] = []
    depths: list[int] = []
    # One iterator per open level: a node with children suspends its
    # level's iterator and opens the next one.
    levels = [iter(trees)]
    while levels:
        depth = len(levels) - 1
        for node in levels[-1]:
            labels.append(node.label)
            depths.append(depth)
            if node.children:
                levels.append(iter(node.children))
                break
        else:
            levels.pop()
    return labels, depths


def build_trees(labels: Sequence[str], depths: Sequence[int]) -> Forest:
    """Build the :class:`Node` trees of a preorder stream (one stack sweep).

    The only place a decoded relation becomes nodes.  ``depths`` must be
    a valid preorder depth sequence (first 0, each at most one deeper
    than its predecessor) — :func:`~repro.encoding.interval.decode`
    establishes that before handing the lists over.
    """
    top: list[Node] = []
    # One entry per open node: (label, children collected so far); an
    # entry's position is its depth.
    stack: list[tuple[str, list[Node]]] = []

    def close() -> None:
        label, children = stack.pop()
        (stack[-1][1] if stack else top).append(Node(label, children))

    for label, depth in zip(labels, depths):
        while len(stack) > depth:
            close()
        stack.append((label, []))
    while stack:
        close()
    return tuple(top)


def compare_forests(left: Forest, right: Forest) -> int:
    """Three-way structural comparison of two forests (Figure 2 ``less``).

    Equivalent to the recursive lexicographic order (label first, then
    children forests, a prefix sorting smaller) but computed iteratively by
    comparing the canonical (depth, label) DFS streams: at the first
    difference, greater depth means an extra sibling inside an ancestor the
    other forest already closed — hence a *greater* forest — and equal
    depths fall back to label order.
    """
    import itertools

    for left_pair, right_pair in itertools.zip_longest(
        _dfs_pairs(left), _dfs_pairs(right)
    ):
        if left_pair == right_pair:
            continue
        if left_pair is None:
            return -1
        if right_pair is None:
            return 1
        return -1 if left_pair < right_pair else 1
    return 0


def forest_size(trees: Forest) -> int:
    """Total number of nodes across all trees of the forest."""
    return sum(tree.size for tree in trees)


def forest_depth(trees: Forest) -> int:
    """Maximum tree height in the forest (0 for the empty forest)."""
    if not trees:
        return 0
    return max(tree.depth for tree in trees)


def iter_forest_dfs(trees: Forest) -> Iterator[Node]:
    """Yield every node of the forest in document order."""
    for tree in trees:
        yield from tree.iter_dfs()


def string_value(trees: Forest) -> str:
    """Concatenated string value of all trees in the forest."""
    return "".join(tree.string_value() for tree in trees)
