"""Updating interval-encoded documents (the paper's orthogonal concern).

Section 1 of the paper notes that updates to interval-encoded documents
are orthogonal to the query translation and handled by known labeling
techniques (its references [15, 16, 27]).  This module provides the
simplest sound member of that family — *gap-based relabeling*:

* encodings need not be tight (Definition 3.1), so inserting a subtree
  only requires enough unused integers between the insertion point's
  neighbouring endpoints;
* when the local gap is exhausted, the document is *spread*: re-encoded
  with a uniform stride so that every adjacent endpoint pair regains
  breathing room (amortizing future insertions).

Deletion never needs renumbering — dropping a subtree's tuples leaves a
valid (now gappy) encoding.

All operations return new :class:`UpdatableDocument` states; nothing is
mutated, matching the package's value semantics.  Each operation also
emits a typed :class:`UpdateDelta` — the O(affected-subtree) difference
between the old and new encodings.  The document is held as the engine
holds it, :class:`~repro.engine.columns.IntervalColumns`, and an edit's
new state is the engine's own ``splice_columns`` of its delta.  A commit
hands backends one :class:`DocumentUpdate`: the engine tiers adopt its
wrapped snapshot, and the relational adapter replays the deltas (ranged
SQL ``DELETE`` + batched ``INSERT``) instead of re-shredding the whole
document.  See ``docs/UPDATES.md``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from repro.encoding.interval import (
    EncodedForest,
    IntervalTuple,
    decode,
    encode_columns,
    validate_columns,
)
from repro.engine.columns import (
    ELEMENT,
    INT64_MAX,
    KIND_MASK,
    IntervalColumns,
    name_code,
    splice_columns,
)
from repro.errors import EncodingError, WidthOverflowError
from repro.xml.forest import Forest, Node
from repro.xml.labels import DOCUMENT_LABEL

#: Default spread stride: integers of slack left after each endpoint.
DEFAULT_STRIDE = 16
_MAX_SPREAD_STRIDE = 4096  # stride-doubling cap: bounds label growth

#: Process-wide revision ids for updatable documents.  Unique across all
#: documents, so a backend comparing its recorded revision against a
#: delta's base revision can never be fooled by two unrelated update
#: chains that happen to share a counter value.
_REVISIONS = itertools.count(1)


@dataclass(frozen=True)
class UpdateStats:
    """What an update did (for tests and instrumentation)."""

    inserted_nodes: int = 0
    deleted_nodes: int = 0
    relabeled: bool = False


@dataclass(frozen=True)
class UpdateDelta:
    """The difference one update made, in O(affected-subtree) form.

    ``deleted_ranges`` holds inclusive ``(lo, hi)`` left-endpoint bounds:
    a deleted subtree rooted at ``(l, r)`` contributes the range
    ``(l, r)``, and every deleted row satisfies ``lo <= row.l <= hi``
    (descendants open strictly inside the root's interval) — which is
    exactly the predicate of a ranged SQL ``DELETE`` and of a
    ``bisect``-bounded columnar splice.  ``inserted`` is one contiguous
    run of new rows (gap-based placement never interleaves new rows with
    existing endpoints), an :class:`IntervalColumns` whose ``d`` is each
    row's *true* depth in the result document and whose ``c`` codes its
    label, so appliers splice it as it is.  ``deleted_rows`` counts the
    rows the ranges remove.

    A spread (``relabeled=True``) moves every endpoint, so the delta
    carries no incremental information and appliers must rebase from the
    update's full snapshot.
    """

    inserted: IntervalColumns = field(default_factory=IntervalColumns.empty)
    deleted_ranges: tuple[tuple[int, int], ...] = ()
    deleted_rows: int = 0
    old_width: int = 0
    new_width: int = 0
    relabeled: bool = False

    @property
    def incremental(self) -> bool:
        """Whether appliers can splice (no relabel, width preserved).

        A width change would also move the enclosing document-node row
        of the backends' wrapped encodings, so it forces a rebase too —
        it only happens when appending top-level trees past the current
        width, or on a spread.
        """
        return not self.relabeled and self.old_width == self.new_width

    @property
    def size(self) -> int:
        """Affected rows (delta \"size\" on flight-recorder records)."""
        return len(self.inserted) + self.deleted_rows

    def wrapped(self) -> "UpdateDelta":
        """The delta in *document-wrapped* coordinates.

        Backends bind ``document(uri)`` to the forest wrapped in one
        document node (:func:`repro.xquery.lowering.document_forest`), so
        their encodings are the updatable encoding wrapped the same way
        (:meth:`DocumentUpdate.columns`): every endpoint shifted by +1
        under a document-node row spanning ``[0, width + 1]``.  The same
        fixed shift maps a delta (placement leaves the room for it:
        :func:`_place_rows`).
        """
        new = self.inserted
        return UpdateDelta(
            inserted=IntervalColumns(new.l + 1, new.r + 1, new.d + 1, new.c),
            deleted_ranges=tuple((lo + 1, hi + 1)
                                 for (lo, hi) in self.deleted_ranges),
            deleted_rows=self.deleted_rows,
            old_width=self.old_width + 2,
            new_width=self.new_width + 2,
            relabeled=self.relabeled,
        )


@dataclass(frozen=True)
class DeltaSpine:
    """Where one edit meets the snapshots either side of it.

    ``codes`` are the label codes of the *spine*: the edit point's
    ancestors, plus the inserted rows or the deleted rows — every row
    whose subtree gained or lost rows.  The old snapshot's rows
    ``[start, stop)`` are the deleted ones (none for an insert, where
    ``start == stop`` is the insertion row), and every old row from
    ``stop`` on sits ``shift`` rows further in the new snapshot.  Gap
    placement leaves every surviving row's ``(l, r, d, c)`` as it was.
    """

    codes: frozenset[int]
    start: int
    stop: int
    shift: int

    @classmethod
    def of(cls, delta: UpdateDelta, before: IntervalColumns,
           after: IntervalColumns) -> "DeltaSpine | None":
        """The spine of ``delta`` between the wrapped snapshots ``before``
        and ``after``; ``None`` unless the delta is one incremental insert
        or one subtree deletion (or nothing at all)."""
        if not delta.incremental or (delta.inserted and delta.deleted_ranges):
            return None
        if delta.inserted:
            low = int(delta.inserted.l[0])
            start = int(before.l.searchsorted(low))
            stop, shift = start, len(delta.inserted)
            edited = after.c[start:start + shift]
        elif len(delta.deleted_ranges) == 1:
            (low, _high), = delta.deleted_ranges
            start = int(before.l.searchsorted(low))
            stop = start + delta.deleted_rows
            shift = start - stop
            edited = before.c[start:stop]
        elif not delta.deleted_ranges:
            return cls(frozenset(), len(before), len(before), 0)
        else:
            return None
        # The ancestors open before the edit and close after it (nesting:
        # a row that opens before ``low`` and closes past it encloses it).
        above = before.c[:start][before.r[:start] > low]
        return cls(frozenset(np.concatenate((above, edited)).tolist()),
                   start, stop, shift)


class Snapshot(tuple):
    """A committed document's wrapped snapshot ``(columns, width)``,
    unpacked like any other, that also carries the ``revision`` of the
    commit it is.  A backend first prepared from it holds that revision,
    so the next commit, whose deltas start there, is one it can replay
    (SQLite's :class:`~repro.backends.deltalog.DeltaLog`) or carry its
    memo across (the engine's :class:`~repro.engine.memo.DocumentMemo`).
    """

    revision: int

    def __new__(cls, columns: IntervalColumns, width: int,
                revision: int) -> "Snapshot":
        snapshot = super().__new__(cls, (columns, width))
        snapshot.revision = revision
        return snapshot


def snapshot_revision(value: tuple) -> int | None:
    """The commit revision a prepared ``(columns, width)`` is, or
    ``None`` for a document as loaded."""
    return value.revision if isinstance(value, Snapshot) else None


class DocumentUpdate:
    """Everything a backend needs to bring one prepared document current.

    One commit publishes one wrapped snapshot, :meth:`columns`, built on
    first use and shared: every backend that holds columns (the engine
    and its process tier) adopts it as is.  ``deltas`` — already in
    document-wrapped coordinates — are for the one backend that cannot
    adopt columns, the relational adapter: its
    :class:`~repro.backends.deltalog.DeltaLog` replays them when it holds
    ``base_revision`` and reloads from :meth:`columns` otherwise (first
    update after a load, divergent update branch, relabel in the
    chain).  Either way no :class:`~repro.xml.forest.Forest` is
    materialized.
    """

    __slots__ = ("revision", "base_revision", "deltas", "_source", "_columns")

    def __init__(self, revision: int, base_revision: int | None,
                 deltas: tuple[UpdateDelta, ...],
                 source: "UpdatableDocument"):
        self.revision = revision
        self.base_revision = base_revision if deltas else None
        self.deltas = deltas
        self._source = source
        self._columns: IntervalColumns | None = None

    @property
    def width(self) -> int:
        """Width of the wrapped snapshot (updatable width + 2)."""
        return self._source.width + 2

    def columns(self) -> IntervalColumns:
        """The wrapped snapshot (cached): every endpoint and depth of the
        source one higher, under a document-node row spanning
        ``[0, width - 1]`` — the shape ``encode_columns`` produces for
        ``document_forest(trees)``, in the document's gappy numbering.
        Each column is written once, into a preallocated array, and is
        read-only from then on: every backend shares the snapshot."""
        if self._columns is None:
            def wrapped(top, column: np.ndarray, shift: int = 0):
                out = np.empty(len(column) + 1, dtype=column.dtype)
                out[0] = top
                if shift:
                    np.add(column, shift, out=out[1:])
                else:
                    out[1:] = column
                return out

            source = self._source.columns
            self._columns = IntervalColumns(
                wrapped(0, source.l, 1),
                wrapped(self.width - 1, source.r, 1),
                wrapped(0, source.d, 1),
                wrapped(name_code(DOCUMENT_LABEL), source.c)).read_only()
        return self._columns


class UpdatableDocument:
    """An interval-encoded forest supporting insert/delete of subtrees.

    The state is ``columns`` (document order, truthful ``d``/``c``) plus
    ``width``.  Nodes are addressed by their left endpoint (unique within
    an encoding).  ``stride`` controls how much slack a relabeling pass
    leaves between endpoints.
    """

    def __init__(self, columns: IntervalColumns, width: int,
                 stride: int = DEFAULT_STRIDE):
        if stride < 1:
            raise ValueError("stride must be at least 1")
        self.columns = columns
        self.width = int(width)
        self.stride = stride
        self._encoded: EncodedForest | None = None
        self.last_stats = UpdateStats()
        #: Unique id of this state; deltas chain base → derived states.
        self.revision: int = next(_REVISIONS)
        #: The state this one was derived from (``None`` for roots, and
        #: cleared by :meth:`release_base` once a session commits — see
        #: ``docs/UPDATES.md`` on bounding chain memory).
        self.base: "UpdatableDocument | None" = None
        #: The delta that produced this state from :attr:`base`.
        self.last_delta: UpdateDelta | None = None

    @classmethod
    def from_forest(cls, trees: Forest | Node,
                    stride: int = DEFAULT_STRIDE) -> "UpdatableDocument":
        tight, _width = encode_columns(trees)
        return cls(*_with_slack(tight, tight.l, tight.r, stride), stride)

    @classmethod
    def from_snapshot(cls, columns: IntervalColumns, width: int,
                      stride: int = DEFAULT_STRIDE) -> "UpdatableDocument":
        """The document of a wrapped snapshot (a session's loaded document,
        or :meth:`DocumentUpdate.columns`'s shape): its rows below the
        document-node row, one level up, with slack — no decode and no
        re-encode.  A loaded snapshot is tight, so this is
        :meth:`from_forest` of its trees."""
        l, r = columns.l[1:] - 1, columns.r[1:] - 1
        inner = IntervalColumns(l, r, columns.d[1:] - 1, columns.c[1:])
        return cls(*_with_slack(inner, l, r, stride), stride)

    @property
    def encoded(self) -> EncodedForest:
        """The row form of this state, built on first read and cached; no
        edit or commit reads it."""
        if self._encoded is None:
            self._encoded = EncodedForest(self.columns.tuples(), self.width,
                                          sort=False)
        return self._encoded

    # -- delta chains ----------------------------------------------------------

    def deltas_since(self, base: "UpdatableDocument") -> \
            "tuple[UpdateDelta, ...] | None":
        """The ordered incremental deltas turning ``base`` into ``self``.

        ``None`` when no O(affected-subtree) chain exists: ``base`` is not
        an ancestor of this state, the chain was released, or some step
        relabeled / changed the width (appliers must rebase from a
        snapshot instead).
        """
        chain: list[UpdateDelta] = []
        state: "UpdatableDocument | None" = self
        while state is not None and state is not base:
            delta = state.last_delta
            if delta is None or not delta.incremental:
                return None
            chain.append(delta)
            state = state.base
        if state is not base:
            return None
        chain.reverse()
        return tuple(chain)

    def release_base(self) -> None:
        """Drop the base-chain link (the session calls this on commit, so
        committed states never anchor their whole update history)."""
        self.base = None

    def _derive(self, columns: IntervalColumns, width: int,
                stats: UpdateStats, delta: UpdateDelta,
                stride: int | None = None) -> "UpdatableDocument":
        result = UpdatableDocument(columns, width, stride or self.stride)
        result.last_stats = stats
        result.base = self
        result.last_delta = delta
        return result

    # -- inspection ------------------------------------------------------------

    def to_forest(self) -> Forest:
        return decode(self.columns)

    def node_count(self) -> int:
        return len(self.columns)

    def find(self, left: int) -> IntervalTuple:
        """The tuple whose left endpoint is ``left``."""
        return self.columns[self._position(left)]

    def _position(self, left: int) -> int:
        """Row index of the node whose left endpoint is ``left``."""
        lows = self.columns.l
        position = int(lows.searchsorted(left))
        if position == len(lows) or lows[position] != left:
            raise EncodingError(f"no node with left endpoint {left}")
        return position

    # -- updates ------------------------------------------------------------------

    def delete_subtree(self, left: int) -> "UpdatableDocument":
        """Remove the node at ``left`` together with its whole subtree."""
        columns = self.columns
        start = self._position(left)
        low, high = int(columns.l[start]), int(columns.r[start])
        # Descendants open strictly inside the root's interval, so the
        # subtree is the run of rows up to the first ``l`` past ``high``.
        stop = int(columns.l.searchsorted(high))
        delta = UpdateDelta(
            deleted_ranges=((low, high),),
            deleted_rows=stop - start,
            old_width=self.width,
            new_width=self.width,
        )
        return self._derive(splice_columns(columns, delta), self.width,
                            UpdateStats(deleted_nodes=stop - start), delta)

    def insert_child(self, parent_left: int, child_index: int,
                     trees: Forest | Node) -> "UpdatableDocument":
        """Insert ``trees`` as children of ``parent_left`` at ``child_index``.

        ``child_index`` counts existing children 0-based; anything past
        the end appends.  Only an element takes children: a text or
        attribute parent is an :class:`EncodingError`.
        """
        parent = self._position(parent_left)
        if self.columns.c[parent] & KIND_MASK != ELEMENT:
            raise EncodingError(
                f"node {self.columns[parent][0]!r} at {parent_left} is not an "
                "element and cannot take children")
        return self._insert(parent, child_index, encode_columns(trees)[0])

    def insert_tree(self, position: int,
                    trees: Forest | Node) -> "UpdatableDocument":
        """Insert ``trees`` as new top-level trees at ``position``."""
        return self._insert(None, position, encode_columns(trees)[0])

    def relabel(self, stride: int | None = None) -> "UpdatableDocument":
        """Re-encode with uniform slack (the paper's cited techniques all
        reduce to some scheme of this kind)."""
        stride = stride or self.stride
        columns = self.columns
        count = len(columns)
        # The tight DFS numbering of Example 3.2 gives each endpoint its
        # rank among all 2n of them (Definition 3.1 keeps them distinct).
        rank = np.argsort(np.argsort(np.concatenate((columns.l, columns.r))))
        spread, width = _with_slack(columns, rank[:count], rank[count:],
                                    stride)
        delta = UpdateDelta(old_width=self.width, new_width=width,
                            relabeled=True)
        return self._derive(spread, width, UpdateStats(relabeled=True), delta,
                            stride=max(self.stride, stride))

    # -- internals ----------------------------------------------------------------

    def _slot(self, parent: int | None, index: int) -> tuple[int, int, bool]:
        """``(low, high, appending)``: the open endpoint interval before
        child ``index`` of the row at ``parent`` (``None``: the top
        level), or after the last child when ``index`` is past it.
        ``appending`` marks the slot after the last root, the one place an
        insert may widen the document instead of fitting a gap."""
        l, r, d = self.columns.l, self.columns.r, self.columns.d
        if parent is None:
            children = np.flatnonzero(d == 0)
        else:
            # The parent's run ends at the first ``l`` past its ``r``;
            # its children are the rows one level down inside it.
            end = int(l.searchsorted(r[parent]))
            children = parent + 1 + np.flatnonzero(
                d[parent + 1:end] == d[parent] + 1)
        index = min(index, len(children))
        if index:
            low = int(r[children[index - 1]])
        else:
            low = -1 if parent is None else int(l[parent])
        if index < len(children):
            return low, int(l[children[index]]), False
        if parent is None:
            return low, max(self.width, low + 1), True
        return low, int(r[parent]), False

    def _insert(self, parent: int | None, index: int,
                new: IntervalColumns) -> "UpdatableDocument":
        """Insert the tight rows ``new`` at child slot ``index`` of the row
        at ``parent`` (``None``: the top level), spreading if need be."""
        if index < 0:
            raise ValueError(f"insert position must not be negative: {index}")
        if not len(new):
            return self._derive(
                self.columns, self.width, UpdateStats(),
                UpdateDelta(old_width=self.width, new_width=self.width))
        low, high, appending = self._slot(parent, index)
        needed = 2 * len(new)
        if appending or high - low - 1 >= needed:
            depth = 0 if parent is None else int(self.columns.d[parent]) + 1
            return self._insert_between(low, high, new, depth, appending)
        # Not enough room: spread the whole document, then retry (the
        # spread stride guarantees success for this insertion size, and a
        # spread keeps every row where it is, so ``parent`` and ``index``
        # still name the slot).  The stride doubles (capped) so a hot
        # insertion point costs amortized-logarithmic spreads instead of
        # one per insert.
        stride = min(max(self.stride * 2, needed + 1),
                     max(_MAX_SPREAD_STRIDE, needed + 1))
        retried = self.relabel(stride)._insert(parent, index, new)
        retried.last_stats = UpdateStats(
            inserted_nodes=len(new), relabeled=True)
        # Collapse the spread+retry pair into one relabeled step from
        # *this* state: every endpoint moved, so the delta is a spread
        # event and appliers rebase from the snapshot.
        retried.base = self
        retried.last_delta = UpdateDelta(
            old_width=self.width, new_width=retried.width, relabeled=True)
        return retried

    def _insert_between(self, low: int, high: int, new: IntervalColumns,
                        depth: int,
                        appending: bool = False) -> "UpdatableDocument":
        """Splice the tight rows ``new`` into the open gap ``(low, high)``:
        neighbouring child-slot bounds of one parent (:meth:`_slot`), whose
        children sit at ``depth``."""
        placed = _place_rows(new, low, high, appending)
        # Definition 3.1 for the result, given that it holds for the base,
        # without a pass over the document: the new rows are valid among
        # themselves, every one of their endpoints lies strictly inside
        # the gap, and no existing interval opens inside the gap.  None
        # closes there either: it would have opened at or before ``low``,
        # which makes it the node ``low`` belongs to or an ancestor of it
        # — the parent of the slot or something around that parent — and
        # ``high`` is no further than where that parent closes.  The
        # width exceeds the new right endpoints by construction.
        validate_columns(placed)
        lows = self.columns.l
        if lows.searchsorted(low, side="right") != lows.searchsorted(high):
            raise EncodingError(
                f"existing rows open inside the gap ({low}, {high})")
        first, last = int(placed.l.min()), int(placed.r.max())
        if first <= low or (last >= high and not appending):
            raise EncodingError(f"rows placed at [{first}, {last}], outside "
                                f"the gap ({low}, {high})")
        width = max(self.width, last + 1)
        delta = UpdateDelta(
            inserted=IntervalColumns(placed.l, placed.r, placed.d + depth,
                                     placed.c),
            old_width=self.width,
            new_width=width,
        )
        return self._derive(splice_columns(self.columns, delta), width,
                            UpdateStats(inserted_nodes=len(placed)), delta)


def _with_slack(columns: IntervalColumns, lefts: np.ndarray,
                rights: np.ndarray,
                stride: int) -> tuple[IntervalColumns, int]:
    """``columns`` renumbered from the tight endpoints ``lefts``/``rights``:
    endpoint ``e`` becomes ``e·stride + stride - 1`` (uniform slack).
    Returns the relation and its width."""
    slack = stride - 1
    # The width in Python ints first: the multiply below runs in int64
    # and would wrap.  Two past the width must fit as well — the
    # document-wrapped snapshot is ``width + 2`` wide.
    width = ((int(rights.max()) if len(rights) else 0) * stride + slack
             + stride)
    if width > INT64_MAX - 2:
        raise WidthOverflowError(
            f"stride {stride} spreads the document past int64: the engine "
            f"stores endpoints as 64-bit integers")
    spread = IntervalColumns(lefts * stride + slack, rights * stride + slack,
                             columns.d, columns.c)
    return spread, width


def _place_rows(new: IntervalColumns, low: int, high: int,
                allow_widening: bool) -> IntervalColumns:
    """Fit tight rows into the open interval (low, high); ``d`` and ``c``
    stay ``new``'s."""
    needed = 2 * len(new)
    if allow_widening:
        high = max(high, low + needed + 1)
    gap = high - low - 1
    # Spread the 2k tight endpoints (0 … 2k-1) across the gap evenly,
    # centred so slack survives on *both* sides — a flush-left placement
    # would leave gap 0 before the first row and force the next insert
    # at the same slot to spread the whole document.  Appends stay tight
    # to ``low`` so widening never pads the document's width.
    step = gap // needed
    span = (needed - 1) * step + 1
    start = low + 1 if allow_widening else low + 1 + (gap - span) // 2
    # The last endpoint is ``start + span - 1``.  Two more must fit: the
    # document-wrapped form (:meth:`UpdateDelta.wrapped`) shifts every
    # endpoint by one and closes the document node past the width.
    if start + span - 1 > INT64_MAX - 2:
        raise WidthOverflowError(
            "interval endpoint beyond int64: the engine stores endpoints "
            "as 64-bit integers")
    return IntervalColumns(start + new.l * step, start + new.r * step,
                           new.d, new.c)
