"""Columnar interval relations: four numeric columns behind one class.

:class:`IntervalColumns` stores a document-ordered relation of ``(s, l, r)``
triples as four parallel NumPy columns, so the operator kernels of
:mod:`repro.engine.kernels` evaluate every path step as one vector mask
instead of touching tuples from interpreted Python:

``l``, ``r``  interval endpoints, int64;
``d``  int32 depth of each row below the root of its own tree *in this
       relation* — roots are exactly the rows with ``d == 0``, a node's
       children the ``d == 1`` rows inside its interval;
``c``  int32 code of the label (:func:`name_code`): node kind in the low
       two bits, the label's id in the process-wide dictionary above
       them — names and text values alike, so a code names exactly one
       label and structural equality is integer equality.

The label strings are not a column.  Where a string is truly needed —
:meth:`IntervalColumns.tuples`, pickling, shredding for SQLite,
``string()``, error messages — it is :meth:`IntervalColumns.labels`, one
gather (:func:`labels_of`) that reads the dictionary once per distinct
code.

Invariants every producer keeps (``validate_value`` checks them):

* **Document order** — ``l`` is strictly increasing, so environment
  blocks and subtrees are contiguous runs found by binary search.
* **Carried columns** — ``d`` always equals the depths the intervals
  imply (what :meth:`IntervalColumns.from_tuples` derives), and every
  code of ``c`` is in the dictionary with its label's kind in the low
  bits; kernels carry both (gather plus a per-run rebase), they never
  recompute them.
* **Immutability** — kernels return fresh columns or views of their
  input; nothing mutates a relation after construction, so backends
  share one cached encoding across runs and threads.  What is shared
  is also enforced: a prepared document, a commit's snapshot and every
  memo entry (:mod:`repro.engine.memo`) are :meth:`IntervalColumns.read_only`,
  so an in-place write into one raises instead of corrupting every
  later query.
* **Endpoints are int64, always** — widths multiply with query nesting,
  but the rows stay few: the evaluator rank-compresses a relation
  (``kernels.renormalise``) before a kernel would leave int64, and an
  endpoint of 2⁶³ or more arriving from outside raises
  :class:`~repro.errors.WidthOverflowError` at the door.

Tuple compatibility: an :class:`IntervalColumns` can be *read* as a
sequence of ``(s, l, r)`` tuples of plain Python values — iteration,
indexing, slicing and equality behave like a tuple list — which is what
the tests' comparisons use.  Nothing inside the engine relies on it: the
evaluator and the kernels take and return columns only, and
:meth:`IntervalColumns.from_tuples` / :meth:`IntervalColumns.tuples`
are the two crossings (the first passes columns through unchanged).  A
result leaves through :func:`repro.encoding.interval.decode`, which reads
the columns themselves: vector checks on ``l``/``r``/``d``, then ``c``
and ``d`` copied out as int32 arrays (no view of a column survives it).

The label dictionary behind ``c`` is :mod:`repro.xml.labels`
(process-wide, append-only, lock-free reads; its names are re-exported
here).
Codes are process-local; :func:`export_columns` ships a relation's
distinct labels with their codes so an attaching worker can adopt them
(or, on a clash, remap its copy of ``c``), and pickling ships the labels
and re-derives ``c`` on load.  See docs/CONCURRENCY.md.
"""

from __future__ import annotations

import os
from bisect import bisect_left, bisect_right
from itertools import count as _counter
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

from repro.encoding.interval import IntervalTuple
from repro.errors import WidthOverflowError
from repro.xml.labels import (  # noqa: F401 - re-exported
    ATTRIBUTE,
    ELEMENT,
    KIND_MASK,
    TEXT,
    _codes,
    _label_of,
    _names_lock,
    adopt_labels,
    label_codes,
    label_dictionary_entries,
    name_code,
)

if TYPE_CHECKING:  # pragma: no cover
    from multiprocessing.shared_memory import SharedMemory

    from repro.encoding.updates import UpdateDelta

#: Largest value int64 endpoint storage holds.
INT64_MAX = 2 ** 63 - 1


# -- columns ---------------------------------------------------------------------


def make_int_column(values: Iterable[int]) -> np.ndarray:
    """An int64 endpoint column; a value that does not fit is an error."""
    values = values if isinstance(values, list) else list(values)
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        raise WidthOverflowError(
            "interval endpoint beyond int64: the engine stores endpoints "
            "as 64-bit integers") from None


def labels_of(codes: np.ndarray) -> np.ndarray:
    """The labels of ``codes``, as an object array: one gather through
    the dictionary, which is read once per distinct code."""
    distinct, inverse = np.unique(codes, return_inverse=True)
    table = np.empty(len(distinct), dtype=object)
    table[:] = distinct_labels(distinct)
    return table[inverse]


def distinct_labels(codes: np.ndarray) -> list[str]:
    """The labels of ``codes``, which are already distinct: one read of
    the dictionary apiece."""
    return list(map(_label_of.__getitem__, codes.tolist()))


def derive_depths(lefts: list[int], rights: list[int]) -> np.ndarray:
    """``d`` from the intervals alone: open ancestors at each row."""
    depths: list[int] = []
    open_rights: list[int] = []
    for left, right in zip(lefts, rights):
        while open_rights and open_rights[-1] < left:
            open_rights.pop()
        depths.append(len(open_rights))
        open_rights.append(right)
    return np.array(depths, dtype=np.int32)


def dfs_numbering(depths: Sequence[int],
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Example 3.2's DFS numbering of a preorder depth sequence: the
    ``(l, r, d)`` columns, ``l``/``r`` int64 and ``d`` int32; the width
    is ``2 * len(depths)``.

    ``depths`` is a forest in document order (a valid preorder depth
    sequence: first 0, none more than one deeper than the row before).
    Row ``i`` opens after ``i`` opens and ``i - d[i]`` closes, so
    ``l = 2i - d``; the closes take the other counter values, and at
    each depth rows close in the order they open, so ordering both by
    depth pairs every row with its ``r``.
    """
    d = np.array(depths, dtype=np.int32)
    count = len(d)
    lefts = np.arange(0, 2 * count, 2, dtype=np.int64) - d
    opens = np.zeros(2 * count, dtype=np.bool_)
    opens[lefts] = True
    closes = np.flatnonzero(~opens)
    # Close ``m`` follows ``closes[m] - m`` opens and ``m`` closes, so it
    # leaves the nesting level at the closed row's depth:
    shut = closes - np.arange(1, 2 * count, 2)
    rights = np.empty(count, dtype=np.int64)
    rights[np.argsort(d, kind="stable")] = \
        closes[np.argsort(shut, kind="stable")]
    return lefts, rights, d


def _rebuild_columns(s: list[str], l: "bytes | list[int]",
                     r: "bytes | list[int]", d: bytes) -> "IntervalColumns":
    def column(state):
        # Pickles written while endpoint columns could be lists carry one.
        if isinstance(state, bytes):
            return np.frombuffer(state, dtype=np.int64)
        return make_int_column(state)

    return IntervalColumns(column(l), column(r),
                           np.frombuffer(d, dtype=np.int32), label_codes(s))


class IntervalColumns:
    """An interval relation as four parallel columns, sorted by ``l``.

    The constructor trusts the caller on document order and on ``d``/``c``
    matching the rows; use :meth:`from_tuples` for arbitrary input.
    """

    __slots__ = ("l", "r", "d", "c")

    def __init__(self, l: np.ndarray, r: np.ndarray, d: np.ndarray,
                 c: np.ndarray):
        self.l = l
        self.r = r
        self.d = d
        self.c = c

    # -- construction -----------------------------------------------------------

    @classmethod
    def from_tuples(cls, rows: Iterable[IntervalTuple],
                    sort: bool = False) -> "IntervalColumns":
        """Build columns from ``(s, l, r)`` tuples (already in doc order).

        This is where ``d`` and ``c`` are *derived*; everything downstream
        carries them.
        """
        if isinstance(rows, IntervalColumns):
            return rows
        rows = list(rows)
        if sort:
            rows.sort(key=lambda row: row[1])
        return cls.from_lists([row[0] for row in rows],
                              [row[1] for row in rows],
                              [row[2] for row in rows])

    @classmethod
    def from_lists(cls, labels: list[str], lefts: list[int],
                   rights: list[int],
                   depths: list[int] | None = None) -> "IntervalColumns":
        """Columns from parallel Python lists in document order.

        ``depths`` is for producers that carry them (a SQL result's ``d``,
        which ``decode`` checks); otherwise they are derived from the
        intervals.
        """
        d = derive_depths(lefts, rights) if depths is None \
            else np.array(depths, dtype=np.int32)
        return cls(make_int_column(lefts), make_int_column(rights), d,
                   label_codes(labels))

    @classmethod
    def from_preorder(cls, labels: Sequence[str], depths: Sequence[int],
                      ) -> "tuple[IntervalColumns, int]":
        """:func:`dfs_numbering` of a preorder stream, its labels interned
        in document order; returns the relation and its width."""
        l, r, d = dfs_numbering(depths)
        return cls(l, r, d, label_codes(labels)), 2 * len(d)

    @classmethod
    def empty(cls) -> "IntervalColumns":
        return cls(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
                   np.empty(0, dtype=np.int32), np.empty(0, dtype=np.int32))

    def read_only(self) -> "IntervalColumns":
        """Make the four columns read-only in place and return ``self``:
        what every query shares (a prepared document, a commit's
        snapshot) then refuses an in-place write with ``ValueError``."""
        for column in (self.l, self.r, self.d, self.c):
            column.flags.writeable = False
        return self

    def labels(self) -> np.ndarray:
        """The rows' labels, an object array (:func:`labels_of` of ``c``)."""
        return labels_of(self.c)

    def tuples(self) -> list[IntervalTuple]:
        """Materialize the row form (for list-based consumers)."""
        return list(zip(self.labels().tolist(), self.l.tolist(),
                        self.r.tolist()))

    def __reduce__(self):
        # The pickling contract: every relation pickles self-contained,
        # by value — views of a shared-memory segment become private
        # copies, and ``c`` is re-derived from the labels in the loading
        # process's own dictionary.  Cross-process results and serialized
        # documents depend on this; see docs/CONCURRENCY.md.
        return (_rebuild_columns, (self.labels().tolist(), self.l.tobytes(),
                                   self.r.tobytes(), self.d.tobytes()))

    # -- sequence protocol --------------------------------------------------------

    def __len__(self) -> int:
        return len(self.l)

    def __bool__(self) -> bool:
        return len(self.l) > 0

    def __iter__(self) -> Iterator[IntervalTuple]:
        return iter(self.tuples())

    def __getitem__(self, item):
        if not isinstance(item, slice):
            return (_label_of[int(self.c[item])], int(self.l[item]),
                    int(self.r[item]))
        if item.step not in (None, 1):
            return IntervalColumns.from_tuples(self.tuples()[item])
        d = self.d[item]
        if len(d) and d[0]:
            # The slice starts below a root that stays outside it: rows
            # lose exactly the ancestors cut off, the running minimum.
            d = d - np.minimum.accumulate(d)
        return IntervalColumns(self.l[item], self.r[item], d, self.c[item])

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IntervalColumns):
            return self.tuples() == other.tuples()
        if isinstance(other, (list, tuple)):
            return self.tuples() == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"IntervalColumns({len(self)} tuples)"

    # -- block arithmetic ---------------------------------------------------------

    def block_bounds(self, width: int):
        """``(envs, starts, ends)`` arrays of the non-empty environment
        blocks — one vector compare of neighbouring ``l // width``."""
        env = self.l // width
        change = np.ones(len(env), dtype=np.bool_)
        change[1:] = env[1:] != env[:-1]
        starts = np.flatnonzero(change)
        return env[starts], starts, np.append(starts[1:], len(env))


def splice_columns(columns: "IntervalColumns",
                   delta: "UpdateDelta") -> "IntervalColumns":
    """Apply an :class:`~repro.encoding.updates.UpdateDelta` copy-on-write.

    The deleted interval ranges and the inserted run's position are
    located with ``bisect`` on the sorted ``l`` column, so only
    O(log n) comparisons happen at Python speed — everything else is one
    ``concatenate`` per column.  Whole subtrees leave and arrive, so the
    depths of the surviving rows stand, and the inserted run carries its
    own ``d`` and ``c``: no recompute over the document, no label coded.
    The source relation is never mutated; callers swap the returned
    relation in atomically.
    """
    lows = columns.l
    new = delta.inserted
    # Row runs to cut: a deleted subtree rooted at (lo, hi) is exactly the
    # rows with lo <= l <= hi, and the inserted run — contiguous in
    # l-order — goes in at its bisect position, an empty cut.
    cuts = [(bisect_left(lows, new.l[0]),) * 2] if new else []
    for lo, hi in delta.deleted_ranges:
        start = bisect_left(lows, lo)
        stop = bisect_right(lows, hi, lo=start)
        if start < stop:
            cuts.append((start, stop))
    spans: list[tuple[int, int] | None] = []  # None marks the inserted run
    cursor = 0
    for start, stop in sorted(cuts):
        if cursor < start:
            spans.append((cursor, start))
        if start == stop:
            spans.append(None)
        cursor = max(cursor, stop)
    if cursor < len(lows):
        spans.append((cursor, len(lows)))
    if not spans:
        return IntervalColumns.empty()
    return IntervalColumns(*(
        np.concatenate([getattr(new, name) if span is None
                        else getattr(columns, name)[span[0]:span[1]]
                        for span in spans])
        for name in IntervalColumns.__slots__))


# -- shared-memory export / attach ---------------------------------------------

#: ``/dev/shm`` name prefix of every segment this package creates — the
#: CI leak check greps for it after ``session.close()``.
SHM_PREFIX = "repro_cols"

#: Monotonic suffix for segment names created by this process.
_segment_counter = _counter()


def _segment_views(buffer: memoryview, count: int, labels: int,
                   label_bytes: int) -> list[np.ndarray]:
    """The regions of a segment, zero-copy, in layout order: ``l``, ``r``
    (int64), ``d`` and ``c`` (int32), then the relation's label table —
    its codes and its label lengths in characters (int32), and the
    labels' UTF-8 text (bytes)."""
    views, offset = [], 0
    for dtype, size in ((np.int64, count), (np.int64, count),
                        (np.int32, count), (np.int32, count),
                        (np.int32, labels), (np.int32, labels),
                        (np.uint8, label_bytes)):
        views.append(np.frombuffer(buffer, dtype, size, offset))
        offset += views[-1].nbytes
    return views


def _fill_segment(buffer: memoryview, regions: Sequence) -> None:
    # A function of its own so that no view outlives the call: the
    # creator's handle cannot close() while an array exports its buffer.
    views = _segment_views(buffer, len(regions[0]), len(regions[-2]),
                           len(regions[-1]))
    for view, region in zip(views, regions):
        view[:] = region


class SharedColumns:
    """A picklable descriptor of an :class:`IntervalColumns` in shared memory.

    Built by :func:`export_columns`; ship it to a worker process and call
    :meth:`attach` there.  The descriptor carries the segment name and
    the layout only — rows, distinct labels, bytes of label text; the
    label table itself is in the segment.
    """

    __slots__ = ("name", "count", "labels", "label_bytes")

    def __init__(self, name: str, count: int, labels: int, label_bytes: int):
        self.name = name
        self.count = count
        self.labels = labels
        self.label_bytes = label_bytes

    def __reduce__(self):
        return (SharedColumns, (self.name, self.count, self.labels,
                                self.label_bytes))

    def __repr__(self) -> str:
        return (f"SharedColumns({self.name!r}, {self.count} tuples, "
                f"{self.labels} labels, {self.label_bytes} label bytes)")

    def attach(self) -> "AttachedColumns":
        """Map the segment and rebuild the relation zero-copy.

        ``l``, ``r``, ``d`` and ``c`` of the returned relation are arrays
        over the shared buffer — no bytes move, and no label column is
        built.  The label table is decoded once, only to be adopted into
        this process's dictionary under one lock acquisition; only when a
        shipped code clashes with a local assignment is ``c`` translated
        into a private copy (each row finds its table entry by binary
        search: the table's codes ascend).  Keep the returned handle
        alive as long as the relation is in use and call
        :meth:`AttachedColumns.detach` when done; the segment is unlinked
        only by its creator.
        """
        # CPython ≤3.12 registers a segment with the resource tracker on
        # attach as well as on create.  Pool workers are always
        # multiprocessing children of the exporting process, so they share
        # its tracker and the extra registration is an idempotent set-add;
        # the creator's eventual unlink() balances the books, and a
        # crashed parent still gets tracker cleanup at shutdown.
        from multiprocessing.shared_memory import SharedMemory

        shm = SharedMemory(name=self.name)
        l, r, d, c, codes, lengths, text = _segment_views(
            shm.buf, self.count, self.labels, self.label_bytes)
        text = text.tobytes().decode("utf-8")
        ends = np.cumsum(lengths).tolist()
        labels = [text[a:b] for a, b in zip([0] + ends, ends)]
        shipped = codes.tolist()
        local = adopt_labels(labels, shipped)
        if local != shipped:
            c = np.array(local, dtype=np.int32)[np.searchsorted(codes, c)]
        return AttachedColumns(IntervalColumns(l, r, d, c), shm)


class AttachedColumns:
    """A worker-side attachment: the relation plus the mapping behind it.

    ``detach`` drops the relation's arrays before closing the mapping (an
    mmap with exported buffers refuses to close), and never unlinks — the
    exporting process owns the segment's lifetime.  Every relation
    derived from the attached one (kernels return views of their input)
    must be gone by then; a pool worker holds results only for the
    duration of one request.
    """

    __slots__ = ("columns", "_shm")

    def __init__(self, columns: IntervalColumns, shm: "SharedMemory"):
        self.columns = columns
        self._shm = shm

    def detach(self) -> None:
        shm, self._shm = self._shm, None
        if shm is None:
            return
        empty = IntervalColumns.empty()
        for column in IntervalColumns.__slots__:
            setattr(self.columns, column, getattr(empty, column))
        shm.close()


def export_columns(columns: IntervalColumns,
                   name: str | None = None) -> "tuple[SharedColumns, SharedMemory]":
    """Copy a relation into a new shared-memory segment.

    Layout: ``count`` int64 ``l`` words, ``count`` int64 ``r`` words,
    ``count`` int32 depths, ``count`` int32 label codes, then the
    relation's distinct-label table — each label once: its int32 code
    (ascending), its int32 length in characters, and last the labels'
    UTF-8 text, concatenated.  Any label can be shared: nothing separates
    the entries but the lengths.  Returns the picklable descriptor and
    the creator-side handle — the caller owns the segment and must
    ``close()`` + ``unlink()`` it when the document is dropped
    (:class:`repro.concurrency.procpool.ProcessQueryPool` does this on
    ``unregister_document``/``close``).
    """
    from multiprocessing.shared_memory import SharedMemory

    codes = np.unique(columns.c)
    labels = list(map(_label_of.__getitem__, codes.tolist()))
    text = "".join(labels).encode("utf-8")
    if name is None:
        name = f"{SHM_PREFIX}_{os.getpid()}_{next(_segment_counter)}"
    size = 24 * len(columns) + 8 * len(labels) + len(text)
    shm = SharedMemory(create=True, size=max(size, 1), name=name)
    _fill_segment(shm.buf, (columns.l, columns.r, columns.d, columns.c,
                            codes, list(map(len, labels)),
                            np.frombuffer(text, np.uint8)))
    return SharedColumns(shm.name, len(columns), len(labels), len(text)), shm
