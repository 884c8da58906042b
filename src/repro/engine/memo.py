"""Document-derived results kept for a bound document snapshot.

Section 5 evaluates a decorrelated ``for``'s source "once, against the
base environment", and Join Graph Isolation (Grust, Mayr and
Rittinger) separates a plan's document-rooted path leaves from the
per-iteration work.  Both depend on the document alone, so a backend
that keeps a document bound between queries keeps one
:class:`DocumentMemo` beside it and hands it to
:meth:`~repro.engine.evaluator.DIEngine.run_plan_values`.
The evaluator serves two kinds of entry from it:

* a **path chain at the base environment** — a run of the XFns Figure
  10 charges to paths over one document variable — keyed by the plan
  node itself (structural equality, so different texts share a path).
  A chain the planner lifted out of a ``for`` body
  (:class:`~repro.compiler.plan.Lifted`) is one too: it is computed from
  the loop's source value, at the base environment, and kept under the
  document-rooted chain (``Lifted.rooted``) that a text reading the
  path directly would key it by; moving it into the iterations
  (``kernels.reblock``) happens on every run;
* a ``JoinForNode``'s **build side** — the expanded inner sequence and
  its inner key — keyed by ``(source, var, key_inner)``.

Only document-rooted chains at the base environment are kept: nothing
evaluated under an iteration, nor construction, conditions, pair
matching or isolated bodies.  This is not a result cache.

**Lifetime.**  A memo is created wherever a backend binds a document
and dropped with that binding, and it never serves an entry its own
snapshot would compute differently.  A commit that is one incremental
:class:`~repro.encoding.updates.UpdateDelta` away from the bound
snapshot links the new memo to the old one, and a miss adopts the old
entry under the same key when the delta cannot reach it.  Gap-based
edits leave every surviving row's ``(l, r, d, c)`` as it was, and every
chain XFn decides a row's membership from its ancestors-or-self, so an
entry can change only if each ``select`` label of its chain is on the
delta's spine (:class:`~repro.encoding.updates.DeltaSpine`); a chain
with no ``select`` always recomputes, and a join's build side follows
its source chain.  Views of the old columns are re-sliced from the new
ones (a view across the edit recomputes), and a new memo cuts its
predecessor's own link, so a chain of commits keeps at most one earlier
snapshot alive.  Any other commit — the first after a load, several
deltas, a spread, a width change — binds an empty memo.

**Bound.**  The bytes the entries own count against the document's own
column bytes, first fit: an entry that would cross the bound is not
kept (``refused`` counts them) and nothing is evicted to make room, so
a mix whose entries overflow the bound keeps serving the ones it kept
first instead of trading them round after round.  An array counts by
the buffer it keeps alive (a view, by its base), except the document's
own columns, which the memo does not add.

**Safety.**  An entry is inserted only after it has been computed
completely, and its arrays are made read-only first.  Inserts take one
lock; hits read without it.
"""

from __future__ import annotations

import threading
from typing import Hashable

import numpy as np

from repro.compiler.plan import FnNode
from repro.encoding.updates import DeltaSpine, UpdateDelta
from repro.engine.columns import IntervalColumns, name_code

#: A commit snapshot's four column buffers, by ``id``: each one's
#: ``(address, the next snapshot's column)``.
_Views = dict[int, tuple[int, np.ndarray]]


class MemoEntry:
    """One memoized value and the bytes it owns."""

    __slots__ = ("value", "nbytes")

    def __init__(self, value: object, nbytes: int):
        self.value = value
        self.nbytes = nbytes


class DocumentMemo:
    """The memo of one bound document snapshot ``(columns, width)``, at
    commit ``revision`` (``None``: a loaded document).  ``previous`` and
    ``delta``, when given, are the memo of the snapshot this one is
    ``delta`` away from, whose entries it may carry over."""

    def __init__(self, columns: IntervalColumns, width: int,
                 revision: int | None = None,
                 previous: "DocumentMemo | None" = None,
                 delta: UpdateDelta | None = None):
        self.columns = columns
        self.width = width
        self.revision = revision
        # The buffers behind the document's columns and their bytes (the
        # bound), read at the first insert.
        self._document: set[int] | None = None
        self._bound = 0
        #: Bytes the live entries own.
        self.nbytes = 0
        #: Entries not kept because the bound was full, ever.
        self.refused = 0
        #: Entries adopted from the previous snapshot's memo.
        self.carried = 0
        #: Entries the previous memo held that the delta could reach (or
        #: whose views straddle the edit), so they were computed afresh.
        self.recomputed = 0
        self._entries: dict[Hashable, MemoEntry] = {}
        self._lock = threading.Lock()
        if previous is not None:
            with previous._lock:  # one link back, never a chain
                previous._release()
        # Until the first miss: the memo this one may carry from.  From
        # then on: its entries not tried yet, the delta's spine and its
        # column buffers.
        self._previous = previous if delta is not None else None
        self._delta = delta
        self._pending: dict[Hashable, MemoEntry] = {}
        self._spine: DeltaSpine | None = None
        self._views: _Views = {}

    @property
    def bound(self) -> int:
        """The byte bound: the document's own column bytes."""
        self._document_roots()
        return self._bound

    def _document_roots(self) -> set[int]:
        if self._document is None:  # ``_bound`` is set first
            arrays = _arrays(self.columns)
            self._bound = sum(array.nbytes for array in arrays)
            self._document = {id(_root(array)) for array in arrays}
        return self._document

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return (f"DocumentMemo({len(self)} entries, {self.nbytes} of "
                f"{self.bound} bytes, {self.refused} refused, "
                f"{self.carried} carried, {self.recomputed} recomputed)")

    def stats(self) -> dict[str, int]:
        """The numbers :meth:`__repr__` shows, by name."""
        return {"entries": len(self), "bytes": self.nbytes,
                "bound": self.bound, "refused": self.refused,
                "carried": self.carried, "recomputed": self.recomputed}

    def binds(self, value: tuple[IntervalColumns, int]) -> bool:
        """Whether ``value`` is this memo's document itself."""
        return value[0] is self.columns and value[1] == self.width

    def get(self, key: Hashable) -> MemoEntry | None:
        """The entry under ``key`` — on a miss, the previous snapshot's,
        if it survives the delta.  A hit takes no lock."""
        entry = self._entries.get(key)
        if entry is None and (self._pending or self._previous is not None):
            entry = self._adopt(key)
        return entry

    def put(self, key: Hashable, value: object) -> None:
        """Keep a completely computed ``value`` if it fits in what the
        bound has left; its arrays become read-only.  A key already
        present keeps its entry."""
        arrays = _arrays(value)
        nbytes = self._owned(arrays)
        for array in arrays:
            array.flags.writeable = False
        with self._lock:
            self._keep(key, MemoEntry(value, nbytes))

    def _owned(self, arrays: list[np.ndarray]) -> int:
        """The bytes of the buffers behind ``arrays`` that are not the
        document's own."""
        document = self._document_roots()
        owned: dict[int, int] = {}
        for array in arrays:
            root = _root(array)
            if id(root) not in document:
                owned[id(root)] = root.nbytes
        return sum(owned.values())

    def _keep(self, key: Hashable, entry: MemoEntry) -> bool:
        """Insert ``entry`` (the lock held) if it fits; whether it did."""
        if key in self._entries:
            return True
        if self.nbytes + entry.nbytes > self.bound:
            self.refused += 1
            return False
        self._entries[key] = entry
        self.nbytes += entry.nbytes
        return True

    # -- carrying entries over a commit -----------------------------------

    def _adopt(self, key: Hashable) -> MemoEntry | None:
        """The previous memo's entry under ``key``, kept here if the delta
        cannot reach it; each key is tried once."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                return entry
            if self._previous is not None:
                self._begin_carrying()
            old = self._pending.pop(key, None)
            value = None
            if old is not None and _survives(key, self._spine):
                value = _reslice(old.value, self._views, self._spine)
            if not self._pending:
                self._release()
            if old is None:
                return None
            if value is None:
                self.recomputed += 1
                return None
            # Re-sliced views own nothing here, as they owned nothing
            # there, and every other array is the old entry's own.
            entry = MemoEntry(value, old.nbytes)
            if not self._keep(key, entry):
                return None
            self.carried += 1
            return entry

    def _begin_carrying(self) -> None:
        """At the first miss after the commit (the lock held): the
        spine, the entries to try and the old columns' buffers."""
        previous, self._previous = self._previous, None
        self._spine = DeltaSpine.of(self._delta, previous.columns,
                                    self.columns)
        if self._spine is None:  # no edit shape a spine describes
            return
        self._pending = dict(previous._entries)
        self._views = {
            id(_root(old)): (old.__array_interface__["data"][0], new)
            for old, new in zip(_arrays(previous.columns),
                                _arrays(self.columns))}

    def _release(self) -> None:
        """Carry nothing more, and keep nothing of the previous snapshot."""
        self._previous = None
        self._pending = {}
        self._views = {}


def _arrays(value: object) -> list[np.ndarray]:
    """Every array of a memoized value: relations' columns, arrays, and
    those inside tuples."""
    arrays: list[np.ndarray] = []
    pending = [value]
    while pending:
        item = pending.pop()
        if isinstance(item, IntervalColumns):
            arrays += (item.l, item.r, item.d, item.c)
        elif isinstance(item, np.ndarray):
            arrays.append(item)
        elif isinstance(item, tuple):
            pending += item
    return arrays


def _root(array: np.ndarray) -> np.ndarray:
    """The array whose buffer ``array`` keeps alive (itself, or the base
    of the views it is one of)."""
    while isinstance(array.base, np.ndarray):
        array = array.base
    return array


def _survives(key: Hashable, spine: DeltaSpine) -> bool:
    """Whether the delta of ``spine`` cannot reach the entry under
    ``key``: some ``select`` label of its chain (a join build side's:
    of its source chain) is on no spine row."""
    node = key[0] if isinstance(key, tuple) else key
    while isinstance(node, FnNode) and node.args:
        if node.fn == "select" and name_code(
                node.param("label"), intern=False) not in spine.codes:
            return True
        node = node.args[0]
    return False


def _reslice(item: object, views: _Views, spine: DeltaSpine) -> object:
    """``item`` (a memoized value, or part of one) with every view of the
    old snapshot's columns taken again, over the same rows, from the new
    one's; ``None`` when a view straddles the edit.  Arrays of its own
    are kept as they are."""
    if isinstance(item, IntervalColumns):
        parts = [_reslice(array, views, spine) for array in _arrays(item)]
        return None if any(part is None for part in parts) \
            else IntervalColumns(*parts)
    if isinstance(item, tuple):
        parts = [_reslice(part, views, spine) for part in item]
        return None if any(part is None for part in parts) else tuple(parts)
    if not isinstance(item, np.ndarray):
        return item
    view = views.get(id(_root(item)))
    if view is None:
        return item
    address, new = view
    if not len(item):
        return new[:0]
    size = new.itemsize
    first = (item.__array_interface__["data"][0] - address) // size
    step = item.strides[0] // size
    last = first + (len(item) - 1) * step
    if step > 0 and last < spine.start:
        return new[first:last + 1:step]
    if step > 0 and first >= spine.stop:
        first, last = first + spine.shift, last + spine.shift
        return new[first:last + 1:step]
    return None
