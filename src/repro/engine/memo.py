"""Document-derived results kept for one bound document snapshot.

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
  node itself (structural equality, so different texts share a path);
* a ``JoinForNode``'s **build side** — the expanded inner sequence and
  its inner key — keyed by ``(source, var, key_inner)``.

Nothing evaluated under an iteration is kept, nor construction,
conditions, pair matching or isolated bodies: this is not a result
cache.

**Lifetime.**  A memo belongs to one snapshot: it is created wherever a
backend binds a document and dropped with that binding, so a commit or
a replacement never serves a stale entry.

**Bound.**  The bytes the entries own count against the document's own
column bytes; an insert that would cross it evicts least-recently-used
entries first, and an entry larger than the whole bound is not kept.
An array counts by the buffer it keeps alive (a view, by its base),
except the document's own columns, which the memo does not add.

**Safety.**  An entry is inserted only after it has been computed
completely, and its arrays are made read-only first.  Inserts and
evictions take one lock; hits read without it.
"""

from __future__ import annotations

import threading
from itertools import count
from typing import Hashable

import numpy as np

from repro.engine.columns import IntervalColumns

#: One guard charge, as the evaluator makes it per node result:
#: ``(tuples, width, envs)``.
Charge = tuple[int, int, int]


class MemoEntry:
    """One memoized value, the guard charges that computing it made (in
    order), the bytes it owns and its last use."""

    __slots__ = ("value", "charges", "nbytes", "used")

    def __init__(self, value: object, charges: tuple[Charge, ...],
                 nbytes: int, used: int):
        self.value = value
        self.charges = charges
        self.nbytes = nbytes
        self.used = used


class DocumentMemo:
    """The memo of one bound document snapshot ``(columns, width)``."""

    def __init__(self, columns: IntervalColumns, width: int):
        self.columns = columns
        self.width = width
        # The buffers behind the document's columns and their bytes (the
        # bound), read at the first insert.
        self._document: set[int] | None = None
        self._bound = 0
        #: Bytes the live entries own.
        self.nbytes = 0
        #: Entries dropped to stay inside the bound, ever.
        self.evictions = 0
        self._entries: dict[Hashable, MemoEntry] = {}
        self._lock = threading.Lock()
        self._clock = count()

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
                f"{self.bound} bytes, {self.evictions} evicted)")

    def binds(self, value: tuple[IntervalColumns, int]) -> bool:
        """Whether ``value`` is this memo's document itself."""
        return value[0] is self.columns and value[1] == self.width

    def get(self, key: Hashable) -> MemoEntry | None:
        """The entry under ``key``, marked used; no lock taken."""
        entry = self._entries.get(key)
        if entry is not None:
            entry.used = next(self._clock)
        return entry

    def put(self, key: Hashable, value: object,
            charges: tuple[Charge, ...]) -> None:
        """Keep a completely computed ``value``: its arrays become
        read-only, and least-recently-used entries make room for it.  A
        key already present keeps its entry."""
        document = self._document_roots()
        arrays = _arrays(value)
        owned: dict[int, int] = {}
        for array in arrays:
            root = _root(array)
            if id(root) not in document:
                owned[id(root)] = root.nbytes
        nbytes = sum(owned.values())
        bound = self._bound
        if nbytes > bound:
            return
        for array in arrays:
            array.flags.writeable = False
        entry = MemoEntry(value, charges, nbytes, next(self._clock))
        with self._lock:
            entries = self._entries
            if key in entries:
                return
            while entries and self.nbytes + nbytes > bound:
                victim = min(entries, key=lambda k: entries[k].used)
                self.nbytes -= entries.pop(victim).nbytes
                self.evictions += 1
            entries[key] = entry
            self.nbytes += nbytes


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
