"""The per-document delta log behind the relational adapter.

The SQLite adapter keeps one connection per worker thread, so a document
update has to reach every connection.  A :class:`DeltaLog` is the shared
(cross-thread) state of one prepared document and the protocol that
decides, per connection, between replaying a few deltas and reloading:

* the *major* ``generation`` — a fresh token on every full (re)load or
  rebase, so a connection can never mistake a re-prepared document for
  the state it loaded before — tells connections to reload wholesale;
* ``minor`` counts the incremental deltas absorbed since; a connection at
  the same major whose missing minors are all still in the bounded log
  replays just that tail (ranged ``DELETE`` + batched ``INSERT``).

A reload comes from the document's latest snapshot: the one it was
prepared with, and after an update that update's wrapped snapshot
(:meth:`~repro.encoding.updates.DocumentUpdate.columns`) — the columns
every other backend adopts.  The adapter owns the rest: how a snapshot
and a delta become SQL.  Every method is called with the owning
backend's lock held.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.encoding.updates import DocumentUpdate, UpdateDelta

#: Deltas kept per document; a connection farther behind than this
#: reloads from the latest snapshot instead of replaying the tail.
DELTA_LOG_LIMIT = 32


class DeltaLog:
    """Generation pair, latest update and bounded delta tail of one
    prepared document."""

    __slots__ = ("generation", "minor", "revision", "update", "_tail")

    def __init__(self, revision: int | None = None) -> None:
        self.generation = object()
        self.minor = 0
        #: The revision the log holds: the commit the prepared snapshot
        #: is (``None``: a document as loaded), then each absorbed one.
        self.revision = revision
        #: The latest absorbed update, the reload source once there is
        #: one; before it, the adapter reloads the prepared snapshot.
        self.update: "DocumentUpdate | None" = None
        #: The deltas of minors ``minor - len(_tail) + 1 … minor``.
        self._tail: list[UpdateDelta] = []

    @property
    def current(self) -> tuple[object, int]:
        return (self.generation, self.minor)

    def pending_for(self, have: "tuple[object, int] | None",
                    ) -> "Sequence[UpdateDelta] | None":
        """The deltas that bring a connection at ``have`` current, or
        ``None`` when it must reload in full (never loaded, older major,
        or farther behind than the log reaches)."""
        if have is None or have[0] is not self.generation:
            return None
        behind = self.minor - have[1]
        if 0 < behind <= len(self._tail):
            return self._tail[-behind:]
        return None

    def absorb(self, update: "DocumentUpdate") -> None:
        """Move to ``update.revision``.

        Committing the revision already held changes nothing.  When the
        held revision is the update's base, its deltas are appended to the
        log — only the minor moves, and every connection replays the same
        deltas.  Any other update (first after a load, relabel or width
        change in the chain) rebases: a new major, whose connections
        reload from the update's snapshot.
        """
        held = self.revision
        if held == update.revision:
            return
        if update.deltas and held == update.base_revision:
            self._tail.extend(update.deltas)
            del self._tail[:-DELTA_LOG_LIMIT]
            self.minor += len(update.deltas)
        else:
            self.generation = object()
            self.minor = 0
            self._tail.clear()
        self.revision = update.revision
        self.update = update
