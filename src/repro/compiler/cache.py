"""A stats-keyed plan cache with observed-cardinality feedback.

Plans are cached per (query shape, planning knobs, document statistics):
the *shape* half fingerprints the normalized core expression, the
*stats* half digests the statistics of every document the query reads.
Updating a document changes its stats digest, so a stale plan can never
be served for the new contents — the key itself moves.

Observed cardinalities live one level up, keyed by shape alone: traced
runs report actual per-node tuple counts, and those survive document
updates (a new digest means a new planning round, which *should* start
from everything the cache has learned about this query so far).  The
feedback store has the plans' bound: past it, the shape whose last
observation is oldest is forgotten.  When an observation contradicts an
entry's estimate badly enough, the entry is dropped so the next lookup
replans against the corrected numbers.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.compiler.planner import OptimizedPlan

#: An observation must disagree with the estimate by at least this factor
#: (in either direction) before it evicts the plan that produced it.
DEVIATION_FACTOR = 8.0


@dataclass(frozen=True)
class CacheKey:
    """Identity of one cached plan."""

    shape: str            #: fingerprint of the normalized core expression
    strategy: str         #: join strategy name
    decorrelate: bool
    optimize: bool
    stats_digest: str     #: combined digest of every document read

    def shape_key(self) -> tuple[str, str, bool, bool]:
        """The document-independent half — observations key on this."""
        return (self.shape, self.strategy, self.decorrelate, self.optimize)

    def fingerprint(self) -> str:
        """A short stable hex id of the full key — the *plan fingerprint*
        surfaced on flight-recorder records and in the slow-query log."""
        payload = "|".join((self.shape, self.strategy,
                            str(self.decorrelate), str(self.optimize),
                            self.stats_digest))
        return hashlib.blake2b(payload.encode("utf-8"),
                               digest_size=6).hexdigest()


def worst_deviation(estimates: Mapping[int, float],
                    observed: Mapping[int, int]) -> float | None:
    """The worst est-vs-observed cardinality ratio across plan nodes.

    Symmetric (an 8x under-estimate and an 8x over-estimate both score
    8.0) and add-one smoothed, matching the eviction test in
    :meth:`PlanCache.record_observation`.  ``None`` when the estimate and
    observation sets share no fingerprint.
    """
    worst: float | None = None
    for fingerprint, actual in observed.items():
        estimate = estimates.get(fingerprint)
        if estimate is None:
            continue
        ratio = max((actual + 1.0) / (estimate + 1.0),
                    (estimate + 1.0) / (actual + 1.0))
        if worst is None or ratio > worst:
            worst = ratio
    return worst


@dataclass
class CacheEntry:
    """One cached optimized plan plus the estimates it was built from."""

    optimized: "OptimizedPlan"
    #: Document variables the plan reads (invalidation fan-out).
    doc_vars: frozenset[str]
    #: Estimated tuples per stable node fingerprint, for deviation checks.
    estimates: dict[int, float] = field(default_factory=dict)
    #: Fingerprints whose estimate already came from an observation —
    #: disagreement there means the data moved, not that the model erred.
    observed_based: frozenset[int] = frozenset()


#: Compiled query texts kept per session and per pool worker; the least
#: recently used text is dropped past this, so a server fed generated
#: texts holds a bounded number of parse trees.
COMPILED_CACHE_SIZE = 256


class CompiledCache:
    """Thread-safe LRU of compiled queries keyed by query text."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: OrderedDict[str, object] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, query: str):
        with self._lock:
            compiled = self._entries.get(query)
            if compiled is not None:
                self._entries.move_to_end(query)
            return compiled

    def put(self, query: str, compiled):
        """Cache ``compiled`` unless another thread already cached this
        text; returns the winner, so concurrent compilers agree on one."""
        with self._lock:
            winner = self._entries.setdefault(query, compiled)
            self._entries.move_to_end(query)
            while len(self._entries) > COMPILED_CACHE_SIZE:
                self._entries.popitem(last=False)
            return winner


class PlanCache:
    """Thread-safe LRU cache of optimized plans with feedback storage."""

    def __init__(self, maxsize: int = 64):
        self._maxsize = maxsize
        self._lock = threading.RLock()
        self._entries: OrderedDict[CacheKey, CacheEntry] = OrderedDict()
        self._observed: OrderedDict[tuple, dict[int, int]] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.evictions = 0
        self.migrations = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def peek(self, key: CacheKey) -> CacheEntry | None:
        """Like :meth:`get` but touching neither counters nor LRU order
        (for the second look of double-checked locking)."""
        with self._lock:
            return self._entries.get(key)

    def get(self, key: CacheKey) -> CacheEntry | None:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def put(self, key: CacheKey, entry: CacheEntry) -> None:
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self._maxsize:
                self._entries.popitem(last=False)
                self.evictions += 1

    def invalidate_document(self, var: str) -> int:
        """Drop every entry whose plan reads document variable ``var``.

        The digest change alone already prevents stale hits; dropping the
        entries bounds memory and keeps the hit counters honest.
        """
        with self._lock:
            stale = [key for key, entry in self._entries.items()
                     if var in entry.doc_vars]
            for key in stale:
                del self._entries[key]
            self.invalidations += len(stale)
            return len(stale)

    def migrate_document(self, var: str, new_digest, keep) -> int:
        """Carry plans for document ``var`` across an incremental update.

        A small update barely moves the statistics, so plans optimized for
        the old contents usually still estimate within ``DEVIATION_FACTOR``
        of the truth.  Rather than dropping them (:meth:`invalidate_document`)
        we re-key the survivors under the document's new digest:

        - ``new_digest(doc_vars)`` returns the combined stats digest the
          backend would now compute for an entry reading those variables;
        - ``keep(entry)`` decides whether the entry's estimates are still
          close enough to trust.

        Entries that fail ``keep`` are dropped (counted as invalidations);
        the rest move to their new key (counted as migrations).  Returns
        the number of entries migrated.
        """
        import dataclasses

        with self._lock:
            touched = [(key, entry) for key, entry in self._entries.items()
                       if var in entry.doc_vars]
            moved = 0
            for key, entry in touched:
                del self._entries[key]
                if not keep(entry):
                    self.invalidations += 1
                    continue
                rekeyed = dataclasses.replace(
                    key, stats_digest=new_digest(entry.doc_vars))
                self._entries[rekeyed] = entry
                self._entries.move_to_end(rekeyed)
                moved += 1
            self.migrations += moved
            return moved

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._observed.clear()

    # -- observed-cardinality feedback ------------------------------------------------

    def observations(self, key: CacheKey) -> dict[int, int]:
        """Observed tuples per node fingerprint for this query shape."""
        with self._lock:
            return dict(self._observed.get(key.shape_key(), {}))

    def record_observation(self, key: CacheKey,
                           observed: Mapping[int, int]) -> bool:
        """Fold a traced run's actual tuple counts into the feedback store.

        Returns ``True`` when the observation deviated far enough from the
        cached entry's estimates that the entry was dropped (the next
        lookup replans with the corrected cardinalities).
        """
        if not observed:
            return False
        with self._lock:
            shape = key.shape_key()
            self._observed.setdefault(shape, {}).update(observed)
            self._observed.move_to_end(shape)
            while len(self._observed) > self._maxsize:
                self._observed.popitem(last=False)
            entry = self._entries.get(key)
            if entry is None:
                return False
            for fingerprint, actual in observed.items():
                if fingerprint in entry.observed_based:
                    continue
                estimate = entry.estimates.get(fingerprint)
                if estimate is None:
                    continue
                ratio = max((actual + 1.0) / (estimate + 1.0),
                            (estimate + 1.0) / (actual + 1.0))
                if ratio >= DEVIATION_FACTOR:
                    del self._entries[key]
                    self.invalidations += 1
                    return True
            return False

    # -- introspection ----------------------------------------------------------------

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "invalidations": self.invalidations,
                "evictions": self.evictions,
                "migrations": self.migrations,
            }

    def keys(self) -> Iterable[CacheKey]:
        with self._lock:
            return list(self._entries)
