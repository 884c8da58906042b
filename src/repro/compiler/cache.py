"""The plan cache and the compiled-query cache.

A physical plan is a function of the query text and the join strategy
alone (:func:`repro.compiler.planner.optimize_plan` is a rule, not a
cost decision), so a cached plan stays valid across every document
update and replacement: nothing here knows about documents.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable

from repro.compiler.pipeline import PassRecord
from repro.compiler.plan import PlanNode

#: A plan-cache entry: the plan and the ``decorrelate`` / ``plan`` /
#: ``isolate`` records of the build that made it.
CachedPlan = tuple[PlanNode, tuple[PassRecord, ...]]


@dataclass(frozen=True)
class CacheKey:
    """Identity of one cached plan."""

    text: str             #: the query text
    strategy: str         #: join strategy name

    def fingerprint(self) -> str:
        """A short stable hex id of the key — the *plan fingerprint*
        surfaced on flight-recorder records and in the slow-query log."""
        payload = f"{self.text}|{self.strategy}"
        return hashlib.blake2b(payload.encode("utf-8"),
                               digest_size=6).hexdigest()


#: Compiled query texts kept per session and per pool worker; the least
#: recently used text is dropped past this, so a server fed generated
#: texts holds a bounded number of parse trees.
COMPILED_CACHE_SIZE = 256

#: Physical plans kept per engine backend, least recently used first out.
PLAN_CACHE_SIZE = 64


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
    """Thread-safe LRU cache of physical plans (:data:`CachedPlan`)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: OrderedDict[CacheKey, CachedPlan] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def peek(self, key: CacheKey) -> CachedPlan | None:
        """Like :meth:`get` but touching neither counters nor LRU order
        (for the second look of double-checked locking)."""
        with self._lock:
            return self._entries.get(key)

    def get(self, key: CacheKey) -> CachedPlan | None:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def put(self, key: CacheKey, entry: CachedPlan) -> None:
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > PLAN_CACHE_SIZE:
                self._entries.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }

    def keys(self) -> Iterable[CacheKey]:
        with self._lock:
            return list(self._entries)
