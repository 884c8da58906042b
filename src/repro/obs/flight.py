"""Always-on serving telemetry: the flight recorder.

Opt-in tracing (PR 2) answers "why was *this* query slow" — but only
when a developer asked before running it.  The flight recorder answers
the operator's questions after the fact: every ``session.run`` /
``run_many`` call appends one compact :class:`QueryRecord` to a
lock-protected, fixed-size ring buffer, feeds fixed log-spaced latency
histograms per (query fingerprint, backend), and updates the burn rate
of every declared :class:`SLO` — with no flags passed and no per-query
setup.

**Tail-based sampling.**  The hot path stays allocation-light: a run
carries only a phase-level span tree (a handful of spans — no
per-operator instrumentation unless the caller traced explicitly).  At
completion the recorder decides whether the run was *anomalous* — slow
(``slow_seconds`` threshold), errored, or degraded to a fallback
backend — and only then retains the span tree on the
record and emits one structured slow-query log line
(:func:`repro.obs.logs.log_slow_query`).  Healthy fast queries drop
their spans immediately, so the buffer costs O(capacity) regardless of
traffic.

Percentiles (p50/p95/p99) are estimated from the histogram buckets by
linear interpolation; :func:`render_percentile_table` is the console
view behind ``python -m repro top``.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping

from repro.errors import (
    OverloadError,
    QueryCancelledError,
    QueryTimeoutError,
    ResourceBudgetError,
)
from repro.obs.logs import log_slow_query
from repro.obs.metrics import Histogram, MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.trace import Span

#: Fixed log-spaced latency bucket bounds in seconds: the 1 / 2.5 / 5
#: pattern per decade (equal-ratio steps) from 100 µs to 60 s.  Fixed
#: bounds keep every (fingerprint, backend) series comparable and the
#: Prometheus export stable across processes.
LATENCY_BUCKETS: tuple[float, ...] = (
    0.0001, 0.00025, 0.0005,
    0.001, 0.0025, 0.005,
    0.01, 0.025, 0.05,
    0.1, 0.25, 0.5,
    1.0, 2.5, 5.0,
    10.0, 30.0, 60.0,
)

#: A query at or above this wall time is tail-sampled as "slow" unless
#: the session configured its own threshold.
DEFAULT_SLOW_SECONDS = 0.5

#: Ring-buffer capacity (records, not bytes) unless configured.
DEFAULT_CAPACITY = 512

#: How many of the most recent records feed the *recent* burn rate that
#: the brownout controller watches.  The cumulative burn gauge never
#: recovers after an incident; a sliding window does.
DEFAULT_RECENT_WINDOW = 64

#: Operator events (brownout transitions, drains) kept for /debug.
DEFAULT_EVENT_CAPACITY = 256

#: Outcomes that never burn SLO error budget: shed queries were refused
#: *by design* (counting them would lock the brownout ladder into a
#: shed→burn→shed feedback loop), and cancellations are caller-initiated.
SLO_EXEMPT_OUTCOMES = ("shed", "cancelled")

#: Query text kept on a record for display (full text is recoverable
#: from the session's compiled-query cache; the record is a black box).
QUERY_SNIPPET_CHARS = 120


def query_fingerprint(query: str) -> str:
    """A short stable fingerprint of the query text.

    Whitespace runs are collapsed first so trivially reformatted copies
    of one query land in the same latency series.
    """
    normalized = " ".join(query.split())
    return hashlib.blake2b(normalized.encode("utf-8"),
                           digest_size=6).hexdigest()


def classify_outcome(error: BaseException | None,
                     degradations: tuple = ()) -> str:
    """One of ``ok | degraded | timeout | budget | shed | cancelled | error``."""
    if error is None:
        return "degraded" if degradations else "ok"
    if isinstance(error, QueryTimeoutError):
        return "timeout"
    if isinstance(error, ResourceBudgetError):
        return "budget"
    if isinstance(error, OverloadError):
        return "shed"
    if isinstance(error, QueryCancelledError):
        return "cancelled"
    return "error"


@dataclass(frozen=True, slots=True)
class AttemptRecord:
    """One backend attempt (prepare + execute) of a run — failures included.

    Every executed run has at least one.  Recording the losing attempts
    of a fallback chain too makes the *cost* of falling back (the time
    burned on the losing backends) visible in the histograms.
    """

    backend: str
    seconds: float
    #: Exception class name, or ``None`` for the successful attempt.
    error: str | None = None

    def to_dict(self) -> dict[str, object]:
        return {"backend": self.backend,
                "seconds": round(self.seconds, 6),
                "error": self.error}


@dataclass(slots=True)
class UpdateRecord:
    """One ``session.apply_update`` in the recorder's update ring.

    Updates are rare next to queries, so they get their own small ring
    (like operator events) instead of competing with query records for
    buffer space.  ``lock_hold_seconds`` is the time the session write
    lock was held — the window during which readers were excluded — and
    is the number the O(affected-subtree) write path exists to shrink.
    """

    seq: int
    uri: str
    incremental: bool               #: delta fast path vs full re-encode
    deltas: int                     #: deltas in the committed chain
    delta_rows: int                 #: rows touched (inserted + deleted)
    relabeled: bool                 #: a spread forced full relabeling
    backends_applied: int           #: backends that spliced the delta
    backends_invalidated: int       #: backends that fell back to reload
    lock_hold_seconds: float
    wall_seconds: float
    thread: str = ""
    unix_time: float = 0.0

    def to_dict(self) -> dict[str, object]:
        return {
            "seq": self.seq,
            "uri": self.uri,
            "incremental": self.incremental,
            "deltas": self.deltas,
            "delta_rows": self.delta_rows,
            "relabeled": self.relabeled,
            "backends_applied": self.backends_applied,
            "backends_invalidated": self.backends_invalidated,
            "lock_hold_ms": round(self.lock_hold_seconds * 1e3, 3),
            "wall_ms": round(self.wall_seconds * 1e3, 3),
            "thread": self.thread,
            "unix_time": self.unix_time,
        }


@dataclass(slots=True)
class QueryRecord:
    """One ``session.run`` in the flight recorder's ring buffer."""

    seq: int
    fingerprint: str
    query: str                      #: truncated query text (display only)
    backend: str                    #: backend the caller asked for
    winner: str | None              #: backend that answered (None on error)
    outcome: str                    #: ok | degraded | timeout | budget | error
    error: str | None               #: exception class name, when raised
    wall_seconds: float
    #: Phase durations: ``compile``, plus ``prepare`` and ``execute``
    #: summed over the attempts (one per backend tried).
    phases: dict[str, float] = field(default_factory=dict)
    trees: int | None = None        #: result forest size, when known
    attempts: tuple[AttemptRecord, ...] = ()
    degradations: tuple[str, ...] = ()
    #: ``ok`` / ``timeout`` / ``budget`` when a guard ran, else ``None``.
    guard_verdict: str | None = None
    plan_cache: str | None = None   #: "hit" / "miss" (engine backend)
    plan_fingerprint: str | None = None
    sampled: bool = False
    sample_reasons: tuple[str, ...] = ()
    #: Full span tree, retained only for tail-sampled records.
    trace: "Span | None" = None
    thread: str = ""
    #: Process-pool worker that evaluated the query (``""`` for
    #: in-process backends).
    worker: str = ""
    unix_time: float = 0.0

    def to_dict(self, include_trace: bool = True) -> dict[str, object]:
        """A JSON-serializable view (what ``/debug/queries`` returns)."""
        payload: dict[str, object] = {
            "seq": self.seq,
            "fingerprint": self.fingerprint,
            "query": self.query,
            "backend": self.backend,
            "winner": self.winner,
            "outcome": self.outcome,
            "error": self.error,
            "wall_ms": round(self.wall_seconds * 1e3, 3),
            "phases_ms": {name: round(seconds * 1e3, 3)
                          for name, seconds in self.phases.items()},
            "trees": self.trees,
            "attempts": [attempt.to_dict() for attempt in self.attempts],
            "degradations": list(self.degradations),
            "guard_verdict": self.guard_verdict,
            "plan_cache": self.plan_cache,
            "plan_fingerprint": self.plan_fingerprint,
            "sampled": self.sampled,
            "sample_reasons": list(self.sample_reasons),
            "thread": self.thread,
            "worker": self.worker,
            "unix_time": self.unix_time,
        }
        if include_trace:
            payload["trace"] = (span_to_dict(self.trace)
                                if self.trace is not None else None)
        return payload


def span_to_dict(span: "Span") -> dict[str, object]:
    """A span tree as nested JSON-able dicts (for ``/debug/queries``)."""
    return {
        "name": span.name,
        "ms": round(span.seconds * 1e3, 3),
        "attributes": {key: value if isinstance(
            value, (bool, int, float, str)) or value is None else str(value)
            for key, value in span.attributes.items()},
        "children": [span_to_dict(child) for child in span.children],
    }


@dataclass(frozen=True)
class SLO:
    """A declarative latency objective with an error budget.

    ``objective`` is the fraction of queries that must both succeed and
    finish within ``target_seconds``; the error budget is the remainder.
    The recorder exports, per SLO, the violation counter and the **burn
    rate** — observed violation fraction divided by the budget, so 1.0
    means the budget is being consumed exactly as fast as it accrues and
    anything above it means the objective is being missed.
    """

    name: str
    target_seconds: float
    objective: float = 0.99

    def __post_init__(self) -> None:
        if self.target_seconds <= 0:
            raise ValueError(
                f"SLO {self.name!r}: target must be positive, "
                f"got {self.target_seconds}")
        if not 0.0 < self.objective < 1.0:
            raise ValueError(
                f"SLO {self.name!r}: objective must be in (0, 1), "
                f"got {self.objective}")

    @property
    def error_budget(self) -> float:
        return 1.0 - self.objective

    def violated_by(self, record: QueryRecord) -> bool:
        """Whether one record burns this SLO's budget."""
        if record.outcome in SLO_EXEMPT_OUTCOMES:
            return False
        return (record.outcome not in ("ok", "degraded")
                or record.wall_seconds > self.target_seconds)

    def to_dict(self) -> dict[str, object]:
        return {"name": self.name,
                "target_seconds": self.target_seconds,
                "objective": self.objective,
                "error_budget": round(self.error_budget, 6)}


#: The out-of-the-box objective: 99% of queries answer within a second.
DEFAULT_SLOS: tuple[SLO, ...] = (SLO("default", target_seconds=1.0,
                                     objective=0.99),)


def estimate_quantile(cumulative: "list[tuple[float, int]]",
                      quantile: float) -> float | None:
    """Estimate a quantile from cumulative (upper bound, count) buckets.

    Linear interpolation inside the bucket that crosses the target rank;
    observations in the ``+Inf`` bucket report the largest finite bound
    (the histogram cannot resolve beyond it).  ``None`` with no data.
    """
    if not cumulative:
        return None
    total = cumulative[-1][1]
    if total <= 0:
        return None
    target = quantile * total
    previous_bound = 0.0
    previous_count = 0
    for bound, count in cumulative:
        if count >= target:
            if bound == float("inf"):
                return previous_bound
            span = count - previous_count
            if span <= 0:
                return bound
            fraction = (target - previous_count) / span
            return previous_bound + (bound - previous_bound) * fraction
        previous_bound, previous_count = bound, count
    return previous_bound


class FlightRecorder:
    """Lock-protected fixed-size ring buffer of :class:`QueryRecord`.

    Owned by a session (one per :class:`~repro.session.XQuerySession`,
    on by default); standalone construction works too — pass a
    :class:`MetricsRegistry` to share instruments, or let the recorder
    own a private one.  All mutation happens under one lock; reads take
    the same lock and return copies, so a concurrent ``/debug/queries``
    scrape can never observe a torn record.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 slow_seconds: float = DEFAULT_SLOW_SECONDS,
                 metrics: MetricsRegistry | None = None,
                 slos: Iterable[SLO] | None = None,
                 recent_window: int = DEFAULT_RECENT_WINDOW):
        if capacity < 1:
            raise ValueError(f"capacity must be ≥ 1, got {capacity}")
        if slow_seconds < 0:
            raise ValueError(
                f"slow_seconds cannot be negative, got {slow_seconds}")
        if recent_window < 1:
            raise ValueError(
                f"recent_window must be ≥ 1, got {recent_window}")
        self.capacity = capacity
        self.slow_seconds = slow_seconds
        self.recent_window = recent_window
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.slos: tuple[SLO, ...] = tuple(
            slos if slos is not None else DEFAULT_SLOS)
        self._lock = threading.Lock()
        self._records: list[QueryRecord] = []
        self._next_seq = 0
        self._total = 0
        self._sampled = 0
        self._events: deque[dict[str, object]] = deque(
            maxlen=DEFAULT_EVENT_CAPACITY)
        self._next_event_seq = 0
        #: Document updates, separate ring (rare next to queries).
        self._updates: deque[UpdateRecord] = deque(
            maxlen=DEFAULT_EVENT_CAPACITY)
        self._next_update_seq = 0
        self._updates_total = 0
        self._outcomes: dict[str, int] = {}
        self._slo_totals: dict[str, int] = {name: 0 for name in
                                            (slo.name for slo in self.slos)}
        self._slo_violations: dict[str, int] = dict(self._slo_totals)
        #: Sliding window of violation booleans per SLO (recent burn).
        self._slo_recent: dict[str, deque[bool]] = {
            slo.name: deque(maxlen=recent_window) for slo in self.slos}
        #: Summed seconds and count of every attempt observed, the
        #: running form of the histogram's mean (under ``_lock``).
        self._latency_sum = 0.0
        self._latency_count = 0
        self._h_latency = self.metrics.histogram(
            "repro_query_latency_seconds",
            "per-attempt query latency (failed attempts included)",
            ("fingerprint", "backend"), buckets=LATENCY_BUCKETS)
        self._m_recorded = self.metrics.counter(
            "repro_flight_records_total",
            "queries recorded by the flight recorder", ("outcome",))
        self._m_tail_sampled = self.metrics.counter(
            "repro_flight_tail_sampled_total",
            "anomalous queries whose full span tree was retained",
            ("reason",))
        self._g_slo_burn = self.metrics.gauge(
            "repro_slo_burn_rate",
            "violation fraction over error budget (>1 = objective missed)",
            ("slo",))
        self._g_slo_target = self.metrics.gauge(
            "repro_slo_target_seconds", "declared latency target", ("slo",))
        self._m_slo_violations = self.metrics.counter(
            "repro_slo_violations_total",
            "queries that burned SLO error budget", ("slo",))
        self._m_updates = self.metrics.counter(
            "repro_flight_updates_total",
            "document updates recorded by the flight recorder", ("mode",))
        self._h_update_lock = self.metrics.histogram(
            "repro_update_lock_hold_seconds",
            "session write-lock hold time per document update",
            ("mode",), buckets=LATENCY_BUCKETS)
        for slo in self.slos:
            self._g_slo_target.set(slo.target_seconds, slo=slo.name)
            self._g_slo_burn.set(0.0, slo=slo.name)

    # -- recording ------------------------------------------------------------

    def record_run(self, *, query: str, backend: str,
                   result: object | None = None,
                   error: BaseException | None = None,
                   wall_seconds: float,
                   root: "Span | None" = None,
                   attempts: tuple[AttemptRecord, ...] = (),
                   guard: object | None = None,
                   extra: Mapping[str, object] | None = None) -> QueryRecord:
        """Build and append the record for one finished ``session.run``.

        ``result`` is the :class:`~repro.api.QueryResult` on success,
        ``error`` the raised exception on failure; exactly one is set.
        ``extra`` is the per-run report channel
        (``ExecutionOptions.extra``) the engine backend fills with
        plan-cache facts.  Returns the appended record.
        """
        extra = extra or {}
        degradations = tuple(
            str(degradation)
            for degradation in getattr(result, "degradations", ()) or ())
        outcome = classify_outcome(error, degradations)
        winner = getattr(result, "backend", None) if error is None else None
        phases: dict[str, float] = {}
        if root is not None:
            for child in root.children:
                # An attempt's prepare/execute are the run's own phases,
                # summed over every attempt (one per backend tried).
                for span in (child.children if child.name == "attempt"
                             else (child,)):
                    phases[span.name] = phases.get(span.name, 0.0) \
                        + span.seconds
        trees = (len(result)  # type: ignore[arg-type]
                 if result is not None else None)
        guard_verdict: str | None = None
        if guard is not None:
            guard_verdict = outcome if outcome in ("timeout", "budget") \
                else "ok"
        record = QueryRecord(
            seq=0,  # assigned under the lock below
            fingerprint=query_fingerprint(query),
            query=query[:QUERY_SNIPPET_CHARS],
            backend=backend,
            winner=winner,
            outcome=outcome,
            error=type(error).__name__ if error is not None else None,
            wall_seconds=wall_seconds,
            phases=phases,
            trees=trees,
            attempts=attempts,
            degradations=degradations,
            guard_verdict=guard_verdict,
            plan_cache=extra.get("plan_cache"),  # type: ignore[arg-type]
            plan_fingerprint=extra.get("plan_fingerprint"),  # type: ignore[arg-type]
            thread=threading.current_thread().name,
            worker=str(extra.get("worker", "") or ""),
            unix_time=time.time(),
        )
        reasons = self._sample_reasons(record)
        if reasons:
            record.sampled = True
            record.sample_reasons = reasons
            record.trace = root  # tail-sampled: the anomaly keeps its trace
        self._observe_latency(record)
        self.append(record)
        if record.sampled:
            for reason in reasons:
                self._m_tail_sampled.inc(reason=reason)
            log_slow_query(record)
        return record

    def record_update(self, *, uri: str, incremental: bool,
                      deltas: int = 0, delta_rows: int = 0,
                      relabeled: bool = False,
                      backends_applied: int = 0,
                      backends_invalidated: int = 0,
                      lock_hold_seconds: float,
                      wall_seconds: float) -> UpdateRecord:
        """Append the record for one finished ``session.apply_update``."""
        record = UpdateRecord(
            seq=0,  # assigned under the lock below
            uri=uri,
            incremental=incremental,
            deltas=deltas,
            delta_rows=delta_rows,
            relabeled=relabeled,
            backends_applied=backends_applied,
            backends_invalidated=backends_invalidated,
            lock_hold_seconds=lock_hold_seconds,
            wall_seconds=wall_seconds,
            thread=threading.current_thread().name,
            unix_time=time.time(),
        )
        mode = "delta" if incremental else "full"
        with self._lock:
            record.seq = self._next_update_seq
            self._next_update_seq += 1
            self._updates.append(record)
            self._updates_total += 1
        self._m_updates.inc(mode=mode)
        self._h_update_lock.observe(lock_hold_seconds, mode=mode)
        return record

    def updates(self, limit: int | None = None) -> list[UpdateRecord]:
        """Buffered update records, oldest first."""
        with self._lock:
            selected = list(self._updates)
        if limit is not None and limit >= 0:
            selected = selected[-limit:] if limit else []
        return selected

    def append(self, record: QueryRecord) -> QueryRecord:
        """Append a fully-built record (sequence number assigned here)."""
        with self._lock:
            record.seq = self._next_seq
            self._next_seq += 1
            self._records.append(record)
            if len(self._records) > self.capacity:
                del self._records[:len(self._records) - self.capacity]
            self._total += 1
            if record.sampled:
                self._sampled += 1
            self._outcomes[record.outcome] = \
                self._outcomes.get(record.outcome, 0) + 1
            # Shed/cancelled records carry no SLO signal either way: they
            # would dilute the windows as false successes if counted.
            if record.outcome not in SLO_EXEMPT_OUTCOMES:
                for slo in self.slos:
                    violated = slo.violated_by(record)
                    self._slo_totals[slo.name] += 1
                    self._slo_recent[slo.name].append(violated)
                    if violated:
                        self._slo_violations[slo.name] += 1
                        self._m_slo_violations.inc(slo=slo.name)
                    total = self._slo_totals[slo.name]
                    burn = (self._slo_violations[slo.name] / total) \
                        / slo.error_budget
                    self._g_slo_burn.set(round(burn, 6), slo=slo.name)
        self._m_recorded.inc(outcome=record.outcome)
        return record

    def _sample_reasons(self, record: QueryRecord) -> tuple[str, ...]:
        reasons: list[str] = []
        if record.wall_seconds >= self.slow_seconds:
            reasons.append("slow")
        if record.outcome in ("error", "timeout", "budget"):
            reasons.append("error")
        if record.degradations:
            reasons.append("degraded")
        return tuple(reasons)

    def _observe_latency(self, record: QueryRecord) -> None:
        """Feed the histograms: one observation per backend attempt.

        Failed attempts are observed too, so the latency a fallback chain
        *spent* is visible, not just what the winner charged.  A run that
        never reached a backend (shed or cancelled at admission, compile
        error) has no attempt and observes nothing: its near-zero wall
        time would poison the mean service time that admission's
        retry-after hint is built on.
        """
        for attempt in record.attempts:
            self._h_latency.observe(attempt.seconds,
                                    fingerprint=record.fingerprint,
                                    backend=attempt.backend)
        if record.attempts:
            with self._lock:
                self._latency_sum += sum(attempt.seconds
                                         for attempt in record.attempts)
                self._latency_count += len(record.attempts)

    # -- operator events ------------------------------------------------------

    def note_event(self, kind: str, **fields: object) -> dict[str, object]:
        """Append one operator event (brownout transition, drain, …).

        Events live in their own small ring, separate from query records,
        so a traffic flood cannot push the *explanation* of an incident
        out of the buffer while the incident is happening.
        """
        with self._lock:
            event: dict[str, object] = {
                "seq": self._next_event_seq,
                "kind": kind,
                "unix_time": time.time(),
                **fields,
            }
            self._next_event_seq += 1
            self._events.append(event)
            return event

    def events(self, kind: str | None = None,
               limit: int | None = None) -> list[dict[str, object]]:
        """Buffered operator events, oldest first, optionally filtered."""
        with self._lock:
            selected = list(self._events)
        if kind is not None:
            selected = [e for e in selected if e["kind"] == kind]
        if limit is not None and limit >= 0:
            selected = selected[-limit:] if limit else []
        return selected

    # -- reading --------------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def records(self, outcome: str | None = None,
                sampled: bool | None = None,
                limit: int | None = None) -> list[QueryRecord]:
        """Buffered records, oldest first, optionally filtered.

        ``limit`` keeps the **newest** N records after filtering.
        """
        with self._lock:
            selected = list(self._records)
        if outcome is not None:
            selected = [r for r in selected if r.outcome == outcome]
        if sampled is not None:
            selected = [r for r in selected if r.sampled == sampled]
        if limit is not None and limit >= 0:
            selected = selected[-limit:] if limit else []
        return selected

    def snapshot(self, outcome: str | None = None,
                 sampled: bool | None = None,
                 limit: int | None = None,
                 include_traces: bool = True) -> list[dict[str, object]]:
        """JSON-able record dicts (the ``/debug/queries`` payload body)."""
        return [record.to_dict(include_trace=include_traces)
                for record in self.records(outcome, sampled, limit)]

    def stats(self) -> dict[str, object]:
        """Aggregate counters for health endpoints and ``repro top``."""
        with self._lock:
            return {
                "buffered": len(self._records),
                "capacity": self.capacity,
                "recorded_total": self._total,
                "tail_sampled_total": self._sampled,
                "outcomes": dict(self._outcomes),
                "slow_seconds": self.slow_seconds,
                "events": len(self._events),
                "updates": len(self._updates),
                "updates_total": self._updates_total,
            }

    def slo_status(self) -> list[dict[str, object]]:
        """Per-SLO totals, violations, and cumulative + recent burn."""
        status: list[dict[str, object]] = []
        with self._lock:
            for slo in self.slos:
                total = self._slo_totals[slo.name]
                violations = self._slo_violations[slo.name]
                burn = ((violations / total) / slo.error_budget
                        if total else 0.0)
                entry = slo.to_dict()
                entry.update(queries=total, violations=violations,
                             burn_rate=round(burn, 6),
                             recent_burn_rate=round(
                                 self._recent_burn(slo), 6))
                status.append(entry)
        return status

    def _recent_burn(self, slo: SLO) -> float:
        """Burn over the sliding window (lock held; 0.0 without data)."""
        window = self._slo_recent[slo.name]
        if not window:
            return 0.0
        return (sum(window) / len(window)) / slo.error_budget

    def recent_burn_rates(self) -> dict[str, float]:
        """Per-SLO burn over the last ``recent_window`` counted queries.

        This is what the brownout controller steers on: unlike the
        cumulative ``repro_slo_burn_rate`` gauge, it falls back to zero
        once recent traffic is healthy again, so degradation can recover.
        """
        with self._lock:
            return {slo.name: self._recent_burn(slo) for slo in self.slos}

    def percentiles(self) -> list[dict[str, object]]:
        """The latency table: one row per (fingerprint, backend) series.

        Each row carries the observation count and estimated p50/p95/p99
        in milliseconds, sorted by descending p99 — the order an operator
        scanning for trouble wants.
        """
        histogram = self._h_latency
        rows: list[dict[str, object]] = []
        for key in histogram.label_sets():
            labels = dict(zip(histogram.label_names, key))
            cumulative = histogram.bucket_counts(**labels)
            count = histogram.count(**labels)
            if not count:
                continue
            row: dict[str, object] = {
                "fingerprint": labels["fingerprint"],
                "backend": labels["backend"],
                "count": count,
                "mean_ms": round(histogram.sum(**labels) / count * 1e3, 3),
            }
            for name, quantile in (("p50", 0.50), ("p95", 0.95),
                                   ("p99", 0.99)):
                value = estimate_quantile(cumulative, quantile)
                row[f"{name}_ms"] = (round(value * 1e3, 3)
                                     if value is not None else None)
            rows.append(row)
        rows.sort(key=lambda row: (-(row["p99_ms"] or 0.0),
                                   row["fingerprint"], row["backend"]))
        # Annotate with a query snippet where the buffer still knows one.
        snippets: dict[str, str] = {}
        with self._lock:
            for record in self._records:
                snippets.setdefault(record.fingerprint, record.query)
        for row in rows:
            row["query"] = snippets.get(row["fingerprint"], "")
        return rows

    def mean_latency_seconds(self) -> float | None:
        """Mean observed attempt latency (``None`` without data)."""
        with self._lock:
            if not self._latency_count:
                return None
            return self._latency_sum / self._latency_count

    def reset(self) -> None:
        """Drop buffered records and aggregate counts (SLOs persist)."""
        with self._lock:
            self._records.clear()
            self._total = self._sampled = 0
            self._outcomes.clear()
            for name in self._slo_totals:
                self._slo_totals[name] = 0
                self._slo_violations[name] = 0
                self._slo_recent[name].clear()
        for slo in self.slos:
            self._g_slo_burn.set(0.0, slo=slo.name)

    def __repr__(self) -> str:
        return (f"<FlightRecorder {len(self)}/{self.capacity} record(s), "
                f"slow≥{self.slow_seconds}s>")


def render_percentile_table(rows: list[dict[str, object]],
                            limit: int = 20) -> str:
    """The recorder's percentile table for terminals (``repro top``)."""
    if not rows:
        return "no recorded queries"
    header = (f"{'fingerprint':<14}{'backend':<12}{'count':>7}"
              f"{'mean ms':>10}{'p50 ms':>10}{'p95 ms':>10}{'p99 ms':>10}"
              f"  query")
    lines = [header, "-" * len(header)]
    for row in rows[:limit]:
        query = str(row.get("query", ""))[:48]
        lines.append(
            f"{row['fingerprint']:<14}{row['backend']:<12}"
            f"{row['count']:>7}"
            f"{_cell(row.get('mean_ms')):>10}{_cell(row.get('p50_ms')):>10}"
            f"{_cell(row.get('p95_ms')):>10}{_cell(row.get('p99_ms')):>10}"
            f"  {query}")
    if len(rows) > limit:
        lines.append(f"… {len(rows) - limit} more series")
    return "\n".join(lines)


def _cell(value: object) -> str:
    if value is None:
        return "-"
    return f"{value:.2f}" if isinstance(value, float) else str(value)
