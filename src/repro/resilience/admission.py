"""Overload-safe serving: admission control, backpressure, brownout.

The session *refuses* work it cannot take instead of queueing
unboundedly behind the worker pool until every caller blows its
deadline at once.  A pathological *query* is the per-query guard's to
bound (deadline and tuple budget, :mod:`repro.resilience.guard`); this
module bounds pathological *arrival rates*.  Two pieces:

* :class:`AdmissionController` — an in-flight concurrency cap and a
  bounded admission queue with two priority classes (``interactive``
  ahead of ``batch``).  An arrival past the queue bound, a queued
  request whose own deadline expires while it waits, and any arrival
  while the session drains are refused with a typed
  :class:`~repro.errors.OverloadError` carrying a retry-after hint.

* :class:`BrownoutController` — subscribes to the recorder's SLO burn
  rate and steps along the two-entry :data:`BROWNOUT_LEVELS` ladder
  (normal, then every query on the cheapest backend) with hysteresis:
  the cheap-backend level is entered only after the burn stays hot for
  ``AdmissionConfig.brownout_dwell_seconds`` and left only after it
  stays cool for :data:`BROWNOUT_COOL_SECONDS`, so the service never
  flaps.  Every transition lands in the flight recorder's event log and
  the ``repro_admission_brownout_level`` gauge.

The concurrency cap is static (``max_concurrency``); the thresholds
below are constants, not knobs.

All timing goes through an injectable monotonic ``clock`` and all
latency data through the recorder, so the full overload story — flood,
shed, brown out, recover, drain — runs deterministically in tests
(see ``tests/test_admission.py``).
"""

from __future__ import annotations

import logging
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.errors import ExecutionError, OverloadError
from repro.resilience.guard import CancellationToken

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.flight import FlightRecorder
    from repro.obs.metrics import MetricsRegistry

logger = logging.getLogger("repro.admission")

#: Priority classes, in admission order.  Interactive requests always
#: admit ahead of batch requests regardless of arrival order.
INTERACTIVE = "interactive"
BATCH = "batch"
PRIORITIES = (INTERACTIVE, BATCH)

#: Retry-after hint when no latency data exists yet to estimate from.
DEFAULT_RETRY_AFTER = 0.05

#: /healthz reports ``shedding`` for this long after the last shed, so
#: load balancers polling coarsely still observe the episode.
SHED_HEALTH_HOLD_SECONDS = 5.0

#: Seconds between brownout evaluations on the admission path.
EVALUATE_INTERVAL_SECONDS = 1.0

#: Recent SLO burn rate that counts as hot (≥ 1.0 = objective missed).
BROWNOUT_ENTER_BURN = 1.0
#: Burn rate that counts as cool again (hysteresis: below the enter burn).
BROWNOUT_EXIT_BURN = 0.5
#: Seconds the burn must stay cool before stepping one level down.
BROWNOUT_COOL_SECONDS = 15.0

#: How long a real (non-injected) clock waiter sleeps between
#: eligibility re-checks while queued.  Waiters are also notified on
#: every release, so this only bounds staleness under injected clocks.
_WAIT_POLL_SECONDS = 0.05


def check_priority(priority: str) -> str:
    if priority not in PRIORITIES:
        raise ExecutionError(
            f"unknown priority {priority!r}; expected one of {PRIORITIES}")
    return priority


@dataclass(frozen=True)
class BrownoutLevel:
    """One step of the brownout ladder."""

    name: str
    #: Override the session's default backend with this (cheapest) one.
    force_backend: str | None = None


#: The ladder: normal service, then every query on ``engine``, the
#: cheapest backend (no SQL round-trips, columnar kernels in-process).
#: It stops there: batch work is still admitted however long the burn
#: stays hot — the concurrency cap and the queue bound are what refuse.
BROWNOUT_LEVELS: tuple[BrownoutLevel, ...] = (
    BrownoutLevel("normal"),
    BrownoutLevel("cheap-backend", force_backend="engine"),
)


@dataclass(frozen=True)
class AdmissionConfig:
    """The three settable values of one session's admission controller.

    The defaults are deliberately generous: an unloaded session behaves
    exactly as before, paying one uncontended lock per query.
    """

    #: Hard cap on concurrently executing queries.
    max_concurrency: int = 64
    #: Bound on queued (admitted-but-waiting) queries; arrivals past it shed.
    max_queue_depth: int = 256
    #: Seconds the burn must stay hot before stepping one level up.
    brownout_dwell_seconds: float = 5.0

    def __post_init__(self) -> None:
        if self.max_concurrency < 1:
            raise ExecutionError(
                f"max_concurrency must be ≥ 1, got {self.max_concurrency}")
        if self.max_queue_depth < 0:
            raise ExecutionError(
                f"max_queue_depth cannot be negative, "
                f"got {self.max_queue_depth}")
        if self.brownout_dwell_seconds < 0:
            raise ExecutionError(
                f"brownout_dwell_seconds cannot be negative, "
                f"got {self.brownout_dwell_seconds}")


class BrownoutController:
    """Steps along the brownout ladder on sustained SLO burn.

    ``evaluate(now)`` reads the recorder's *recent* burn rate (a sliding
    window — the cumulative burn of the gauge never recovers after an
    incident, which would leave the service browned out forever) and
    applies the hysteresis clock described in the module docstring.
    A transition updates the gauge and lands a ``brownout`` event in the
    recorder's event log.
    """

    def __init__(self, config: AdmissionConfig,
                 recorder: "FlightRecorder | None",
                 metrics: "MetricsRegistry | None" = None,
                 clock: Callable[[], float] = time.monotonic):
        self.config = config
        self.recorder = recorder
        self._clock = clock
        self._lock = threading.Lock()
        self._index = 0
        self._hot_since: float | None = None
        self._cool_since: float | None = None
        self._gauge = None
        if metrics is not None:
            self._gauge = metrics.gauge(
                "repro_admission_brownout_level",
                "current brownout degradation level (0 = normal)")
            self._gauge.set(0)

    @property
    def index(self) -> int:
        return self._index

    @property
    def level(self) -> BrownoutLevel:
        return BROWNOUT_LEVELS[self._index]

    def burn_rate(self) -> float:
        """The worst recent burn across the recorder's SLOs (0 without)."""
        if self.recorder is None:
            return 0.0
        rates = self.recorder.recent_burn_rates()
        return max(rates.values()) if rates else 0.0

    def evaluate(self, now: float | None = None) -> BrownoutLevel:
        """Apply the hysteresis state machine once; returns the level."""
        if self.recorder is None:
            return self.level
        now = self._clock() if now is None else now
        burn = self.burn_rate()
        with self._lock:
            if burn >= BROWNOUT_ENTER_BURN:
                self._cool_since = None
                if self._hot_since is None:
                    self._hot_since = now
                elif (now - self._hot_since
                        >= self.config.brownout_dwell_seconds
                        and self._index < len(BROWNOUT_LEVELS) - 1):
                    self._step(self._index + 1, burn)
                    self._hot_since = now  # re-arm: next step needs new dwell
            elif burn < BROWNOUT_EXIT_BURN:
                self._hot_since = None
                if self._index == 0:
                    self._cool_since = None
                elif self._cool_since is None:
                    self._cool_since = now
                elif now - self._cool_since >= BROWNOUT_COOL_SECONDS:
                    self._step(self._index - 1, burn)
                    self._cool_since = now
            else:
                # Inside the hysteresis band: hold the level, reset clocks.
                self._hot_since = None
                self._cool_since = None
            return self.level

    def _step(self, index: int, burn: float) -> None:
        """Move to ``index`` and apply its effects (lock held)."""
        old = self.level
        self._index = index
        new = self.level
        direction = "enter" if index > 0 else "exit"
        logger.warning("brownout %s → %s (burn rate %.3f)",
                       old.name, new.name, burn)
        if self._gauge is not None:
            self._gauge.set(index)
        if self.recorder is not None:
            self.recorder.note_event(
                "brownout", level=new.name, index=index,
                previous=old.name, direction=direction,
                burn_rate=round(burn, 4))


class _Waiter:
    """One queued admission request (created and drained under the lock)."""

    __slots__ = ("priority", "deadline_at", "token", "shed")

    def __init__(self, priority: str, deadline_at: float | None,
                 token: CancellationToken | None):
        self.priority = priority
        self.deadline_at = deadline_at
        self.token = token
        self.shed: str | None = None


class Ticket:
    """Proof of admission; release it exactly once (sessions use finally)."""

    __slots__ = ("priority", "token", "_released")

    def __init__(self, priority: str, token: CancellationToken | None):
        self.priority = priority
        self.token = token
        self._released = False


class AdmissionController:
    """The session's bounded admission queue and in-flight cap.

    The fast path — in-flight below the limit, nothing queued — is one
    lock acquisition and two counter updates, which is what keeps the
    warm no-contention ``run`` overhead inside the < 2% bench budget.
    Everything else (queueing, shedding) happens only under contention,
    and brownout is evaluated at most once per
    :data:`EVALUATE_INTERVAL_SECONDS`.
    """

    def __init__(self, config: AdmissionConfig | None = None, *,
                 metrics: "MetricsRegistry | None" = None,
                 recorder: "FlightRecorder | None" = None,
                 clock: Callable[[], float] = time.monotonic):
        self.config = config if config is not None else AdmissionConfig()
        self.recorder = recorder
        self._clock = clock
        self._cv = threading.Condition()
        self._in_flight = 0
        self._queues: dict[str, deque[_Waiter]] = {
            priority: deque() for priority in PRIORITIES}
        self._draining = False
        self._last_shed_at: float | None = None
        self._last_evaluated_at: float | None = None
        self._inflight_tokens: "set[CancellationToken]" = set()
        self._sheds = 0
        self._admitted = 0
        self.brownout = BrownoutController(
            self.config, recorder, metrics=metrics, clock=clock)
        self._g_queue_depth = self._g_inflight = None
        self._m_sheds = self._m_admitted = None
        if metrics is not None:
            self._g_queue_depth = metrics.gauge(
                "repro_admission_queue_depth",
                "queries admitted but waiting for an execution slot")
            self._g_inflight = metrics.gauge(
                "repro_admission_inflight",
                "queries currently executing under an admission ticket")
            metrics.gauge(
                "repro_admission_concurrency_limit",
                "in-flight concurrency cap (max_concurrency)",
            ).set(self.config.max_concurrency)
            self._m_sheds = metrics.counter(
                "repro_admission_sheds_total",
                "queries refused by admission control",
                ("reason", "priority"))
            self._m_admitted = metrics.counter(
                "repro_admission_admitted_total",
                "queries granted an execution slot", ("priority",))
            self._g_queue_depth.set(0)
            self._g_inflight.set(0)

    # -- introspection --------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        return sum(len(queue) for queue in self._queues.values())

    @property
    def in_flight(self) -> int:
        return self._in_flight

    @property
    def limit(self) -> int:
        return self.config.max_concurrency

    @property
    def sheds(self) -> int:
        return self._sheds

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def shedding(self) -> bool:
        """Whether /healthz should advertise this instance as shedding.

        True while draining, while the queue is at its bound, and for a
        hold window after the last shed (so coarse pollers still observe
        short episodes).
        """
        if self._draining:
            return True
        if (self.config.max_queue_depth > 0
                and self.queue_depth >= self.config.max_queue_depth):
            return True
        if self._last_shed_at is None:
            return False
        return self._clock() - self._last_shed_at < SHED_HEALTH_HOLD_SECONDS

    def snapshot(self) -> dict[str, object]:
        """The /healthz ``admission`` block."""
        with self._cv:
            return {
                "queue_depth": self.queue_depth,
                "max_queue_depth": self.config.max_queue_depth,
                "in_flight": self._in_flight,
                "concurrency_limit": self.config.max_concurrency,
                "admitted_total": self._admitted,
                "sheds_total": self._sheds,
                "draining": self._draining,
                "shedding": self.shedding,
                "brownout_level": self.brownout.index,
                "brownout": self.brownout.level.name,
                # The same hint a shed OverloadError would carry right
                # now; /healthz surfaces it as a Retry-After header on
                # 503 responses while shedding.
                "retry_after": round(self._retry_after_hint(), 6),
            }

    def expected_service_seconds(self) -> float | None:
        """Mean served latency from the recorder (None without data)."""
        if self.recorder is None:
            return None
        return self.recorder.mean_latency_seconds()

    # -- the protocol ---------------------------------------------------------

    def try_acquire(self, priority: str = INTERACTIVE,
                    deadline: float | None = None,
                    token: CancellationToken | None = None) -> Ticket:
        """Admit, queue, or shed one request; blocks while queued.

        ``deadline`` is the request's *total* remaining time in seconds:
        a queued request is shed when it expires while waiting.  A
        tripped ``token`` sheds immediately.  Raises
        :class:`OverloadError`; on success returns the :class:`Ticket`
        that :meth:`release` takes back.
        """
        check_priority(priority)
        arrived = self._clock()
        limit = self.config.max_concurrency
        with self._cv:
            self._maybe_evaluate(arrived)
            reason = self._shed_reason_on_arrival(token)
            if reason is not None:
                raise self._shed(reason, priority)
            if self._in_flight < limit and not self._eligible():
                return self._admit(priority, token)
            waiter = self._enqueue(priority, deadline, arrived, token)
            try:
                while True:
                    if waiter.shed is not None:
                        raise self._shed(waiter.shed, priority)
                    if token is not None and token.cancelled:
                        self._dequeue(waiter)
                        token.raise_if_cancelled()
                    if (waiter.deadline_at is not None
                            and self._clock() >= waiter.deadline_at):
                        self._dequeue(waiter)
                        raise self._shed("deadline", priority)
                    if (self._in_flight < limit
                            and self._eligible() is waiter):
                        self._dequeue(waiter)
                        return self._admit(priority, token)
                    self._cv.wait(timeout=_WAIT_POLL_SECONDS)
            except BaseException:
                self._dequeue(waiter)
                raise

    def release(self, ticket: Ticket) -> None:
        """Return an admitted request's slot (idempotent per ticket)."""
        with self._cv:
            if ticket._released:
                return
            ticket._released = True
            self._in_flight -= 1
            if ticket.token is not None:
                self._inflight_tokens.discard(ticket.token)
            if self._g_inflight is not None:
                self._g_inflight.set(self._in_flight)
            self._maybe_evaluate(self._clock())
            self._cv.notify_all()

    def _admit(self, priority: str,
               token: CancellationToken | None) -> Ticket:
        self._in_flight += 1
        self._admitted += 1
        if token is not None:
            self._inflight_tokens.add(token)
        if self._g_inflight is not None:
            self._g_inflight.set(self._in_flight)
        if self._m_admitted is not None:
            self._m_admitted.inc(priority=priority)
        return Ticket(priority, token)

    def _eligible(self) -> "_Waiter | None":
        """The waiter that must admit next (strict priority, FIFO within)."""
        for priority in PRIORITIES:
            queue = self._queues[priority]
            if queue:
                return queue[0]
        return None

    def _enqueue(self, priority: str, deadline: float | None,
                 arrived: float,
                 token: CancellationToken | None) -> _Waiter:
        deadline_at = arrived + deadline if deadline is not None else None
        waiter = _Waiter(priority, deadline_at, token)
        self._queues[priority].append(waiter)
        if self._g_queue_depth is not None:
            self._g_queue_depth.set(self.queue_depth)
        return waiter

    def _dequeue(self, waiter: _Waiter) -> None:
        queue = self._queues[waiter.priority]
        try:
            queue.remove(waiter)
        except ValueError:
            pass  # already drained (shed by a state change broadcast)
        if self._g_queue_depth is not None:
            self._g_queue_depth.set(self.queue_depth)
        self._cv.notify_all()

    def _shed_reason_on_arrival(self, token: CancellationToken | None,
                                ) -> str | None:
        if token is not None and token.cancelled:
            token.raise_if_cancelled()
        if self._draining:
            return "draining"
        would_queue = (self._in_flight >= self.config.max_concurrency
                       or self._eligible() is not None)
        if would_queue and self.queue_depth >= self.config.max_queue_depth:
            return "queue-full"
        return None

    def _shed(self, reason: str, priority: str) -> OverloadError:
        self._sheds += 1
        self._last_shed_at = self._clock()
        if self._m_sheds is not None:
            self._m_sheds.inc(reason=reason, priority=priority)
        retry_after = self._retry_after_hint()
        logger.debug("shed %s query (%s); retry after %.3fs",
                     priority, reason, retry_after)
        return OverloadError(reason, retry_after=retry_after,
                             queue_depth=self.queue_depth, priority=priority)

    def _retry_after_hint(self) -> float:
        """When capacity is plausibly back: one queue-drain's worth."""
        service = self.expected_service_seconds()
        if service is None:
            return DEFAULT_RETRY_AFTER
        backlog = self.queue_depth + self._in_flight
        return max(DEFAULT_RETRY_AFTER,
                   backlog * service / self.config.max_concurrency)

    def _maybe_evaluate(self, now: float) -> None:
        """Throttled brownout evaluation (lock held)."""
        if (self._last_evaluated_at is not None
                and now - self._last_evaluated_at < EVALUATE_INTERVAL_SECONDS):
            return
        self._last_evaluated_at = now
        self.brownout.evaluate(now)

    # -- drain / shutdown -----------------------------------------------------

    def begin_drain(self) -> None:
        """Stop admitting; queued waiters shed, in-flight work continues."""
        with self._cv:
            if self._draining:
                return
            self._draining = True
            for queue in self._queues.values():
                for waiter in queue:
                    waiter.shed = "draining"
            self._cv.notify_all()
        if self.recorder is not None:
            self.recorder.note_event("drain", phase="begin",
                                     in_flight=self._in_flight)

    def end_drain(self) -> None:
        """Reopen admission (a closed session stays usable afterwards)."""
        with self._cv:
            if not self._draining:
                return
            self._draining = False
            self._cv.notify_all()
        if self.recorder is not None:
            self.recorder.note_event("drain", phase="end")

    def wait_idle(self, timeout: float | None = None) -> bool:
        """Block until no query is in flight; False on timeout."""
        deadline = (self._clock() + timeout) if timeout is not None else None
        with self._cv:
            while self._in_flight > 0:
                remaining: float | None = _WAIT_POLL_SECONDS
                if deadline is not None:
                    remaining = min(remaining, deadline - self._clock())
                    if remaining <= 0:
                        return False
                self._cv.wait(timeout=remaining)
            return True

    def cancel_in_flight(self, reason: str = "shutdown") -> int:
        """Trip every in-flight query's cancellation token; returns count."""
        with self._cv:
            tokens = list(self._inflight_tokens)
        cancelled = 0
        for token in tokens:
            if token.cancel(reason):
                cancelled += 1
        return cancelled

    def __repr__(self) -> str:
        return (f"<AdmissionController in_flight={self._in_flight}/"
                f"{self.config.max_concurrency} queued={self.queue_depth}/"
                f"{self.config.max_queue_depth} sheds={self._sheds} "
                f"brownout={self.brownout.level.name!r}>")
