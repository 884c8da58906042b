"""Overload-safe serving: admission control, backpressure, brownout.

PR 3 gave every query a guard; PR 7 made the service observable.  This
module closes the loop: the session *refuses, sheds, and degrades* under
load instead of queueing unboundedly behind the worker pool until
every caller blows its deadline at once (Koch's complexity results in
PAPERS.md guarantee pathological queries exist; traffic bursts guarantee
pathological arrival rates).  Three cooperating pieces:

* :class:`AdmissionController` — a bounded admission queue with two
  priority classes (``interactive`` ahead of ``batch``), an in-flight
  concurrency cap, and deadline-aware shedding: a request whose
  *estimated* queue wait (from the flight recorder's latency
  histograms) already exceeds its deadline is rejected **on arrival**
  with a typed :class:`~repro.errors.OverloadError` carrying a
  retry-after hint — failing in microseconds instead of timing out in
  seconds.

* :class:`AdaptiveLimiter` — AIMD on the served p99 (drawn from the
  recorder's ``repro_query_latency_seconds`` histograms): while p99
  stays under the target the limit creeps up additively; when p99
  breaches it the limit halves, keeping in-flight work below the point
  where queueing delay compounds.

* :class:`BrownoutController` — subscribes to the recorder's SLO burn
  rate and steps through declarative :class:`BrownoutLevel` degradations
  (force the cheapest backend, disable tail sampling, shrink resource
  budgets, finally shed batch traffic entirely) with hysteresis: a level
  is entered only after the burn stays hot for ``dwell_seconds`` and
  left only after it stays cool for ``cool_seconds``, so the service
  never flaps.  Every transition lands in the flight recorder's event
  log and the ``repro_admission_brownout_level`` gauge.

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
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.errors import ExecutionError, OverloadError
from repro.resilience.guard import (
    CancellationToken,
    ResourceBudget,
    coerce_budget,
)

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

#: How long a real (non-injected) clock waiter sleeps between
#: eligibility re-checks while queued.  Waiters are also notified on
#: every release, so this only bounds staleness under injected clocks.
_WAIT_POLL_SECONDS = 0.05


def check_priority(priority: str) -> str:
    if priority not in PRIORITIES:
        raise ExecutionError(
            f"unknown priority {priority!r}; expected one of {PRIORITIES}")
    return priority


def scale_budget(budget: "int | ResourceBudget | None",
                 scale: float) -> "int | ResourceBudget | None":
    """A brownout level's shrunken view of a caller resource budget.

    ``None`` (unlimited) stays unlimited — brownout tightens what the
    caller already bounded rather than inventing limits — and every
    shrunken cap keeps a floor of 1 so a budget never becomes impossible.
    """
    if budget is None or scale >= 1.0:
        return budget
    resource = coerce_budget(budget)
    if not resource:
        return budget

    def shrink(cap: int | None) -> int | None:
        return max(1, int(cap * scale)) if cap is not None else None

    return ResourceBudget(max_tuples=shrink(resource.max_tuples),
                          max_envs=shrink(resource.max_envs),
                          max_width=shrink(resource.max_width))


@dataclass(frozen=True)
class BrownoutLevel:
    """One declarative degradation step.

    Levels are cumulative by construction: each named level spells out
    the *complete* set of effects in force, so stepping levels never
    needs to diff or merge anything.
    """

    name: str
    #: Override the session's default backend with this (cheapest) one.
    force_backend: str | None = None
    #: Turn off tail sampling / trace retention in the flight recorder.
    disable_sampling: bool = False
    #: Multiply caller resource budgets by this factor (≤ 1.0).
    budget_scale: float = 1.0
    #: Refuse all batch-priority work outright.
    shed_batch: bool = False


#: The default ladder: normal service, then progressively cheaper and
#: blunter service, ending in batch shedding.  ``engine`` is the
#: cheapest backend (no SQL round-trips, columnar kernels in-process).
DEFAULT_BROWNOUT_LEVELS: tuple[BrownoutLevel, ...] = (
    BrownoutLevel("normal"),
    BrownoutLevel("cheap-backend", force_backend="engine"),
    BrownoutLevel("no-sampling", force_backend="engine",
                  disable_sampling=True),
    BrownoutLevel("tight-budgets", force_backend="engine",
                  disable_sampling=True, budget_scale=0.25),
    BrownoutLevel("shed-batch", force_backend="engine",
                  disable_sampling=True, budget_scale=0.25, shed_batch=True),
)


@dataclass(frozen=True)
class AdmissionConfig:
    """Knobs for one session's admission controller.

    The defaults are deliberately generous — an unloaded session behaves
    exactly as before, paying one uncontended lock per query — and the
    adaptive limiter is opt-in (``adaptive=True``) because it deliberately
    serializes work when latency degrades.
    """

    #: Hard cap on concurrently executing queries (the AIMD ceiling).
    max_concurrency: int = 64
    #: The AIMD floor; the limiter never drops below this.
    min_concurrency: int = 1
    #: Starting concurrency limit (``None`` → ``max_concurrency``).
    initial_concurrency: int | None = None
    #: Bound on queued (admitted-but-waiting) queries; arrivals past it shed.
    max_queue_depth: int = 256
    #: Enable the AIMD limiter (otherwise the limit stays static).
    adaptive: bool = False
    #: p99 the limiter steers to (``None`` → the recorder's first SLO
    #: target, or 1.0s without one).
    target_p99_seconds: float | None = None
    #: AIMD additive increase per adjustment when p99 is healthy.
    increase: int = 1
    #: AIMD multiplicative decrease factor when p99 breaches the target.
    decrease: float = 0.5
    #: Seconds between AIMD adjustments (and brownout evaluations).
    adjust_interval_seconds: float = 1.0
    #: A queued request waits at most this long before shedding
    #: (``None`` → wait until its own deadline, or indefinitely).
    queue_timeout_seconds: float | None = None
    #: /healthz reports ``shedding`` for this long after the last shed,
    #: so load balancers polling coarsely still observe the episode.
    shed_health_hold_seconds: float = 5.0
    #: Enable the brownout controller (requires a flight recorder).
    brownout: bool = True
    #: The degradation ladder (index 0 must be a no-op level).
    brownout_levels: tuple[BrownoutLevel, ...] = DEFAULT_BROWNOUT_LEVELS
    #: Burn rate that counts as hot (≥ 1.0 = objective being missed).
    brownout_enter_burn: float = 1.0
    #: Burn rate that counts as cool again (hysteresis: < enter).
    brownout_exit_burn: float = 0.5
    #: Seconds the burn must stay hot before stepping one level up.
    brownout_dwell_seconds: float = 5.0
    #: Seconds the burn must stay cool before stepping one level down.
    brownout_cool_seconds: float = 15.0

    def __post_init__(self) -> None:
        if self.max_concurrency < 1:
            raise ExecutionError(
                f"max_concurrency must be ≥ 1, got {self.max_concurrency}")
        if not 1 <= self.min_concurrency <= self.max_concurrency:
            raise ExecutionError(
                f"min_concurrency must be in [1, {self.max_concurrency}], "
                f"got {self.min_concurrency}")
        if self.max_queue_depth < 0:
            raise ExecutionError(
                f"max_queue_depth cannot be negative, "
                f"got {self.max_queue_depth}")
        if not 0.0 < self.decrease < 1.0:
            raise ExecutionError(
                f"decrease must be a fraction in (0, 1), got {self.decrease}")
        if self.brownout_exit_burn >= self.brownout_enter_burn:
            raise ExecutionError(
                "brownout hysteresis requires exit burn < enter burn, got "
                f"exit={self.brownout_exit_burn} ≥ "
                f"enter={self.brownout_enter_burn}")


class AdaptiveLimiter:
    """AIMD concurrency limit steered by the served p99.

    ``observe_p99(p99, now)`` is fed the current p99 estimate (the
    caller draws it from the flight recorder's
    ``repro_query_latency_seconds`` histograms) at most once per
    ``interval``: a breach multiplies the limit by ``decrease`` (floor
    ``minimum``), health adds ``increase`` (ceiling ``maximum``) — the
    classic TCP-style sawtooth that converges just below the knee where
    queueing delay compounds.
    """

    def __init__(self, initial: int, minimum: int, maximum: int,
                 target_p99: float, increase: int = 1,
                 decrease: float = 0.5):
        self.minimum = minimum
        self.maximum = maximum
        self.target_p99 = target_p99
        self.increase = increase
        self.decrease = decrease
        self._limit = max(minimum, min(initial, maximum))

    @property
    def limit(self) -> int:
        return self._limit

    def observe_p99(self, p99: float | None) -> int:
        """One AIMD step against the current p99; returns the new limit."""
        if p99 is None:
            return self._limit
        if p99 > self.target_p99:
            self._limit = max(self.minimum,
                              int(self._limit * self.decrease) or self.minimum)
        elif self._limit < self.maximum:
            self._limit = min(self.maximum, self._limit + self.increase)
        return self._limit


class BrownoutController:
    """Steps through degradation levels on sustained SLO burn.

    ``evaluate(now)`` reads the recorder's *recent* burn rate (a sliding
    window — the cumulative burn of the gauge never recovers after an
    incident, which would leave the service browned out forever) and
    applies the hysteresis clock described in the module docstring.
    Transitions are idempotent side effects: the level's
    ``disable_sampling`` flag is pushed onto the recorder, the gauge is
    updated, and a ``brownout`` event lands in the recorder's event log.
    """

    def __init__(self, config: AdmissionConfig,
                 recorder: "FlightRecorder | None",
                 metrics: "MetricsRegistry | None" = None,
                 clock: Callable[[], float] = time.monotonic):
        if not config.brownout_levels:
            raise ExecutionError("brownout needs at least one level")
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
        return self.config.brownout_levels[self._index]

    def burn_rate(self) -> float:
        """The worst recent burn across the recorder's SLOs (0 without)."""
        if self.recorder is None:
            return 0.0
        rates = self.recorder.recent_burn_rates()
        return max(rates.values()) if rates else 0.0

    def evaluate(self, now: float | None = None) -> BrownoutLevel:
        """Apply the hysteresis state machine once; returns the level."""
        if self.recorder is None or not self.config.brownout:
            return self.level
        now = self._clock() if now is None else now
        burn = self.burn_rate()
        with self._lock:
            config = self.config
            if burn >= config.brownout_enter_burn:
                self._cool_since = None
                if self._hot_since is None:
                    self._hot_since = now
                elif (now - self._hot_since >= config.brownout_dwell_seconds
                        and self._index < len(config.brownout_levels) - 1):
                    self._step(self._index + 1, burn)
                    self._hot_since = now  # re-arm: next step needs new dwell
            elif burn < config.brownout_exit_burn:
                self._hot_since = None
                if self._index == 0:
                    self._cool_since = None
                elif self._cool_since is None:
                    self._cool_since = now
                elif now - self._cool_since >= config.brownout_cool_seconds:
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
            self.recorder.set_sampling(not new.disable_sampling)
            self.recorder.note_event(
                "brownout", level=new.name, index=index,
                previous=old.name, direction=direction,
                burn_rate=round(burn, 4))


class _Waiter:
    """One queued admission request (created and drained under the lock)."""

    __slots__ = ("priority", "seq", "deadline_at", "timeout_at", "token",
                 "shed")

    def __init__(self, priority: str, seq: int,
                 deadline_at: float | None, timeout_at: float | None,
                 token: CancellationToken | None):
        self.priority = priority
        self.seq = seq
        self.deadline_at = deadline_at
        self.timeout_at = timeout_at
        self.token = token
        self.shed: str | None = None


class Ticket:
    """Proof of admission; release it exactly once (sessions use finally)."""

    __slots__ = ("priority", "token", "admitted_at", "waited_seconds",
                 "_released")

    def __init__(self, priority: str, token: CancellationToken | None,
                 admitted_at: float, waited_seconds: float):
        self.priority = priority
        self.token = token
        self.admitted_at = admitted_at
        self.waited_seconds = waited_seconds
        self._released = False


class AdmissionController:
    """The session's bounded admission queue and in-flight cap.

    The fast path — in-flight below the limit, nothing queued — is one
    lock acquisition and two counter updates, which is what keeps the
    warm no-contention ``run`` overhead inside the < 2% bench budget.
    Everything else (queueing, shedding, AIMD, brownout evaluation)
    happens only under contention.
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
        self._seq = 0
        self._queues: dict[str, deque[_Waiter]] = {
            priority: deque() for priority in PRIORITIES}
        self._draining = False
        self._last_shed_at: float | None = None
        self._last_adjust_at: float | None = None
        self._inflight_tokens: "set[CancellationToken]" = set()
        self._sheds = 0
        self._admitted = 0
        target = self.config.target_p99_seconds
        if target is None:
            target = 1.0
            if recorder is not None and recorder.slos:
                target = recorder.slos[0].target_seconds
        self.limiter = AdaptiveLimiter(
            initial=(self.config.initial_concurrency
                     if self.config.initial_concurrency is not None
                     else self.config.max_concurrency),
            minimum=self.config.min_concurrency,
            maximum=self.config.max_concurrency,
            target_p99=target,
            increase=self.config.increase,
            decrease=self.config.decrease)
        self.brownout = BrownoutController(
            self.config, recorder, metrics=metrics, clock=clock)
        self._g_queue_depth = self._g_inflight = self._g_limit = None
        self._m_sheds = self._m_admitted = None
        if metrics is not None:
            self._g_queue_depth = metrics.gauge(
                "repro_admission_queue_depth",
                "queries admitted but waiting for an execution slot")
            self._g_inflight = metrics.gauge(
                "repro_admission_inflight",
                "queries currently executing under an admission ticket")
            self._g_limit = metrics.gauge(
                "repro_admission_concurrency_limit",
                "current (possibly adaptive) in-flight concurrency limit")
            self._m_sheds = metrics.counter(
                "repro_admission_sheds_total",
                "queries refused by admission control",
                ("reason", "priority"))
            self._m_admitted = metrics.counter(
                "repro_admission_admitted_total",
                "queries granted an execution slot", ("priority",))
            self._g_queue_depth.set(0)
            self._g_inflight.set(0)
            self._g_limit.set(self.limiter.limit)

    # -- introspection --------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        return sum(len(queue) for queue in self._queues.values())

    @property
    def in_flight(self) -> int:
        return self._in_flight

    @property
    def limit(self) -> int:
        return self.limiter.limit

    @property
    def sheds(self) -> int:
        return self._sheds

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def shedding(self) -> bool:
        """Whether /healthz should advertise this instance as shedding.

        True while draining, while the brownout ladder sheds batch work,
        while the queue is at its bound, and for a hold window after the
        last shed (so coarse pollers still observe short episodes).
        """
        if self._draining or self.brownout.level.shed_batch:
            return True
        if (self.config.max_queue_depth > 0
                and self.queue_depth >= self.config.max_queue_depth):
            return True
        if self._last_shed_at is None:
            return False
        return (self._clock() - self._last_shed_at
                < self.config.shed_health_hold_seconds)

    def snapshot(self) -> dict[str, object]:
        """The /healthz ``admission`` block."""
        with self._cv:
            return {
                "queue_depth": self.queue_depth,
                "max_queue_depth": self.config.max_queue_depth,
                "in_flight": self._in_flight,
                "concurrency_limit": self.limiter.limit,
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

    # -- wait estimation ------------------------------------------------------

    def expected_service_seconds(self) -> float | None:
        """Mean served latency from the recorder (None without data)."""
        if self.recorder is None:
            return None
        return self.recorder.mean_latency_seconds()

    def estimate_queue_wait(self, priority: str) -> float | None:
        """Estimated wait for a new arrival of ``priority`` (None = unknown).

        Little's-law style: the work ahead of the arrival — everyone in
        a same-or-higher-priority queue plus the currently running
        queries — served at ``limit``-way concurrency, each taking the
        recorder's observed mean latency.
        """
        service = self.expected_service_seconds()
        if service is None:
            return None
        ahead = len(self._queues[INTERACTIVE])
        if priority == BATCH:
            ahead += len(self._queues[BATCH])
        limit = max(self.limiter.limit, 1)
        busy = min(self._in_flight, limit)
        return (ahead + busy) * service / limit

    # -- the protocol ---------------------------------------------------------

    def try_acquire(self, priority: str = INTERACTIVE,
                    deadline: float | None = None,
                    token: CancellationToken | None = None) -> Ticket:
        """Admit, queue, or shed one request; blocks while queued.

        ``deadline`` is the request's *total* remaining time in seconds:
        the request is shed on arrival when the estimated queue wait
        exceeds it, and shed from the queue when it expires while
        waiting.  A tripped ``token`` sheds immediately.  Raises
        :class:`OverloadError`; on success returns the :class:`Ticket`
        that :meth:`release` takes back.
        """
        check_priority(priority)
        arrived = self._clock()
        with self._cv:
            self._maybe_adjust(arrived)
            reason = self._shed_reason_on_arrival(priority, deadline, token)
            if reason is not None:
                raise self._shed(reason, priority)
            if self._in_flight < self.limiter.limit and not self._eligible():
                return self._admit(priority, token, arrived)
            waiter = self._enqueue(priority, deadline, arrived, token)
            try:
                while True:
                    if waiter.shed is not None:
                        raise self._shed(waiter.shed, priority)
                    if token is not None and token.cancelled:
                        self._dequeue(waiter)
                        token.raise_if_cancelled()
                    now = self._clock()
                    if (waiter.deadline_at is not None
                            and now >= waiter.deadline_at):
                        self._dequeue(waiter)
                        raise self._shed("deadline", priority)
                    if (waiter.timeout_at is not None
                            and now >= waiter.timeout_at):
                        self._dequeue(waiter)
                        raise self._shed("queue-timeout", priority)
                    if (self._in_flight < self.limiter.limit
                            and self._eligible() is waiter):
                        self._dequeue(waiter)
                        return self._admit(priority, token, arrived)
                    self._cv.wait(timeout=_WAIT_POLL_SECONDS)
            except BaseException:
                self._dequeue(waiter)
                raise

    def release(self, ticket: Ticket,
                latency_seconds: float | None = None) -> None:
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
            self._maybe_adjust(self._clock())
            self._cv.notify_all()

    def _admit(self, priority: str, token: CancellationToken | None,
               arrived: float) -> Ticket:
        now = self._clock()
        self._in_flight += 1
        self._admitted += 1
        if token is not None:
            self._inflight_tokens.add(token)
        if self._g_inflight is not None:
            self._g_inflight.set(self._in_flight)
        if self._m_admitted is not None:
            self._m_admitted.inc(priority=priority)
        return Ticket(priority, token, now, max(0.0, now - arrived))

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
        self._seq += 1
        deadline_at = arrived + deadline if deadline is not None else None
        timeout = self.config.queue_timeout_seconds
        timeout_at = arrived + timeout if timeout is not None else None
        waiter = _Waiter(priority, self._seq, deadline_at, timeout_at, token)
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

    def _shed_reason_on_arrival(self, priority: str,
                                deadline: float | None,
                                token: CancellationToken | None,
                                ) -> str | None:
        if token is not None and token.cancelled:
            token.raise_if_cancelled()
        if self._draining:
            return "draining"
        if priority == BATCH and self.brownout.level.shed_batch:
            return "brownout"
        would_queue = (self._in_flight >= self.limiter.limit
                       or self._eligible() is not None)
        if not would_queue:
            return None
        if self.queue_depth >= self.config.max_queue_depth:
            return "queue-full"
        if deadline is not None:
            wait = self.estimate_queue_wait(priority)
            if wait is not None and wait > deadline:
                return "deadline"
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
        limit = max(self.limiter.limit, 1)
        backlog = self.queue_depth + self._in_flight
        return max(DEFAULT_RETRY_AFTER, backlog * service / limit)

    def _maybe_adjust(self, now: float) -> None:
        """Throttled AIMD step + brownout evaluation (lock held)."""
        interval = self.config.adjust_interval_seconds
        if (self._last_adjust_at is not None
                and now - self._last_adjust_at < interval):
            return
        self._last_adjust_at = now
        if self.config.adaptive and self.recorder is not None:
            self.limiter.observe_p99(self.recorder.latency_quantile(0.99))
            if self._g_limit is not None:
                self._g_limit.set(self.limiter.limit)
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
                f"{self.limiter.limit} queued={self.queue_depth}/"
                f"{self.config.max_queue_depth} sheds={self._sheds} "
                f"brownout={self.brownout.level.name!r}>")
