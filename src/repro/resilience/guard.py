"""Cooperative per-query resource governance.

A :class:`QueryGuard` carries one query's deadline and resource budgets
and is checked at cheap points in every evaluator:

* the DI engine's operator loop calls :meth:`QueryGuard.tick` per
  evaluation step (the existing ``tick`` hook) and
  :meth:`QueryGuard.account` per node result;
* the interpreter and naive evaluators call :meth:`tick` through their
  step callbacks;
* the SQL backend installs :meth:`as_progress_handler` on its connection, so
  even a single long-running statement is interrupted mid-flight.

All timing goes through an injectable ``clock`` (monotonic seconds), so
tests drive deadlines deterministically without wall-clock sleeps —
the same discipline as the paper's "DNF at two CPU hours" protocol, but
enforced inside the process instead of by killing it.

Budgets model the complexity results of Koch ("On the Complexity of
Nonrecursive XQuery", PAPERS.md): tuples produced, environment-sequence
sizes, and interval widths all grow polynomially with query nesting
depth, so each gets its own cap (:class:`ResourceBudget`).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable

from repro.errors import (
    ExecutionError,
    QueryCancelledError,
    QueryTimeoutError,
    ResourceBudgetError,
)

#: How many engine ticks elapse between deadline clock reads.  Reading a
#: monotonic clock per evaluated plan node would dominate tiny queries;
#: once per stride keeps enforcement prompt (strides are re-entered many
#: times per second) while amortizing the syscall.
DEFAULT_CHECK_INTERVAL = 64

#: SQLite VM opcodes between progress-handler invocations.  Low enough to
#: interrupt a quadratic join promptly, high enough to stay off profiles.
DEFAULT_PROGRESS_OPCODES = 4000


class CancellationToken:
    """A thread-safe, latch-style cancellation signal.

    One token may govern many queries (a whole ``run_many`` batch): the
    caller holds the token, every query's :class:`QueryGuard` observes
    it at the guard's existing checkpoints, and :meth:`cancel` flips it
    exactly once — later calls keep the first reason.  Linking
    (``CancellationToken(parent=...)``) lets a batch token aggregate a
    caller token, so cancelling either stops the work.
    """

    __slots__ = ("_event", "_reason", "_lock", "_parent")

    def __init__(self, parent: "CancellationToken | None" = None):
        self._event = threading.Event()
        self._reason: str | None = None
        self._lock = threading.Lock()
        self._parent = parent

    @property
    def cancelled(self) -> bool:
        if self._event.is_set():
            return True
        return self._parent is not None and self._parent.cancelled

    @property
    def reason(self) -> str:
        """The first cancel reason (``""`` while not cancelled)."""
        if self._reason is not None:
            return self._reason
        if self._parent is not None and self._parent.cancelled:
            return self._parent.reason
        return ""

    def cancel(self, reason: str = "cancelled") -> bool:
        """Trip the token; returns False if it was already cancelled."""
        with self._lock:
            if self._event.is_set():
                return False
            self._reason = reason
            self._event.set()
            return True

    def raise_if_cancelled(self) -> None:
        """Raise :class:`QueryCancelledError` when the token is tripped."""
        if self.cancelled:
            raise QueryCancelledError(self.reason or "cancelled")

    def wait(self, timeout: float | None = None) -> bool:
        """Block until cancelled (own event only) or ``timeout`` passes."""
        return self._event.wait(timeout)

    def __repr__(self) -> str:
        state = f"cancelled: {self.reason!r}" if self.cancelled else "armed"
        return f"<CancellationToken {state}>"


@dataclass(frozen=True)
class ResourceBudget:
    """Caps on the work one query may perform (``None`` = unlimited).

    * ``max_tuples`` — total interval tuples produced across all operator
      evaluations;
    * ``max_envs`` — largest environment-sequence index seen at any node;
    * ``max_width`` — largest dynamic-interval width of any node result,
      as the engine carries it: the product of Section 4's width rules
      until a block of that width would leave int64, from there on the
      renormalised width (twice the rows of the largest environment
      block) — so beyond roughly 2**62 this caps rows, not nesting depth.
    """

    max_tuples: int | None = None
    max_envs: int | None = None
    max_width: int | None = None

    def __bool__(self) -> bool:
        return (self.max_tuples is not None or self.max_envs is not None
                or self.max_width is not None)


def coerce_budget(value: "int | ResourceBudget | None") -> ResourceBudget:
    """Normalize a user-supplied budget (an int means ``max_tuples``)."""
    if value is None:
        return ResourceBudget()
    if isinstance(value, ResourceBudget):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return ResourceBudget(max_tuples=value)
    raise ExecutionError(
        f"cannot interpret {value!r} as a resource budget; "
        f"pass an int (max tuples) or a ResourceBudget")


class QueryGuard:
    """One query's deadline and budgets, checked cooperatively.

    ``deadline`` is in seconds from :meth:`start` (which :meth:`tick` and
    :meth:`check` call implicitly on first use).  ``clock`` is any
    monotonic float-seconds callable — tests inject fakes.  The guard is
    intentionally allocation-free on the hot path: :meth:`tick` is a
    counter decrement in the common case and reads the clock only every
    ``check_interval`` calls.
    """

    __slots__ = ("deadline", "budget", "backend", "check_interval", "token",
                 "_clock", "_expires_at", "_tuples", "_countdown", "_pending")

    def __init__(self, deadline: float | None = None,
                 budget: "int | ResourceBudget | None" = None,
                 clock: Callable[[], float] = time.monotonic,
                 check_interval: int = DEFAULT_CHECK_INTERVAL,
                 token: CancellationToken | None = None):
        if deadline is not None and not deadline > 0:  # NaN too
            raise ExecutionError(f"deadline must be positive, got {deadline}")
        if check_interval < 1:
            raise ExecutionError(
                f"check_interval must be ≥ 1, got {check_interval}")
        self.deadline = deadline
        self.budget = coerce_budget(budget)
        #: Cooperative cancellation signal, observed at every checkpoint.
        self.token = token
        #: Backend name attached to timeout errors (set per attempt).
        self.backend: str | None = None
        self.check_interval = check_interval
        self._clock = clock
        self._expires_at: float | None = None
        self._tuples = 0
        self._countdown = check_interval
        self._pending: ExecutionError | None = None

    # -- lifecycle ------------------------------------------------------------

    @property
    def enabled(self) -> bool:
        """Whether this guard enforces anything at all."""
        return (self.deadline is not None or bool(self.budget)
                or self.token is not None)

    def start(self) -> "QueryGuard":
        """Begin (or restart) the deadline window; idempotent per query."""
        if self.deadline is not None and self._expires_at is None:
            self._expires_at = self._clock() + self.deadline
        return self

    @property
    def elapsed(self) -> float:
        """Seconds since the deadline window opened (0.0 before start)."""
        if self._expires_at is None or self.deadline is None:
            return 0.0
        return self._clock() - (self._expires_at - self.deadline)

    @property
    def remaining(self) -> float | None:
        """Seconds until the deadline, or ``None`` without one."""
        if self.deadline is None:
            return None
        if self._expires_at is None:
            return self.deadline
        return self._expires_at - self._clock()

    # -- enforcement ----------------------------------------------------------

    def tick(self) -> None:
        """Per-step hook for evaluator loops; cheap until the stride ends."""
        self._countdown -= 1
        if self._countdown <= 0:
            self._countdown = self.check_interval
            self.check_deadline()

    def check_deadline(self) -> None:
        """Raise on a tripped cancellation token or an expired deadline."""
        if self.token is not None and self.token.cancelled:
            raise QueryCancelledError(self.token.reason or "cancelled")
        if self.deadline is None:
            return
        if self._expires_at is None:
            self.start()
            return
        if self._clock() > self._expires_at:
            raise QueryTimeoutError(self.deadline, self.elapsed,
                                    backend=self.backend)

    def account(self, tuples: int = 0, width: int = 0, envs: int = 0) -> None:
        """Charge one node result against the budgets.

        Called from the engine's observed evaluation path; raises
        :class:`ResourceBudgetError` on the first violated cap.
        """
        budget = self.budget
        if tuples:
            self._tuples += tuples
            if (budget.max_tuples is not None
                    and self._tuples > budget.max_tuples):
                raise ResourceBudgetError("tuples", budget.max_tuples,
                                          self._tuples)
        if budget.max_envs is not None and envs > budget.max_envs:
            raise ResourceBudgetError("envs", budget.max_envs, envs)
        if budget.max_width is not None and width > budget.max_width:
            raise ResourceBudgetError("width", budget.max_width, width)

    def check(self) -> None:
        """Full check (deadline + consumed budgets); statement boundaries."""
        self.check_deadline()
        budget = self.budget
        if (budget.max_tuples is not None
                and self._tuples > budget.max_tuples):
            raise ResourceBudgetError("tuples", budget.max_tuples, self._tuples)

    # -- SQL integration ------------------------------------------------------

    def as_progress_handler(self) -> Callable[[], int]:
        """A SQLite-style progress handler enforcing this guard.

        The handler must not raise through the C layer, so a violation is
        stored on the guard and signalled by returning non-zero (SQLite
        aborts the statement with ``OperationalError: interrupted``); the
        backend then calls :meth:`raise_if_pending` to surface the typed
        error instead of the driver's.
        """
        def handler() -> int:
            try:
                self.check()
            except ExecutionError as error:
                self._pending = error
                return 1
            return 0

        return handler

    @property
    def pending_error(self) -> ExecutionError | None:
        """The violation recorded by the progress handler, if any."""
        return self._pending

    def take_pending(self) -> ExecutionError | None:
        """Pop (and clear) the violation recorded by the progress handler."""
        pending = self._pending
        self._pending = None
        return pending

    def raise_if_pending(self, cause: BaseException | None = None) -> None:
        """Re-raise the progress handler's stored violation (typed)."""
        pending = self._pending
        if pending is not None:
            self._pending = None
            raise pending from cause

    def __repr__(self) -> str:
        parts = []
        if self.deadline is not None:
            parts.append(f"deadline={self.deadline}s")
        if self.budget.max_tuples is not None:
            parts.append(f"max_tuples={self.budget.max_tuples}")
        if self.budget.max_envs is not None:
            parts.append(f"max_envs={self.budget.max_envs}")
        if self.budget.max_width is not None:
            parts.append(f"max_width={self.budget.max_width}")
        if self.token is not None:
            parts.append("cancellable")
        return f"<QueryGuard {' '.join(parts) or 'unlimited'}>"
