"""Cooperative per-query resource governance.

A :class:`QueryGuard` carries one query's deadline and tuple budget
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

The budget models the complexity results of Koch ("On the Complexity
of Nonrecursive XQuery", PAPERS.md): the tuples a query produces grow
polynomially with its nesting depth, so they get a cap (``budget=``,
a number of tuples).
"""

from __future__ import annotations

import threading
import time
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
    exactly once — later calls keep the first reason.
    """

    __slots__ = ("_event", "_reason", "_lock")

    def __init__(self):
        self._event = threading.Event()
        self._reason: str | None = None
        self._lock = threading.Lock()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()

    @property
    def reason(self) -> str:
        """The first cancel reason (``""`` while not cancelled)."""
        return self._reason or ""

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
        """Block until cancelled or ``timeout`` passes."""
        return self._event.wait(timeout)

    def __repr__(self) -> str:
        state = f"cancelled: {self.reason!r}" if self.cancelled else "armed"
        return f"<CancellationToken {state}>"


class QueryGuard:
    """One query's deadline and budget, checked cooperatively.

    ``deadline`` is in seconds from :meth:`start` (which :meth:`tick` and
    :meth:`check` call implicitly on first use).  ``budget`` caps the
    interval tuples produced across all operator evaluations (on SQLite:
    the rows of the result); ``None`` is unlimited.  ``clock`` is any
    monotonic float-seconds callable — tests inject fakes.  The guard is
    intentionally allocation-free on the hot path: :meth:`tick` is a
    counter decrement in the common case and reads the clock only every
    ``check_interval`` calls.
    """

    __slots__ = ("deadline", "budget", "backend", "check_interval", "token",
                 "_clock", "_expires_at", "_tuples", "_countdown", "_pending")

    def __init__(self, deadline: float | None = None,
                 budget: int | None = None,
                 clock: Callable[[], float] = time.monotonic,
                 check_interval: int = DEFAULT_CHECK_INTERVAL,
                 token: CancellationToken | None = None):
        if deadline is not None and not deadline > 0:  # NaN too
            raise ExecutionError(f"deadline must be positive, got {deadline}")
        if budget is not None and (isinstance(budget, bool)
                                   or not isinstance(budget, int)
                                   or budget < 0):
            raise ExecutionError(
                f"budget must be ≥ 0 tuples (an int) or None, got {budget!r}")
        if check_interval < 1:
            raise ExecutionError(
                f"check_interval must be ≥ 1, got {check_interval}")
        self.deadline = deadline
        self.budget = budget
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
        return (self.deadline is not None or self.budget is not None
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

    def account(self, tuples: int) -> None:
        """Charge one node result's tuples against the budget.

        Called from the engine's observed evaluation path; raises
        :class:`ResourceBudgetError` once the cap is passed.
        """
        self._tuples += tuples
        if self.budget is not None and self._tuples > self.budget:
            raise ResourceBudgetError("tuples", self.budget, self._tuples)

    def check(self) -> None:
        """Full check (deadline + consumed budget); statement boundaries."""
        self.check_deadline()
        if self.budget is not None and self._tuples > self.budget:
            raise ResourceBudgetError("tuples", self.budget, self._tuples)

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
        if self.budget is not None:
            parts.append(f"budget={self.budget}")
        if self.token is not None:
            parts.append("cancellable")
        return f"<QueryGuard {' '.join(parts) or 'unlimited'}>"
