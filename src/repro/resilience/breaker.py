"""Per-backend circuit breakers (closed → open → half-open).

A breaker protects the service from repeatedly paying for a backend that
is failing deterministically: after :data:`FAILURE_THRESHOLD` consecutive
failures the circuit *opens* and requests skip the backend (falling back
down the session's degradation chain) until :data:`RECOVERY_SECONDS`
have passed, at which point it *half-opens* and admits one probe
attempt — success closes the circuit, failure re-opens it, and an
outcome that is evidence of neither (:meth:`CircuitBreaker.release_probe`)
hands the probe slot back.

The clock is injectable, so state transitions are tested without
sleeping.  Breaker instances are owned per backend name by
:mod:`repro.backends.registry` (see
:func:`repro.backends.registry.backend_breaker`), making the health
state shared across sessions in one process — the same place backend
factories already live.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

from repro.errors import CircuitOpenError

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"

#: Numeric encoding used by the ``repro_resilience_breaker_state`` gauge.
STATE_VALUES = {CLOSED: 0, HALF_OPEN: 1, OPEN: 2}

#: Consecutive failures that open a closed circuit.
FAILURE_THRESHOLD = 5
#: Seconds an open circuit waits before admitting a half-open probe.
RECOVERY_SECONDS = 30.0


class CircuitBreaker:
    """Consecutive-failure circuit breaker with timed half-open recovery.

    Instances are shared by every session (and worker thread) in the
    process, so all state transitions happen under an internal lock —
    the one half-open probe in particular stays exact under concurrent
    :meth:`allow` calls.
    """

    def __init__(self, name: str = "",
                 clock: Callable[[], float] = time.monotonic):
        self.name = name
        self._clock = clock
        self._mutex = threading.Lock()
        self._state = CLOSED
        self._failures = 0
        self._opened_at: float | None = None
        self._probing = False

    # -- state ----------------------------------------------------------------

    @property
    def state(self) -> str:
        """Current state; an expired open circuit reads as half-open."""
        with self._mutex:
            self._maybe_half_open()
            return self._state

    @property
    def consecutive_failures(self) -> int:
        return self._failures

    @property
    def retry_after(self) -> float | None:
        """Seconds until an open circuit half-opens (None when not open)."""
        with self._mutex:
            if self._state != OPEN or self._opened_at is None:
                return None
            remaining = self._opened_at + RECOVERY_SECONDS - self._clock()
            return max(remaining, 0.0)

    def _maybe_half_open(self) -> None:
        if (self._state == OPEN and self._opened_at is not None
                and self._clock() - self._opened_at >= RECOVERY_SECONDS):
            self._probing = False
            self._state = HALF_OPEN

    # -- protocol -------------------------------------------------------------

    def allow(self) -> bool:
        """May the caller attempt the backend right now?

        Half-open admits one probe at a time; an admitted probe must be
        resolved with :meth:`record_success`, :meth:`record_failure` or
        :meth:`release_probe`.
        """
        with self._mutex:
            self._maybe_half_open()
            if self._state == CLOSED:
                return True
            if self._state == HALF_OPEN and not self._probing:
                self._probing = True
                return True
            return False

    def check(self) -> None:
        """Like :meth:`allow` but raising :class:`CircuitOpenError`."""
        if not self.allow():
            raise CircuitOpenError(self.name, self.retry_after)

    def record_success(self) -> None:
        """An attempt succeeded: reset failures, close the circuit."""
        self.reset()

    def record_failure(self) -> None:
        """An attempt failed: trip after the threshold; re-open half-open."""
        with self._mutex:
            self._failures += 1
            if self._state == HALF_OPEN or (
                    self._state == CLOSED
                    and self._failures >= FAILURE_THRESHOLD):
                self._opened_at = self._clock()
                self._probing = False
                self._state = OPEN

    def release_probe(self) -> None:
        """An attempt ended in no evidence either way (a width overflow,
        a deadline, a budget, a cancellation): a half-open probe hands
        its slot back so the next caller can probe instead."""
        with self._mutex:
            self._probing = False

    def reset(self) -> None:
        """Forget all history (tests, administrative reset)."""
        with self._mutex:
            self._failures = 0
            self._probing = False
            self._opened_at = None
            self._state = CLOSED

    def __repr__(self) -> str:
        return (f"<CircuitBreaker {self.name!r} {self.state} "
                f"failures={self._failures}/{FAILURE_THRESHOLD}>")
