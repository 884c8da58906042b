"""Bounded retries with exponential backoff and seeded jitter.

A :class:`RetryPolicy` wraps one backend attempt: a
:class:`~repro.errors.TransientBackendError` is retried up to
``max_attempts`` with exponentially growing, jittered delays.  The
schedule is fixed (:data:`BASE_DELAY`, :data:`MULTIPLIER`,
:data:`MAX_DELAY`, :data:`JITTER`); the sleep function and the jitter
RNG are injectable, so the test suite observes exact backoff sequences
through a recorder instead of sleeping — no wall-clock dependence
anywhere.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator, TypeVar

from repro.errors import ExecutionError, TransientBackendError

if TYPE_CHECKING:  # pragma: no cover
    from repro.resilience.guard import QueryGuard

T = TypeVar("T")

#: Called before each retry sleep: (attempt just failed, delay, error).
RetryObserver = Callable[[int, float, BaseException], None]

#: Attempt *k* waits ``min(MAX_DELAY, BASE_DELAY · MULTIPLIER^(k-1))``
#: seconds, scaled by ``1 ± JITTER``.
BASE_DELAY = 0.05
MULTIPLIER = 2.0
MAX_DELAY = 5.0
JITTER = 0.1

#: The failures worth another attempt.
RETRY_ON: tuple[type[BaseException], ...] = (TransientBackendError,)


@dataclass
class RetryPolicy:
    """How many times to try a backend attempt.

    * ``max_attempts`` — total attempts including the first (1 = no retry);
    * ``sleep`` / ``rng`` — injectable for deterministic tests (``rng``
      draws the jitter and is seeded, so schedules are reproducible).
    """

    max_attempts: int = 3
    sleep: Callable[[float], None] = time.sleep
    rng: random.Random = field(default_factory=lambda: random.Random(0x5EED))

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ExecutionError(
                f"max_attempts must be ≥ 1, got {self.max_attempts}")

    def delay_for(self, attempt: int) -> float:
        """The backoff before retrying after failed attempt ``attempt``."""
        delay = min(MAX_DELAY, BASE_DELAY * MULTIPLIER ** (attempt - 1))
        return delay * (1.0 + JITTER * self.rng.uniform(-1.0, 1.0))

    def delays(self) -> Iterator[float]:
        """The full (jittered) backoff schedule, one per possible retry."""
        for attempt in range(1, self.max_attempts):
            yield self.delay_for(attempt)

    def is_retryable(self, error: BaseException) -> bool:
        return isinstance(error, RETRY_ON)

    def call(self, fn: Callable[[], T], *,
             guard: "QueryGuard | None" = None,
             on_retry: RetryObserver | None = None) -> T:
        """Run ``fn``, retrying transient failures per this policy.

        ``guard`` bounds the schedule: a retry never sleeps past the
        query deadline — if the next delay would, the last error is
        raised immediately (the deadline belongs to the whole request,
        not to any one attempt).  ``on_retry`` observes each backoff
        (metrics, span recording) before the sleep happens.
        """
        attempt = 0
        while True:
            attempt += 1
            try:
                return fn()
            except Exception as error:  # noqa: BLE001 — filtered below
                if attempt >= self.max_attempts or not self.is_retryable(error):
                    raise
                delay = self.delay_for(attempt)
                if guard is not None:
                    remaining = guard.remaining
                    if remaining is not None and delay >= remaining:
                        raise
                if on_retry is not None:
                    on_retry(attempt, delay, error)
                if delay > 0:
                    self.sleep(delay)


#: The do-nothing policy: one attempt, no sleeping.
NO_RETRY = RetryPolicy(max_attempts=1)
