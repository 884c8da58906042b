"""Graceful degradation: fallback chains and their audit records.

A session run may name a *fallback chain* of backends, tried once each
in order: when a backend fails in a degradable way (an execution
failure, a width overflow on a fixed-integer SQL engine), the next one
in the chain answers instead.  Every backend given up on is recorded as
a :class:`Degradation` on the result, so callers can distinguish a
clean answer from a degraded one.

Degradable failures are *backend-level*: the backend could not produce
the answer, but another one might.  Request-level failures — the query's
own deadline (:class:`~repro.errors.QueryTimeoutError`) or resource
budget (:class:`~repro.errors.ResourceBudgetError`) — are never
degraded: retrying the same work elsewhere cannot make it fit the same
limits.

The one trigger outside the tests: SQLite's 64-bit interval widths
(Section 4.3) overflow on a deep enough descendant chain
(:class:`~repro.errors.WidthOverflowError`), and the engine, which
renormalises at run time, answers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import (
    ExecutionError,
    OverloadError,
    QueryCancelledError,
    QueryTimeoutError,
    ResourceBudgetError,
    WidthOverflowError,
)


@dataclass(frozen=True)
class Degradation:
    """One backend the session gave up on while answering a query."""

    #: Name of the backend that failed.
    backend: str
    #: Exception class name (``"WidthOverflowError"``, ``"ExecutionError"``…).
    kind: str
    #: The error message (truncated to keep results printable).
    reason: str

    @classmethod
    def from_error(cls, backend: str, error: BaseException) -> "Degradation":
        reason = str(error)
        if len(reason) > 200:
            reason = reason[:200] + "…"
        return cls(backend, type(error).__name__, reason)

    def __str__(self) -> str:
        return f"{self.backend}: {self.kind}: {self.reason}"


def build_chain(primary: str, fallback: "tuple[str, ...] | list[str]",
                ) -> list[str]:
    """The ordered, de-duplicated list of backends to try."""
    chain: list[str] = [primary]
    for name in fallback:
        if name not in chain:
            chain.append(name)
    return chain


def is_degradable(error: BaseException) -> bool:
    """Whether ``error`` warrants moving on to the next backend."""
    if isinstance(error, (QueryTimeoutError, ResourceBudgetError,
                          QueryCancelledError, OverloadError)):
        return False  # request-level: no backend can change the verdict
    return isinstance(error, (ExecutionError, WidthOverflowError))
