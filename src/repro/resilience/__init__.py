"""Resource-governed, fault-tolerant query execution.

The layer that keeps a long-lived service up when a query or a backend
misbehaves — the production counterpart of the paper's benchmark-protocol
cutoffs (Section 6 kills runaway quadratic plans at a CPU budget; Koch's
complexity results in PAPERS.md explain why such plans are inevitable):

* :class:`QueryGuard` (:mod:`repro.resilience.guard`) — a per-query
  deadline plus tuple/environment/width budgets, checked cooperatively in
  every evaluator loop and via SQLite progress handlers, raising the
  typed :class:`~repro.errors.QueryTimeoutError` /
  :class:`~repro.errors.ResourceBudgetError`;
* :class:`RetryPolicy` (:mod:`repro.resilience.retry`) — bounded
  attempts with exponential backoff and seeded jitter; sleep and RNG are
  injectable for deterministic tests;
* :class:`CircuitBreaker` (:mod:`repro.resilience.breaker`) — per-backend
  closed/open/half-open health tracking, owned by the backend registry
  (:func:`repro.backends.registry.backend_breaker`);
* :class:`AdmissionController` / :class:`BrownoutController`
  (:mod:`repro.resilience.admission`) — bounded admission queue with
  priority classes and deadline-aware shedding
  (:class:`~repro.errors.OverloadError` with a retry-after hint), a
  static concurrency cap, and SLO-burn-driven brownout degradation;
* :class:`CancellationToken` (:mod:`repro.resilience.guard`) —
  cooperative cancellation observed at every guard checkpoint, so a
  caller abort stops queued *and* running work
  (:class:`~repro.errors.QueryCancelledError`).

Graceful degradation ties them together:
``session.run(query, deadline=…, budget=…, fallback=("engine",))``
retries transient failures, skips open circuits, and falls back down the
chain (e.g. ``sqlite → engine``) instead of failing the request, with
every degradation recorded on the returned
:class:`~repro.api.QueryResult`.  See ``docs/ROBUSTNESS.md``.
"""

from repro.errors import (
    CircuitOpenError,
    OverloadError,
    QueryCancelledError,
    QueryTimeoutError,
    ResourceBudgetError,
    TransientBackendError,
)
from repro.resilience.admission import (
    BATCH,
    BROWNOUT_LEVELS,
    INTERACTIVE,
    PRIORITIES,
    AdmissionConfig,
    AdmissionController,
    BrownoutController,
    BrownoutLevel,
    Ticket,
)
from repro.resilience.breaker import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    STATE_VALUES,
    CircuitBreaker,
)
from repro.resilience.fallback import (
    Degradation,
    build_chain,
    counts_against_breaker,
    is_degradable,
)
from repro.resilience.guard import (
    CancellationToken,
    QueryGuard,
    ResourceBudget,
    coerce_budget,
)
from repro.resilience.retry import NO_RETRY, RetryPolicy

__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "BATCH",
    "BROWNOUT_LEVELS",
    "BrownoutController",
    "BrownoutLevel",
    "CLOSED",
    "CancellationToken",
    "CircuitBreaker",
    "CircuitOpenError",
    "Degradation",
    "HALF_OPEN",
    "INTERACTIVE",
    "NO_RETRY",
    "OPEN",
    "OverloadError",
    "PRIORITIES",
    "QueryCancelledError",
    "QueryGuard",
    "QueryTimeoutError",
    "ResourceBudget",
    "ResourceBudgetError",
    "RetryPolicy",
    "STATE_VALUES",
    "Ticket",
    "TransientBackendError",
    "build_chain",
    "coerce_budget",
    "counts_against_breaker",
    "is_degradable",
]
