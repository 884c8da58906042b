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
* :class:`AdmissionController` / :class:`BrownoutController`
  (:mod:`repro.resilience.admission`) — bounded admission queue with
  priority classes and deadline-aware shedding
  (:class:`~repro.errors.OverloadError` with a retry-after hint), a
  static concurrency cap, and SLO-burn-driven brownout degradation;
* :class:`CancellationToken` (:mod:`repro.resilience.guard`) —
  cooperative cancellation observed at every guard checkpoint, so a
  caller abort stops queued *and* running work
  (:class:`~repro.errors.QueryCancelledError`).

Graceful degradation (:mod:`repro.resilience.fallback`) ties them
together: ``session.run(query, deadline=…, budget=…,
fallback=("engine",))`` tries each backend of the chain once, in order
(e.g. ``sqlite → engine``), instead of failing the request, with every
degradation recorded on the returned :class:`~repro.api.QueryResult`.
There is no session-wide retry and no circuit breaker: the one
transient fault a real run meets, a dead process-pool worker, is
absorbed inside the pool (:mod:`repro.concurrency.procpool`).  See
``docs/ROBUSTNESS.md``.
"""

from repro.errors import (
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
from repro.resilience.fallback import (
    Degradation,
    build_chain,
    is_degradable,
)
from repro.resilience.guard import (
    CancellationToken,
    QueryGuard,
    ResourceBudget,
    coerce_budget,
)

__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "BATCH",
    "BROWNOUT_LEVELS",
    "BrownoutController",
    "BrownoutLevel",
    "CancellationToken",
    "Degradation",
    "INTERACTIVE",
    "OverloadError",
    "PRIORITIES",
    "QueryCancelledError",
    "QueryGuard",
    "QueryTimeoutError",
    "ResourceBudget",
    "ResourceBudgetError",
    "Ticket",
    "TransientBackendError",
    "build_chain",
    "coerce_budget",
    "is_degradable",
]
