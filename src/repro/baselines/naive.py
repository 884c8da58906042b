"""The cost model of the nested-loop competitor class.

The competitor *is* the Figure 3 interpreter
(:class:`~repro.xquery.interpreter.Interpreter`): every ``for`` iteration
re-evaluates its body and every intermediate forest is fully
materialized, which is precisely the strategy the paper attributes to
contemporary XQuery processors and the source of their quadratic
scale-up on Q8/Q9.  What makes it a *baseline* is the meter it runs
with, :class:`BudgetMeter`, whose two resource models make the
behaviour measurable without wall-clock dependence and reproduce the
failure modes of the paper's tables:

* ``memory_budget`` — total *live* cells (nodes held by ``let``
  bindings and by the forests a ``for`` is accumulating).  Exceeding it
  raises :class:`MemoryLimitExceeded`, the analogue of the paper's "IM"
  entries (systems whose memory demands exceeded the machine).
* ``work_budget`` — total evaluation steps.  Exceeding it raises
  :class:`WorkLimitExceeded`, a deterministic stand-in for the two-hour
  "DNF" timeout.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import ReproError


class MemoryLimitExceeded(ReproError):
    """The evaluator's simulated memory budget was exhausted ("IM")."""


class WorkLimitExceeded(ReproError):
    """The evaluator's work budget was exhausted ("DNF")."""


class BudgetMeter:
    """Step and live-cell accounting for one interpreter run.

    The interpreter charges :meth:`step` once per expression and
    condition evaluated and per ``for`` iteration, and by result size
    per function application and per comparison; it :meth:`hold` s the
    cells of every ``let`` binding and ``for`` piece while they are live
    and :meth:`release` s them after.  ``memory_budget`` /
    ``work_budget`` are in cells and steps; ``None`` disables the
    corresponding limit.  ``tick`` — optional callback invoked once per
    :meth:`step` call (cooperative deadlines: the session passes a
    :class:`~repro.resilience.guard.QueryGuard` tick here).
    """

    def __init__(self, memory_budget: int | None = None,
                 work_budget: int | None = None,
                 tick: Callable[[], None] | None = None):
        self.memory_budget = memory_budget
        self.work_budget = work_budget
        self.work = 0
        self.peak_memory = 0
        self.live = 0
        self._tick = tick

    def step(self, amount: int = 1) -> None:
        if self._tick is not None:
            self._tick()
        self.work += amount
        if self.work_budget is not None and self.work > self.work_budget:
            raise WorkLimitExceeded(
                f"work budget of {self.work_budget} steps exhausted"
            )

    def hold(self, cells: int) -> None:
        self.live += cells
        if self.live > self.peak_memory:
            self.peak_memory = self.live
        if self.memory_budget is not None and self.live > self.memory_budget:
            raise MemoryLimitExceeded(
                f"memory budget of {self.memory_budget} cells exhausted"
            )

    def release(self, cells: int) -> None:
        self.live -= cells
