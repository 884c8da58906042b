"""Backend adapter for the nested-loop competitor baseline (Section 6)."""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.backends.base import Backend, BackendCapabilities, ExecutionOptions
from repro.backends.registry import register_backend
from repro.baselines.naive import NaiveEvaluator
from repro.xml.forest import Forest

if TYPE_CHECKING:  # pragma: no cover
    from repro.api import CompiledQuery


@register_backend
class NaiveBackend(Backend):
    """The materializing tree-walking interpreter the paper competes with.

    ``memory_budget`` / ``work_budget`` reproduce the paper's "IM" and
    "DNF" failure modes deterministically (see
    :mod:`repro.baselines.naive`).
    """

    name = "naive"
    capabilities = BackendCapabilities(
        max_width=None,
        strategies=(),
        description="nested-loop materializing competitor baseline",
    )

    def __init__(self, memory_budget: int | None = None,
                 work_budget: int | None = None) -> None:
        super().__init__()
        self._memory_budget = memory_budget
        self._work_budget = work_budget

    def _runner(self, compiled: "CompiledQuery",
                options: ExecutionOptions) -> Callable[[], Forest]:
        bindings = self._bindings(compiled)
        guard = options.guard
        tick = None
        if guard is not None and guard.enabled:
            tick = guard.start().tick
        evaluator = NaiveEvaluator(memory_budget=self._memory_budget,
                                   work_budget=self._work_budget,
                                   tick=tick)

        def run() -> Forest:
            if self._tracer is None:
                return evaluator.evaluate(compiled.core, bindings)
            with self._tracer.span("naive.evaluate") as span:
                result = evaluator.evaluate(compiled.core, bindings)
                span.set(trees=len(result))
            return result

        return run
