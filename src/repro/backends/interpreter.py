"""Backend adapters for the Figure 3 interpreter: the reference
semantics (``interpreter``, the oracle) and the nested-loop competitor
baseline of Section 6 (``naive``), which is the same interpreter run
with a :class:`~repro.baselines.naive.BudgetMeter`."""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.backends.base import Backend, BackendCapabilities, ExecutionOptions
from repro.backends.registry import register_backend
from repro.baselines.naive import BudgetMeter
from repro.encoding.interval import decode
from repro.xml.forest import Forest
from repro.xquery.interpreter import Interpreter

if TYPE_CHECKING:  # pragma: no cover
    from repro.api import CompiledQuery
    from repro.engine.evaluator import Value


@register_backend
class InterpreterBackend(Backend):
    """Evaluate core expressions with the denotational reference semantics.

    Deliberately does nothing clever: each bound snapshot is decoded
    once into plain trees and every run is a direct transcription of the
    Figure 3 equations.  Every other backend is conformance-tested
    against this one.
    """

    name = "interpreter"
    capabilities = BackendCapabilities(
        max_width=None,
        strategies=(),  # no join operator to choose
        description="Figure 3 denotational reference semantics (oracle)",
    )
    _span = "interpret"  # the span one traced run opens

    def __init__(self) -> None:
        super().__init__()
        self._forests: dict[str, Forest] = {}

    def _load(self, name: str, value: "Value") -> None:
        self._forests[name] = decode(value[0]).trees()

    def _unload(self, name: str) -> None:
        self._forests.pop(name, None)

    def _close(self) -> None:
        self._forests.clear()

    def _meter(self, tick: Callable[[], None] | None) -> BudgetMeter | None:
        """The oracle meters nothing but a guard's deadline."""
        return None if tick is None else BudgetMeter(tick=tick)

    def _runner(self, compiled: "CompiledQuery",
                options: ExecutionOptions) -> Callable[[], Forest]:
        bindings = {var: self._forests[var]
                    for var in self._bindings(compiled)}
        guard = options.guard
        tick = None
        if guard is not None and guard.enabled:
            tick = guard.start().tick
        interpreter = Interpreter(self._meter(tick))

        def run() -> Forest:
            if self._tracer is None:
                return interpreter.evaluate(compiled.core, bindings)
            with self._tracer.span(self._span) as span:
                result = interpreter.evaluate(compiled.core, bindings)
                span.set(trees=len(result))
            return result

        return run


@register_backend
class NaiveBackend(InterpreterBackend):
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
    _span = "naive.evaluate"

    def __init__(self, memory_budget: int | None = None,
                 work_budget: int | None = None) -> None:
        super().__init__()
        self._memory_budget = memory_budget
        self._work_budget = work_budget

    def _meter(self, tick: Callable[[], None] | None) -> BudgetMeter:
        return BudgetMeter(self._memory_budget, self._work_budget, tick)
