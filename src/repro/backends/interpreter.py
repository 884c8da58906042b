"""Backend adapter for the Figure 3 reference interpreter (the oracle)."""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.backends.base import Backend, BackendCapabilities, ExecutionOptions
from repro.backends.registry import register_backend
from repro.xml.forest import Forest
from repro.xquery.interpreter import Interpreter

if TYPE_CHECKING:  # pragma: no cover
    from repro.api import CompiledQuery


@register_backend
class InterpreterBackend(Backend):
    """Evaluate core expressions with the denotational reference semantics.

    Deliberately does nothing clever: documents are kept as plain forests
    and every run is a direct transcription of the Figure 3 equations.
    Every other backend is conformance-tested against this one.
    """

    name = "interpreter"
    capabilities = BackendCapabilities(
        max_width=None,
        strategies=(),  # no join operator to choose
        description="Figure 3 denotational reference semantics (oracle)",
    )

    def _runner(self, compiled: "CompiledQuery",
                options: ExecutionOptions) -> Callable[[], Forest]:
        bindings = self._bindings(compiled)
        guard = options.guard
        if guard is not None and guard.enabled:
            interpreter = Interpreter(tick=guard.start().tick)
        else:
            interpreter = Interpreter()

        def run() -> Forest:
            if self._tracer is None:
                return interpreter.evaluate(compiled.core, bindings)
            with self._tracer.span("interpret") as span:
                result = interpreter.evaluate(compiled.core, bindings)
                span.set(trees=len(result))
            return result

        return run
