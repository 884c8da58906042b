"""Deterministic fault injection for backends (a test helper).

The resilience machinery is only trustworthy if every path — retry,
breaker trip, half-open probe, fallback — can be exercised on demand.  A
:class:`FaultPlan` scripts faults against a wrapped
:class:`~repro.backends.base.Backend`:

* raise a chosen exception on the k-th call of a method
  (:meth:`FaultPlan.fail_on`);
* delay the k-th call by a fixed amount through an injectable sleep
  (:meth:`FaultPlan.delay_on`) — tests pass a recorder, or
  ``time.sleep`` for a real delay;
* slow *every* call of a method with a deterministic per-attempt delay
  schedule (:meth:`FaultPlan.slow_on`) — the latency fault that makes
  overload, shedding, and brownout paths testable without real load;
* fail calls with a seeded probability (:meth:`FaultPlan.fail_randomly`)
  for soak-style runs that stay reproducible.

Activation is a context manager: :func:`inject_faults` re-registers a
backend name with a wrapping factory and restores the original on exit,
so sessions created inside the block transparently receive the faulty
backend — exactly how a real deployment would meet a flaky engine.
Only the tests use it; the package ships no fault injection.

    plan = FaultPlan().fail_on("execute", calls=(1, 2),
                               error=TransientBackendError("connection reset"))
    with inject_faults("sqlite", plan):
        with XQuerySession(backend="sqlite") as session:
            ...   # first two executes fail, the third succeeds
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator, Mapping

from repro.backends.base import Backend, ExecutionOptions
from repro.backends.registry import _REGISTRY, register_backend
from repro.errors import ReproError, TransientBackendError
from repro.obs.trace import Tracer
from repro.xml.forest import Forest

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.evaluator import Value


def _default_error() -> Exception:
    return TransientBackendError("injected fault")


@dataclass
class _ScriptedFault:
    """One scripted behaviour for a method: which calls, what happens."""

    method: str
    calls: frozenset[int] = frozenset()
    error: Callable[[], Exception] | None = None
    delay: float = 0.0
    probability: float = 0.0
    #: Trigger on every call (latency faults), not just listed ones.
    every: bool = False
    #: Per-attempt delay schedule, indexed by call number (cycled).
    schedule: tuple[float, ...] = ()


@dataclass
class FaultPlan:
    """A deterministic script of backend misbehaviour.

    Call counters are per method name and 1-based; the plan records every
    intercepted call in :attr:`calls` so tests can assert exactly how far
    an execution got.  ``seed`` drives the probabilistic faults;
    ``sleep`` performs injected delays (default: record only, never
    sleep — pass ``time.sleep`` to really stall).
    """

    seed: int = 0
    sleep: Callable[[float], None] | None = None
    faults: list[_ScriptedFault] = field(default_factory=list)
    #: Every intercepted (method, call number) in order.
    calls: list[tuple[str, int]] = field(default_factory=list)
    #: Delays performed, as (method, seconds).
    delays: list[tuple[str, float]] = field(default_factory=list)
    #: Errors raised, as (method, call number, exception).
    raised: list[tuple[str, int, Exception]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._rng = random.Random(self.seed)
        self._counters: dict[str, int] = {}

    # -- scripting ------------------------------------------------------------

    def fail_on(self, method: str, calls: "int | tuple[int, ...]" = 1,
                error: "Exception | Callable[[], Exception] | None" = None,
                ) -> "FaultPlan":
        """Raise on the given (1-based) call numbers of ``method``.

        ``error`` may be an exception instance (re-raised each time) or a
        zero-argument factory; defaults to a
        :class:`~repro.errors.TransientBackendError`.
        """
        if isinstance(calls, int):
            calls = (calls,)
        if error is None:
            factory: Callable[[], Exception] = _default_error
        elif isinstance(error, BaseException):
            captured = error

            def factory() -> Exception:
                return captured
        else:
            factory = error
        self.faults.append(_ScriptedFault(method, frozenset(calls), factory))
        return self

    def delay_on(self, method: str, calls: "int | tuple[int, ...]" = 1,
                 seconds: float = 0.1) -> "FaultPlan":
        """Delay the given call numbers of ``method`` by ``seconds``."""
        if isinstance(calls, int):
            calls = (calls,)
        self.faults.append(
            _ScriptedFault(method, frozenset(calls), None, delay=seconds))
        return self

    def slow_on(self, method: str,
                seconds: "float | tuple[float, ...] | list[float]",
                calls: "int | tuple[int, ...] | None" = None) -> "FaultPlan":
        """Slow ``method`` down — the latency fault behind overload tests.

        By default **every** call is delayed (``calls`` restricts to
        specific 1-based call numbers).  ``seconds`` may be one float
        (the same delay each attempt) or a sequence applied by call
        number and cycled once exhausted, so a backend that degrades
        ``0.1 → 0.5 → 2.0`` per attempt is scripted deterministically.
        Delays go through the plan's injected ``sleep``: pass
        ``time.sleep`` to really stall, or a fake clock's ``advance`` so
        shed/brownout paths run without wall-clock waits.
        """
        if isinstance(seconds, (int, float)):
            schedule: tuple[float, ...] = (float(seconds),)
        else:
            schedule = tuple(float(delay) for delay in seconds)
        if not schedule or any(delay < 0 for delay in schedule):
            raise ReproError(
                f"slow_on needs non-negative delays, got {seconds!r}")
        if calls is None:
            numbers: frozenset[int] = frozenset()
            every = True
        else:
            if isinstance(calls, int):
                calls = (calls,)
            numbers = frozenset(calls)
            every = False
        self.faults.append(
            _ScriptedFault(method, numbers, None, every=every,
                           schedule=schedule))
        return self

    def fail_randomly(self, method: str, probability: float,
                      error: "Exception | Callable[[], Exception] | None" = None,
                      ) -> "FaultPlan":
        """Fail each call of ``method`` with the given probability.

        Draws come from the plan's seeded RNG, so a given seed produces
        the same failure pattern on every run.
        """
        if not 0.0 <= probability <= 1.0:
            raise ReproError(
                f"probability must be in [0, 1], got {probability}")
        if error is None:
            factory: Callable[[], Exception] = _default_error
        elif isinstance(error, BaseException):
            captured = error

            def factory() -> Exception:
                return captured
        else:
            factory = error
        self.faults.append(
            _ScriptedFault(method, frozenset(), factory,
                           probability=probability))
        return self

    # -- interception ---------------------------------------------------------

    def call_count(self, method: str) -> int:
        return self._counters.get(method, 0)

    def apply(self, method: str) -> None:
        """Record one call of ``method`` and act out any scripted fault."""
        count = self._counters.get(method, 0) + 1
        self._counters[method] = count
        self.calls.append((method, count))
        for fault in self.faults:
            if fault.method != method:
                continue
            triggered = (fault.every or count in fault.calls or
                         (fault.probability > 0.0
                          and self._rng.random() < fault.probability))
            if not triggered:
                continue
            delay = fault.delay
            if fault.schedule:
                delay = fault.schedule[(count - 1) % len(fault.schedule)]
            if delay > 0.0:
                self.delays.append((method, delay))
                if self.sleep is not None:
                    self.sleep(delay)
            if fault.error is not None:
                error = fault.error()
                self.raised.append((method, count, error))
                raise error


class FaultyBackend(Backend):
    """A backend decorator acting out a :class:`FaultPlan`.

    Faults fire *before* delegating, so a scripted ``execute`` failure
    never touches the inner backend — the call looks like a transport
    fault from the session's point of view.  Interceptable methods:
    ``prepare``, ``execute``, ``apply_update``, ``close``.
    """

    def __init__(self, inner: Backend, plan: FaultPlan):
        super().__init__()
        self.inner = inner
        self.plan = plan
        self.name = inner.name
        self.capabilities = inner.capabilities

    # Delegate the whole public surface; the base-class state (prepared
    # maps, closed flag) lives in the inner backend.

    def __getattr__(self, name: str):
        # Adapter-specific surface the faults do not script
        # (``adopt_encoded``, ``plan_cache``, ``segment_names`` …): a pool
        # worker forked inside ``inject_faults`` builds its engine through
        # the wrapped factory and must still be able to bind documents.
        if name == "inner":  # not constructed yet: no delegate to ask
            raise AttributeError(name)
        return getattr(self.inner, name)

    def instrument(self, tracer: Tracer | None) -> None:
        self.inner.instrument(tracer)

    def prepare(self, documents: "Mapping[str, Value]") -> None:
        self.plan.apply("prepare")
        self.inner.prepare(documents)

    def apply_update(self, name: str, update) -> bool:
        self.plan.apply("apply_update")
        return self.inner.apply_update(name, update)

    def invalidate(self, name: str) -> None:
        self.inner.invalidate(name)

    @property
    def prepared(self) -> tuple[str, ...]:
        return self.inner.prepared

    def execute(self, compiled, options: ExecutionOptions | None = None):
        self.plan.apply("execute")
        return self.inner.execute(compiled, options)

    def runner(self, compiled, options: ExecutionOptions | None = None):
        inner_run = self.inner.runner(compiled, options)

        def run() -> Forest:
            self.plan.apply("execute")
            return inner_run()

        return run

    def _runner(self, compiled, options):  # pragma: no cover - via runner()
        return self.inner.runner(compiled, options)

    def close(self) -> None:
        self.plan.apply("close")
        self.inner.close()

    def __repr__(self) -> str:
        return f"<FaultyBackend wrapping {self.inner!r}>"


@contextmanager
def inject_faults(backend_name: str, plan: FaultPlan) -> Iterator[FaultPlan]:
    """Wrap a registered backend with ``plan`` for the duration of a block.

    Backends created by name inside the block (sessions, ``run_xquery``,
    the CLI) are transparently wrapped; the original factory is restored
    on exit even if the block raises.
    """
    try:
        original = _REGISTRY[backend_name]
    except KeyError:
        from repro.backends.registry import registered_backends
        from repro.errors import UnknownBackendError

        raise UnknownBackendError(backend_name, registered_backends()) from None

    def faulty_factory(**options: object) -> Backend:
        return FaultyBackend(original(**options), plan)

    register_backend(faulty_factory, name=backend_name, replace=True)
    try:
        yield plan
    finally:
        register_backend(original, name=backend_name, replace=True)
