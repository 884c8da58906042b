"""Deterministic fault injection for backends (a test helper).

The degradation paths — fallback down a chain, an update that fails on
one backend, admission under a slow backend — are only trustworthy if
they can be exercised on demand.  A :class:`FaultPlan` scripts faults
against a wrapped :class:`~repro.backends.base.Backend`:

* raise a chosen exception on the k-th call of a method
  (:meth:`FaultPlan.fail_on`);
* slow *every* call of a method by a fixed delay through an injectable
  sleep (:meth:`FaultPlan.slow_on`) — the latency fault that makes
  overload, shedding, and brownout paths testable without real load;
  tests pass a recorder, or ``time.sleep`` for a real delay.

Activation is a context manager: :func:`inject_faults` re-registers a
backend name with a wrapping factory and restores the original on exit,
so sessions created inside the block transparently receive the faulty
backend.  Only the tests use it; the package ships no fault injection.

    plan = FaultPlan().fail_on("execute", calls=1)
    with inject_faults("sqlite", plan):
        with XQuerySession() as session:
            ...   # the first execute fails; fallback=("engine",) answers
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator, Mapping

from repro.backends.base import Backend, ExecutionOptions
from repro.backends.registry import _REGISTRY, register_backend
from repro.errors import ReproError, TransientBackendError
from repro.obs.trace import Tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.evaluator import Value


@dataclass(frozen=True)
class _ScriptedFault:
    """One scripted behaviour for a method: on which calls (every call
    when ``calls`` is empty) it sleeps ``delay`` seconds, then raises
    what ``error`` makes, if anything."""

    method: str
    calls: frozenset[int] = frozenset()
    error: Callable[[], Exception] | None = None
    delay: float = 0.0


@dataclass
class FaultPlan:
    """A deterministic script of backend misbehaviour.

    Call counters are per method name and 1-based (:meth:`call_count`),
    so tests can assert exactly how far an execution got.  ``sleep``
    performs injected delays (default: record only, never sleep — pass
    ``time.sleep`` to really stall).
    """

    sleep: Callable[[float], None] | None = None
    faults: list[_ScriptedFault] = field(default_factory=list)
    #: Delays performed, as (method, seconds).
    delays: list[tuple[str, float]] = field(default_factory=list)
    #: Errors raised, as (method, call number, exception).
    raised: list[tuple[str, int, Exception]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._counters: dict[str, int] = {}

    # -- scripting ------------------------------------------------------------

    def fail_on(self, method: str, calls: "int | tuple[int, ...]" = 1,
                error: Exception | None = None) -> "FaultPlan":
        """Raise on the given (1-based) call numbers of ``method``:
        ``error`` each time, or a fresh
        :class:`~repro.errors.TransientBackendError` by default."""
        if isinstance(calls, int):
            calls = (calls,)
        if error is None:
            def make() -> Exception:
                return TransientBackendError("injected fault")
        else:
            def make() -> Exception:
                return error
        self.faults.append(_ScriptedFault(method, frozenset(calls), make))
        return self

    def slow_on(self, method: str, seconds: float) -> "FaultPlan":
        """Delay every call of ``method`` by ``seconds``, through the
        plan's injected ``sleep``: pass ``time.sleep`` to really stall,
        or a callback so shed/brownout paths run without wall-clock
        waits."""
        if seconds < 0:
            raise ReproError(
                f"slow_on needs a non-negative delay, got {seconds!r}")
        self.faults.append(_ScriptedFault(method, delay=float(seconds)))
        return self

    # -- interception ---------------------------------------------------------

    def call_count(self, method: str) -> int:
        return self._counters.get(method, 0)

    def apply(self, method: str) -> None:
        """Count one call of ``method`` and act out any scripted fault."""
        count = self._counters.get(method, 0) + 1
        self._counters[method] = count
        for fault in self.faults:
            if fault.method != method or (fault.calls
                                          and count not in fault.calls):
                continue
            if fault.delay > 0.0:
                self.delays.append((method, fault.delay))
                if self.sleep is not None:
                    self.sleep(fault.delay)
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

    def _runner(self, compiled, options):  # pragma: no cover - via execute
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
