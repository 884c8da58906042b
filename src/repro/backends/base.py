"""The execution-backend protocol.

The paper's central claim is retargetability: one compiled artifact — a
core expression / dynamic-interval plan — can be executed by different
relational engines.  A :class:`Backend` is the unit of retargeting.  Each
backend:

* declares :class:`BackendCapabilities` (its maximum representable
  interval width, the join strategies it distinguishes);
* follows a two-phase lifecycle — :meth:`Backend.prepare` loads documents
  (untimed setup, keyed by core variable name), :meth:`Backend.execute`
  evaluates a compiled query against them;
* owns its resources: every backend is a context manager and
  :meth:`Backend.close` is idempotent.

Concrete adapters live in sibling modules and are registered with
:mod:`repro.backends.registry`; new engines plug in via
:func:`~repro.backends.registry.register_backend` without touching
``api.py`` / ``session.py`` / the benchmark harness.
"""

from __future__ import annotations

import abc
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Mapping

from repro.compiler.plan import JoinStrategy
from repro.engine.stats import EngineStats
from repro.errors import ReproError
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.xml.forest import Forest

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (api imports us)
    from repro.api import CompiledQuery
    from repro.encoding.updates import DocumentUpdate
    from repro.resilience.guard import QueryGuard


@dataclass(frozen=True)
class BackendCapabilities:
    """What an execution backend can do, declared up front.

    * ``max_width`` — largest statically inferred interval width the
      backend can represent (``None`` = no static cap: the interpreter
      has no widths, the DI engine renormalises them at run time);
    * ``strategies`` — join strategies the backend distinguishes (empty
      when the knob is meaningless, e.g. the SQL translation).

    Whether a backend absorbs document updates in place is not declared:
    it is what :meth:`Backend.apply_update` returns.
    """

    max_width: int | None = None
    strategies: tuple[JoinStrategy, ...] = ()
    description: str = ""


@dataclass
class ExecutionOptions:
    """Per-execution knobs passed to :meth:`Backend.execute`.

    Backends ignore options that do not apply to them (the interpreter has
    no join strategy).  ``stats`` is the engine's alone
    (:meth:`EngineStats.check_backend`); it and ``metrics`` are read from
    the engine's spans after the run.  ``guard``
    carries the query's deadline and resource budgets; every builtin
    backend enforces it cooperatively (engine/interpreter/naive step
    hooks, SQL progress handlers) — see :mod:`repro.resilience.guard`.
    """

    strategy: JoinStrategy = JoinStrategy.MSJ
    stats: EngineStats | None = None
    metrics: MetricsRegistry | None = None
    guard: "QueryGuard | None" = None
    extra: dict[str, object] = field(default_factory=dict)


def coerce_strategy(value: str | JoinStrategy) -> JoinStrategy:
    """Normalize a user-supplied strategy name, with a uniform error."""
    if isinstance(value, JoinStrategy):
        return value
    try:
        return JoinStrategy(str(value).lower())
    except ValueError:
        raise ReproError(
            f"unknown join strategy {value!r}; use 'nlj' or 'msj'"
        ) from None


class Backend(abc.ABC):
    """An execution target for compiled queries.

    Lifecycle: construct (via the registry), :meth:`prepare` document
    bindings one or more times, :meth:`execute` any number of compiled
    queries, :meth:`close`.  ``prepare`` is incremental — already-loaded
    names are skipped until :meth:`invalidate` drops them — so sessions
    can call it with the full binding set on every query.

    **Thread-safety contract.**  One backend instance may be shared by
    many worker threads (``XQuerySession.run_many`` does exactly this):

    * :meth:`prepare`, :meth:`invalidate`, :meth:`close` and the
      :attr:`prepared` snapshot serialize on an internal lock, so
      concurrent prepares/invalidations never corrupt the prepared map;
    * :meth:`execute` / :meth:`runner` may be called concurrently from
      any number of threads — the relational adapter keeps one connection
      per calling thread (see :class:`repro.concurrency.ThreadLocalPool`)
      and in-process adapters keep per-call state only;
    * :meth:`instrument` is **per thread**: each worker attaches its own
      tracer (or ``None``) without disturbing spans other threads emit;
    * :meth:`close` may be called from any thread and releases every
      thread's resources in one idempotent sweep.

    The full contract, per adapter, is documented in
    ``docs/CONCURRENCY.md``.
    """

    #: Registry name; set by subclasses.
    name: str = "?"
    capabilities: BackendCapabilities = BackendCapabilities()

    def __init__(self) -> None:
        # Re-entrant: close() → _close() and prepare() → _load() may take
        # it again from subclass hooks.
        self._lock = threading.RLock()
        self._prepared: dict[str, Forest] = {}
        self._closed = False
        self._tls = threading.local()

    # -- observability --------------------------------------------------------

    @property
    def _tracer(self) -> Tracer | None:
        """The calling thread's tracer (set via :meth:`instrument`)."""
        return getattr(self._tls, "tracer", None)

    def instrument(self, tracer: Tracer | None) -> None:
        """Attach (or detach, with ``None``) a tracer for execution spans.

        Adapters consult ``self._tracer`` when building runners so that
        executions open backend-specific spans (engine operators, SQL
        statements) under the caller's active span.  A disabled tracer is
        normalized to ``None`` so runners stay on their fast path.  The
        attachment is per calling thread: concurrent workers may trace
        (or not) independently on one shared backend.
        """
        if tracer is not None and not tracer.enabled:
            tracer = None
        self._tls.tracer = tracer

    # -- document lifecycle ---------------------------------------------------

    def prepare(
        self, documents: "Mapping[str, Forest | Callable[[], Forest]]",
    ) -> None:
        """Load ``documents`` (core variable name → forest), skipping names
        already prepared.  Call :meth:`invalidate` first to force a reload.

        A binding may be a zero-argument callable producing the forest;
        it is resolved only when the name actually needs loading, so
        sessions can offer every binding on every query without paying to
        materialize documents the backend already holds.
        """
        with self._lock:
            self._check_open()
            for name, forest in documents.items():
                if name not in self._prepared:
                    if callable(forest):
                        forest = forest()
                    self._load(name, forest)
                    self._prepared[name] = forest

    def apply_update(self, name: str, update: "DocumentUpdate") -> bool:
        """Patch prepared state for ``name`` in place from ``update``.

        Returns ``True`` when the backend absorbed the update (its
        prepared state now reflects ``update.revision``); ``False`` — the
        default — means the caller must fall back to :meth:`invalidate`
        + re-prepare.
        """
        return False

    def invalidate(self, name: str) -> None:
        """Drop prepared state for ``name`` (no-op when not prepared)."""
        with self._lock:
            if name in self._prepared:
                del self._prepared[name]
                self._unload(name)

    @property
    def prepared(self) -> tuple[str, ...]:
        """Names of currently prepared documents, sorted."""
        with self._lock:
            return tuple(sorted(self._prepared))

    # -- execution ------------------------------------------------------------

    def execute(self, compiled: "CompiledQuery",
                options: ExecutionOptions | None = None) -> Forest:
        """Evaluate ``compiled`` against the prepared documents.

        The forest is a tuple of trees or — the DI engine and its process
        tier — a :class:`~repro.xml.forest.PreorderForest`, which reads
        like one and builds its trees only when a caller touches them.
        """
        return self.runner(compiled, options)()

    def runner(self, compiled: "CompiledQuery",
               options: ExecutionOptions | None = None) -> Callable[[], Forest]:
        """A zero-argument callable performing only the *measured* work.

        Backends hoist per-query setup that the paper's methodology
        excludes from timings (plan compilation, SQL translation) into this
        method, so benchmark cells time exactly the evaluation.
        """
        self._check_open()
        options = options or ExecutionOptions()
        return self._runner(compiled, options)

    # -- resource management --------------------------------------------------

    def close(self) -> None:
        """Release backend resources (every thread's); idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._prepared.clear()
        self._close()

    def __enter__(self) -> "Backend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else f"{len(self._prepared)} docs"
        return f"<{type(self).__name__} {self.name!r} ({state})>"

    # -- subclass hooks -------------------------------------------------------

    @abc.abstractmethod
    def _runner(self, compiled: "CompiledQuery",
                options: ExecutionOptions) -> Callable[[], Forest]:
        """Build the measured-work callable (documents already prepared)."""

    def _load(self, name: str, forest: Forest) -> None:
        """Materialize one document; default keeps only the forest."""

    def _unload(self, name: str) -> None:
        """Drop backend state for one document."""

    def _close(self) -> None:
        """Release concrete resources (connections, caches)."""

    def _check_open(self) -> None:
        if self._closed:
            raise ReproError(f"backend {self.name!r} is closed")

    def _bindings(self, compiled: "CompiledQuery") -> dict[str, Forest]:
        """The prepared forests the compiled query actually references."""
        bindings: dict[str, Forest] = {}
        with self._lock:
            for uri, var in compiled.documents.items():
                try:
                    bindings[var] = self._prepared[var]
                except KeyError:
                    raise ReproError(
                        f"query references document({uri!r}) but variable "
                        f"{var!r} was not prepared on backend {self.name!r}"
                    ) from None
        return bindings
