"""Backend adapter for the DI prototype engine (Section 5)."""

from __future__ import annotations

from time import perf_counter
from typing import TYPE_CHECKING, Callable

from repro.backends.base import Backend, BackendCapabilities, ExecutionOptions
from repro.backends.registry import register_backend
from repro.compiler.cache import CacheKey, CachedPlan, PlanCache
from repro.compiler.pipeline import PassRecord, optimize_stage, plan_stage
from repro.compiler.plan import JoinStrategy, PlanNode
from repro.compiler.planner import explain_plan, node_observations
from repro.engine.evaluator import DIEngine, Value
from repro.engine.memo import DocumentMemo
from repro.engine.stats import observe_metrics
from repro.obs.trace import Tracer
from repro.xml.forest import PreorderForest

if TYPE_CHECKING:  # pragma: no cover
    from repro.api import CompiledQuery
    from repro.encoding.updates import DocumentUpdate


@register_backend
class EngineBackend(Backend):
    """Execute plans on :class:`~repro.engine.evaluator.DIEngine`.

    A document is bound as the session hands it over — its one wrapped
    read-only snapshot, at :meth:`prepare` or :meth:`apply_update` —
    and nothing is encoded or copied here.  A physical plan depends only
    on the query text and the join strategy (join-body isolation is a
    rule), so plans are cached in a
    :class:`~repro.compiler.cache.PlanCache` keyed on exactly those two,
    and no document load, update or replacement touches the cache.

    Each bound document snapshot has a
    :class:`~repro.engine.memo.DocumentMemo` beside it, created where the
    document is bound and dropped with the binding: warm runs read its
    base-environment path chains and join build sides instead of
    re-scanning the document.  A commit that is one incremental delta
    from the revision bound here links the new memo to the old one, which
    lends it every entry the delta cannot reach.
    """

    name = "engine"
    capabilities = BackendCapabilities(
        # No static cap: a width that would leave int64 is renormalised
        # at run time (twice the largest block, however deep the query).
        max_width=None,
        strategies=(JoinStrategy.MSJ, JoinStrategy.NLJ),
        description="DI prototype with merge-sort / nested-loop joins",
    )

    def __init__(self) -> None:
        super().__init__()
        self._encoded: dict[str, Value] = {}
        self._memos: dict[str, DocumentMemo] = {}
        self._cache = PlanCache()

    @property
    def plan_cache(self) -> PlanCache:
        """The plan cache (introspection / tests)."""
        return self._cache

    def memo(self, name: str) -> DocumentMemo | None:
        """The memo of the document bound to ``name`` (introspection)."""
        return self._memos.get(name)

    def document_stats(self) -> dict[str, dict[str, int]]:
        """Each bound document's memo numbers
        (:meth:`~repro.engine.memo.DocumentMemo.stats`), by name."""
        with self._lock:
            return {name: memo.stats() for name, memo in self._memos.items()}

    def _load(self, name: str, value: Value) -> None:
        columns, width = value
        self._encoded[name] = value = (columns.read_only(), width)
        self._memos[name] = DocumentMemo(*value)

    def adopt_encoded(self, name: str, value: Value) -> None:
        """Bind ``value`` as ``name``, replacing any earlier binding.

        The cross-process path: a pool worker receives the parent's
        snapshot attached from shared memory and adopts it directly.
        """
        with self._lock:
            self._check_open()
            self._load(name, value)
            self._prepared[name] = value

    def apply_update(self, name: str, update: "DocumentUpdate") -> bool:
        """Adopt the commit's wrapped snapshot as the bound document.

        The snapshot is immutable columns built once per commit and
        shared with every other backend that holds columns, so adopting
        it copies nothing and never materializes a ``Forest``.  Cached
        plans are untouched.  The new memo carries entries over from the
        old one when the update is exactly one incremental delta from
        the revision bound here; otherwise it starts empty.
        """
        with self._lock:
            self._check_open()
            if name not in self._prepared:
                return False
            value = (update.columns(), update.width)
            previous = self._memos.get(name)
            delta = None
            if len(update.deltas) == 1 and update.deltas[0].incremental \
                    and update.base_revision is not None \
                    and update.base_revision == previous.revision:
                delta = update.deltas[0]
            self._encoded[name] = value
            self._memos[name] = DocumentMemo(*value, update.revision,
                                             previous, delta)
            self._prepared[name] = value
        return True

    def _unload(self, name: str) -> None:
        self._encoded.pop(name, None)
        self._memos.pop(name, None)

    def _close(self) -> None:
        self._encoded.clear()
        self._memos.clear()
        self._cache.clear()

    # -- planning ---------------------------------------------------------------

    def optimized_for(self, compiled: "CompiledQuery",
                      options: ExecutionOptions) -> PlanNode:
        """The (cached) physical plan for a compiled query.

        Planning happens under the backend lock so concurrent workers
        asking for the same key share one plan instead of racing to
        build duplicates (plans are immutable once built, so sharing
        the cached instance across threads is safe).
        """
        key = CacheKey(compiled.source, options.strategy.value)
        hit = True
        entry = self._cache.get(key)
        if entry is None:
            with self._lock:
                entry = self._cache.peek(key)
                if entry is None:
                    hit = False
                    entry = self._build(compiled, options.strategy)
                    self._cache.put(key, entry)
        plan, passes = entry
        # ``options.extra`` is per-run (built fresh by the session), so
        # these facts reach exactly the flight-recorder record and the
        # trace of this run.
        options.extra["plan_cache"] = "hit" if hit else "miss"
        options.extra["plan_fingerprint"] = key.fingerprint()
        options.extra["plan_passes"] = passes
        if options.metrics is not None:
            if hit:
                options.metrics.counter(
                    "repro_planner_cache_hits_total",
                    "plans served from the plan cache").inc()
            else:
                options.metrics.counter(
                    "repro_planner_cache_misses_total",
                    "plans built after a cache miss").inc()
        return plan

    @staticmethod
    def _build(compiled: "CompiledQuery",
               strategy: JoinStrategy) -> CachedPlan:
        records: list[PassRecord] = []
        plan = optimize_stage(
            plan_stage(compiled.core, strategy,
                       base_vars=compiled.documents.values(),
                       records=records),
            records=records)
        return plan, tuple(records)

    def analyze(self, compiled: "CompiledQuery",
                options: ExecutionOptions) -> str:
        """EXPLAIN ANALYZE: the plan :meth:`optimized_for` serves, run
        once, each evaluated node annotated with its observed output
        tuples, width, environments, inclusive time and (past one) call
        count — read from the op spans of one traced run — then the run's
        total.  The run is cold: it reads no document memo.  The cache is
        only peeked at: no entry, counter or LRU position moves."""
        entry = (self._cache.peek(CacheKey(compiled.source,
                                           options.strategy.value))
                 or self._build(compiled, options.strategy))
        plan = entry[0]
        tracer = Tracer()
        values, _memos = self._values(compiled)
        started = perf_counter()
        DIEngine(tracer=tracer).run_plan_values(plan, values)
        total = perf_counter() - started
        observed = node_observations(tracer.roots)
        return (f"{explain_plan(plan, annotations=observed)}\n"
                f"total: {total * 1e3:.1f} ms")

    # -- execution --------------------------------------------------------------

    def _runner(self, compiled: "CompiledQuery",
                options: ExecutionOptions) -> Callable[[], PreorderForest]:
        plan = self.optimized_for(compiled, options)
        values, memos = self._values(compiled)
        stats, metrics = options.stats, options.metrics
        tracer = self._tracer
        if tracer is None and stats is not None:
            tracer = stats.tracer
        engine = DIEngine(tracer=tracer, guard=options.guard)

        def run() -> PreorderForest:
            # Cached encodings are immutable IntervalColumns: every kernel
            # returns fresh columns, so runs (and threads) share the cached
            # document directly — no per-run re-copy.  The result leaves
            # as label codes and depths (decode copies them out of the
            # columns), so it pins no document and no shared-memory
            # segment.
            from repro.encoding.interval import decode

            if tracer is None:
                return decode(engine.run_plan_values(plan, values, memos)[0])
            # The run's own spans are what it adds under the open span:
            # ``stats`` adopts them unless they are on its own tracer.
            parent = tracer.current
            spans = parent.children if parent is not None else tracer.roots
            first = len(spans)
            try:
                return decode(engine.run_plan_values(plan, values, memos)[0])
            finally:
                if stats is not None and tracer is not stats.tracer:
                    stats.tracer.roots.extend(spans[first:])
                if metrics is not None:
                    observe_metrics(metrics, spans[first:])

        return run

    def _values(self, compiled: "CompiledQuery",
                ) -> tuple[dict[str, Value], dict[str, DocumentMemo]]:
        """The documents ``compiled`` reads and their memos, read
        together under the lock: one snapshot each."""
        with self._lock:
            self._bindings(compiled)  # uniform missing-document error
            names = compiled.documents.values()
            return ({var: self._encoded[var] for var in names},
                    {var: self._memos[var] for var in names})
