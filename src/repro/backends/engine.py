"""Backend adapter for the DI prototype engine (Section 5)."""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Mapping

from repro.backends.base import Backend, BackendCapabilities, ExecutionOptions
from repro.backends.registry import register_backend
from repro.compiler.cache import (
    DEVIATION_FACTOR,
    CacheEntry,
    CacheKey,
    PlanCache,
    worst_deviation,
)
from repro.compiler.cost import CostModel
from repro.compiler.pipeline import optimize_stage, plan_stage
from repro.compiler.plan import JoinStrategy, PlanNode
from repro.compiler.planner import OptimizedPlan
from repro.encoding.stats import (
    DocumentStats,
    apply_delta_to_stats,
    collect_stats,
    combine_digests,
)
from repro.engine.columns import splice_columns
from repro.engine.evaluator import DIEngine, Value
from repro.xml.forest import Forest, PreorderForest

if TYPE_CHECKING:  # pragma: no cover
    from repro.api import CompiledQuery
    from repro.encoding.updates import DocumentUpdate


@register_backend
class EngineBackend(Backend):
    """Execute plans on :class:`~repro.engine.evaluator.DIEngine`.

    Documents are interval-encoded once at :meth:`prepare` time, and
    per-document statistics (node counts per label, depth histogram,
    child fan-out) are collected in the same pass.  Physical plans are
    cost-optimized against those statistics and cached in a
    :class:`~repro.compiler.cache.PlanCache` keyed on the query shape
    *and* the combined stats digest — updating a document changes its
    digest, so a stale plan can never be served for the new contents.
    Traced runs feed observed per-node tuple counts back into the cache;
    the next planning round for the same query shape starts from the
    corrected cardinalities.
    """

    name = "engine"
    capabilities = BackendCapabilities(
        prepared_documents=True,
        updates=True,
        delta_updates=True,
        # No static cap: a width that would leave int64 is renormalised
        # at run time (twice the largest block, however deep the query).
        max_width=None,
        strategies=(JoinStrategy.MSJ, JoinStrategy.NLJ),
        description="DI prototype with merge-sort / nested-loop joins",
    )

    def __init__(self) -> None:
        super().__init__()
        self._encoded: dict[str, Value] = {}
        self._stats: dict[str, DocumentStats] = {}
        self._revisions: dict[str, int] = {}
        self._cache = PlanCache()

    @property
    def plan_cache(self) -> PlanCache:
        """The stats-keyed plan cache (introspection / tests)."""
        return self._cache

    def document_stats(self, name: str) -> DocumentStats | None:
        """Collected statistics for a prepared document variable."""
        with self._lock:
            return self._stats.get(name)

    def _load(self, name: str, forest: Forest) -> None:
        value = DIEngine.prepare_document(forest)
        self._encoded[name] = value
        rel, width = value
        self._stats[name] = collect_stats(rel, width)

    def adopt_encoded(self, name: str, value: Value) -> None:
        """Bind an already-encoded relation as a prepared document.

        The cross-process path: pool workers receive the parent's
        immutable columnar encoding (attached from shared memory or
        unpickled) and adopt it directly instead of re-encoding a
        forest.  Statistics are collected locally — a few reductions
        over the depth and label-code columns — and keep cost-based
        planning identical to the in-process tier.
        """
        with self._lock:
            self._check_open()
            self._encoded[name] = value
            rel, width = value
            self._stats[name] = collect_stats(rel, width)
            # No forest to remember: an empty tuple marks the variable
            # prepared so _bindings() accepts it.
            self._prepared[name] = ()

    def apply_update(self, name: str, update: "DocumentUpdate") -> bool:
        """Patch the cached encoding in place instead of re-encoding.

        When the recorded revision matches the update's base, the carried
        deltas are spliced into the immutable columnar encoding —
        O(affected subtree) plus one C-level copy per column — and statistics are
        maintained incrementally, so the stats digest is *identical* to a
        fresh collection.  Otherwise (first update after a forest-based
        prepare, or a relabel in the chain) the encoding is rebased from
        the update's wrapped snapshot, which still never materializes a
        ``Forest``.  Either way, plans whose cardinality estimates remain
        within ``DEVIATION_FACTOR`` of the new statistics migrate to the
        new digest rather than being dropped.
        """
        with self._lock:
            self._check_open()
            if name not in self._prepared:
                return False
            value = self._encoded.get(name)
            stats = self._stats.get(name)
            old_nodes = stats.nodes if stats is not None else 0
            spliced = False
            if (update.deltas and value is not None and stats is not None
                    and self._revisions.get(name) == update.base_revision):
                rel, width = value
                if all(delta.old_width == width for delta in update.deltas):
                    for delta in update.deltas:
                        rel = splice_columns(rel, delta)
                        stats = apply_delta_to_stats(stats, delta)
                    spliced = True
            if not spliced:
                rel = update.columns()
                width = update.width
                stats = collect_stats(rel, width)
            self._encoded[name] = (rel, width)
            self._stats[name] = stats
            self._revisions[name] = update.revision
            # The stale forest (if any) must not linger; the sentinel
            # marks the variable prepared without one (adopt_encoded
            # idiom).
            self._prepared[name] = ()
            new_nodes = stats.nodes

            def keep(entry: CacheEntry) -> bool:
                ratio = max((old_nodes + 1.0) / (new_nodes + 1.0),
                            (new_nodes + 1.0) / (old_nodes + 1.0))
                return ratio < DEVIATION_FACTOR

            self._cache.migrate_document(
                name,
                new_digest=lambda doc_vars: combine_digests(self._stats,
                                                            doc_vars),
                keep=keep,
            )
        return True

    def _unload(self, name: str) -> None:
        self._encoded.pop(name, None)
        self._stats.pop(name, None)
        self._revisions.pop(name, None)
        # New contents mean new statistics: the digest half of every
        # affected cache key moves (so a hit is impossible), and the old
        # entries are dropped eagerly to bound memory.
        self._cache.invalidate_document(name)

    def _close(self) -> None:
        self._encoded.clear()
        self._stats.clear()
        self._cache.clear()

    # -- planning ---------------------------------------------------------------

    def _cache_key(self, compiled: "CompiledQuery",
                   options: ExecutionOptions) -> CacheKey:
        doc_vars = tuple(compiled.documents.values())
        with self._lock:
            digest = combine_digests(self._stats, doc_vars)
        return CacheKey(compiled.source, options.strategy.value,
                        options.decorrelate, options.optimize, digest)

    def optimized_for(self, compiled: "CompiledQuery",
                      options: ExecutionOptions) -> OptimizedPlan:
        """The (cached) cost-optimized plan for a compiled query.

        Planning happens under the backend lock so concurrent workers
        asking for the same key share one plan instead of racing to
        build duplicates (plans are immutable once built, so sharing
        the cached instance across threads is safe).
        """
        key = self._cache_key(compiled, options)
        hit = True
        entry = self._cache.get(key)
        if entry is None:
            with self._lock:
                entry = self._cache.peek(key)
                if entry is None:
                    hit = False
                    entry = self._build_entry(key, compiled, options)
                    self._cache.put(key, entry)
        self._record_planner_metrics(options, None if hit else entry.optimized,
                                     hit=hit)
        self._report_plan(key, entry, options, hit)
        return entry.optimized

    def _report_plan(self, key: CacheKey, entry: CacheEntry,
                     options: ExecutionOptions, hit: bool) -> None:
        """Surface plan-cache facts on the per-run report channel.

        ``options.extra`` is per-run (built fresh by the session), so
        whatever lands here reaches exactly the flight-recorder record of
        the run that planned.
        """
        extra = options.extra
        extra["plan_cache"] = "hit" if hit else "miss"
        extra["plan_fingerprint"] = key.fingerprint()
        deviation = worst_deviation(entry.estimates,
                                    self._cache.observations(key))
        if deviation is not None:
            extra["card_deviation"] = deviation

    def _build_entry(self, key: CacheKey, compiled: "CompiledQuery",
                     options: ExecutionOptions) -> CacheEntry:
        doc_vars = tuple(compiled.documents.values())
        plan = plan_stage(
            compiled.core, options.strategy,
            base_vars=doc_vars,
            decorrelate=options.decorrelate,
            trace=compiled.trace,
        )
        if options.optimize:
            model = CostModel(
                {var: self._stats[var] for var in doc_vars
                 if var in self._stats},
                observed=self._cache.observations(key),
            )
            optimized = optimize_stage(plan, model, base_vars=doc_vars,
                                       trace=compiled.trace)
        else:
            # The faithful planning-off baseline: the syntactic plan,
            # unannotated, still cached under its own key half.
            optimized = OptimizedPlan(plan=plan)
        return CacheEntry(optimized, frozenset(doc_vars),
                          dict(optimized.estimates_by_fp),
                          optimized.observed_based)

    def plan_for(self, compiled: "CompiledQuery",
                 options: ExecutionOptions) -> PlanNode:
        """The (cached) physical plan for a compiled query."""
        return self.optimized_for(compiled, options).plan

    def analyze_for(self, compiled: "CompiledQuery",
                    options: ExecutionOptions) -> OptimizedPlan:
        """A freshly optimized plan folding in every recorded observation.

        Diagnostics path (``EXPLAIN ANALYZE``): unlike
        :meth:`optimized_for` this always replans, so annotations show
        estimated *versus* observed cardinalities even when the cached
        entry predates the observations.  The fresh plan replaces the
        cached entry — later runs benefit from the corrected numbers.
        """
        key = self._cache_key(compiled, options)
        with self._lock:
            entry = self._build_entry(key, compiled, options)
            self._cache.put(key, entry)
        return entry.optimized

    def _record_planner_metrics(self, options: ExecutionOptions,
                                optimized: OptimizedPlan | None,
                                hit: bool) -> None:
        metrics = options.metrics
        if metrics is None:
            return
        if hit:
            metrics.counter("repro_planner_cache_hits_total",
                            "plans served from the stats-keyed cache").inc()
            return
        metrics.counter("repro_planner_cache_misses_total",
                        "plans built after a cache miss").inc()
        if optimized is not None:
            reorders = optimized.reorders + optimized.isolations \
                + optimized.pushdowns
            if reorders:
                metrics.counter(
                    "repro_planner_reorders_total",
                    "cost-based plan rewrites applied "
                    "(isolation, pushdown, conjunct/join reorder)",
                ).inc(reorders)

    # -- execution --------------------------------------------------------------

    def _runner(self, compiled: "CompiledQuery",
                options: ExecutionOptions) -> Callable[[], PreorderForest]:
        optimized = self.optimized_for(compiled, options)
        plan = optimized.plan
        values = self._values(compiled)
        tracer = self._tracer
        feedback: dict[int, int] | None = None
        if tracer is not None and options.optimize and optimized.fingerprints:
            feedback = {}
        engine = DIEngine(stats=options.stats, tracer=tracer,
                          metrics=options.metrics, guard=options.guard,
                          observed=feedback)

        def run() -> PreorderForest:
            # Cached encodings are immutable IntervalColumns: every kernel
            # returns fresh columns, so runs (and threads) share the cached
            # document directly — no per-run re-copy.  The result leaves
            # as plain lists (decode copies them out of the columns), so
            # it pins no document and no shared-memory segment.
            from repro.encoding.interval import decode

            rel, _width = engine.run_plan_values(plan, dict(values))
            if feedback is not None:
                self._feed_observations(compiled, options, optimized,
                                        feedback)
            return decode(rel)

        return run

    def _feed_observations(self, compiled: "CompiledQuery",
                           options: ExecutionOptions,
                           optimized: OptimizedPlan,
                           feedback: Mapping[int, int]) -> None:
        """Fold a traced run's actual tuple counts back into the cache."""
        observed = {optimized.fingerprints[node_id]: count
                    for node_id, count in feedback.items()
                    if node_id in optimized.fingerprints}
        if observed:
            key = self._cache_key(compiled, options)
            if self._cache.record_observation(key, observed):
                options.extra["plan_evicted"] = True
            deviation = worst_deviation(dict(optimized.estimates_by_fp),
                                        observed)
            if deviation is not None:
                options.extra["card_deviation"] = deviation

    def _values(self, compiled: "CompiledQuery") -> Mapping[str, Value]:
        with self._lock:
            self._bindings(compiled)  # uniform missing-document error
            return {var: self._encoded[var]
                    for var in compiled.documents.values()}
