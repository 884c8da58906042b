"""End-to-end observability: traced runs, metrics, fast-path guarantees."""

import logging
import time

import pytest

from repro.backends.base import ExecutionOptions
from repro.backends.registry import registered_backends
from repro.engine.evaluator import DIEngine
from repro.engine.stats import CATEGORIES, EngineStats
from repro.obs.export import chrome_trace, parse_prometheus, render_prometheus
from repro.obs.trace import NullTracer, Tracer, set_tracer
from repro.session import XQuerySession
from repro.xmark.queries import FIGURE1_SAMPLE, QUERIES
from repro.xquery.lowering import document_forest

NAMES = 'document("a.xml")/site/people/person/name/text()'

ALL_BACKENDS = ("engine", "sqlite", "interpreter", "naive")

#: Span names proving backend-specific execution detail per backend.
BACKEND_SPANS = {
    "engine": "op.children",
    "sqlite": "sql.statement",
    "interpreter": "interpret",
    "naive": "naive.evaluate",
}


@pytest.fixture
def session():
    with XQuerySession() as active:
        active.add_document("a.xml", FIGURE1_SAMPLE)
        yield active


class TestTracedRuns:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_full_lifecycle_span_tree(self, session, backend):
        result = session.run(NAMES, backend=backend, trace=True)
        root = result.trace
        assert root is not None and root.name == "query"
        assert root.attributes["backend"] == backend
        # The session phases…
        for phase in ("compile", "prepare", "execute"):
            assert root.find(phase) is not None, phase
        # …the compiler passes, grafted under the compile span…
        compile_span = root.find("compile")
        pass_names = {s.name for s in compile_span.walk()}
        assert {"pass.parse", "pass.lower"} <= pass_names
        # …and backend-specific execution detail.
        assert root.find(BACKEND_SPANS[backend]) is not None
        # The whole tree exports as Chrome trace_event events.
        events = chrome_trace(root)["traceEvents"]
        assert {"query", "compile", "prepare", "execute"} <= \
            {event["name"] for event in events}

    def test_all_builtins_are_covered(self):
        assert set(ALL_BACKENDS) <= set(registered_backends())

    def test_engine_trace_has_plan_pass_and_operators(self, session):
        root = session.run(NAMES, backend="engine", trace=True).trace
        names = {span.name for span in root.walk()}
        assert "pass.plan" in names
        operators = {name for name in names if name.startswith("op.")}
        assert operators, names
        # Operator spans carry the node's output measurements.
        op = root.find("op.children")
        assert op.attributes["tuples"] >= 0
        assert "category" in op.attributes

    def test_sqlite_trace_names_ctes(self, session):
        root = session.run(NAMES, backend="sqlite", trace=True).trace
        statements = [span for span in root.walk()
                      if span.name == "sql.statement"]
        assert statements
        assert all("cte" in span.attributes for span in statements)

    def test_serialize_span_appended_by_to_xml(self, session):
        result = session.run(NAMES, trace=True)
        assert result.trace.find("serialize") is None
        text = result.to_xml()
        serialize = result.trace.find("serialize")
        assert serialize is not None
        assert serialize.attributes["bytes"] == len(text)

    def test_traced_and_untraced_results_agree(self, session):
        plain = session.run(NAMES)
        traced = session.run(NAMES, trace=True)
        assert plain.forest == traced.forest
        assert plain.trace is None

    def test_cached_compile_still_traced(self, session):
        session.run(NAMES)  # populate the query cache untraced
        root = session.run(NAMES, trace=True).trace
        assert root.find("pass.parse") is not None

    def test_explicit_tracer_collects_both_runs(self, session):
        tracer = Tracer()
        session.run(NAMES, tracer=tracer)
        session.run(NAMES, backend="interpreter", tracer=tracer)
        assert [root.name for root in tracer.roots] == ["query", "query"]

    def test_engine_kernel_spans_and_histogram(self, session):
        """Traced runs expose per-kernel detail: ``engine.kernel.*``
        spans (tagged with the kernel name, not a Figure 10 category) and
        the ``repro_engine_kernel_seconds`` histogram."""
        root = session.run(NAMES, backend="engine", trace=True).trace
        kernel_spans = [span for span in root.walk()
                        if span.name.startswith("engine.kernel.")]
        assert kernel_spans
        assert all("kernel" in span.attributes for span in kernel_spans)
        assert all("category" not in span.attributes
                   for span in kernel_spans)
        names = {span.attributes["kernel"] for span in kernel_spans}
        assert names & {"roots", "select", "select_children"}, names
        histogram = session.metrics.get("repro_engine_kernel_seconds")
        assert histogram is not None
        assert sum(histogram.count(kernel=name) for name in names) \
            >= len(kernel_spans)

    def test_residual_filter_runs_as_an_observed_kernel(self, session):
        """A join's residual conjunct filters every pair variable — here
        ``$t`` and the outer loop's two lifted chains over ``$p``,
        ``$p/name`` and ``$p/name/text()`` — and each of those filters is
        a kernel invocation like any other: one span, one histogram
        observation (and so one ``tick``, where a deadline is checked)."""
        query = (
            'for $p in document("a.xml")/site/people/person '
            'for $t in document("a.xml")/site/closed_auctions/closed_auction '
            'where $t/buyer/@person = $p/@id and not($t/price = $p/name) '
            'return <m>{$p/name/text()}{$t/price/text()}</m>')
        result = session.run(query, backend="engine", trace=True)
        assert result.to_xml() == "<m>Cong Rosca42.12</m>"
        join = result.trace.find("op.joinfor")
        filters = [span for span in join.children
                   if span.name == "engine.kernel.filter_by_index"]
        assert len(filters) == 3
        histogram = session.metrics.get("repro_engine_kernel_seconds")
        assert histogram.count(kernel="filter_by_index") == 3

    def test_fused_descendant_step_is_observable(self, session):
        """``//name`` runs as one ``select_descendants`` kernel, and every
        account of the run still says so truthfully: the kernel span sits
        under ``op.select`` in the paths category, ``stats=`` charges it to
        paths, no ``subtrees_dfs`` copy happened, and EXPLAIN still shows
        both plan nodes with the step's observed cardinality."""
        query = 'document("a.xml")//person/name'
        root = session.run(query, backend="engine", trace=True).trace
        (kernel,) = [span for span in root.walk()
                     if span.name == "engine.kernel.select_descendants"]
        select = next(span for span in root.walk() if span.name == "op.select"
                      and kernel in span.children)
        assert select.attributes["category"] == "paths"
        assert root.find("engine.kernel.subtrees_dfs") is None
        assert EngineStats.from_trace(root).seconds["paths"] >= kernel.seconds
        stats = EngineStats()
        result = session.run(query, backend="engine", stats=stats)
        assert stats.seconds["paths"] > 0 and stats.tuples["paths"] > 0
        assert result.to_xml() == \
            session.run(query, backend="interpreter").to_xml()
        plan = session.explain(query, analyze=True)
        assert "Fn:select[label='<person>']" in plan
        assert "Fn:subtrees_dfs" in plan and "obs" in plan

    def test_engine_stats_from_trace(self, session):
        root = session.run(NAMES, backend="engine", trace=True).trace
        stats = EngineStats.from_trace(root)
        seconds = stats.seconds
        assert seconds and set(seconds) <= set(CATEGORIES)
        assert sum(stats.fractions().values()) == pytest.approx(1.0)


class TestMetrics:
    def test_session_counters(self, session):
        session.run(NAMES)
        session.run(NAMES, backend="interpreter")
        queries = session.metrics.get("repro_session_queries_total")
        assert queries.value(backend="engine") == 1
        assert queries.value(backend="interpreter") == 1
        assert session.metrics.get(
            "repro_session_documents_total").value() == 1

    def test_invalidation_counter(self, session):
        session.run(NAMES)
        session.add_document("a.xml", FIGURE1_SAMPLE)
        assert session.metrics.get(
            "repro_session_invalidations_total").value() >= 1

    def test_engine_metrics_on_traced_run(self, session):
        session.run(NAMES, trace=True)
        tuples = session.metrics.get("repro_engine_tuples_total")
        assert tuples is not None
        assert sum(value for _labels, value in tuples.samples()) > 0
        widths = session.metrics.get("repro_engine_interval_width")
        assert widths.count() > 0

    @pytest.mark.parametrize("backend", ["sqlite"])
    def test_sql_metrics_on_traced_run(self, session, backend):
        session.run(NAMES, backend=backend, trace=True)
        statements = session.metrics.get("repro_sql_statements_total")
        assert statements.value(backend=backend) >= 1
        rows = session.metrics.get("repro_sql_rows_total")
        assert rows.value(backend=backend) >= 1

    def test_registry_exports_as_valid_prometheus(self, session):
        for backend in ALL_BACKENDS:
            session.run(NAMES, backend=backend, trace=True)
        text = render_prometheus(session.metrics)
        samples = parse_prometheus(text)  # validates the format
        assert any(key.startswith("repro_session_queries_total")
                   for key in samples)


class CountingTracer(Tracer):
    """A tracer double that counts span() calls; reports as disabled."""

    enabled = False

    def __init__(self):
        super().__init__()
        self.calls = 0

    def span(self, name, parent=None, **attributes):
        self.calls += 1
        return super().span(name, parent=parent, **attributes)


class TestDisabledFastPath:
    def test_engine_normalizes_disabled_tracer_to_none(self):
        assert DIEngine(tracer=NullTracer())._tracer is None
        assert DIEngine(tracer=None)._tracer is None
        enabled = Tracer()
        assert DIEngine(tracer=enabled)._tracer is enabled

    def test_disabled_run_allocates_zero_spans(self, session):
        """With tracing off, the engine hot loop never touches a tracer.

        The counting double is installed as the process default and
        (separately) given to the engine directly: neither path may call
        span() even once per evaluated operator — and in particular not
        once per *kernel* invocation, which the columnar engine makes
        for every operator, expand, gather, and filter step.
        """
        counting = CountingTracer()
        previous = set_tracer(counting)
        try:
            session.run(NAMES)
        finally:
            set_tracer(previous)
        assert counting.calls == 0

        engine = DIEngine(tracer=counting)
        compiled = session.prepare(NAMES)
        plan = compiled.plan()
        engine.run_plan(plan, {var: document_forest(session.document(uri))
                               for uri, var in compiled.documents.items()})
        assert counting.calls == 0

    def test_disabled_overhead_is_small(self):
        """Observability off must not slow the engine measurably.

        The design target is <5% on a Q8-style query; the assertion allows
        50% so shared-CI timer noise cannot flake the build — a fast-path
        regression (per-operator span allocation) costs far more than that.
        """
        with XQuerySession() as active:
            active.add_xmark_document("auction.xml", 0.002)
            query = QUERIES["Q8"]
            compiled = active.prepare(query)
            target = active.backend_instance("engine")
            target.prepare(active._prepare_bindings(compiled, target))
            runner = target.runner(compiled, ExecutionOptions())
            runner()  # warm caches (plan, encodings)

            def best_of(fn, repeats=5):
                timings = []
                for _ in range(repeats):
                    started = time.perf_counter()
                    fn()
                    timings.append(time.perf_counter() - started)
                return min(timings)

            raw = best_of(runner)
            via_session = best_of(lambda: active.run(query))
            assert via_session <= raw * 1.5 + 0.01


class TestLogging:
    def test_repro_logger_has_null_handler(self):
        import repro  # noqa: F401 — ensures package __init__ ran

        root = logging.getLogger("repro")
        assert any(isinstance(handler, logging.NullHandler)
                   for handler in root.handlers)

    def test_session_logs_documents_and_runs(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="repro.session"):
            with XQuerySession() as active:
                active.add_document("a.xml", FIGURE1_SAMPLE)
                active.run(NAMES, trace=True)
        messages = [record.getMessage() for record in caplog.records]
        assert any("registered document 'a.xml'" in m for m in messages)
        assert any("traced run" in m for m in messages)
