"""One engine instrument: the Figure 10 split, EXPLAIN ANALYZE and the
engine metrics all read the evaluator's ``op.*`` spans.

``stats=`` on a run is a view of that run's spans — the same numbers a
traced run's span tree gives — and it charges (nearly) all of the
engine's wall time, the join's source expansion, residual filters and
isolated-body gather included.  On a backend that runs no engine it is
refused instead of reading as an empty split.
"""

import gc
import time
from statistics import median

import pytest

from repro.api import as_snapshot, compile_xquery, run_xquery
from repro.backends.base import ExecutionOptions
from repro.backends.registry import create_backend
from repro.compiler.plan import JoinStrategy
from repro.engine.evaluator import DIEngine
from repro.engine.stats import CATEGORIES, EngineStats
from repro.session import XQuerySession
from repro.xmark.generator import cached_document
from repro.xmark.queries import FIGURE1_SAMPLE, QUERIES

NAMES = 'document("a.xml")/site/people/person/name/text()'


@pytest.fixture
def session():
    with XQuerySession() as active:
        active.add_document("a.xml", FIGURE1_SAMPLE)
        active.add_document("auction.xml", FIGURE1_SAMPLE)
        yield active


class TestSameRun:
    def test_stats_equal_the_traced_runs_split(self, session):
        stats = EngineStats()
        result = session.run(QUERIES["Q8"], trace=True, stats=stats)
        assert stats.seconds
        assert stats.seconds == EngineStats.from_trace(result.trace).seconds
        assert stats.tuples == EngineStats.from_trace(result.trace).tuples

    def test_untraced_stats_run_under_their_own_tracer(self, session):
        stats = EngineStats()
        session.run(NAMES, stats=stats)
        (root,) = stats.tracer.roots
        assert root.name.startswith("op.")
        assert set(stats.seconds) <= set(CATEGORIES)
        assert stats.tuples["paths"] > 0

    def test_shared_tracer_is_not_counted_twice(self, session):
        stats = EngineStats()
        session.run(NAMES, tracer=stats.tracer, stats=stats)
        (query,) = stats.tracer.roots
        assert query.name == "query"
        assert stats.seconds == EngineStats.from_trace(query).seconds


class TestCoverage:
    @pytest.mark.parametrize("name", ["Q8", "Q9"])
    def test_split_charges_the_engine_run(self, monkeypatch, name):
        """On the isolated MSJ plan the split accounts for at least 90 %
        of ``run_plan_values``' wall time (median of five runs, collector
        off) — the join's source expansion, residual filters and the
        isolated body's gather are charged to a category, not dropped."""
        walls = []
        run_plan_values = DIEngine.run_plan_values

        def timed(self, plan, values, memos=None):
            started = time.perf_counter()
            try:
                return run_plan_values(self, plan, values, memos)
            finally:
                walls.append(time.perf_counter() - started)

        monkeypatch.setattr(DIEngine, "run_plan_values", timed)
        compiled = compile_xquery(QUERIES[name])
        document = cached_document(0.01, seed=42)
        bindings = {var: as_snapshot(document)
                    for var in compiled.documents.values()}
        shares = []
        with create_backend("engine") as backend:
            backend.prepare(bindings)
            for _ in range(5):
                stats = EngineStats()
                runner = backend.runner(compiled, ExecutionOptions(
                    strategy=JoinStrategy.MSJ, stats=stats))
                gc.collect()
                gc.disable()
                try:
                    runner()
                finally:
                    gc.enable()
                shares.append(stats.total_seconds / walls[-1])
        assert median(shares) >= 0.9, shares


class TestEngineOnly:
    @pytest.mark.parametrize("backend", ["sqlite", "interpreter", "procpool"])
    def test_session_refuses_stats_elsewhere(self, session, backend):
        before = session.recorder.stats()["recorded_total"]
        with pytest.raises(ValueError, match="engine"):
            session.run(NAMES, backend=backend, stats=EngineStats())
        # Refused before admission: nothing ran, nothing was recorded.
        assert session.recorder.stats()["recorded_total"] == before

    def test_run_xquery_refuses_stats_elsewhere(self):
        with pytest.raises(ValueError, match="engine"):
            run_xquery(NAMES, {"a.xml": FIGURE1_SAMPLE}, backend="sqlite",
                       stats=EngineStats())


class TestMetricsFromSpans:
    def test_one_observation_per_span(self, session):
        root = session.run(NAMES, trace=True).trace
        ops = [span for span in root.walk() if "node" in span.attributes]
        kernels = [span for span in root.walk()
                   if "kernel" in span.attributes]
        widths = session.metrics.get("repro_engine_interval_width")
        envs = session.metrics.get("repro_engine_envseq_size")
        seconds = session.metrics.get("repro_engine_kernel_seconds")
        assert widths.count() == envs.count() == len(ops)
        names = {span.attributes["kernel"] for span in kernels}
        assert sum(seconds.count(kernel=name) for name in names) \
            == len(kernels)
        tuples = session.metrics.get("repro_engine_tuples_total")
        assert sum(value for _labels, value in tuples.samples()) == sum(
            span.attributes["tuples"] for span in ops
            if span.attributes["kind"] == "FnNode")

    def test_untraced_runs_feed_no_engine_metrics(self, session):
        session.run(NAMES)
        assert session.metrics.get("repro_engine_interval_width") is None
