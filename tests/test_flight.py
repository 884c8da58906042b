"""The always-on flight recorder: ring buffer, tail sampling, SLO burn.

Every ``session.run`` / ``run_many`` — no flags passed — must land in
the recorder with outcome, timings, and plan-cache facts; anomalous
runs must keep their span tree and emit one structured slow-query log
line; and none of it may change what the caller sees (``trace`` stays
``None``) or cost measurable latency on the hot path.
"""

import json
import logging
import threading
import time

import pytest

from repro.backends.base import ExecutionOptions
from repro.errors import (
    DocumentNotFoundError,
    QueryTimeoutError,
    ResourceBudgetError,
)
from repro.obs.flight import (
    DEFAULT_SLOS,
    SLO,
    AttemptRecord,
    FlightRecorder,
    QueryRecord,
    classify_outcome,
    estimate_quantile,
    query_fingerprint,
    render_percentile_table,
)
from repro.obs.logs import SLOW_QUERY_LOGGER, format_slow_query
from repro.session import XQuerySession
from repro.xmark.queries import FIGURE1_SAMPLE, QUERIES

NAMES = 'document("a.xml")/site/people/person/name/text()'

WIDE_DOC = "<a><a><a><a/></a></a></a>"
#: Five ``//a`` steps overflow the 2**61 interval width budget on the
#: relational backends — the canonical degradable fault.
WIDE_QUERY = 'document("w.xml")' + "//a" * 5


@pytest.fixture
def session():
    with XQuerySession() as active:
        active.add_document("a.xml", FIGURE1_SAMPLE)
        yield active


class TestFingerprint:
    def test_stable_and_short(self):
        first = query_fingerprint(NAMES)
        assert first == query_fingerprint(NAMES)
        assert len(first) == 12

    def test_whitespace_runs_collapse(self):
        assert query_fingerprint("for $x in //a return $x") == \
            query_fingerprint("for $x in //a\n    return   $x  ")

    def test_different_queries_differ(self):
        assert query_fingerprint("a") != query_fingerprint("b")


class TestClassifyOutcome:
    def test_ok_and_degraded(self):
        assert classify_outcome(None) == "ok"
        assert classify_outcome(None, ("skipped sqlite",)) == "degraded"

    def test_error_taxonomy(self):
        assert classify_outcome(QueryTimeoutError(1.0, 2.0)) == "timeout"
        assert classify_outcome(
            ResourceBudgetError("tuples", 1, 2)) == "budget"
        assert classify_outcome(ValueError("boom")) == "error"


class TestSLO:
    def test_error_budget(self):
        slo = SLO("p99-fast", target_seconds=0.1, objective=0.99)
        assert slo.error_budget == pytest.approx(0.01)

    def test_violated_by_latency_and_outcome(self):
        slo = SLO("s", target_seconds=0.1)
        fast = QueryRecord(seq=0, fingerprint="f", query="q", backend="e",
                           winner="e", outcome="ok", error=None,
                           wall_seconds=0.05)
        slow = QueryRecord(seq=1, fingerprint="f", query="q", backend="e",
                           winner="e", outcome="ok", error=None,
                           wall_seconds=0.5)
        failed = QueryRecord(seq=2, fingerprint="f", query="q", backend="e",
                             winner=None, outcome="error", error="ValueError",
                             wall_seconds=0.01)
        assert not slo.violated_by(fast)
        assert slo.violated_by(slow)
        assert slo.violated_by(failed)

    def test_degraded_within_target_does_not_burn(self):
        slo = SLO("s", target_seconds=10.0)
        degraded = QueryRecord(seq=0, fingerprint="f", query="q", backend="s",
                               winner="e", outcome="degraded", error=None,
                               wall_seconds=0.01)
        assert not slo.violated_by(degraded)

    @pytest.mark.parametrize("target,objective", [
        (0.0, 0.99), (-1.0, 0.99), (1.0, 0.0), (1.0, 1.0), (1.0, 1.5),
    ])
    def test_invalid_declarations_rejected(self, target, objective):
        with pytest.raises(ValueError):
            SLO("bad", target_seconds=target, objective=objective)

    def test_default_slo_is_one_second_at_99(self):
        (default,) = DEFAULT_SLOS
        assert default.target_seconds == 1.0
        assert default.objective == 0.99


class TestEstimateQuantile:
    def test_empty_and_zero_count(self):
        assert estimate_quantile([], 0.5) is None
        assert estimate_quantile([(1.0, 0), (float("inf"), 0)], 0.5) is None

    def test_interpolates_inside_bucket(self):
        # 10 observations, all inside (0, 1]: p50 lands mid-bucket.
        cumulative = [(1.0, 10), (float("inf"), 10)]
        assert estimate_quantile(cumulative, 0.5) == pytest.approx(0.5)

    def test_inf_bucket_reports_largest_finite_bound(self):
        cumulative = [(1.0, 0), (float("inf"), 4)]
        assert estimate_quantile(cumulative, 0.99) == 1.0


class TestRingBuffer:
    def _record(self, recorder, seconds=0.001):
        return recorder.record_run(query="q", backend="engine",
                                   wall_seconds=seconds)

    def test_capacity_trims_oldest(self):
        recorder = FlightRecorder(capacity=4)
        for _ in range(10):
            self._record(recorder)
        assert len(recorder) == 4
        assert [r.seq for r in recorder.records()] == [6, 7, 8, 9]
        assert recorder.stats()["recorded_total"] == 10

    def test_sequence_is_monotonic(self):
        recorder = FlightRecorder(capacity=2)
        seqs = [self._record(recorder).seq for _ in range(5)]
        assert seqs == [0, 1, 2, 3, 4]

    def test_bad_configuration_rejected(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)
        with pytest.raises(ValueError):
            FlightRecorder(slow_seconds=-1.0)

    def test_filters_and_limit(self):
        recorder = FlightRecorder()
        self._record(recorder)
        recorder.record_run(query="bad", backend="engine",
                            error=ValueError("boom"), wall_seconds=0.001)
        errors = recorder.records(outcome="error")
        assert [r.outcome for r in errors] == ["error"]
        assert len(recorder.records(sampled=True)) == 1  # the error
        newest = recorder.records(limit=1)
        assert [r.seq for r in newest] == [1]
        assert recorder.records(limit=0) == []

    def test_reset_clears_counts(self):
        recorder = FlightRecorder()
        self._record(recorder)
        recorder.reset()
        assert len(recorder) == 0
        assert recorder.stats()["recorded_total"] == 0

    def test_snapshot_is_json_serializable(self):
        recorder = FlightRecorder(slow_seconds=0.0)  # sample everything
        self._record(recorder)
        payload = recorder.snapshot()
        assert json.dumps(payload)  # no exotic types leak through
        assert payload[0]["sampled"] is True


class TestEveryRunRecorded:
    def test_plain_run_lands_in_the_buffer(self, session):
        result = session.run(NAMES)
        assert result.trace is None  # telemetry must stay invisible
        (record,) = session.recorder.records()
        assert record.outcome == "ok"
        assert record.backend == "engine"
        assert record.winner == "engine"
        assert record.fingerprint == query_fingerprint(NAMES)
        assert record.wall_seconds > 0
        assert record.trees == 2
        assert not record.sampled and record.trace is None

    def test_phase_timings_without_tracing(self, session):
        session.run(NAMES)
        (record,) = session.recorder.records()
        assert {"compile", "prepare", "execute"} <= set(record.phases)
        assert all(seconds >= 0 for seconds in record.phases.values())

    def test_run_many_records_every_query(self, session):
        session.run_many([NAMES] * 4, max_workers=2)
        records = session.recorder.records()
        assert len(records) == 4
        assert {r.outcome for r in records} == {"ok"}
        assert len({r.seq for r in records}) == 4

    def test_traced_run_still_recorded_and_traced(self, session):
        result = session.run(NAMES, trace=True)
        assert result.trace is not None  # explicit tracing keeps working
        (record,) = session.recorder.records()
        assert record.outcome == "ok"

    def test_plan_cache_hit_and_miss_facts(self, session):
        session.run(NAMES)
        session.run(NAMES)
        first, second = session.recorder.records()
        assert first.plan_cache == "miss"
        assert second.plan_cache == "hit"
        assert first.plan_fingerprint is not None
        assert first.plan_fingerprint == second.plan_fingerprint

    def test_record_false_opts_out(self):
        with XQuerySession(record=False) as active:
            active.add_document("a.xml", FIGURE1_SAMPLE)
            assert active.recorder is None
            result = active.run(NAMES)
            assert result.trace is None

    def test_shared_recorder_across_sessions(self, session):
        shared = session.recorder
        with XQuerySession(recorder=shared) as other:
            other.add_document("a.xml", FIGURE1_SAMPLE)
            other.run(NAMES)
        session.run(NAMES)
        assert len(shared.records()) == 2


class TestOutcomes:
    def test_compile_error_recorded_and_reraised(self, session):
        with pytest.raises(Exception):
            session.run("let $x := ")
        (record,) = session.recorder.records()
        assert record.outcome == "error"
        assert record.error
        assert record.winner is None

    def test_missing_document_recorded(self, session):
        with pytest.raises(DocumentNotFoundError):
            session.run('document("nope.xml")/a')
        (record,) = session.recorder.records()
        assert record.outcome == "error"
        assert record.error == "DocumentNotFoundError"

    def test_timeout_outcome_and_guard_verdict(self, session):
        with pytest.raises(QueryTimeoutError):
            session.run(NAMES, deadline=1e-9)
        (record,) = session.recorder.records()
        assert record.outcome == "timeout"
        assert record.guard_verdict == "timeout"
        assert record.sampled and "error" in record.sample_reasons

    def test_budget_outcome(self, session):
        with pytest.raises(ResourceBudgetError):
            session.run(NAMES, budget=1)
        (record,) = session.recorder.records()
        assert record.outcome == "budget"
        assert record.guard_verdict == "budget"

    def test_guard_verdict_ok_when_guard_passes(self, session):
        session.run(NAMES, budget=10_000)
        (record,) = session.recorder.records()
        assert record.outcome == "ok"
        assert record.guard_verdict == "ok"

    def test_unguarded_run_has_no_verdict(self, session):
        session.run(NAMES)
        (record,) = session.recorder.records()
        assert record.guard_verdict is None


class TestDegradedRuns:
    @pytest.fixture
    def wide(self, session):
        session.add_document("w.xml", WIDE_DOC)
        return session

    def test_degraded_run_tail_sampled_with_attempts(self, wide):
        result = wide.run(WIDE_QUERY, backend="sqlite",
                          fallback=("engine",))
        assert result.degraded
        (record,) = wide.recorder.records()
        assert record.outcome == "degraded"
        assert record.backend == "sqlite"
        assert record.winner == "engine"
        assert record.sampled and "degraded" in record.sample_reasons
        assert record.trace is not None  # anomaly keeps its span tree
        # Both attempts are on the record — the failure included.
        assert [a.backend for a in record.attempts] == ["sqlite", "engine"]
        assert record.attempts[0].error == "WidthOverflowError"
        assert record.attempts[1].error is None

    def test_failed_attempt_lands_in_the_histogram(self, wide):
        wide.run(WIDE_QUERY, backend="sqlite", fallback=("engine",))
        histogram = wide.metrics.get("repro_query_latency_seconds")
        fingerprint = query_fingerprint(WIDE_QUERY)
        # The time burned on the losing backend is priced, not hidden.
        assert histogram.count(fingerprint=fingerprint, backend="sqlite") == 1
        assert histogram.count(fingerprint=fingerprint, backend="engine") == 1

    def test_plain_run_observes_wall_under_winner(self, session):
        session.run(NAMES)
        histogram = session.metrics.get("repro_query_latency_seconds")
        assert histogram.count(fingerprint=query_fingerprint(NAMES),
                               backend="engine") == 1


class TestTailSampling:
    def test_healthy_fast_run_drops_spans(self, session):
        session.run(NAMES)
        (record,) = session.recorder.records()
        assert not record.sampled
        assert record.trace is None
        assert record.sample_reasons == ()

    def test_slow_threshold_samples_and_logs(self, caplog):
        with XQuerySession(slow_seconds=0.0) as active:
            active.add_document("a.xml", FIGURE1_SAMPLE)
            with caplog.at_level(logging.WARNING, logger=SLOW_QUERY_LOGGER):
                active.run(NAMES)
            (record,) = active.recorder.records()
        assert record.sampled and record.sample_reasons == ("slow",)
        assert record.trace is not None
        assert record.trace.find("execute") is not None
        (logged,) = [r for r in caplog.records
                     if r.name == SLOW_QUERY_LOGGER]
        message = logged.getMessage()
        assert f"slow_query={record.fingerprint}" in message
        assert "outcome=ok" in message
        assert "execute_ms=" in message

    def test_slow_log_carries_plan(self):
        record = QueryRecord(
            seq=7, fingerprint="abc", query="q", backend="engine",
            winner="engine", outcome="ok", error=None, wall_seconds=0.75,
            phases={"execute": 0.7}, plan_cache="hit",
            plan_fingerprint="deadbeef",
            sampled=True, sample_reasons=("slow",))
        line = format_slow_query(record)
        assert "plan=deadbeef" in line
        assert "plan_cache=hit" in line

    def test_counters_track_sampling(self, caplog):
        with XQuerySession(slow_seconds=0.0) as active:
            active.add_document("a.xml", FIGURE1_SAMPLE)
            active.run(NAMES)
            sampled = active.metrics.get("repro_flight_tail_sampled_total")
            recorded = active.metrics.get("repro_flight_records_total")
            assert sampled.value(reason="slow") == 1
            assert recorded.value(outcome="ok") == 1


class TestSLOBurn:
    def test_impossible_target_burns_at_full_rate(self):
        slos = (SLO("tight", target_seconds=1e-12, objective=0.5),)
        with XQuerySession(slos=slos) as active:
            active.add_document("a.xml", FIGURE1_SAMPLE)
            active.run(NAMES)
            active.run(NAMES)
            (status,) = active.recorder.slo_status()
            assert status["queries"] == 2
            assert status["violations"] == 2
            # violation fraction 1.0 over a 0.5 budget.
            assert status["burn_rate"] == pytest.approx(2.0)
            gauge = active.metrics.get("repro_slo_burn_rate")
            assert gauge.value(slo="tight") == pytest.approx(2.0)
            counter = active.metrics.get("repro_slo_violations_total")
            assert counter.value(slo="tight") == 2

    def test_met_objective_burns_zero(self, session):
        session.run(NAMES)
        (status,) = session.recorder.slo_status()
        assert status["name"] == "default"
        assert status["violations"] == 0
        assert status["burn_rate"] == 0.0
        gauge = session.metrics.get("repro_slo_target_seconds")
        assert gauge.value(slo="default") == 1.0


class TestPercentiles:
    def test_table_rows_per_series(self, session):
        for _ in range(5):
            session.run(NAMES)
        rows = session.recorder.percentiles()
        (row,) = [r for r in rows
                  if r["fingerprint"] == query_fingerprint(NAMES)]
        assert row["backend"] == "engine"
        assert row["count"] == 5
        for column in ("mean_ms", "p50_ms", "p95_ms", "p99_ms"):
            assert row[column] is not None and row[column] >= 0
        assert row["query"].startswith("document")

    def test_render_percentile_table(self, session):
        session.run(NAMES)
        text = render_percentile_table(session.recorder.percentiles())
        assert query_fingerprint(NAMES) in text
        assert "p99 ms" in text

    def test_render_empty(self):
        assert render_percentile_table([]) == "no recorded queries"


class TestOverheadAndConcurrency:
    def test_recorder_overhead_is_small(self):
        """The always-on recorder must not slow warm queries measurably.

        The design target is <5% on a warm Q8 (the bench ``telemetry``
        section measures it for real); the assertion allows 50% so
        shared-CI timer noise cannot flake the build — an accidental
        per-operator instrumentation regression costs far more than that.
        """
        with XQuerySession() as active:
            active.add_xmark_document("auction.xml", 0.002)
            query = QUERIES["Q8"]
            compiled = active.prepare(query)
            target = active.backend_instance("engine")
            target.prepare(active._prepare_bindings(compiled))
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
            recorded = best_of(lambda: active.run(query))
            assert active.recorder.stats()["recorded_total"] >= 5
            assert recorded <= raw * 1.5 + 0.01

    def test_concurrent_writers_and_readers_never_tear(self, session):
        """run_many hammers the recorder while a reader thread snapshots.

        Every snapshot must decode as JSON with complete records — a torn
        read (half-written record, mid-update counters) shows up as a
        missing field, a None seq, or a raised exception.
        """
        errors: list[BaseException] = []
        stop = threading.Event()

        def read_loop():
            try:
                while not stop.is_set():
                    for payload in session.recorder.snapshot():
                        assert payload["seq"] >= 0
                        assert payload["outcome"] in (
                            "ok", "degraded", "timeout", "budget", "error")
                        assert payload["wall_ms"] >= 0
                    session.recorder.stats()
                    session.recorder.percentiles()
                    json.dumps(session.recorder.snapshot())
            except BaseException as error:  # surfaced after the join
                errors.append(error)

        reader = threading.Thread(target=read_loop)
        reader.start()
        try:
            session.run_many([NAMES] * 24, max_workers=4)
        finally:
            stop.set()
            reader.join(timeout=10.0)
        assert not errors
        assert session.recorder.stats()["recorded_total"] == 24
        seqs = [record.seq for record in session.recorder.records()]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)


class TestAttemptRecord:
    def test_to_dict_rounds(self):
        attempt = AttemptRecord("engine", 0.1234567, None)
        assert attempt.to_dict() == {"backend": "engine",
                                     "seconds": 0.123457, "error": None}
