"""The benchmark's own checks.

Run explicitly (tier-1 collects ``tests/`` only)::

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent
ROOT = PERFBENCH.parent
for path in (str(ROOT / "src"), str(PERFBENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)

import inputs  # noqa: E402
import measure  # noqa: E402
import oracle  # noqa: E402
import passes  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SMOKE = ["--scale-ops", "0.02"]


class Tiny(Workload):
    """Three path queries on a 500-node document: a fast stand-in."""

    name = "tiny"
    scale = 0.0003
    mix = ("Q13", "Q17", "Q15")
    setup_repeats = 1


def first_ops(workload, inp, count=40):
    return list(itertools.islice(workload.schedule(inp), count))


def run_py(*arguments: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), *arguments],
        capture_output=True, text=True, timeout=120)


# -- inputs are a function of the seed ------------------------------------------------

def test_equal_seeds_give_equal_inputs_and_schedules():
    for name in ("adhoc_compile", "update_mix", "batch_run_many"):
        workload = WORKLOADS[name]
        runs = []
        for seed in (5, 5, 6):
            inp = workload.make_inputs(seed)
            try:
                runs.append((inp.document.text(), first_ops(workload, inp),
                             inp.extra.get("item_xml")))
            finally:
                inp.document.path.unlink(missing_ok=True)
        assert runs[0] == runs[1], name
        assert runs[0][0] != runs[2][0], name          # another document
        assert runs[0][1] != runs[2][1], name          # another schedule


def test_adhoc_texts_never_repeat():
    workload = WORKLOADS["adhoc_compile"]
    inp = workload.make_inputs(3)
    try:
        texts = [op.queries[0][1] for op in first_ops(workload, inp, 400)]
        cold = {inp.queries[shape] for shape in workload.mix}
    finally:
        inp.document.path.unlink(missing_ok=True)
    assert len(set(texts)) == len(texts)
    assert not cold & set(texts)


# -- names --------------------------------------------------------------------------

def test_names_match_the_contract():
    assert list(WORKLOADS) == [w["name"] for w in CONTRACT["workloads"]]
    assert all(0 < len(w["why"]) <= 200 for w in CONTRACT["workloads"])
    names = [m["name"] for kind in ("end_to_end", "per_layer")
             for m in CONTRACT[kind]] + list(WORKLOADS)
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(name) for name in names)
    assert CONTRACT["paths"] == ["perfbench"]
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in CONTRACT["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in CONTRACT["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
def test_a_pass_prints_exactly_the_listed_metrics(trace):
    done = run_py("--workload", "adhoc_compile", "--seed", "9",
                  "--trace", str(trace), *SMOKE)
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    listed = CONTRACT["per_layer" if trace else "end_to_end"]
    assert list(last["metrics"]) == [m["name"] for m in listed]
    for metric in listed:
        assert last["metrics"][metric["name"]]["unit"] == metric["unit"]
    if trace:
        trace_file = json.loads(
            (PERFBENCH / "out" / "adhoc_compile.trace.json").read_text())
        events = trace_file["traceEvents"]
        assert events and all(
            {"name", "cat", "ph", "ts", "dur", "pid", "tid", "args"}
            <= set(event) for event in events)
        # The repository's own exporter emits the same event shape.
        from repro.obs.export import chrome_trace
        from repro.obs.trace import Tracer
        tracer = Tracer()
        with tracer.span("x"):
            pass
        assert set(chrome_trace(tracer.roots)["traceEvents"][0]) \
            <= set(events[0])


def test_nothing_to_measure_is_an_error(tmp_path):
    bare = tmp_path / "perfbench"
    bare.mkdir()
    for source in PERFBENCH.glob("*.py"):
        (bare / source.name).write_text(source.read_text())
    (tmp_path / "BENCHMARK.json").write_text(
        (ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paths_warm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert not done.stdout.strip()


# -- the p95 rule -----------------------------------------------------------------------

def test_p95_refuses_fewer_than_200_samples():
    with pytest.raises(ValueError):
        measure.p95([1.0] * 199)
    samples = [float(value) for value in range(1, 201)]
    assert measure.p95(samples) == 190.0
    assert sum(1 for value in samples if value > 190.0) == 10


# -- failure accounting --------------------------------------------------------------------

def test_a_clean_run_fails_nothing():
    result = passes.timed_pass(Tiny(), 4, seconds=10, scale_ops=0.02)
    assert result["failed"] == 0
    assert result["metrics"]["failed_share"][0] == 0.0
    assert result["attempted"] >= 4


def test_a_wrong_answer_raises_failed_share():
    class WrongOracle(Tiny):
        def answers(self, inp, ops):
            answers = super().answers(inp, ops)
            answers["Q17"] += "<!-- not what the program said -->"
            return answers

    result = passes.timed_pass(WrongOracle(), 4, seconds=10, scale_ops=0.03)
    assert result["detail"]["failures"]["wrong_answers"] >= 1
    assert 0 < result["metrics"]["failed_share"][0] < 1


def test_a_brownout_reroute_raises_failed_share():
    from repro.obs.flight import SLO
    from repro.resilience import AdmissionConfig

    class Rerouted(Tiny):
        backend = "sqlite"
        # Every query misses a one-nanosecond objective, so the brownout
        # ladder is ready to step to "cheap-backend" (= engine).
        session_options = {
            "slos": [SLO("instant", target_seconds=1e-9, objective=0.99)],
            "admission": AdmissionConfig(brownout_dwell_seconds=0.0)}
        executed = 0

        def execute(self, state, op):
            self.executed += 1
            if self.executed == 4:  # three honest answers, then the step
                state.admission.brownout.evaluate()
                state.admission.brownout.evaluate()
                assert state.admission.brownout.index >= 1
            return super().execute(state, op)

    result = passes.timed_pass(Rerouted(), 4, seconds=10, scale_ops=0.02)
    assert result["detail"]["failures"]["wrong_backend"] >= 1
    assert result["detail"]["brownout_transitions"] >= 1
    assert 0 < result["metrics"]["failed_share"][0] < 1


def test_a_shed_raises_failed_share():
    from repro.resilience import AdmissionConfig

    class Shedding(Tiny):
        session_options = {"admission": AdmissionConfig(
            max_concurrency=1, max_queue_depth=0)}

        def setup(self, inp):
            session = super().setup(inp)
            self.ticket = session.admission.try_acquire()  # the only slot
            return session

        def teardown(self, state):
            state.admission.release(self.ticket)
            state.close()

    with pytest.raises(passes.NothingMeasured, match="OverloadError"):
        # Every read is shed, so there is no latency to report at all.
        passes.timed_pass(Shedding(), 4, seconds=10, scale_ops=0.02)
    workload = Shedding()
    inp = workload.make_inputs(4)
    try:
        state = workload.setup(inp)
        records = passes.run_client(
            workload, state, workload.schedule(inp), 3,
            passes.Stretches(measure.Kernel()))
        workload.teardown(state)
    finally:
        inp.document.path.unlink(missing_ok=True)
    assert all("OverloadError" in record.error for record in records)


# -- spans ------------------------------------------------------------------------------

def test_self_times_sum_to_the_parent():
    ticks = itertools.count()
    recorder = tracing.SpanRecorder(clock=lambda: float(next(ticks)))
    with recorder.operation("op0", "op", "bench") as root:
        with recorder.span("a", "xml"):
            with recorder.span("b", "engine"):
                pass
        with recorder.span("c", "session"):
            pass
    spans = list(root.walk())
    assert [span.op for span in spans] == ["op0"] * 4
    assert sum(span.self_seconds() for span in spans) == root.seconds
    assert root.self_seconds() == root.seconds - 3 - 1


def test_concurrent_children_are_not_subtracted_twice():
    root = tracing.Span("root", "bench", 0.0, 10.0)
    root.children = [tracing.Span("a", "engine", 1.0, 6.0, root),
                     tracing.Span("b", "engine", 4.0, 8.0, root)]
    assert root.self_seconds() == 10.0 - 7.0


def test_traced_operation_accounts_for_every_layer_call():
    from repro import XQuerySession

    workload = Tiny()
    inp = workload.make_inputs(4)
    recorder = tracing.SpanRecorder()
    try:
        with XQuerySession() as session, tracing.patched(recorder):
            session.add_document(inputs.DOCUMENT, inp.document.text())
            with recorder.operation("op0", "op", "bench") as root:
                session.run(inp.queries["Q13"]).to_xml()
    finally:
        inp.document.path.unlink(missing_ok=True)
    names = {span.name for span in root.walk()}
    assert {"session.run", "xquery.parse", "compiler.plan", "engine.execute",
            "encoding.decode", "xml.serialize", "backends.execute"} <= names
    total = sum(span.self_seconds() for span in root.walk())
    assert total == pytest.approx(root.seconds, rel=1e-9)
    # Unpatched again: the program's functions are the originals.
    from repro.xml import serializer
    assert not hasattr(serializer.forest_to_xml, "__wrapped__")


# -- oracles ------------------------------------------------------------------------------

def test_join_reference_equals_the_interpreter():
    import random

    document = inputs.generate_document(0.001, 8, "test-join-reference")
    try:
        text = document.text()
        queries = inputs.named_queries(document, random.Random(8))
    finally:
        document.path.unlink(missing_ok=True)
    reference = oracle.join_reference(text)
    assert reference == oracle.interpreter_answers(
        text, {name: queries[name] for name in reference})
    assert all(reference.values())


# -- process hygiene ------------------------------------------------------------------------

def test_child_per_workload_runner_leaves_nothing_behind():
    """No ``repro_cols_*`` segment and no process: the pool's resource
    tracker outlives its parent unless it is stopped, and as a sub-reaper
    this test inherits (and so sees) every such orphan."""
    import ctypes

    def segments():
        return {name for name in os.listdir("/dev/shm")
                if name.startswith("repro_cols_")}

    set_child_subreaper = 36  # PR_SET_CHILD_SUBREAPER, <linux/prctl.h>
    libc = ctypes.CDLL(None)
    watching = libc.prctl(set_child_subreaper, 1, 0, 0, 0) == 0
    try:
        before = segments(), set(measure.child_pids())
        done = run_py("--workload", "batch_run_many", "--seed", "2", *SMOKE)
        orphans = sorted(set(measure.child_pids()) - before[1])
        measure.reap(orphans, grace=5.0)
    finally:
        libc.prctl(set_child_subreaper, 0, 0, 0, 0)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert "concurrency.batch_efficiency" in done.stdout
    assert segments() == before[0]
    assert watching and orphans == []
