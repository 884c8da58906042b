"""The two passes over a workload: timed (untraced) and traced.

The timed pass produces the end-to-end metrics with nothing of the
benchmark's inside the program.  The traced pass replays the same
schedule with :mod:`tracing`'s wrappers around each layer's public
calls and produces the per-layer metrics; the ratio between the two is
itself reported (``trace.overhead_ratio``).
"""

from __future__ import annotations

import gc
import itertools
import math
import statistics
import threading
import time
from dataclasses import dataclass
from typing import Iterator

import measure
import oracle
import tracing
from inputs import OUT
from workloads import Inputs, Op, Workload

clock = time.perf_counter


@dataclass
class OpRecord:
    op: Op
    #: Wall-clock seconds, as measured.
    raw_seconds: float = 0.0
    #: Host slowness while its stretch ran (``measure.Kernel.slowness``).
    factor: float = 1.0
    hashes: tuple[str, ...] = ()
    bytes: int = 0
    backends: tuple = ()
    error: str = ""

    @property
    def seconds(self) -> float:
        """Seconds on the reference host: measured ÷ host slowness."""
        return self.raw_seconds / self.factor


def operations(workload: Workload, seconds: float, scale_ops: float,
               share: float = 1.0) -> int:
    """How many operations one client runs.

    The schedule is a fixed amount of work, not a stopwatch: whole rounds
    of the mix, sized by the workload's nominal rate so that ``--seconds``
    of them take about that long on the recording host, and never fewer
    than the 200 reads (and writes) the p95 rule needs.  Equal work per
    run keeps class shares exact and memory growth comparable.
    ``scale_ops`` scales the lot (smoke runs); ``share`` carves a slice
    out of a traced pass.
    """
    rounds = max(workload.rounds_per_second * seconds, workload.floor_rounds)
    return max(1, math.ceil(rounds * scale_ops * share)) * workload.round_ops


class Stretches:
    """Cuts a single client's schedule into stretches of about
    ``STRETCH_SECONDS``, each bracketed by two host-speed samples taken
    outside any operation's clock; a stretch's operations carry the host
    slowness of their bracket."""

    def __init__(self, kernel: measure.Kernel):
        self.kernel = kernel
        self.before = kernel.seconds()
        #: Seconds spent sampling, which are not the program's.
        self.sampling = self.before
        self.started = clock()

    def after_operation(self, stretch: list[OpRecord], last: bool) -> None:
        if last or clock() - self.started >= measure.STRETCH_SECONDS:
            self.close(stretch)

    def close(self, stretch: list[OpRecord]) -> None:
        after = self.kernel.seconds()
        self.sampling += after
        factor = self.kernel.slowness(self.before, after)
        for record in stretch:
            record.factor = factor
        stretch.clear()
        self.before = after
        self.started = clock()


class LockstepStretches(Stretches):
    """The same for several client threads: they meet at a barrier after
    every round and one of them samples the kernel while the rest (and so
    the program) stand still.  A kernel run beside busy sibling threads
    measures their hold on the interpreter lock, not the host."""

    def __init__(self, kernel: measure.Kernel, clients: int, round_ops: int):
        super().__init__(kernel)
        self.round_ops = round_ops
        self.factor = 1.0
        self.barrier = threading.Barrier(clients, action=self.sample)

    def sample(self) -> None:
        after = self.kernel.seconds()
        self.sampling += after
        self.factor = self.kernel.slowness(self.before, after)
        self.before = after

    def after_operation(self, stretch: list[OpRecord], last: bool) -> None:
        if last or len(stretch) == self.round_ops:
            self.barrier.wait()
            for record in stretch:
                record.factor = self.factor
            stretch.clear()


def run_client(workload: Workload, state, schedule: Iterator[Op],
               count: int, stretches: Stretches,
               recorder: tracing.SpanRecorder | None = None,
               ) -> list[OpRecord]:
    """Closed loop: the next operation starts when the last one returned."""
    records: list[OpRecord] = []
    stretch: list[OpRecord] = []
    for op in itertools.islice(schedule, count):
        record = OpRecord(op)
        started = clock()
        try:
            if recorder is None:
                outcome = workload.execute(state, op)
            else:
                with recorder.operation(f"{op.kind}{len(records)}",
                                        *workload.trace_root):
                    outcome = workload.execute(state, op)
            record.raw_seconds = clock() - started
            record.hashes = tuple(map(oracle.sha256, outcome.texts))
            record.bytes = sum(map(len, outcome.texts))
            record.backends = tuple(outcome.backends)
        except Exception as error:  # the failure is the measurement
            record.raw_seconds = clock() - started
            record.error = f"{type(error).__name__}: {error}"[:200]
        records.append(record)
        stretch.append(record)
        stretches.after_operation(stretch, last=len(records) == count)
    return records


def run_clients(workload: Workload, state, inp: Inputs, count: int,
                kernel: measure.Kernel) -> tuple[list[OpRecord], float]:
    """All clients of the timed phase; returns records and wall seconds
    (as measured, less the host-speed kernel's own time)."""
    if workload.clients == 1:
        stretches = Stretches(kernel)
        started = clock()
        records = run_client(workload, state, workload.schedule(inp), count,
                             stretches)
        return records, clock() - started - stretches.sampling
    stretches = LockstepStretches(kernel, workload.clients,
                                  workload.round_ops)
    results: list[list[OpRecord]] = [[] for _ in range(workload.clients)]
    start_line = threading.Barrier(workload.clients + 1)

    def client(index: int) -> None:
        start_line.wait()
        results[index] = run_client(
            workload, state, workload.schedule(inp, index), count, stretches)

    threads = [threading.Thread(target=client, args=(index,))
               for index in range(workload.clients)]
    for thread in threads:
        thread.start()
    start_line.wait()
    started = clock()
    for thread in threads:
        thread.join()
    wall = clock() - started - stretches.sampling
    return [record for records in results for record in records], wall


def run_speed_factor(records: list[OpRecord]) -> float:
    """Time-weighted host slowness of a whole run: measured ÷ reference."""
    raw = sum(record.raw_seconds for record in records)
    return raw / sum(record.seconds for record in records) if raw else 1.0


def mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


# -- checking answers ---------------------------------------------------------------

def verify(workload: Workload, inp: Inputs, seed: int,
           records: list[OpRecord]) -> dict[str, int]:
    """Mark failed records in place; returns failure counts by kind."""
    ops = [record.op for record in records]
    answers = workload.answers(inp, ops)
    expected = {key: oracle.sha256(text) for key, text in answers.items()}
    counts = {"errors": 0, "wrong_answers": 0, "wrong_backend": 0,
              "oracle_drift": len(oracle.drift(workload.name, seed, expected))}
    for record in records:
        if record.error:
            counts["errors"] += 1
            continue
        wanted = tuple(expected[key] for key, _ in record.op.queries)
        if record.hashes != wanted:
            counts["wrong_answers"] += 1
            record.error = "wrong answer"
        elif any(backend != workload.backend for backend in record.backends):
            counts["wrong_backend"] += 1
            record.error = f"answered by {set(record.backends)}"
    return counts


def shell_counts(session) -> dict[str, int]:
    """Sheds and brownout steps the session saw (0 for a remote one)."""
    if session is None or session.admission is None:
        return {"sheds": 0, "brownout_transitions": 0}
    recorder = session.recorder
    return {"sheds": session.admission.sheds,
            "brownout_transitions":
                len(recorder.events("brownout")) if recorder else 0}


def settle_heap() -> None:
    """Collect, then freeze the set-up heap, as a long-lived server would.

    Without it every ~20th operation pays a 50 ms full collection of the
    static document (78k nodes), and 5.3% of operations being hit puts
    the 95th percentile exactly on the edge between hit and not hit: it
    swung 22-24% between runs.  ``serve_http``'s server process is not
    ours to freeze, so its p95 still shows the pauses.
    """
    gc.collect()
    gc.freeze()


# -- the timed pass -------------------------------------------------------------------

def write_p50(writes: list[float]) -> float:
    """Median over (insert, delete) pairs of the pair's mean.

    Inserts (34 ms) and the deletes that undo them (15 ms) alternate one
    for one, so the plain median of all writes sits on the cliff between
    the two and read 21.7 and 26.3 ms on two runs whose per-kind medians
    agreed to 1%.
    """
    pairs = [(first + second) / 2
             for first, second in zip(writes[0::2], writes[1::2])]
    return measure.p50(pairs or writes)


class NothingMeasured(RuntimeError):
    """Every read failed: there is no latency to report, only the reason."""


def timed_pass(workload: Workload, seed: int, seconds: float,
               scale_ops: float = 1.0) -> dict[str, object]:
    """End-to-end metrics of one workload, nothing traced."""
    inp = workload.make_inputs(seed)
    kernel = measure.Kernel()
    state = None
    try:
        setups: list[tuple[float, float]] = []   # (measured, host factor)
        for _ in range(workload.setup_repeats):
            if state is not None:
                workload.teardown(state)
                state = None
                gc.collect()
            before = kernel.seconds()
            started = clock()
            state = workload.setup(inp)
            elapsed = clock() - started
            setups.append((elapsed,
                           kernel.slowness(before, kernel.seconds())
                           if workload.setup_on_reference_host else 1.0))
        settle_heap()
        records, wall = run_clients(
            workload, state, inp, operations(workload, seconds, scale_ops),
            kernel)
        rss = workload.peak_rss_mb(state)  # before the oracle allocates
        facts = workload.facts(state)
        shell = shell_counts(workload.session(state))
        counts = verify(workload, inp, seed, records)
        problems = workload.final_check(state, inp,
                                        [record.op for record in records])
    finally:
        if state is not None:
            workload.teardown(state)
        inp.document.path.unlink(missing_ok=True)

    good = [record for record in records if not record.error]
    attempted = len(records)
    failed = attempted - len(good)
    if not any(record.op.kind == "read" for record in good):
        raise NothingMeasured(
            f"{workload.name}: no read succeeded; {counts}; "
            f"{[record.error for record in records][:3]}")
    if counts["oracle_drift"] or problems:
        failed = attempted  # nothing is verified against a moved oracle
    # The p95 rule binds every clean full-size run; a smoke run's p95 is
    # plumbing, and a run with failures is rejected on those and still
    # prints what it measured.
    floor = measure.MIN_P95_SAMPLES if scale_ops >= 1 and not failed else 1
    factor = run_speed_factor(records)
    answered = sum(record.op.weight for record in good)

    def summary(seconds_of, wall_seconds: float, setup_seconds: list[float],
                ) -> dict[str, tuple[float, str]]:
        reads = [seconds_of(r) * 1e3 for r in good if r.op.kind == "read"]
        writes = [seconds_of(r) * 1e3 for r in good if r.op.kind == "write"]
        metrics = {
            "throughput_ops_s": (answered / wall_seconds, "1/s"),
            "latency_p50_ms": (measure.p50(reads), "ms"),
            "latency_p95_ms": (measure.p95(reads, floor), "ms"),
            "setup_s": (statistics.median(setup_seconds), "s"),
        }
        if writes:
            metrics["write_p50_ms"] = (write_p50(writes), "ms")
            metrics["write_p95_ms"] = (measure.p95(writes, floor), "ms")
        return metrics

    # Times are reported on the reference host: measured ÷ host slowness,
    # round by round (README.md "Host speed").  The measured values ride
    # along in the detail.
    metrics = summary(lambda record: record.seconds, wall / factor,
                      [elapsed / slow for elapsed, slow in setups])
    metrics["peak_rss_mb"] = (rss, "MB")
    metrics["failed_share"] = (failed / attempted, "fraction")
    as_measured = summary(lambda record: record.raw_seconds, wall,
                          [elapsed for elapsed, _ in setups])
    by_query: dict[str, list[float]] = {}
    for record in good:
        label = "+".join(key for key, _ in record.op.queries) or record.op.edit
        by_query.setdefault(label, []).append(record.seconds * 1e3)
    return {
        "workload": workload.name, "seed": seed, "trace": 0,
        "attempted": attempted, "failed": failed,
        "metrics": metrics,
        "detail": {
            "failures": counts, "final_check": problems, **shell,
            "read_samples": sum(1 for r in good if r.op.kind == "read"),
            "write_samples": sum(1 for r in good if r.op.kind == "write"),
            "host_speed_factor": factor,
            "as_measured": {name: value
                            for name, (value, _) in as_measured.items()},
            "timed_wall_s": wall,
            "median_ms_by_query": {label: statistics.median(samples)
                                   for label, samples in by_query.items()},
            "document": {"scale": workload.scale,
                         "nodes": inp.document.nodes,
                         "bytes": inp.document.bytes},
            "clients": workload.clients, "loop": "closed",
            "requested_backend": workload.backend, **facts,
            "first_errors": [r.error for r in records if r.error][:3],
        },
    }


# -- the traced pass -------------------------------------------------------------------

def engine_split(workload: Workload, session, inp: Inputs,
                 ops: int) -> dict[str, float]:
    """Figure 10's paths/join/construction seconds per op, via ``stats=``."""
    from repro.engine.stats import EngineStats

    totals = {"paths": 0.0, "join": 0.0, "construction": 0.0, "other": 0.0}
    done = 0
    for op in workload.schedule(inp):
        if done >= ops:
            break
        if op.kind != "read":
            continue
        for _key, query in op.queries:
            stats = EngineStats()
            session.run(query, backend="engine", stats=stats)
            for category, seconds in stats.seconds.items():
                totals[category] = totals.get(category, 0.0) + seconds
            done += 1
    return {category: seconds / max(done, 1)
            for category, seconds in totals.items()}


def recorder_tax_ms(workload: Workload, inp: Inputs, rounds: int) -> float:
    """What the always-on flight recorder costs one operation.

    The same reads on a default session and on one built
    ``record=False``, alternating which goes first; the median of the
    paired differences cancels the per-query spread that a difference of
    medians would keep.
    """
    from repro import XQuerySession
    from inputs import DOCUMENT

    sessions = []
    try:
        for record in (True, False):
            session = XQuerySession(**{**workload.session_options,
                                       "record": record})
            session.add_document(DOCUMENT, inp.document.text())
            sessions.append(session)
        backend = "sqlite" if workload.backend == "sqlite" else "engine"
        differences: list[float] = []
        wanted = (rounds + 1) * len(workload.mix)
        queries = (query for op in workload.schedule(inp)
                   if op.kind == "read" for _key, query in op.queries)
        for done, query in enumerate(queries):
            if done >= wanted:
                break
            seconds = [0.0, 0.0]
            for which in ((0, 1) if done % 2 == 0 else (1, 0)):
                started = clock()
                sessions[which].run(query, backend=backend).to_xml()
                seconds[which] = clock() - started
            differences.append(seconds[0] - seconds[1])
        # The first round compiles on both sides; compare warm (ad-hoc
        # texts stay cold throughout, on both sides alike).
        return statistics.median(differences[len(workload.mix):]) * 1e3
    finally:
        for session in sessions:
            session.close()


def traced_pass(workload: Workload, seed: int, seconds: float,
                scale_ops: float = 1.0) -> dict[str, object]:
    """Per-layer metrics of one workload from the benchmark's own spans."""
    inp = workload.make_inputs(seed)
    kernel = measure.Kernel()
    recorder = tracing.SpanRecorder()
    state = None
    try:
        state = workload.setup_traced(inp)
        session = workload.session(state)
        settle_heap()
        # 1. The same schedule untraced: the reference the overhead ratio
        #    (and, on update_mix, the write latency) is taken against.
        reference = run_client(
            workload, state, workload.schedule(inp),
            operations(workload, seconds, scale_ops, share=0.25),
            Stretches(kernel))
        before_cache = plan_cache_snapshot(session)
        before_shell = shell_counts(session)
        updates_before = update_total(session)
        # 2. The schedule again with every layer boundary wrapped.
        with tracing.patched(recorder):
            stretches = Stretches(kernel)
            traced_started = clock()
            traced = run_client(
                workload, state, workload.schedule(inp),
                operations(workload, seconds, scale_ops, share=0.5),
                stretches, recorder)
            traced_wall = clock() - traced_started - stretches.sampling
            op_roots = [root for root in recorder.roots if root.op]
            for root, record in zip(op_roots, traced):
                root.args["host_factor"] = record.factor
            after_cache = plan_cache_snapshot(session)
            after_shell = shell_counts(session)
            flight = flight_records(session, traced)
            updates = update_records(session, updates_before)
            # 3. One traced set-up, for the layers that only run there.
            before = kernel.seconds()
            with recorder.operation("setup", "setup", "bench") as setup_root:
                spare = workload.setup_traced(inp)
            setup_root.args["host_factor"] = kernel.slowness(
                before, kernel.seconds())
            recorder.enabled = False  # the extras time bare calls
            extras = workload.layer_extras(spare, inp, setup_root)
            workload.teardown(spare)
        counts = verify(workload, inp, seed, reference + traced)
        split = {}
        if session is not None and workload.backend == "engine":
            split = engine_split(workload, session, inp,
                                 2 * len(workload.mix))
        tax = recorder_tax_ms(workload, inp, rounds=10)
    finally:
        if state is not None:
            workload.teardown(state)
        inp.document.path.unlink(missing_ok=True)

    trace_path = OUT / f"{workload.name}.trace.json"
    tracing.write_chrome_trace(
        [setup_root] + op_roots[:TRACE_FILE_OPS], trace_path,
        {"workload": workload.name, "seed": seed, **measure.host_facts()})

    metrics = layer_metrics(
        workload, inp, op_roots, setup_root, reference, traced, traced_wall,
        flight, updates, split,
        cache=(before_cache, after_cache), shell=(before_shell, after_shell))
    metrics["obs.recorder_tax_ms"] = (tax, "ms")
    metrics.update(extras)
    records = reference + traced
    failed = sum(1 for record in records if record.error)
    if counts["oracle_drift"]:
        failed = len(records)
    return {
        "workload": workload.name, "seed": seed, "trace": 1,
        "attempted": len(records), "failed": failed,
        "metrics": metrics,
        "detail": {"failures": counts, "trace_file": str(trace_path),
                   "traced_ops": len(traced),
                   "reference_ops": len(reference),
                   "first_errors": [r.error for r in records if r.error][:3]},
    }


#: Operations written to the Chrome-trace file (all of them feed the
#: metrics; the file is for looking at, and ad-hoc passes run thousands).
TRACE_FILE_OPS = 300


def plan_cache_snapshot(session) -> dict[str, int]:
    if session is None or "engine" not in session.active_backends:
        return {}
    return session.backend_instance("engine").plan_cache.snapshot()


def update_total(session) -> int:
    if session is None or session.recorder is None:
        return 0
    return int(session.recorder.stats()["updates_total"])


def update_records(session, before: int) -> list:
    if session is None or session.recorder is None:
        return []
    fresh = update_total(session) - before
    return session.recorder.updates()[-fresh:] if fresh else []


def flight_records(session, traced: list[OpRecord]) -> list:
    """The flight records of the traced reads still in the ring buffer."""
    if session is None or session.recorder is None:
        return []
    queries = sum(r.op.weight for r in traced if r.op.kind == "read")
    return session.recorder.records(limit=queries) if queries else []


def layer_metrics(workload: Workload, inp: Inputs,
                  op_roots: list[tracing.Span], setup_root: tracing.Span,
                  reference: list[OpRecord], traced: list[OpRecord],
                  traced_wall: float, flight: list, updates: list,
                  split: dict[str, float], cache: tuple[dict, dict],
                  shell: tuple[dict, dict]) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, by name, from the recorded spans."""
    # Every time below is on the reference host: a span's seconds divided
    # by the host slowness of the operation (round) it belongs to.
    spans: dict[str, list[tracing.Span]] = {}
    slowness: dict[str, float] = {}
    for root in op_roots + [setup_root]:
        slowness[root.op] = float(root.args["host_factor"])
        for span in root.walk():
            spans.setdefault(span.name, []).append(span)
    traced_factor = run_speed_factor(traced)

    def seconds(span: tracing.Span) -> float:
        return span.seconds / slowness[span.op]

    def calls(name: str) -> list[tracing.Span]:
        return spans.get(name, [])

    def call_ms(name: str) -> float:
        return mean([seconds(span) for span in calls(name)]) * 1e3

    def arg_mean(name: str, key: str) -> float:
        return mean([float(span.args[key]) for span in calls(name)
                     if key in span.args])

    def rate(name: str, key: str, scale: float = 1.0) -> float:
        total = sum(seconds(span) for span in calls(name))
        amount = sum(float(span.args.get(key, 0)) for span in calls(name))
        return amount / scale / total if total else 0.0

    reads = [r for r in traced if r.op.kind == "read" and not r.error]
    writes = [r for r in traced if r.op.kind == "write" and not r.error]
    queries = sum(r.op.weight for r in reads)
    hits = [span for span in calls("compiler.optimized_for")
            if not any(c.name == "compiler.plan" for c in span.children)]
    before_cache, after_cache = cache
    lookups = sum(after_cache.get(k, 0) - before_cache.get(k, 0)
                  for k in ("hits", "misses"))
    # The program's own flight records are as measured; put them on the
    # reference host with the traced slice's overall factor.
    phases = {name: mean([record.phases.get(name, 0.0) for record in flight])
              / traced_factor for name in ("compile", "prepare", "execute")}
    flight_wall = mean([record.wall_seconds for record in flight]) \
        / traced_factor
    execute_ms = call_ms("engine.execute")
    split_total = sum(split.values())
    # The stats= option adds its own spans inside the engine; scale its
    # split to the execute time measured without it.
    split_scale = (execute_ms / (split_total * 1e3)) if split_total else 0.0
    ms, us, count = "ms", "us", "count"
    metrics: dict[str, tuple[float, str]] = {
        "xml.parse_ms": (call_ms("xml.parse"), ms),
        "xml.parse_mb_s": (rate("xml.parse", "bytes", 1e6), "MB/s"),
        "xml.serialize_ms": (call_ms("xml.serialize"), ms),
        "xml.serialize_mb_s": (rate("xml.serialize", "bytes", 1e6), "MB/s"),
        "xml.result_bytes": (mean([float(r.bytes) for r in reads]), "B"),
        "xquery.parse_ms": (call_ms("xquery.parse"), ms),
        "xquery.lower_ms": (call_ms("xquery.lower"), ms),
        "xquery.core_nodes": (arg_mean("xquery.lower", "core_nodes"), count),
        "compiler.plan_ms": (call_ms("compiler.plan"), ms),
        "compiler.optimize_ms": (call_ms("compiler.optimize"), ms),
        "compiler.cache_lookup_us": (
            mean([seconds(span) for span in hits]) * 1e6, us),
        "compiler.cache_hit_ratio": (
            (after_cache.get("hits", 0) - before_cache.get("hits", 0))
            / lookups if lookups else 0.0, "ratio"),
        "compiler.cache_migrations": (
            float(after_cache.get("migrations", 0)
                  - before_cache.get("migrations", 0)), count),
        "compiler.plan_nodes": (arg_mean("compiler.plan", "plan_nodes"),
                                count),
        "encoding.encode_ms": (call_ms("encoding.encode"), ms),
        "encoding.encode_nodes_s": (rate("encoding.encode", "nodes"), "1/s"),
        "encoding.stats_ms": (call_ms("encoding.stats"), ms),
        "encoding.decode_ms": (call_ms("encoding.decode"), ms),
        "encoding.decode_tuples": (arg_mean("encoding.decode", "tuples"),
                                   count),
        "encoding.edit_build_ms": (call_ms("encoding.edit_build"), ms),
        "encoding.delta_rows": (
            mean([float(u.delta_rows) for u in updates]), count),
        "engine.execute_ms": (execute_ms, ms),
        "engine.paths_ms": (split.get("paths", 0.0) * 1e3 * split_scale, ms),
        "engine.join_ms": (split.get("join", 0.0) * 1e3 * split_scale, ms),
        "engine.construction_ms": (
            split.get("construction", 0.0) * 1e3 * split_scale, ms),
        "engine.result_tuples": (arg_mean("engine.execute", "tuples"), count),
        "engine.splice_ms": (call_ms("engine.splice"), ms),
        "engine.splice_bytes": (arg_mean("engine.splice", "bytes"), "B"),
        "sql.translate_ms": (call_ms("sql.translate"), ms),
        "sql.statements": (arg_mean("sql.run", "statements"), count),
        "sql.sql_bytes": (arg_mean("sql.translate", "sql_bytes"), "B"),
        "sql.run_ms": (call_ms("sql.run"), ms),
        "sql.slowest_statement_ms": (
            arg_mean("sql.run", "slowest_statement_ms"), ms),
        "sql.load_ms": (call_ms("sql.load"), ms),
        "backends.prepare_ms": (call_ms("backends.prepare"), ms),
        "backends.execute_ms": (call_ms("backends.execute"), ms),
        "backends.apply_update_ms": (call_ms("backends.apply_update"), ms),
        "backends.answered_by_other": (float(sum(
            1 for r in traced for backend in r.backends
            if backend != workload.backend)), count),
        "session.run_ms": (call_ms("session.run"), ms),
        "session.shell_self_ms": (
            (flight_wall - sum(phases.values())) * 1e3, ms),
        "session.phase_compile_ms": (phases["compile"] * 1e3, ms),
        "session.phase_prepare_ms": (phases["prepare"] * 1e3, ms),
        "session.phase_execute_ms": (phases["execute"] * 1e3, ms),
        "session.apply_update_ms": (call_ms("session.apply_update"), ms),
        "session.lock_hold_ms": (
            mean([u.lock_hold_seconds for u in updates]) * 1e3
            / traced_factor, ms),
        "resilience.ticket_us": (
            (call_ms("resilience.try_acquire")
             + call_ms("resilience.release")) * 1e3, us),
        "resilience.sheds": (
            float(shell[1]["sheds"] - shell[0]["sheds"]), count),
        "resilience.brownout_transitions": (
            float(shell[1]["brownout_transitions"]
                  - shell[0]["brownout_transitions"]), count),
        "obs.record_run_us": (call_ms("obs.record_run") * 1e3, us),
        "serving.http_tax_ms": (
            mean([root.self_seconds() / slowness[root.op]
                  for root in op_roots if root.layer == "serving"]) * 1e3,
            ms),
    }
    reference_writes = [r.seconds * 1e3 for r in reference
                        if r.op.kind == "write" and not r.error]
    metrics["write_p50_ms"] = (
        write_p50(reference_writes) if reference_writes else 0.0, ms)
    # Where each traced operation's time went, one self time per layer.
    selfs = tracing.layer_self_seconds(op_roots, slowness)
    operations = max(len(reads) + len(writes), 1)
    for layer in tracing.LAYERS:
        metrics[f"{layer}.self_ms"] = (selfs[layer] * 1e3 / operations, ms)
    metrics["trace.accounted_share"] = (
        sum(selfs[layer] for layer in tracing.LAYERS)
        / (traced_wall / traced_factor), "ratio")
    reference_reads = [r.seconds for r in reference
                       if r.op.kind == "read" and not r.error]
    traced_reads = [r.seconds for r in reads]
    metrics["trace.overhead_ratio"] = (
        mean(traced_reads) / mean(reference_reads)
        if reference_reads and traced_reads else 0.0, "ratio")
    return metrics
