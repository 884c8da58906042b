"""The seven workloads: what each sets up, sends, and expects back.

A workload turns ``--seed`` into inputs (an XMark file on disk plus
query texts), brings the program from that file to *ready* (the timed
``setup``), and then yields an endless, deterministic stream of
operations; the pass runners in :mod:`passes` decide how many to run.
An operation is text in, XML text out — ``session.run(q).to_xml()`` —
unless the workload says otherwise.

Why each workload exists is in ``BENCHMARK.json``; why the mixes are
weighted the way they are (the median and the 95th percentile must fall
inside one query's latency distribution, not on the cliff between two)
is in README.md, "Why the mixes look the way they do".
"""

from __future__ import annotations

import asyncio
import http.client
import itertools
import math
import os
import random
import re
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Iterator

import inputs
import measure
import oracle as oracle_answers
from inputs import DOCUMENT, GeneratedDocument


def median_ms(call, repeats: int) -> float:
    """Median wall time of ``repeats`` bare calls, in ms (as measured)."""
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        call()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples) * 1e3


@dataclass(frozen=True)
class Op:
    """One benchmark operation."""

    kind: str                               # "read" or "write"
    #: ``(oracle key, query text)`` per answer the operation produces.
    queries: tuple[tuple[str, str], ...] = ()
    edit: str = ""                          # "insert" / "delete" for writes

    @property
    def weight(self) -> int:
        """Queries answered — what throughput counts."""
        return max(1, len(self.queries))


@dataclass
class Outcome:
    """What an operation returned: one XML text and backend per query."""

    texts: list[str] = field(default_factory=list)
    backends: list[str | None] = field(default_factory=list)


@dataclass
class Inputs:
    seed: int
    document: GeneratedDocument
    #: Named query texts (Q1 is Q1* bound to this document).
    queries: dict[str, str]
    extra: dict[str, object] = field(default_factory=dict)


class Workload:
    """Defaults for an in-process, single-client, read-only workload."""

    name = ""
    scale = 0.0
    #: Query names of one round of the mix, in order.
    mix: tuple[str, ...] = ()
    #: ``QueryResult.backend`` every answer must carry.
    backend = "engine"
    session_options: dict[str, object] = {}
    clients = 1
    #: How many times one run sets up; ``setup_s`` is the median.
    setup_repeats = 3
    #: Whether ``setup_s`` is divided by the host slowness measured around
    #: it, like every other time (README.md "Host speed").
    setup_on_reference_host = True
    #: Rounds of the mix one client completes per second of ``--seconds``
    #: on the recording host: the sizing constant that turns a run length
    #: into a fixed amount of work.
    rounds_per_second = 1.0
    #: Generator seed of the document; None means "the run's seed".
    document_seed: int | None = None
    #: Name and layer of the span the traced pass opens around each
    #: operation; its self time is the benchmark's own glue.
    trace_root = ("op", "bench")

    @property
    def round_ops(self) -> int:
        """Operations the schedule yields per round."""
        return len(self.mix)

    @property
    def floor_rounds(self) -> int:
        """Rounds per client below which the p95 rule has no 200 reads."""
        return math.ceil(measure.MIN_P95_SAMPLES
                         / (len(self.mix) * self.clients))

    # -- inputs ---------------------------------------------------------------

    def make_inputs(self, seed: int) -> Inputs:
        document_seed = seed if self.document_seed is None \
            else self.document_seed
        document = inputs.generate_document(
            self.scale, document_seed, f"{self.name}-{seed}-{os.getpid()}")
        return Inputs(seed, document,
                      inputs.named_queries(document, random.Random(seed)))

    def schedule(self, inp: Inputs, client: int = 0) -> Iterator[Op]:
        """Round-robin over the mix, forever."""
        offset = client * (len(self.mix) // max(1, self.clients))
        names = self.mix[offset:] + self.mix[:offset]
        for name in itertools.cycle(names):
            yield Op("read", ((name, inp.queries[name]),))

    # -- the program under test -------------------------------------------------

    def setup(self, inp: Inputs):
        """XML file on disk → ready to serve the mix (timed as ``setup_s``)."""
        from repro import XQuerySession

        session = XQuerySession(**self.session_options)
        session.add_document(DOCUMENT, inp.document.text())
        self.cold_pass(session, inp)
        return session

    def cold_pass(self, session, inp: Inputs) -> None:
        """Compile, plan-cache miss and backend prepare for each query."""
        for name in dict.fromkeys(self.mix):
            session.run(inp.queries[name], backend=self.backend).to_xml()

    def setup_traced(self, inp: Inputs):
        """Set-up for the traced pass: the program must be in-process."""
        return self.setup(inp)

    def teardown(self, state) -> None:
        state.close()

    def session(self, state):
        """The in-process session behind ``state`` (None when remote)."""
        return state

    def layer_extras(self, state, inp: Inputs,
                     setup_root) -> dict[str, tuple[float, str]]:
        """Per-layer metrics only this workload can take (untraced calls
        on a spare, set-up ``state``; ``setup_root`` is its span tree)."""
        return {}

    def execute(self, state, op: Op) -> Outcome:
        (_key, query), = op.queries
        result = state.run(query, backend=self.backend)
        return Outcome([result.to_xml()], [result.backend])

    def peak_rss_mb(self, state) -> float:
        return measure.peak_rss_mb()

    def facts(self, state) -> dict[str, object]:
        """Workload facts recorded beside the metrics."""
        return {}

    # -- the oracle -----------------------------------------------------------

    #: Where :meth:`answers` come from (recorded in ``expected/``).
    oracle = "interpreter"

    def answers(self, inp: Inputs, ops: list[Op]) -> dict[str, str]:
        """``oracle key → expected XML`` for the operations that ran."""
        wanted = {key: query for op in ops for key, query in op.queries}
        return oracle_answers.interpreter_answers(inp.document.text(), wanted)

    def final_check(self, state, inp: Inputs, ops: list[Op]) -> list[str]:
        """End-of-run invariants; each returned string is one failure."""
        return []


# -- read-only engine workloads -------------------------------------------------------

#: Ten reads: Q15 and Q13 (≈11 ms at sf 0.05) twice each, Q17 (18 ms)
#: three times, Q19 (22 ms) twice, Q6 (55 ms) once.  The median read is a
#: Q17 and the 95th percentile is the *median* Q6.
PATHS_MIX = ("Q6", "Q17", "Q13", "Q19", "Q15",
             "Q17", "Q13", "Q19", "Q15", "Q17")


class PathsWarm(Workload):
    name = "paths_warm"
    scale = 0.05
    mix = PATHS_MIX
    rounds_per_second = 4.5


class JoinsWarm(Workload):
    name = "joins_warm"
    scale = 0.05
    # Q8 three times, Q8_ORIGINAL six, Q9 once: the median read is a
    # Q8_ORIGINAL and the 95th percentile the median Q9.
    mix = ("Q8_ORIGINAL", "Q8", "Q8_ORIGINAL", "Q9", "Q8_ORIGINAL",
           "Q8", "Q8_ORIGINAL", "Q8", "Q8_ORIGINAL", "Q8_ORIGINAL")
    rounds_per_second = 2.2

    oracle = "join_reference"

    def answers(self, inp, ops):
        # Nested-loop interpretation of Q9 at this scale would take an hour.
        return oracle_answers.join_reference(inp.document.text())


class AdhocCompile(Workload):
    name = "adhoc_compile"
    scale = 0.001
    mix = ("q1", "q13", "q8", "q9")
    rounds_per_second = 15.0
    setup_repeats = 5                   # 30 ms each
    round_ops = len(inputs.ADHOC_PERIOD)
    floor_rounds = math.ceil(measure.MIN_P95_SAMPLES / round_ops)

    def make_inputs(self, seed):
        inp = super().make_inputs(seed)
        stream = inputs.adhoc_queries(inp.document, seed)
        # One text per shape for the cold pass; the timed stream carries on
        # from there, so no timed text was ever seen before.
        seen: dict[str, str] = {}
        while len(seen) < len(inputs.ADHOC_SHAPES):
            query = next(stream)
            seen.setdefault(query.shape, query.text)
        inp.queries.update(seen)
        inp.extra["stream"] = stream
        inp.extra["canonical"] = {}
        return inp

    def schedule(self, inp, client=0):
        canonical: dict[str, str] = inp.extra["canonical"]
        for query in inp.extra["stream"]:
            # The constructor tag carries the stream position, so it is a
            # unique oracle key however often the schedule is restarted.
            canonical[query.tag] = query.canonical
            yield Op("read", ((query.tag, query.text),))

    def answers(self, inp, ops):
        canonical: dict[str, str] = inp.extra["canonical"]
        tags = [tag for op in ops for tag, _ in op.queries]
        by_class = oracle_answers.interpreter_answers(
            inp.document.text(),
            {text: text for text in {canonical[tag] for tag in tags}})
        return {tag: by_class[canonical[tag]].replace(
                    inputs.ADHOC_PLACEHOLDER_TAG, tag)
                for tag in tags}


class SqliteSql(Workload):
    name = "sqlite_sql"
    scale = 0.0003
    # The PATHS_MIX shape with Q1* for Q19 (whose order-by overflows the
    # SQL width limit): the 95th percentile is the median Q6.
    mix = ("Q6", "Q17", "Q13", "Q1", "Q15",
           "Q17", "Q13", "Q1", "Q15", "Q17")
    rounds_per_second = 2.6
    setup_repeats = 5                   # a quarter second each
    backend = "sqlite"
    # Stated exception to "defaults": with admission on, the brownout
    # ladder re-routes slow SQLite queries to the engine and the numbers
    # would be the wrong backend's.
    session_options = {"admission": False}
    # SQL cost is quadratic in a document this small, and a 500-node
    # XMark document's size swings ±10% with a handful of coin flips
    # (mailboxes, bidders): seed-to-seed throughput moved by ±17%, more
    # than any bound.  The document is pinned; --seed still draws Q1*'s
    # seller.  Larger documents are out of reach (0.8 s per query at 3k
    # nodes).
    document_seed = 42


# -- reads beside writes ------------------------------------------------------------------

@dataclass
class UpdateState:
    session: object
    payload: object          # the parsed item subtree
    australia_left: int
    victim_left: int | None = None


class UpdateMix(Workload):
    name = "update_mix"
    scale = 0.025
    mix = ("Q13", "Q1", "Q17")
    rounds_per_second = 21.0            # a round is a write-read-read-read cycle
    round_ops = 1 + len(mix)
    floor_rounds = measure.MIN_P95_SAMPLES  # one write per cycle

    def make_inputs(self, seed):
        inp = super().make_inputs(seed)
        inp.extra["item_xml"] = inputs.edit_payload(seed)
        return inp

    def schedule(self, inp, client=0):
        # One counter per run: a schedule restarted for a later slice of a
        # traced pass must carry on the insert/delete alternation, or it
        # would insert into a gap that is already full.
        for cycle in inp.extra.setdefault("cycles", itertools.count()):
            inserted = cycle % 2 == 0
            yield Op("write", edit="insert" if inserted else "delete")
            state = "with" if inserted else "base"
            for name in self.mix:
                yield Op("read", ((f"{name}@{state}", inp.queries[name]),))

    def setup(self, inp):
        from repro.xml.text_parser import parse_forest

        session = super().setup(inp)
        # The first commit rebases the backend into updatable coordinates
        # (engine_bench's "throwaway commit"); ready means past it.
        document = session.updatable(DOCUMENT)
        session.apply_update(DOCUMENT, document)
        self.cold_pass(session, inp)
        australia = next(row for row in document.encoded.tuples
                         if row[0] == "<australia>")
        return UpdateState(session, parse_forest(inp.extra["item_xml"]),
                           australia[1])

    def teardown(self, state):
        state.session.close()

    def session(self, state):
        return state.session

    def execute(self, state, op):
        if op.kind == "read":
            return super().execute(state.session, op)
        session = state.session
        document = session.updatable(DOCUMENT)
        if op.edit == "insert":
            updated = document.insert_child(state.australia_left, 0,
                                            state.payload)
            state.victim_left = updated.last_delta.inserted[0][1]
        else:
            updated = document.delete_subtree(state.victim_left)
        if updated.last_stats.relabeled:
            # A spread moves every endpoint; the alternation exists so it
            # never happens, and the cached lefts would be stale.
            raise RuntimeError("edit relabeled the document")
        session.apply_update(DOCUMENT, updated)
        return Outcome()

    def answers(self, inp, ops):
        text = inp.document.text()
        edited = inputs.with_inserted_item(text, inp.extra["item_xml"])
        queries = {name: inp.queries[name] for name in self.mix}
        answers = {}
        for state, document in (("base", text), ("with", edited)):
            for name, answer in oracle_answers.interpreter_answers(
                    document, queries).items():
                answers[f"{name}@{state}"] = answer
        return answers

    def final_check(self, state, inp, ops):
        from repro.xml.serializer import forest_to_xml

        writes = [op for op in ops if op.kind == "write"]
        text = inp.document.text()
        if writes and writes[-1].edit == "insert":
            text = inputs.with_inserted_item(text, inp.extra["item_xml"])
        # Byte equality with the text the edit history implies: any probe
        # of the committed state then answers like a fresh load of it.
        if forest_to_xml(state.session.document(DOCUMENT)) != text:
            return ["final document differs from the edit history"]
        return []


# -- the process tiers ----------------------------------------------------------------------

class BatchRunMany(Workload):
    name = "batch_run_many"
    scale = 0.015
    mix = ("Q13", "Q8", "Q17", "Q15", "Q19", "Q1", "Q9", "Q6")
    rounds_per_second = 22.0            # a round is one batch of eight
    round_ops = 1
    floor_rounds = measure.MIN_P95_SAMPLES

    @property
    def backend(self):  # type: ignore[override]
        # tier="auto" promotes to the process pool only on multi-core
        # hosts; on one CPU the row is a thread-tier row.
        return "procpool" if (os.cpu_count() or 1) > 1 else "engine"

    def schedule(self, inp, client=0):
        batch = tuple((name, inp.queries[name]) for name in self.mix)
        while True:
            yield Op("read", batch)

    def cold_pass(self, session, inp):
        batch = [inp.queries[name] for name in self.mix]
        for result in session.run_many(batch, tier="auto"):
            result.to_xml()
        if self.backend == "procpool":
            # One batch leaves each worker having compiled only the
            # queries it happened to draw; ready means every worker has
            # seen every text (what ``serve --warm`` does).
            session.backend_instance("procpool").warmup(batch)

    def execute(self, state, op):
        results = state.run_many([query for _, query in op.queries],
                                 tier="auto")
        return Outcome([result.to_xml() for result in results],
                       [result.backend for result in results])

    oracle = "interpreter; join_reference for Q8, Q8_ORIGINAL, Q9"

    def answers(self, inp, ops):
        text = inp.document.text()
        joins = oracle_answers.join_reference(text)
        rest = {name: inp.queries[name] for name in self.mix
                if name not in joins}
        answers = oracle_answers.interpreter_answers(text, rest)
        answers.update({name: joins[name] for name in self.mix
                        if name in joins})
        return answers

    def layer_extras(self, state, inp, setup_root):
        workers = self.facts(state)["workers"]
        probe = inp.queries["Q13"]
        hop = (median_ms(lambda: state.run_many([probe], tier="thread"), 30)
               - median_ms(lambda: state.run(probe), 30))
        serial = sum(
            median_ms(lambda q=inp.queries[name]: state.run(q).to_xml(), 5)
            for name in self.mix)
        batch = next(self.schedule(inp))
        makespan = median_ms(lambda: self.execute(state, batch), 10)
        roundtrip = export = attach = 0.0
        if self.backend == "procpool":
            pool = state.backend_instance("procpool").pool
            empty = f'document("{DOCUMENT}")/site/nosuchstep'
            pool.execute(empty)  # the worker compiles it once
            roundtrip = median_ms(lambda: pool.execute(empty), 50)
            seconds = {"concurrency.shm_export": 0.0,
                       "concurrency.register_document": 0.0}
            for span in setup_root.walk():
                if span.name in seconds:
                    seconds[span.name] += span.seconds
            export = seconds["concurrency.shm_export"] * 1e3
            attach = (seconds["concurrency.register_document"] * 1e3
                      - export) / workers
        return {
            "concurrency.ipc_roundtrip_ms": (roundtrip, "ms"),
            "concurrency.thread_hop_ms": (hop, "ms"),
            "concurrency.shm_export_ms": (export, "ms"),
            "concurrency.worker_attach_ms": (attach, "ms"),
            "concurrency.batch_efficiency": (
                serial / (makespan * workers), "ratio"),
        }

    def facts(self, state):
        if self.backend != "procpool":
            return {"tier_used": "thread", "workers": os.cpu_count() or 1}
        pool = state.backend_instance("procpool").pool
        return {"tier_used": "process", "workers": pool.size,
                "start_method": pool.start_method}


class ServerProcess:
    """``python -m repro serve`` as a child, from spawn to ``/healthz`` 200."""

    def __init__(self, document_path):
        inputs.OUT.mkdir(exist_ok=True)
        self.log_path = inputs.OUT / f"serve-{os.getpid()}.log"
        self.log = open(self.log_path, "w")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(inputs.SRC)] + ([env["PYTHONPATH"]]
                                 if env.get("PYTHONPATH") else []))
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--doc", f"{DOCUMENT}={document_path}", "--port", "0"],
            env=env, stdout=subprocess.DEVNULL, stderr=self.log)
        try:
            self.port = self._await_port()
            while request(self.port, "GET", "/healthz")[0] != 200:
                time.sleep(0.01)
        except BaseException:
            self.stop()
            raise

    def _await_port(self, timeout: float = 120.0) -> int:
        deadline = time.monotonic() + timeout
        pattern = re.compile(r"listening on http://[^:]+:(\d+)")
        while time.monotonic() < deadline:
            match = pattern.search(self.log_path.read_text())
            if match:
                return int(match.group(1))
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.process.returncode}: "
                    f"{self.log_path.read_text()[-500:]}")
            time.sleep(0.01)
        raise TimeoutError("server never announced its port")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.log.close()
        self.log_path.unlink(missing_ok=True)


def request(port: int, method: str, path: str,
            body: str | None = None) -> tuple[int, dict[str, str], bytes]:
    """One HTTP exchange on its own connection (the server closes each)."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        connection.request(method, path,
                           body=body.encode("utf-8") if body else None)
        response = connection.getresponse()
        return (response.status, {k.lower(): v
                                  for k, v in response.getheaders()},
                response.read())
    finally:
        connection.close()


class InProcessServer:
    """``QueryServer`` on a loop thread of this process (traced pass only:
    the spans have to be recorded where the program runs)."""

    def __init__(self, document_text: str):
        from repro import XQuerySession
        from repro.serving import QueryServer

        self.session = XQuerySession()
        self.session.add_document(DOCUMENT, document_text)
        self.server = QueryServer(self.session, port=0)
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever)
        self.thread.start()
        self._on_loop(self.server.start())
        self.port = self.server.port

    def _on_loop(self, coroutine) -> None:
        asyncio.run_coroutine_threadsafe(coroutine, self.loop).result(60)

    def stop(self) -> None:
        self._on_loop(self.server.stop())
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(60)
        self.loop.close()
        self.session.close()


class ServeHttp(Workload):
    name = "serve_http"
    scale = 0.05
    mix = PATHS_MIX
    clients = 2
    rounds_per_second = 2.0             # per client
    # Spawning an interpreter and importing the package is page faults and
    # file reads, not interpreter work: the kernel's slowness does not
    # predict it (dividing by it tripled the spread, 3.5% to 12.6%).
    setup_on_reference_host = False
    trace_root = ("serving.request", "serving")

    def setup(self, inp):
        return self._warm(ServerProcess(inp.document.path), inp)

    def setup_traced(self, inp):
        return self._warm(InProcessServer(inp.document.text()), inp)

    def _warm(self, server, inp):
        try:
            for name in self.mix:
                status, _, _ = request(server.port, "POST", "/query",
                                       inp.queries[name])
                if status != 200:
                    raise RuntimeError(f"cold {name} answered {status}")
        except BaseException:
            server.stop()
            raise
        return server

    def teardown(self, state):
        state.stop()

    def session(self, state):
        return getattr(state, "session", None)

    def layer_extras(self, state, inp, setup_root):
        return {"serving.healthz_ms": (
            median_ms(lambda: request(state.port, "GET", "/healthz"), 20),
            "ms")}

    def execute(self, state, op):
        (_key, query), = op.queries
        status, headers, body = request(state.port, "POST", "/query", query)
        if status != 200:
            raise RuntimeError(f"HTTP {status}: {body[:200]!r}")
        return Outcome([body.decode("utf-8")], [headers.get("x-backend")])

    def peak_rss_mb(self, state):
        return measure.process_hwm_mb(state.process.pid)


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (PathsWarm(), JoinsWarm(), AdhocCompile(), UpdateMix(),
                     SqliteSql(), ServeHttp(), BatchRunMany())
}
