"""One record shape and one span shape for every way to run a query.

The first slice of ROADMAP's composition matrix: every entry point and
resilience knob × flight recording on/off × tracing on/off, generated,
asserting the same things in every cell — the answer is the Figure 3
interpreter's, the flight record has the compile/prepare/execute phases
and at least one attempt, ``QueryResult.trace`` is set iff tracing was
requested and always has the same shape, and nothing is left behind
(pool gauges, admission tickets, shared-memory segments).

Span-shape assertions live here and nowhere else.
"""

from __future__ import annotations

import asyncio
import os

import pytest

from repro import run_xquery
from repro.obs.flight import query_fingerprint
from repro.obs.trace import Tracer, use_tracer
from repro.resilience import RetryPolicy
from repro.session import XQuerySession
from repro.xmark.queries import FIGURE1_SAMPLE

#: Root-distributive, so ``run_sharded`` may answer it too.
QUERY = 'document("a.xml")//name'

EXPECTED = run_xquery(QUERY, {"a.xml": FIGURE1_SAMPLE},
                      backend="interpreter").forest


def _sharded(session: XQuerySession, trace: bool):
    # run_sharded has no trace= keyword; the ambient tracer is how a
    # caller asks it for a span tree.
    if not trace:
        return [session.run_sharded(QUERY)]
    with use_tracer(Tracer()):
        return [session.run_sharded(QUERY)]


#: mode → (session, trace) → list of QueryResult
MODES = {
    "plain": lambda s, trace: [s.run(QUERY, trace=trace)],
    "deadline": lambda s, trace: [s.run(QUERY, deadline=30.0, trace=trace)],
    "budget": lambda s, trace: [s.run(QUERY, budget=100_000, trace=trace)],
    "fallback": lambda s, trace: [
        s.run(QUERY, fallback=("interpreter",), trace=trace)],
    "retry": lambda s, trace: [s.run(
        QUERY, retry=RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0),
        trace=trace)],
    "run_many_thread": lambda s, trace: s.run_many(
        [QUERY, QUERY], tier="thread", trace=trace),
    "run_many_process": lambda s, trace: s.run_many(
        [QUERY, QUERY], tier="process", trace=trace),
    "run_sharded": _sharded,
    "run_async": lambda s, trace: [
        asyncio.run(s.run_async(QUERY, trace=trace))],
}


def _segments() -> set[str]:
    prefix = f"repro_cols_{os.getpid()}_"
    try:
        return {name for name in os.listdir("/dev/shm")
                if name.startswith(prefix)}
    except FileNotFoundError:  # pragma: no cover - no POSIX shm mount
        return set()


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("record", [True, False],
                         ids=["recorded", "unrecorded"])
@pytest.mark.parametrize("mode", sorted(MODES))
def test_every_run_has_one_shape(mode, record, trace):
    before = _segments()
    # slow_seconds=0 tail-samples every run, so each record keeps its root.
    with XQuerySession(record=record, slow_seconds=0.0) as session:
        session.add_document("a.xml", FIGURE1_SAMPLE)
        results = MODES[mode](session, trace)

        for result in results:
            assert result.forest == EXPECTED
            assert not result.degraded
            if not trace:
                assert result.trace is None
                continue
            root = result.trace
            assert root.name == "query"
            assert [span.name for span in root.children] == \
                ["compile", "attempt"]
            assert [span.name for span in root.children[1].children] == \
                ["prepare", "execute"]
            assert root.attributes["backend"] == result.backend

        if record:
            records = session.recorder.records()
            assert len(records) == len(results)
            for entry in records:
                assert entry.outcome == "ok"
                assert {"compile", "prepare", "execute"} <= set(entry.phases)
                assert sum(entry.phases.values()) <= entry.wall_seconds
                assert [attempt.error for attempt in entry.attempts] == [None]
                assert entry.attempts[0].backend == entry.winner
                assert entry.sampled and entry.trace.name == "query"
                assert entry.trace.find("execute") is not None
            # One histogram rule: one observation per attempt.
            histogram = session.metrics.get("repro_query_latency_seconds")
            assert histogram.count(fingerprint=query_fingerprint(QUERY),
                                   backend=records[0].winner) == len(results)
        else:
            assert session.recorder is None

        health = session.health()
        assert health["pool"]["active"] == 0
        assert health["pool"]["queued"] == 0
        assert health["admission"]["in_flight"] == 0
        assert health["admission"]["queue_depth"] == 0
    assert _segments() == before
