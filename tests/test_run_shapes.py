"""One record shape and one span shape for every way to run a query.

The first slice of ROADMAP's composition matrix: every entry point and
resilience knob × flight recording on/off × tracing on/off × admission
control on/off, generated,
asserting the same things in every cell — the answer is the Figure 3
interpreter's, the flight record has the compile/prepare/execute phases
and at least one attempt, ``QueryResult.trace`` is set iff tracing was
requested and always has the same shape, and nothing is left behind
(pool gauges, admission tickets, shared-memory segments).

Span-shape assertions live here and nowhere else.

The second matrix is about how a result *leaves*: on the DI engine and
its process tier the text-in → XML-out path — every entry point above,
``POST /query`` included — constructs no :class:`Node`; the trees exist
only once a caller reads ``result.forest``.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os

import pytest

from repro import run_xquery
from repro.obs.flight import query_fingerprint
from repro.serving import QueryServer
from repro.session import XQuerySession
from repro.xmark.queries import EXTRA_QUERIES, FIGURE1_SAMPLE, QUERIES
from repro.xml.serializer import forest_to_xml
from repro.xml.text_parser import read_document
from repro.xquery.lowering import document_variable

from tests.faults import FaultPlan, inject_faults
from tests.test_serving import http, run as serve

QUERY = 'document("a.xml")//name'

_ORACLE = run_xquery(QUERY, {"a.xml": FIGURE1_SAMPLE}, backend="interpreter")
EXPECTED = _ORACLE.forest
EXPECTED_XML = _ORACLE.to_xml()


def _worker_died_once(session: XQuerySession, trace: bool) -> list:
    """The process tier, its first worker killed before the run: the pool
    respawns it and resubmits the query, so the caller sees one clean
    attempt."""
    target = session.backend_instance("procpool")
    target.prepare({document_variable("a.xml"):
                    read_document(FIGURE1_SAMPLE)})
    dead = target.pool._workers[0]  # the first query goes to worker 0
    dead.process.kill()
    dead.process.join(timeout=5)
    results = [session.run(QUERY, backend="procpool", trace=trace)]
    assert target.pool._workers[0] is not dead  # the death did happen
    return results


#: mode → (session, trace) → list of QueryResult; ``retry`` is the one
#: retry there is, the process pool's resubmit after a worker died.
MODES = {
    "plain": lambda s, trace: [s.run(QUERY, trace=trace)],
    "deadline": lambda s, trace: [s.run(QUERY, deadline=30.0, trace=trace)],
    "budget": lambda s, trace: [s.run(QUERY, budget=100_000, trace=trace)],
    "fallback": lambda s, trace: [
        s.run(QUERY, fallback=("interpreter",), trace=trace)],
    "retry": _worker_died_once,
    "run_many_thread": lambda s, trace: s.run_many(
        [QUERY, QUERY], tier="thread", trace=trace),
    "run_many_process": lambda s, trace: s.run_many(
        [QUERY, QUERY], tier="process", trace=trace),
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


def _shape_cells():
    """mode × recorded × traced × admission; a cell with admission on
    (the default) keeps the id it had before the admission axis."""
    for mode, record, trace, admission in itertools.product(
            sorted(MODES), (True, False), (False, True), (None, False)):
        id_ = "-".join([mode, "recorded" if record else "unrecorded",
                        "traced" if trace else "untraced"])
        if admission is False:
            id_ += "-no-admission"
        yield pytest.param(mode, record, trace, admission, id=id_)


@pytest.mark.parametrize("mode, record, trace, admission", _shape_cells())
def test_every_run_has_one_shape(mode, record, trace, admission):
    before = _segments()
    # slow_seconds=0 tail-samples every run, so each record keeps its root.
    with XQuerySession(record=record, slow_seconds=0.0,
                       admission=admission) as session:
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
        # After the shape checks: a traced to_xml grafts a serialize span.
        assert [result.to_xml() for result in results] == \
            [EXPECTED_XML] * len(results)

        if record:
            records = session.recorder.records()
            assert len(records) == len(results)
            for entry in records:
                assert entry.outcome == "ok"
                assert {"compile", "prepare", "execute",
                        "serialize"} <= set(entry.phases)
                # Serialization happens after the run its record times.
                assert sum(seconds for phase, seconds in entry.phases.items()
                           if phase != "serialize") <= entry.wall_seconds
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
        if admission is False:
            assert session.admission is None and "admission" not in health
        else:
            assert health["admission"]["admitted_total"] == len(results)
            assert health["admission"]["in_flight"] == 0
            assert health["admission"]["queue_depth"] == 0
    assert _segments() == before


def test_the_first_serialization_is_a_phase_of_the_record():
    """``to_xml`` times itself into the run's record — once, by replacing
    the phases dict (``/debug/queries`` reads it from other threads) —
    and ``POST /query`` records it too; with recording off nothing is
    kept."""
    with XQuerySession() as session:
        session.add_document("a.xml", FIGURE1_SAMPLE)
        result = session.run(QUERY)
        (entry,) = session.recorder.records()
        run_phases = entry.phases
        assert {"compile", "prepare", "execute"} <= set(run_phases)
        assert "serialize" not in run_phases
        assert result.to_xml() == EXPECTED_XML
        assert entry.phases is not run_phases and "serialize" not in run_phases
        assert {"compile", "prepare", "execute", "serialize"} \
            <= set(entry.phases)
        first = entry.phases
        assert result.to_xml() == EXPECTED_XML
        assert entry.phases is first
        server = QueryServer(session, port=0)
        ((status, _, body),) = serve(server, http(server, "POST", "/query",
                                                  QUERY.encode()))
        assert (status, body) == (200, EXPECTED_XML.encode())
        latest = session.recorder.records()[-1]
        assert latest is not entry
        assert {"compile", "prepare", "execute", "serialize"} \
            <= set(latest.phases)
    with XQuerySession(record=False) as session:
        session.add_document("a.xml", FIGURE1_SAMPLE)
        result = session.run(QUERY)
        assert result._record is None
        assert result.to_xml() == EXPECTED_XML


@pytest.mark.parametrize("mode", ["fallback", "retry"])
def test_a_degraded_or_retried_run_serializes_the_same(mode):
    """The two resilience cells with a fault that really fires: the
    interpreter's plain ``Node`` forest after an injected engine failure,
    and the answer of a pool worker respawned after a crash, go through
    the same emitter as an undisturbed run."""
    plan = FaultPlan()
    if mode == "fallback":
        plan.fail_on("execute", 1)
    with inject_faults("engine", plan):
        with XQuerySession() as session:
            session.add_document("a.xml", FIGURE1_SAMPLE)
            (result,) = MODES[mode](session, False)
            attempts = session.recorder.records()[-1].attempts
    if mode == "fallback":
        assert len(plan.raised) == 1
        assert [attempt.error for attempt in attempts] == \
            ["TransientBackendError", None]
        assert (result.backend, result.degraded) == ("interpreter", True)
    else:
        assert [attempt.error for attempt in attempts] == [None]
        assert (result.backend, result.degraded) == ("procpool", False)
    assert result.to_xml() == EXPECTED_XML
    assert result.forest == EXPECTED


# -- how a result leaves ----------------------------------------------------------

#: A small-result aggregate, a construction, the 1:n join, an order-by.
LEAVING = {name: {**QUERIES, **EXTRA_QUERIES}[name]
           for name in ("Q6", "Q13", "Q8_ORIGINAL", "Q19")}


@pytest.fixture(scope="module")
def auction():
    """One session over a tiny XMark document, two pool workers, and the
    interpreter's answer to every ``LEAVING`` query."""
    patch = pytest.MonkeyPatch()
    patch.setenv("REPRO_POOL_WORKERS", "2")
    try:
        with XQuerySession(slow_seconds=0.0) as session:
            session.add_xmark_document("auction.xml", 0.0005)
            oracle = {name: session.run(query, backend="interpreter").forest
                      for name, query in LEAVING.items()}
            assert all(oracle.values())  # non-vacuous
            # A backend's first prepare wraps the document forest in its
            # root node; that is loading, not leaving.
            for backend in ("engine", "procpool"):
                session.run(LEAVING["Q6"], backend=backend)
            yield session, oracle
    finally:
        patch.undo()


@pytest.mark.parametrize("backend", ["engine", "procpool"])
@pytest.mark.parametrize("name", sorted(LEAVING))
def test_no_tree_is_built_until_the_forest_is_read(auction, nodes_built,
                                                   backend, name):
    session, oracle = auction
    query = LEAVING[name]
    expected_xml = forest_to_xml(oracle[name])
    server = QueryServer(session, port=0, backend=backend)

    before = nodes_built()
    result = session.run(query, backend=backend)
    assert len(result) == len(oracle[name])
    assert result.to_xml() == expected_xml
    traced = session.run(query, backend=backend, trace=True)
    assert traced.to_xml() == expected_xml
    serialize = traced.trace.find("serialize")
    assert serialize.attributes["trees"] == len(oracle[name])
    assert serialize.attributes["bytes"] == len(expected_xml)
    batches = (session.run_many([query] * 2, tier="thread", backend=backend)
               + session.run_many([query] * 2, tier="process"))
    assert [r.to_xml() for r in batches] == [expected_xml] * 4
    assert batches[-1].backend == "procpool"
    (status, headers, body), (_, _, debug) = serve(
        server, http(server, "POST", "/query", query.encode()),
        http(server, "GET", "/debug/queries?limit=1&traces=false"))
    assert (status, headers["x-backend"]) == (200, backend)
    assert body == expected_xml.encode()
    # The same listener reports that request's record, still treeless.
    (record,) = json.loads(debug)["records"]
    assert record["trees"] == len(oracle[name])
    assert nodes_built() == before

    forest = result.forest
    built = nodes_built() - before
    assert built == sum(tree.size for tree in oracle[name])
    assert isinstance(forest, tuple) and forest == oracle[name]
    assert result.forest is forest and result == oracle[name]
    assert result == traced and nodes_built() - before == built
