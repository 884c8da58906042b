"""Resilience-layer tests: guards, faults, degradation.

All timing is driven by injected fake clocks and scripted faults — the
suite never sleeps and never depends on the wall clock.
"""

import itertools
import json
import math
import sqlite3
import types

import pytest

from repro.backends.registry import _REGISTRY, registered_backends
from repro.errors import (
    DocumentNotFoundError,
    ExecutionError,
    QueryTimeoutError,
    ReproError,
    ResourceBudgetError,
    TransientBackendError,
)
from repro.resilience import QueryGuard, ResourceBudget, coerce_budget
from repro.api import compile_xquery
from repro.session import XQuerySession
from repro.sql.sqlite_backend import SQLiteDatabase
from repro.xml.text_parser import parse_forest
from repro.xquery.lowering import document_forest

from tests.faults import FaultPlan, inject_faults
from tests.test_sqlite_backend import held_rows


class FakeClock:
    """Monotonic fake: advances ``step`` per read, plus manual jumps."""

    def __init__(self, step: float = 0.0, start: float = 0.0):
        self.step = step
        self.time = start

    def __call__(self) -> float:
        self.time += self.step
        return self.time

    def advance(self, seconds: float) -> None:
        self.time += seconds


DOC = "<a>" + "<b><c>x</c></b>" * 40 + "</a>"
#: A doc/query pair heavy enough in SQLite VM opcodes that the guard's
#: progress handler (every 4000 opcodes) fires many times per statement.
BIG_DOC = "<a>" + "<b><c>x</c></b>" * 200 + "</a>"
QUERY = 'for $x in document("a.xml")/a/b return $x/c'
CROSS = ('for $x in document("a.xml")/a/b '
         'for $y in document("a.xml")/a/b return $y')

ALL_BACKENDS = ("engine", "interpreter", "naive", "sqlite")


@pytest.fixture
def session():
    with XQuerySession() as s:
        s.add_document("a.xml", DOC)
        yield s


@pytest.fixture
def big_session():
    with XQuerySession() as s:
        s.add_document("a.xml", BIG_DOC)
        yield s


# -- deadlines on every backend ----------------------------------------------


class TestDeadlines:
    DEADLINE = 0.05
    STEP = 0.02

    def _guard(self) -> QueryGuard:
        return QueryGuard(deadline=self.DEADLINE, clock=FakeClock(self.STEP),
                          check_interval=1)

    @pytest.mark.parametrize("backend", ["engine", "interpreter", "naive"])
    def test_cooperative_backends_time_out(self, session, backend):
        with pytest.raises(QueryTimeoutError) as exc:
            session.run(QUERY, backend=backend, guard=self._guard())
        error = exc.value
        assert error.deadline == self.DEADLINE
        # Detection is prompt: within ~2x the deadline in fake time.
        assert error.elapsed <= 2 * self.DEADLINE
        assert error.backend == backend

    @pytest.mark.parametrize("backend", ["sqlite"])
    def test_sql_backends_time_out(self, big_session, backend):
        with pytest.raises(QueryTimeoutError) as exc:
            big_session.run(CROSS, backend=backend, guard=self._guard())
        error = exc.value
        assert error.deadline == self.DEADLINE
        assert error.elapsed <= 2 * self.DEADLINE

    def test_single_statement_interrupted_mid_flight(self):
        """The progress handler alone aborts one long statement in flight:
        the verbatim ``WITH`` form has no statement boundary to check at."""
        guard = self._guard()
        compiled = compile_xquery(CROSS)
        with SQLiteDatabase() as database:
            database.load_document(compiled.documents["a.xml"],
                                   document_forest(parse_forest(BIG_DOC)))
            translation = database.translate(compiled.core)
            with pytest.raises(QueryTimeoutError) as exc:
                database.run_translation(translation, mode="single",
                                         guard=guard)
        # The driver's "interrupted" is chained, never surfaced raw.
        assert isinstance(exc.value.__cause__, sqlite3.OperationalError)
        assert guard.pending_error is None  # consumed, not leaked

    def test_deadline_at_statement_boundary_leaves_no_temp_schema(self):
        """A deadline tripping *between* two staged statements of a text's
        first run must not poison the next run of that text (regression:
        ``table c0_init_idx already exists``): no retained table holds a
        row after either run."""
        def temp_tables():
            database = session.backend_instance("sqlite").database
            return [name for name, rows
                    in held_rows(database.connection).items() if rows]

        # Two <b>s: no statement reaches one progress-handler stride, so
        # the clock is read at statement boundaries only and expires
        # after the first few CTEs are staged.
        with XQuerySession() as session:
            session.add_document("a.xml",
                                 "<a><b><c>x</c></b><b><c>y</c></b></a>")
            with pytest.raises(QueryTimeoutError) as exc:
                session.run(QUERY, backend="sqlite", guard=self._guard())
            assert exc.value.__cause__ is None  # a boundary check, no driver
            assert temp_tables() == []
            expected = session.run(QUERY, backend="interpreter").to_xml()
            assert session.run(QUERY, backend="sqlite").to_xml() == expected
            assert temp_tables() == []

    def test_deadline_anywhere_in_a_staged_run_leaves_no_rows(self):
        """Trip the deadline after 1, 2, 3, … clock reads of a text's
        first run, on a fresh connection each time, until it has tripped
        between the statements that build the tables, between the
        ``INSERT``s that fill them, and inside one ``INSERT`` (the
        progress handler's check).  Each trip leaves no row, no open
        transaction and either no table or the whole retained schema;
        the next run answers as the interpreter does."""
        class TripAfter:
            """Time stands still for ``reads`` reads, then jumps past
            every deadline."""

            def __init__(self, reads: int):
                self.reads = reads

            def __call__(self) -> float:
                self.reads -= 1
                return 0.0 if self.reads >= 0 else 1e9

        compiled = compile_xquery(CROSS)
        with XQuerySession() as session:
            session.add_document("a.xml", DOC)
            expected = session.run(CROSS, backend="interpreter").forest
        trips = set()
        for reads in itertools.count(1):
            with SQLiteDatabase() as database:
                database.load_document(compiled.documents["a.xml"],
                                       document_forest(parse_forest(DOC)))
                translation = database.staged(compiled.core)
                guard = QueryGuard(deadline=1.0, clock=TripAfter(reads),
                                   check_interval=1)
                try:
                    database.run_translation(translation, guard=guard)
                except QueryTimeoutError as error:
                    held = held_rows(database.connection)
                    assert not any(held.values())
                    assert not database.connection.in_transaction
                    if isinstance(error.__cause__, sqlite3.OperationalError):
                        trips.add("inside an INSERT")
                        assert held
                    else:
                        assert error.__cause__ is None
                        trips.add("filling" if held else "building")
                    assert not held or set(held) == \
                        {name for name, _ in translation.ctes}
                else:
                    break
                assert database.run_translation(translation) == expected
            if len(trips) == 3:
                break
        assert trips == {"building", "filling", "inside an INSERT"}

    def test_timeout_never_falls_back(self, session):
        """Deadlines are request-level: no degradation to fallbacks."""
        with pytest.raises(QueryTimeoutError):
            session.run(QUERY, backend="engine", guard=self._guard(),
                        fallback=("interpreter", "naive"))

    def test_timeout_counted(self, session):
        with pytest.raises(QueryTimeoutError):
            session.run(QUERY, backend="engine", guard=self._guard())
        counter = session.metrics.get("repro_resilience_timeouts_total")
        assert counter.value(backend="engine") == 1


# -- resource budgets ---------------------------------------------------------


class TestBudgets:
    def test_tuple_budget_on_engine(self, session):
        with pytest.raises(ResourceBudgetError) as exc:
            session.run(QUERY, budget=5)
        assert exc.value.resource == "tuples"
        assert exc.value.limit == 5

    def test_tuple_budget_on_sqlite(self, session):
        with pytest.raises(ResourceBudgetError):
            session.run(QUERY, backend="sqlite", budget=3)

    def test_width_budget_on_engine(self, session):
        budget = ResourceBudget(max_width=2)
        with pytest.raises(ResourceBudgetError) as exc:
            session.run(QUERY, budget=budget)
        assert exc.value.resource == "width"

    def test_budget_violations_never_fall_back(self, session):
        with pytest.raises(ResourceBudgetError):
            session.run(QUERY, budget=5, fallback=("interpreter",))

    def test_generous_budget_passes(self, session):
        result = session.run(QUERY, budget=10_000, deadline=60.0)
        assert len(result.forest) == 40
        assert result.backend == "engine"
        assert not result.degraded

    def test_coerce_budget(self):
        assert coerce_budget(None) == ResourceBudget()
        assert coerce_budget(7) == ResourceBudget(max_tuples=7)
        budget = ResourceBudget(max_envs=3)
        assert coerce_budget(budget) is budget
        with pytest.raises(ExecutionError):
            coerce_budget("lots")
        with pytest.raises(ExecutionError):
            coerce_budget(True)


# -- the guard itself ---------------------------------------------------------


class TestQueryGuard:
    def test_disabled_guard_is_inert(self):
        guard = QueryGuard()
        assert not guard.enabled
        for _ in range(1000):
            guard.tick()
        guard.check()

    def test_tick_reads_clock_once_per_stride(self):
        clock = FakeClock()
        reads = []

        def counting_clock():
            reads.append(1)
            return clock()

        guard = QueryGuard(deadline=100.0, clock=counting_clock,
                           check_interval=8)
        guard.start()
        baseline = len(reads)
        for _ in range(64):
            guard.tick()
        assert len(reads) - baseline == 64 // 8

    def test_progress_handler_stores_typed_error(self):
        guard = QueryGuard(deadline=0.01, clock=FakeClock(0.02))
        guard.start()
        handler = guard.as_progress_handler()
        assert handler() == 1  # abort requested
        assert isinstance(guard.pending_error, QueryTimeoutError)
        taken = guard.take_pending()
        assert isinstance(taken, QueryTimeoutError)
        assert guard.pending_error is None

    def test_progress_handler_passes_when_healthy(self):
        guard = QueryGuard(deadline=100.0, clock=FakeClock(0.001))
        guard.start()
        assert guard.as_progress_handler()() == 0

    def test_rejects_bad_configuration(self):
        with pytest.raises(ExecutionError):
            QueryGuard(deadline=0.0)
        with pytest.raises(ExecutionError):
            QueryGuard(deadline=1.0, check_interval=0)


@pytest.mark.parametrize("deadline", [-1.0, math.nan], ids=["negative", "nan"])
class TestDeadlineMustBePositive:
    """A deadline that is not ``> 0`` is refused at every door.  NaN
    compares false with everything, so a ``<= 0`` test let it through as
    a query with no deadline at all."""

    def test_session_run(self, session, deadline):
        with pytest.raises(ExecutionError, match="deadline must be positive"):
            session.run(QUERY, deadline=deadline)

    def test_cli_timeout(self, tmp_path, capsys, deadline):
        from repro.__main__ import main

        path = tmp_path / "a.xml"
        path.write_text(DOC)
        code = main([QUERY, "--doc", f"a.xml={path}",
                     "--timeout", str(deadline)])
        assert code == 1
        assert "deadline must be positive" in capsys.readouterr().err

    def test_http_query(self, session, deadline):
        from repro.serving import QueryServer
        from tests.test_serving import http, run

        server = QueryServer(session, port=0)
        # json.dumps writes NaN as the bare token, which json.loads accepts.
        payload = json.dumps({"query": QUERY, "deadline": deadline}).encode()
        ((status, _headers, body),) = run(
            server, http(server, "POST", "/query", payload))
        assert status == 400
        reply = json.loads(body)
        assert reply["error"] == "ExecutionError"
        assert "deadline must be positive" in reply["detail"]


# -- fault injection ----------------------------------------------------------


class TestFaultPlan:
    def test_fails_on_scripted_calls_only(self):
        plan = FaultPlan().fail_on("execute", calls=(2,))
        plan.apply("execute")
        with pytest.raises(TransientBackendError):
            plan.apply("execute")
        plan.apply("execute")
        assert plan.call_count("execute") == 3
        assert [(m, n) for m, n, _e in plan.raised] == [("execute", 2)]

    def test_delay_recorded_through_injected_sleep(self):
        slept: list[float] = []
        plan = FaultPlan(sleep=slept.append).slow_on("prepare", 0.25)
        plan.apply("prepare")
        plan.apply("prepare")
        assert slept == [0.25, 0.25]
        assert plan.delays == [("prepare", 0.25)] * 2
        assert plan.raised == []

    def test_inject_faults_restores_registry(self, session):
        original = _REGISTRY["engine"]
        with inject_faults("engine", FaultPlan()):
            assert _REGISTRY["engine"] is not original
        assert _REGISTRY["engine"] is original

    def test_injected_fault_surfaces_through_session(self):
        plan = FaultPlan().fail_on("execute", calls=1)
        with inject_faults("engine", plan):
            with XQuerySession() as session:
                session.add_document("a.xml", DOC)
                with pytest.raises(TransientBackendError):
                    session.run(QUERY)

    @staticmethod
    def _commit_a_delete(session) -> tuple[int, int]:
        """Delete the first ``<b>`` and commit; returns the commit's
        ``(backends_applied, backends_invalidated)``."""
        doc = session.updatable("a.xml")
        first = next(row for row in doc.encoded.tuples if row[0] == "<b>")
        session.apply_update("a.xml", doc.delete_subtree(first[1]))
        record = session.recorder.updates()[-1]
        return record.backends_applied, record.backends_invalidated

    @pytest.mark.parametrize("backend", ["engine", "sqlite"])
    def test_wrapped_backend_still_absorbs_updates(self, backend):
        """Wrapping a backend for faults must not turn its in-place
        update path into an invalidation."""
        plan = FaultPlan()
        with inject_faults(backend, plan):
            with XQuerySession(backend=backend) as session:
                session.add_document("a.xml", DOC)
                assert len(session.run(QUERY)) == 40
                assert self._commit_a_delete(session) == (1, 0)
                assert len(session.run(QUERY)) == 39
        assert plan.call_count("apply_update") == 1

    def test_scripted_apply_update_failure_invalidates(self):
        plan = FaultPlan().fail_on("apply_update", calls=1)
        with inject_faults("engine", plan):
            with XQuerySession() as session:
                session.add_document("a.xml", DOC)
                assert len(session.run(QUERY)) == 40
                assert self._commit_a_delete(session) == (0, 1)
                assert len(session.run(QUERY)) == 39
                assert self._commit_a_delete(session) == (1, 0)
                assert len(session.run(QUERY)) == 38
        assert [(method, call) for method, call, _error in plan.raised] == \
            [("apply_update", 1)]

    def test_unknown_backend_rejected(self):
        with pytest.raises(ReproError):
            with inject_faults("no-such-backend", FaultPlan()):
                pass  # pragma: no cover


# -- graceful degradation: the full story -------------------------------------


class TestDegradation:
    def test_fallback_answers_and_records_the_failure(self):
        """The primary fails once, the next backend of the chain answers:
        each backend is tried once, in order, and the failure shows in
        the result, the span tree and the metrics."""
        plan = FaultPlan().fail_on("execute", calls=1)
        with inject_faults("sqlite", plan):
            with XQuerySession() as session:
                session.add_document("a.xml", DOC)
                result = session.run(QUERY, backend="sqlite",
                                     fallback=("engine",), trace=True)
                assert result.backend == "engine"
                assert result.degraded
                assert [d.backend for d in result.degradations] == ["sqlite"]
                assert result.degradations[0].kind == "TransientBackendError"
                # A transient error is tried once, like any other.
                assert plan.call_count("execute") == 1
                names = [(span.name, span.attributes.get("backend"))
                         for span in result.trace.walk()
                         if span.name == "attempt"]
                assert names == [("attempt", "sqlite"), ("attempt", "engine")]
                assert result.trace.attributes["degraded"] is True
                assert session.metrics.get("repro_resilience_fallbacks_total") \
                    .value(source="sqlite", target="engine") == 1
                attempts = session.recorder.records()[-1].attempts
                assert [(a.backend, a.error) for a in attempts] == \
                    [("sqlite", "TransientBackendError"), ("engine", None)]

                # The fault script failed only the first call: the next
                # run is answered by sqlite itself, undegraded.
                again = session.run(QUERY, backend="sqlite",
                                    fallback=("engine",))
                assert again.backend == "sqlite" and not again.degraded
                assert plan.call_count("execute") == 2
                assert result.forest == again.forest
                assert len(result.forest) == 40

    def test_chain_exhausted_raises_last_error(self, session):
        plan = FaultPlan().fail_on("execute", calls=(1, 2, 3),
                                   error=ExecutionError("hard down"))
        with inject_faults("engine", plan):
            with XQuerySession() as inner:
                inner.add_document("a.xml", DOC)
                with pytest.raises(ExecutionError):
                    inner.run(QUERY, backend="engine", fallback=())

    def test_compile_errors_do_not_degrade(self, session):
        with pytest.raises(ReproError):
            session.run("for $x in", fallback=("interpreter",))


# -- typed errors -------------------------------------------------------------


class TestTypedErrors:
    def test_document_not_found_lists_registered(self, session):
        with pytest.raises(DocumentNotFoundError) as exc:
            session.document("missing.xml")
        assert exc.value.uri == "missing.xml"
        assert "a.xml" in str(exc.value)
        assert isinstance(exc.value, ReproError)

    def test_locked_database_is_transient(self):
        from repro.sql.sqlite_backend import wrap_driver_error

        error = wrap_driver_error(
            sqlite3.OperationalError("database is locked"),
            "INSERT INTO doc_0 VALUES (?, ?, ?)")
        assert isinstance(error, TransientBackendError)
        assert "INSERT INTO doc_0" in str(error)
        assert error.statement.startswith("INSERT")

    def test_driver_errors_wrapped_with_statement(self):
        from repro.sql.sqlite_backend import SQLiteDatabase

        database = SQLiteDatabase()
        bogus = types.SimpleNamespace(sql="SELECT * FROM no_such_table")
        with pytest.raises(ExecutionError) as exc:
            database.run_translation(bogus, mode="single")
        assert not isinstance(exc.value, sqlite3.Error)
        assert "no_such_table" in str(exc.value)
        assert isinstance(exc.value.__cause__, sqlite3.Error)
        database.close()

    def test_long_statements_truncated(self):
        from repro.sql.sqlite_backend import wrap_driver_error

        statement = "SELECT " + ", ".join(f"col_{i}" for i in range(200))
        error = wrap_driver_error(sqlite3.OperationalError("syntax error"),
                                  statement)
        assert error.statement == statement  # full text kept on the attr
        assert "…]" in str(error)            # message shows it truncated
        assert len(str(error)) < len(statement)

    def test_timeout_error_carries_context(self):
        error = QueryTimeoutError(1.5, 3.2, backend="sqlite")
        assert error.deadline == 1.5
        assert error.elapsed == 3.2
        assert error.backend == "sqlite"
        assert isinstance(error, ExecutionError)


# -- overhead -----------------------------------------------------------------


class TestOverhead:
    def test_unguarded_runs_take_the_fast_path(self, session, monkeypatch):
        """No guard, tracer, or metrics => the observed evaluation path
        (where guard accounting lives) is never entered at all."""
        from repro.engine.evaluator import DIEngine

        def forbidden(self, node, seq):  # pragma: no cover - must not run
            raise AssertionError("observed path used on an unguarded run")

        monkeypatch.setattr(DIEngine, "_evaluate_observed", forbidden)
        result = session.run(QUERY)
        assert len(result.forest) == 40

    def test_guarded_runs_use_the_observed_path(self, session, monkeypatch):
        from repro.engine.evaluator import DIEngine

        calls = []
        original = DIEngine._evaluate_observed

        def counting(self, node, seq):
            calls.append(1)
            return original(self, node, seq)

        monkeypatch.setattr(DIEngine, "_evaluate_observed", counting)
        session.run(QUERY, budget=10_000)
        assert calls

    def test_cli_flags_reach_the_guard(self, tmp_path, capsys):
        from repro.__main__ import main

        doc = tmp_path / "a.xml"
        doc.write_text(DOC)
        code = main([QUERY, "--doc", f"a.xml={doc}",
                     "--max-tuples", "1"])
        assert code == 1
        assert "budget" in capsys.readouterr().err

    def test_cli_fallback_degrades(self, tmp_path, capsys):
        from repro.__main__ import main

        doc = tmp_path / "w.xml"
        doc.write_text("<a><a><a><a/></a></a></a>")
        query = 'document("w.xml")' + "//a" * 5  # overflows 2**61 on sqlite
        code = main([query, "--doc", f"w.xml={doc}", "--backend", "sqlite",
                     "--fallback", "engine"])
        captured = capsys.readouterr()
        assert code == 0
        assert "WidthOverflowError" in captured.err
        assert "'engine'" in captured.err
