"""Resilience-layer tests: guards, retries, breakers, faults, degradation.

All timing is driven by injected fake clocks, sleep recorders, and
scripted faults — the suite never sleeps and never depends on the
wall clock.
"""

import itertools
import json
import math
import sqlite3
import types

import pytest

from repro.backends.registry import (
    _REGISTRY,
    backend_breaker,
    registered_backends,
    reset_breakers,
)
from repro.errors import (
    CircuitOpenError,
    DocumentNotFoundError,
    ExecutionError,
    QueryCancelledError,
    QueryTimeoutError,
    ReproError,
    ResourceBudgetError,
    TransientBackendError,
    WidthOverflowError,
)
from repro.resilience import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    STATE_VALUES,
    CircuitBreaker,
    QueryGuard,
    ResourceBudget,
    RetryPolicy,
    coerce_budget,
)
from repro.resilience.breaker import FAILURE_THRESHOLD, RECOVERY_SECONDS
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


class NoJitter:
    """A jitter draw of zero: the policy's bare exponential schedule."""

    def uniform(self, low: float, high: float) -> float:
        return 0.0


DOC = "<a>" + "<b><c>x</c></b>" * 40 + "</a>"
#: A doc/query pair heavy enough in SQLite VM opcodes that the guard's
#: progress handler (every 4000 opcodes) fires many times per statement.
BIG_DOC = "<a>" + "<b><c>x</c></b>" * 200 + "</a>"
QUERY = 'for $x in document("a.xml")/a/b return $x/c'
CROSS = ('for $x in document("a.xml")/a/b '
         'for $y in document("a.xml")/a/b return $y')

ALL_BACKENDS = ("engine", "interpreter", "naive", "sqlite")


@pytest.fixture(autouse=True)
def _clean_breakers():
    reset_breakers()
    yield
    reset_breakers()


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


# -- retry policy -------------------------------------------------------------


class TestRetryPolicy:
    def test_deterministic_schedule_without_jitter(self):
        policy = RetryPolicy(max_attempts=4, rng=NoJitter())
        assert list(policy.delays()) == [0.05, 0.1, 0.2]

    def test_seeded_jitter_is_reproducible(self):
        first = list(RetryPolicy(max_attempts=5).delays())
        second = list(RetryPolicy(max_attempts=5).delays())
        assert first == second
        bare = list(RetryPolicy(max_attempts=5, rng=NoJitter()).delays())
        assert first != bare
        assert all(0.9 * b <= f <= 1.1 * b for f, b in zip(first, bare))

    def test_retries_then_succeeds(self):
        sleeps: list[float] = []
        policy = RetryPolicy(max_attempts=3, sleep=sleeps.append,
                             rng=NoJitter())
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise TransientBackendError("blip")
            return "answer"

        assert policy.call(flaky) == "answer"
        assert len(attempts) == 3
        assert sleeps == [0.05, 0.1]

    def test_attempts_exhausted_raises_last_error(self):
        sleeps: list[float] = []
        policy = RetryPolicy(max_attempts=2, sleep=sleeps.append)

        def always():
            raise TransientBackendError("down")

        with pytest.raises(TransientBackendError):
            policy.call(always)
        assert len(sleeps) == 1

    def test_non_retryable_raises_immediately(self):
        sleeps: list[float] = []
        policy = RetryPolicy(max_attempts=5, sleep=sleeps.append)
        calls = []

        def hard_failure():
            calls.append(1)
            raise ExecutionError("broken SQL")

        with pytest.raises(ExecutionError):
            policy.call(hard_failure)
        assert len(calls) == 1
        assert sleeps == []

    def test_never_sleeps_past_the_deadline(self):
        sleeps: list[float] = []
        policy = RetryPolicy(max_attempts=5, sleep=sleeps.append,
                             rng=NoJitter())
        guard = QueryGuard(deadline=0.01, clock=FakeClock(0.001))
        guard.start()

        def always():
            raise TransientBackendError("down")

        with pytest.raises(TransientBackendError):
            policy.call(always, guard=guard)
        assert sleeps == []  # 0.05 s backoff >= ~0.01 s remaining: give up now

    def test_observer_sees_each_backoff(self):
        observed = []
        policy = RetryPolicy(max_attempts=3, sleep=lambda _s: None,
                             rng=NoJitter())

        def always():
            raise TransientBackendError("down")

        with pytest.raises(TransientBackendError):
            policy.call(always,
                        on_retry=lambda *args: observed.append(args))
        assert [(attempt, delay) for attempt, delay, _e in observed] == \
            [(1, 0.05), (2, 0.1)]

    def test_rejects_bad_configuration(self):
        with pytest.raises(ExecutionError):
            RetryPolicy(max_attempts=0)


# -- circuit breaker ----------------------------------------------------------


class TestCircuitBreaker:
    def test_opens_at_threshold(self):
        breaker = CircuitBreaker("db", clock=FakeClock())
        for _ in range(FAILURE_THRESHOLD - 1):
            breaker.record_failure()
        assert breaker.state == CLOSED
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()
        with pytest.raises(CircuitOpenError):
            breaker.check()

    def trip(self, breaker):
        for _ in range(FAILURE_THRESHOLD):
            breaker.record_failure()
        assert breaker.state == OPEN

    def test_half_open_probe_then_close(self):
        clock = FakeClock()
        breaker = CircuitBreaker("db", clock=clock)
        self.trip(breaker)
        assert breaker.retry_after == pytest.approx(RECOVERY_SECONDS)
        clock.advance(RECOVERY_SECONDS + 1.0)
        assert breaker.state == HALF_OPEN
        assert breaker.allow()        # the single probe
        assert not breaker.allow()    # concurrent probes rejected
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.consecutive_failures == 0

    def test_half_open_failure_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker("db", clock=clock)
        self.trip(breaker)
        clock.advance(RECOVERY_SECONDS + 1.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN

    def test_registry_owns_one_breaker_per_backend(self):
        first = backend_breaker("sqlite")
        assert backend_breaker("sqlite") is first   # one per name
        assert backend_breaker("engine") is not first
        reset_breakers("sqlite")
        fresh = backend_breaker("sqlite")           # reset gives a fresh one
        assert fresh is not first

    @pytest.mark.parametrize("outcome", [
        WidthOverflowError("width 2**70 does not fit in 64 bits"),
        QueryTimeoutError(1.0, 2.0, backend="sqlite"),
        ResourceBudgetError("tuples", 10, 11),
        QueryCancelledError("caller gave up"),
    ], ids=lambda error: type(error).__name__)
    def test_inconclusive_probe_hands_its_slot_back(self, outcome):
        """A half-open probe that ends in no evidence either way must not
        wedge the breaker: the next guarded run probes again."""
        clock = FakeClock()
        breaker = backend_breaker("sqlite", clock=clock)
        self.trip(breaker)
        clock.advance(RECOVERY_SECONDS + 1.0)
        plan = FaultPlan().fail_on("execute", calls=1, error=outcome)
        with inject_faults("sqlite", plan):
            with XQuerySession() as session:
                session.add_document("a.xml", DOC)
                # A budget makes the run consult the breaker; without a
                # fallback every outcome, overflow included, surfaces.
                with pytest.raises(type(outcome)):
                    session.run(QUERY, backend="sqlite", budget=10**6)
                assert breaker.state == HALF_OPEN
                result = session.run(QUERY, backend="sqlite",
                                     fallback=("engine",))
        assert result.backend == "sqlite" and not result.degraded
        assert breaker.state == CLOSED
        assert plan.call_count("execute") == 2


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
        plan = FaultPlan(sleep=slept.append).delay_on("prepare", calls=1,
                                                      seconds=0.25)
        plan.apply("prepare")
        assert slept == [0.25]
        assert plan.delays == [("prepare", 0.25)]

    def test_seeded_random_faults_reproduce(self):
        def pattern(seed: int) -> list[int]:
            plan = FaultPlan(seed=seed).fail_randomly("execute", 0.5)
            hits = []
            for call in range(1, 21):
                try:
                    plan.apply("execute")
                except TransientBackendError:
                    hits.append(call)
            return hits

        assert pattern(7) == pattern(7)
        assert pattern(7) != pattern(8)

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
    def test_retry_breaker_fallback_and_recovery(self):
        """The acceptance scenario: sqlite fails FAILURE_THRESHOLD times
        -> retries with backoff -> circuit opens -> fallback answers ->
        open circuit is skipped -> half-open probe closes it again.  All
        observable in spans and metrics; no wall-clock sleeps anywhere."""
        breaker_clock = FakeClock()
        breaker = backend_breaker("sqlite", clock=breaker_clock)
        sleeps: list[float] = []
        policy = RetryPolicy(max_attempts=FAILURE_THRESHOLD,
                             sleep=sleeps.append, rng=NoJitter())
        failing = tuple(range(1, FAILURE_THRESHOLD + 1))
        plan = FaultPlan().fail_on("execute", calls=failing)
        with inject_faults("sqlite", plan):
            with XQuerySession() as session:
                session.add_document("a.xml", DOC)

                # Run 1: every sqlite attempt fails, the breaker opens,
                # the engine fallback answers the query.
                result = session.run(QUERY, backend="sqlite",
                                     fallback=("engine",), retry=policy,
                                     trace=True)
                assert result.backend == "engine"
                assert result.degraded
                assert [d.backend for d in result.degradations] == ["sqlite"]
                assert result.degradations[0].kind == "TransientBackendError"
                # One recorded backoff per retry, doubling each time.
                assert sleeps == [0.05 * 2 ** k
                                  for k in range(FAILURE_THRESHOLD - 1)]
                assert breaker.state == OPEN
                assert plan.call_count("execute") == FAILURE_THRESHOLD

                # The span tree shows the whole story: the sqlite attempts
                # with a retry backoff between each, then the engine one.
                names = [(span.name, span.attributes.get("backend"))
                         for span in result.trace.walk()
                         if span.name in ("attempt", "retry")]
                assert names == ([("attempt", "sqlite"), ("retry", "sqlite")]
                                 * (FAILURE_THRESHOLD - 1)
                                 + [("attempt", "sqlite"),
                                    ("attempt", "engine")])
                assert result.trace.attributes["degraded"] is True

                metrics = session.metrics
                assert metrics.get("repro_resilience_retries_total") \
                    .value(backend="sqlite") == FAILURE_THRESHOLD - 1
                assert metrics.get("repro_resilience_fallbacks_total") \
                    .value(source="sqlite", target="engine") == 1
                assert metrics.get("repro_resilience_breaker_state") \
                    .value(backend="sqlite") == STATE_VALUES[OPEN]

                # Run 2: the open circuit is skipped without touching
                # sqlite at all; the answer degrades immediately.
                result2 = session.run(QUERY, backend="sqlite",
                                      fallback=("engine",), retry=policy)
                assert result2.backend == "engine"
                assert result2.degradations[0].kind == "CircuitOpenError"
                assert plan.call_count("execute") == FAILURE_THRESHOLD

                # Run 3: after the recovery window the half-open probe
                # succeeds (the fault script failed only the first
                # FAILURE_THRESHOLD calls), so the circuit closes and
                # sqlite answers again.
                breaker_clock.advance(RECOVERY_SECONDS + 1.0)
                result3 = session.run(QUERY, backend="sqlite",
                                      fallback=("engine",), retry=policy)
                assert result3.backend == "sqlite"
                assert not result3.degraded
                assert breaker.state == CLOSED
                assert session.metrics.get("repro_resilience_breaker_state") \
                    .value(backend="sqlite") == STATE_VALUES[CLOSED]

                # Every run returned the same (correct) forest.
                assert result.forest == result2.forest == result3.forest
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
