"""Overload protection: admission control, cancellation, brownout.

Timing-sensitive paths run on injected fake clocks (the controller, the
brownout hysteresis, queue deadlines) and injected latency faults, so
the suite asserts exact shed reasons and level transitions without
depending on the wall clock.  The hammer test at the end floods a real
session's ``run_many`` pool at 4× the concurrency limit with slow-backend
faults — the full overload story end to end.
"""

import threading
import time

import pytest

from repro.errors import (
    ExecutionError,
    OverloadError,
    QueryCancelledError,
    ResourceBudgetError,
)
from repro.obs.flight import SLO, AttemptRecord, FlightRecorder
from repro.obs.metrics import MetricsRegistry
from repro.resilience import (
    BATCH,
    INTERACTIVE,
    AdmissionConfig,
    AdmissionController,
    BrownoutController,
    BrownoutLevel,
    CancellationToken,
    QueryGuard,
    ResourceBudget,
)
from repro.resilience.admission import (
    EVALUATE_INTERVAL_SECONDS,
    SHED_HEALTH_HOLD_SECONDS,
    scale_budget,
)
from repro.session import XQuerySession
from repro.xmark.queries import FIGURE1_SAMPLE

from tests.faults import FaultPlan, inject_faults


class FakeClock:
    """Monotonic fake advanced explicitly; reads never tick."""

    def __init__(self, start: float = 0.0):
        self.time = start

    def __call__(self) -> float:
        return self.time

    def advance(self, seconds: float) -> None:
        self.time += seconds


def violating_record(recorder: FlightRecorder, count: int = 1) -> None:
    """Append ``count`` SLO-violating records (slow errors)."""
    for _ in range(count):
        recorder.record_run(query="q", backend="engine",
                            error=ExecutionError("boom"), wall_seconds=10.0)


def healthy_record(recorder: FlightRecorder, count: int = 1,
                   wall: float = 0.001) -> None:
    # The latency histograms observe attempts, so a run that should move
    # the mean service time / p99 carries one.
    for _ in range(count):
        recorder.record_run(query="q", backend="engine",
                            result=(), wall_seconds=wall,
                            attempts=(AttemptRecord("engine", wall),))


# -- configuration ------------------------------------------------------------


class TestAdmissionConfig:
    def test_defaults_are_generous(self):
        config = AdmissionConfig()
        assert config.max_concurrency == 64
        assert config.max_queue_depth == 256
        assert config.brownout_dwell_seconds == 5.0

    @pytest.mark.parametrize("knobs", [
        {"max_concurrency": 0},
        {"max_concurrency": -1},
        {"brownout_dwell_seconds": -1.0},
        {"max_queue_depth": -1},
    ])
    def test_bad_knobs_rejected(self, knobs):
        with pytest.raises(ExecutionError):
            AdmissionConfig(**knobs)

    def test_bad_priority_rejected(self):
        controller = AdmissionController(AdmissionConfig())
        with pytest.raises(ExecutionError, match="priority"):
            controller.try_acquire("urgent")


class TestScaleBudget:
    def test_none_stays_unlimited(self):
        assert scale_budget(None, 0.25) is None

    def test_int_budget_shrinks(self):
        scaled = scale_budget(100, 0.25)
        assert scaled.max_tuples == 25

    def test_floor_of_one(self):
        assert scale_budget(2, 0.25).max_tuples == 1

    def test_full_scale_is_identity(self):
        budget = ResourceBudget(max_tuples=10)
        assert scale_budget(budget, 1.0) is budget

    def test_all_dimensions_shrink(self):
        budget = ResourceBudget(max_tuples=100, max_envs=40, max_width=8)
        scaled = scale_budget(budget, 0.5)
        assert (scaled.max_tuples, scaled.max_envs, scaled.max_width) \
            == (50, 20, 4)


# -- the admission controller -------------------------------------------------


class TestAdmissionController:
    def make(self, clock=None, recorder=None, **knobs):
        return AdmissionController(
            AdmissionConfig(**knobs), metrics=MetricsRegistry(),
            recorder=recorder, clock=clock if clock is not None else FakeClock())

    def test_fast_path_admits_and_releases(self):
        controller = self.make(max_concurrency=2)
        ticket = controller.try_acquire()
        assert controller.in_flight == 1
        assert ticket.priority == INTERACTIVE
        controller.release(ticket)
        assert controller.in_flight == 0

    def test_release_is_idempotent_per_ticket(self):
        controller = self.make()
        ticket = controller.try_acquire()
        controller.release(ticket)
        controller.release(ticket)
        assert controller.in_flight == 0

    def test_queue_full_sheds_with_retry_after(self):
        clock = FakeClock()
        controller = self.make(clock=clock, max_concurrency=1,
                               max_queue_depth=0)
        ticket = controller.try_acquire()
        with pytest.raises(OverloadError) as exc:
            controller.try_acquire()
        error = exc.value
        assert error.reason == "queue-full"
        assert error.retry_after is not None and error.retry_after > 0
        assert error.priority == INTERACTIVE
        assert controller.sheds == 1
        assert controller.shedding  # within the post-shed hold window
        controller.release(ticket)
        clock.advance(SHED_HEALTH_HOLD_SECONDS)
        assert not controller.shedding

    def test_deadline_shed_on_arrival_uses_estimated_wait(self):
        recorder = FlightRecorder(metrics=MetricsRegistry())
        healthy_record(recorder, count=4, wall=2.0)  # mean service 2s
        controller = self.make(recorder=recorder, max_concurrency=1,
                               max_queue_depth=8)
        ticket = controller.try_acquire()
        # Estimated wait for the next arrival is ~2s; a 0.5s deadline
        # cannot be met, so the arrival sheds instantly.
        with pytest.raises(OverloadError) as exc:
            controller.try_acquire(deadline=0.5)
        assert exc.value.reason == "deadline"
        # A deadline the estimate fits is admitted to the queue instead
        # (released slot makes it runnable immediately).
        controller.release(ticket)
        ticket2 = controller.try_acquire(deadline=60.0)
        controller.release(ticket2)

    def test_no_latency_data_means_no_deadline_estimate(self):
        controller = self.make(max_concurrency=1, max_queue_depth=8)
        assert controller.estimate_queue_wait(INTERACTIVE) is None
        assert controller.expected_service_seconds() is None

    def test_queued_waiter_admits_when_slot_frees(self):
        controller = self.make(max_concurrency=1,
                               clock=FakeClock())
        first = controller.try_acquire()
        admitted = []

        def waiter():
            ticket = controller.try_acquire()
            admitted.append(ticket)
            controller.release(ticket)

        thread = threading.Thread(target=waiter)
        thread.start()
        deadline = time.monotonic() + 5.0
        while controller.queue_depth == 0 and time.monotonic() < deadline:
            time.sleep(0.001)
        assert controller.queue_depth == 1
        controller.release(first)
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert len(admitted) == 1
        assert controller.queue_depth == 0
        assert controller.in_flight == 0

    def test_interactive_admits_ahead_of_batch(self):
        controller = self.make(max_concurrency=1, clock=FakeClock())
        first = controller.try_acquire()
        order = []
        started = threading.Barrier(3)

        def waiter(priority):
            started.wait(timeout=5.0)
            ticket = controller.try_acquire(priority)
            order.append(priority)
            time.sleep(0.01)
            controller.release(ticket)

        batch_thread = threading.Thread(target=waiter, args=(BATCH,))
        batch_thread.start()
        interactive_thread = threading.Thread(target=waiter,
                                              args=(INTERACTIVE,))
        interactive_thread.start()
        started.wait(timeout=5.0)
        deadline = time.monotonic() + 5.0
        while controller.queue_depth < 2 and time.monotonic() < deadline:
            time.sleep(0.001)
        assert controller.queue_depth == 2
        controller.release(first)
        batch_thread.join(timeout=5.0)
        interactive_thread.join(timeout=5.0)
        assert order == [INTERACTIVE, BATCH]

    def test_cancelled_token_sheds_on_arrival(self):
        controller = self.make()
        token = CancellationToken()
        token.cancel("caller gave up")
        with pytest.raises(QueryCancelledError, match="caller gave up"):
            controller.try_acquire(token=token)
        assert controller.in_flight == 0

    def test_token_cancels_a_queued_waiter(self):
        controller = self.make(max_concurrency=1)
        first = controller.try_acquire()
        token = CancellationToken()
        raised = []

        def waiter():
            try:
                controller.try_acquire(token=token)
            except QueryCancelledError as error:
                raised.append(error)

        thread = threading.Thread(target=waiter)
        thread.start()
        deadline = time.monotonic() + 5.0
        while controller.queue_depth == 0 and time.monotonic() < deadline:
            time.sleep(0.001)
        token.cancel("abort")
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert raised and raised[0].reason == "abort"
        assert controller.queue_depth == 0
        controller.release(first)

    def test_queued_deadline_expires_into_shed(self):
        clock = FakeClock()
        controller = self.make(clock=clock, max_concurrency=1)
        first = controller.try_acquire()
        raised = []

        def waiter():
            try:
                controller.try_acquire(deadline=1.0)
            except OverloadError as error:
                raised.append(error)

        thread = threading.Thread(target=waiter)
        thread.start()
        deadline = time.monotonic() + 5.0
        while controller.queue_depth == 0 and time.monotonic() < deadline:
            time.sleep(0.001)
        clock.advance(2.0)  # waiter's deadline passes in fake time
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert raised and raised[0].reason == "deadline"
        controller.release(first)

    def test_drain_sheds_queued_and_refuses_arrivals(self):
        controller = self.make(max_concurrency=1)
        first = controller.try_acquire()
        raised = []

        def waiter():
            try:
                controller.try_acquire()
            except OverloadError as error:
                raised.append(error)

        thread = threading.Thread(target=waiter)
        thread.start()
        deadline = time.monotonic() + 5.0
        while controller.queue_depth == 0 and time.monotonic() < deadline:
            time.sleep(0.001)
        controller.begin_drain()
        thread.join(timeout=5.0)
        assert raised and raised[0].reason == "draining"
        with pytest.raises(OverloadError, match="draining"):
            controller.try_acquire()
        assert controller.draining and controller.shedding
        controller.release(first)
        assert controller.wait_idle(timeout=1.0)
        controller.end_drain()
        ticket = controller.try_acquire()  # reopened
        controller.release(ticket)

    def test_cancel_in_flight_trips_tokens(self):
        controller = self.make(max_concurrency=4)
        tokens = [CancellationToken() for _ in range(3)]
        tickets = [controller.try_acquire(token=token) for token in tokens]
        assert controller.cancel_in_flight("shutdown") == 3
        assert all(token.cancelled for token in tokens)
        assert all(token.reason == "shutdown" for token in tokens)
        for ticket in tickets:
            controller.release(ticket)
        assert controller.cancel_in_flight() == 0

    def test_wait_idle_times_out_under_load(self):
        # Real clock: wait_idle's timeout must actually elapse.
        controller = self.make(clock=time.monotonic)
        ticket = controller.try_acquire()
        assert not controller.wait_idle(timeout=0.01)
        controller.release(ticket)
        assert controller.wait_idle(timeout=1.0)

    def test_snapshot_and_metrics(self):
        metrics = MetricsRegistry()
        controller = AdmissionController(
            AdmissionConfig(max_concurrency=2, max_queue_depth=0),
            metrics=metrics, clock=FakeClock())
        tickets = [controller.try_acquire(), controller.try_acquire()]
        with pytest.raises(OverloadError):
            controller.try_acquire(BATCH)
        snapshot = controller.snapshot()
        assert snapshot["in_flight"] == 2
        assert snapshot["sheds_total"] == 1
        assert snapshot["concurrency_limit"] == 2
        assert snapshot["brownout"] == "normal"
        sheds = metrics.get("repro_admission_sheds_total")
        assert sheds.value(reason="queue-full", priority=BATCH) == 1
        assert metrics.get("repro_admission_inflight").value() == 2
        for ticket in tickets:
            controller.release(ticket)
        assert metrics.get("repro_admission_inflight").value() == 0
        assert "in_flight=0/2" in repr(controller)

    def test_static_limit_without_adaptive(self):
        clock = FakeClock()
        recorder = FlightRecorder(metrics=MetricsRegistry())
        healthy_record(recorder, count=20, wall=5.0)
        controller = self.make(clock=clock, recorder=recorder,
                               max_concurrency=8)
        clock.advance(2 * EVALUATE_INTERVAL_SECONDS)
        ticket = controller.try_acquire()
        controller.release(ticket)
        assert controller.limit == 8


# -- brownout -----------------------------------------------------------------


def hot_recorder(window: int = 8) -> FlightRecorder:
    recorder = FlightRecorder(metrics=MetricsRegistry(),
                              slos=(SLO("p99", 0.1, objective=0.99),),
                              recent_window=window)
    violating_record(recorder, count=window)
    return recorder


class TestBrownout:
    # Dwell 5 s (the default), cool 15 s, enter burn 1.0, exit burn 0.5.
    def make(self, recorder):
        return BrownoutController(AdmissionConfig(), recorder,
                                  metrics=MetricsRegistry())

    def test_needs_dwell_before_stepping(self):
        controller = self.make(hot_recorder())
        assert controller.evaluate(now=0.0).name == "normal"   # arms
        assert controller.evaluate(now=4.9).name == "normal"   # still dwelling
        assert controller.evaluate(now=5.0).name == "cheap-backend"

    def test_steps_one_level_per_dwell(self):
        controller = self.make(hot_recorder())
        controller.evaluate(now=0.0)
        assert controller.evaluate(now=5.0).name == "cheap-backend"
        assert controller.evaluate(now=6.0).name == "cheap-backend"
        assert controller.evaluate(now=10.0).name == "no-sampling"
        assert controller.evaluate(now=15.0).name == "tight-budgets"
        assert controller.evaluate(now=20.0).name == "shed-batch"
        assert controller.evaluate(now=25.0).name == "shed-batch"  # top

    def test_recovery_needs_cool_period(self):
        recorder = hot_recorder()
        controller = self.make(recorder)
        controller.evaluate(now=0.0)
        controller.evaluate(now=5.0)
        assert controller.index == 1
        healthy_record(recorder, count=64)  # recent window goes quiet
        assert controller.burn_rate() == 0.0
        assert controller.evaluate(now=6.0).name == "cheap-backend"  # arms
        assert controller.evaluate(now=20.9).name == "cheap-backend"
        assert controller.evaluate(now=21.0).name == "normal"

    def test_hot_interruption_resets_the_cool_clock(self):
        recorder = hot_recorder()
        controller = self.make(recorder)
        controller.evaluate(now=0.0)
        controller.evaluate(now=5.0)
        assert controller.index == 1
        healthy_record(recorder, count=64)  # burn drops below exit
        controller.evaluate(now=6.0)   # cool arms at t=6
        violating_record(recorder, count=8)
        controller.evaluate(now=10.0)  # hot again: cool clock resets
        healthy_record(recorder, count=64)
        controller.evaluate(now=12.0)  # cool re-arms at t=12
        # Fifteen cool seconds count from t=12, not from t=6.
        assert controller.evaluate(now=26.9).name == "cheap-backend"
        assert controller.evaluate(now=27.0).name == "normal"

    def test_transitions_recorded_and_sampling_toggled(self):
        recorder = hot_recorder()
        controller = self.make(recorder)
        controller.evaluate(now=0.0)
        controller.evaluate(now=5.0)   # → cheap-backend
        controller.evaluate(now=10.0)  # → no-sampling
        assert not recorder.sampling_enabled
        events = recorder.events(kind="brownout")
        assert [event["level"] for event in events] \
            == ["cheap-backend", "no-sampling"]
        assert events[-1]["direction"] == "enter"
        assert events[-1]["burn_rate"] > 0
        healthy_record(recorder, count=64)
        controller.evaluate(now=11.0)
        controller.evaluate(now=26.0)  # cool → back to cheap-backend
        assert recorder.sampling_enabled  # restored on the way down
        assert recorder.events(kind="brownout")[-1]["level"] \
            == "cheap-backend"

    def test_no_recorder_never_browns_out(self):
        controller = BrownoutController(AdmissionConfig(), None)
        assert controller.evaluate(now=0.0).name == "normal"
        assert controller.burn_rate() == 0.0


# -- session integration ------------------------------------------------------


QUERY = 'document("a.xml")/site/people/person/name'


@pytest.fixture
def session():
    with XQuerySession() as active:
        active.add_document("a.xml", FIGURE1_SAMPLE)
        yield active


class TestSessionAdmission:
    def test_admission_on_by_default(self, session):
        assert session.admission is not None
        session.run(QUERY)
        snapshot = session.admission.snapshot()
        assert snapshot["admitted_total"] == 1
        assert snapshot["in_flight"] == 0

    def test_admission_opt_out(self):
        with XQuerySession(admission=False) as opted_out:
            assert opted_out.admission is None
            opted_out.add_document("a.xml", FIGURE1_SAMPLE)
            opted_out.run(QUERY)

    @pytest.mark.parametrize("admission", [None, False],
                             ids=["admission", "no-admission"])
    def test_unknown_priority_refused_at_the_door(self, admission):
        with XQuerySession(admission=admission) as door:
            door.add_document("a.xml", FIGURE1_SAMPLE)
            with pytest.raises(ExecutionError, match="priority"):
                door.run(QUERY, priority="urgent")
            with pytest.raises(ExecutionError, match="priority"):
                door.run_many([QUERY], priority="urgent", return_errors=True)
            assert door.recorder.records() == []

    def test_cancelled_token_raises_and_records(self, session):
        token = CancellationToken()
        token.cancel("user hit ^C")
        with pytest.raises(QueryCancelledError, match="user hit"):
            session.run(QUERY, token=token)
        records = session.recorder.records(outcome="cancelled")
        assert records and records[-1].error == "QueryCancelledError"

    def test_cancellation_stops_running_work(self):
        """A token tripped after admission stops the executing query."""
        token = CancellationToken()
        # The latency fault's injected sleep fires inside the backend's
        # execute — past admission, before the guarded evaluation — so
        # cancelling there proves running work observes the token.
        plan = FaultPlan(sleep=lambda _s: token.cancel("mid-flight abort"))
        plan.slow_on("execute", 0.01)
        with inject_faults("engine", plan):
            with XQuerySession() as session:
                session.add_document("a.xml", FIGURE1_SAMPLE)
                guard = QueryGuard(token=token, check_interval=1)
                with pytest.raises(QueryCancelledError, match="mid-flight"):
                    session.run(QUERY, guard=guard)
                assert session.admission.in_flight == 0

    def test_cancellation_never_falls_back(self, session):
        token = CancellationToken()
        token.cancel("abort")
        with pytest.raises(QueryCancelledError):
            session.run(QUERY, token=token,
                        fallback=("interpreter", "naive"))

    def test_overload_error_recorded_as_shed(self):
        config = AdmissionConfig(max_concurrency=1, max_queue_depth=0)
        with XQuerySession(admission=config) as tight:
            tight.add_document("a.xml", FIGURE1_SAMPLE)
            blocker = tight.admission.try_acquire()
            with pytest.raises(OverloadError) as exc:
                tight.run(QUERY)
            assert exc.value.retry_after is not None
            tight.admission.release(blocker)
            records = tight.recorder.records(outcome="shed")
            assert records and records[-1].error == "OverloadError"
            # Shed records are SLO-exempt: no burn was charged.
            assert tight.recorder.slo_status()[0]["violations"] == 0

    def test_health_reports_shedding(self):
        config = AdmissionConfig(max_concurrency=1, max_queue_depth=0)
        with XQuerySession(admission=config) as tight:
            tight.add_document("a.xml", FIGURE1_SAMPLE)
            assert tight.health()["status"] == "ok"
            blocker = tight.admission.try_acquire()
            with pytest.raises(OverloadError):
                tight.run(QUERY)
            health = tight.health()
            assert health["status"] == "shedding"
            assert health["admission"]["sheds_total"] == 1
            tight.admission.release(blocker)

    def test_brownout_forces_cheapest_backend(self, session):
        brownout = session.admission.brownout
        violating_record(session.recorder,
                         count=session.recorder.recent_window)
        brownout.evaluate(now=0.0)
        level = brownout.evaluate(now=brownout.config
                                  .brownout_dwell_seconds)
        assert level.force_backend == "engine"
        result = session.run(QUERY, backend="interpreter")
        assert result.backend == "engine"

    def test_brownout_sheds_batch_priority(self, session):
        brownout = session.admission.brownout
        violating_record(session.recorder,
                         count=session.recorder.recent_window)
        now = 0.0
        brownout.evaluate(now=now)
        while brownout.level.name != "shed-batch":
            now += brownout.config.brownout_dwell_seconds
            brownout.evaluate(now=now)
        with pytest.raises(OverloadError, match="brownout"):
            session.run(QUERY, priority=BATCH)
        session.run(QUERY, priority=INTERACTIVE)  # still served

    def test_close_drains_and_reopens(self, session):
        session.run(QUERY)
        session.close(drain_timeout=1.0)
        assert not session.admission.draining
        assert len(session.run(QUERY)) > 0  # usable after close


# -- the hammer ---------------------------------------------------------------


class TestOverloadHammer:
    def test_flood_at_4x_the_limit(self):
        """The tentpole end to end: flood, bound, shed, recover.

        16 batch queries against a limit of 2 with a queue bound of 2 —
        4× offered load at the admission queue alone — over a backend
        slowed by injected latency faults.  The queue bound must hold,
        rejects must carry retry-after hints, and every gauge must
        settle back to zero.
        """
        config = AdmissionConfig(max_concurrency=2, max_queue_depth=2)
        plan = FaultPlan(sleep=time.sleep).slow_on("execute", 0.05)
        with inject_faults("engine", plan):
            with XQuerySession(admission=config) as session:
                session.add_document("a.xml", FIGURE1_SAMPLE)
                results = session.run_many([QUERY] * 16, max_workers=8,
                                           return_errors=True)
        served = [r for r in results if not isinstance(r, BaseException)]
        sheds = [r for r in results if isinstance(r, OverloadError)]
        assert len(served) + len(sheds) == 16
        assert served, "some queries must be admitted"
        assert sheds, "flooding 4x capacity must shed"
        for shed in sheds:
            assert shed.retry_after is not None and shed.retry_after > 0
            assert shed.priority == BATCH
            # The bound held at shed time: depth never exceeds the config.
            assert shed.queue_depth <= config.max_queue_depth
        snapshot = session.admission.snapshot()
        assert snapshot["queue_depth"] == 0
        assert snapshot["in_flight"] == 0
        assert snapshot["sheds_total"] == len(sheds)
        metrics = session.metrics
        assert metrics.get("repro_admission_queue_depth").value() == 0
        assert metrics.get("repro_admission_inflight").value() == 0
        assert metrics.get("repro_session_pool_queued").value() == 0
        assert metrics.get("repro_session_pool_active").value() == 0

    def test_batch_deadline_cancels_queued_and_running(self):
        """A batch deadline stops slow work without leaking gauges."""
        config = AdmissionConfig(max_concurrency=1, max_queue_depth=64)
        plan = FaultPlan(sleep=time.sleep).slow_on("execute", 0.2)
        with inject_faults("engine", plan):
            with XQuerySession(admission=config) as session:
                session.add_document("a.xml", FIGURE1_SAMPLE)
                results = session.run_many([QUERY] * 8, max_workers=4,
                                           batch_deadline=0.3,
                                           return_errors=True)
        cancelled = [r for r in results
                     if isinstance(r, QueryCancelledError)]
        assert cancelled, "the batch deadline must cancel stragglers"
        for error in cancelled:
            assert "batch deadline" in str(error)
        # Cancelled queries released their admission slots and budgets.
        snapshot = session.admission.snapshot()
        assert snapshot["in_flight"] == 0
        assert snapshot["queue_depth"] == 0
        assert session.metrics.get("repro_session_pool_queued").value() == 0
        assert session.metrics.get("repro_session_pool_active").value() == 0

    def test_cancelled_queries_release_guard_budgets(self):
        """A shared caller token aborts the batch; budgets don't leak."""
        config = AdmissionConfig(max_concurrency=1, max_queue_depth=64)
        token = CancellationToken()
        plan = FaultPlan(sleep=time.sleep).slow_on("execute", 0.1)
        with inject_faults("engine", plan):
            with XQuerySession(admission=config) as session:
                session.add_document("a.xml", FIGURE1_SAMPLE)
                timer = threading.Timer(0.15, token.cancel, args=("abort",))
                timer.start()
                try:
                    results = session.run_many(
                        [QUERY] * 8, max_workers=4, budget=1_000_000,
                        token=token, return_errors=True)
                finally:
                    timer.cancel()
        cancelled = [r for r in results
                     if isinstance(r, QueryCancelledError)]
        assert cancelled
        snapshot = session.admission.snapshot()
        assert snapshot["in_flight"] == 0
        assert snapshot["queue_depth"] == 0
