"""Concurrent query serving: one session, many threads.

Covers the RWLock / ThreadLocalPool primitives, concurrent ``run`` across
every builtin backend, update-vs-query consistency (a racing update yields
the old or the new answer, never a mix), ``run_many`` semantics, and that
metric totals add up under contention.  The CI race-hunting job loops this
file with ``PYTHONDEVMODE=1``; keep individual tests fast.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.concurrency import RWLock, ThreadLocalPool
from repro.errors import DocumentNotFoundError, ReproError
from repro.session import XQuerySession

ALL_BACKENDS = ("engine", "interpreter", "naive", "sqlite")

DOC_OLD = "<site>" + "".join(f"<a>{i}</a>" for i in range(4)) + "</site>"
DOC_NEW = "<site>" + "".join(f"<b>{i}</b>" for i in range(6)) + "</site>"
QUERY_ALL = 'document("d.xml")/site'
QUERIES = (
    'document("d.xml")/site',
    'document("d.xml")//a',
    'for $x in document("d.xml")//a return <hit>{$x}</hit>',
)

#: Generous join timeout: a worker that has not finished by then is hung.
JOIN = 60.0


def run_threads(count, target):
    """Run ``target(index)`` on ``count`` threads; re-raise any failure."""
    errors: list[BaseException] = []

    def wrapped(index: int) -> None:
        try:
            target(index)
        except BaseException as error:  # noqa: BLE001 — reported below
            errors.append(error)

    threads = [threading.Thread(target=wrapped, args=(index,))
               for index in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(JOIN)
    assert not any(thread.is_alive() for thread in threads), "worker hung"
    if errors:
        raise errors[0]


class TestRWLock:
    def test_readers_share(self):
        lock = RWLock()
        inside = threading.Barrier(2, timeout=JOIN)

        def reader(_index: int) -> None:
            with lock.read_locked():
                inside.wait()  # both threads hold the read side at once

        run_threads(2, reader)

    def test_reentrant_read(self):
        lock = RWLock()
        with lock.read_locked():
            with lock.read_locked():
                assert lock.read_held

    def test_read_under_write(self):
        lock = RWLock()
        with lock.write_locked():
            with lock.read_locked():
                assert lock.write_held

    def test_write_is_exclusive(self):
        lock = RWLock()
        state = {"value": 0}

        def writer(_index: int) -> None:
            for _ in range(200):
                with lock.write_locked():
                    snapshot = state["value"]
                    state["value"] = snapshot + 1

        run_threads(4, writer)
        assert state["value"] == 800

    def test_upgrade_raises(self):
        lock = RWLock()
        with lock.read_locked():
            with pytest.raises(ReproError):
                lock.acquire_write()

    def test_write_reentrance_raises(self):
        lock = RWLock()
        with lock.write_locked():
            with pytest.raises(ReproError):
                lock.acquire_write()

    def test_writers_not_starved(self):
        """A pending writer gets in even while readers keep arriving."""
        lock = RWLock()
        wrote = threading.Event()

        def reader(_index: int) -> None:
            for _ in range(100):
                with lock.read_locked():
                    pass
                if wrote.is_set():
                    return

        def writer(_index: int) -> None:
            with lock.write_locked():
                wrote.set()

        run_threads_targets = [reader, reader, reader, writer]

        def dispatch(index: int) -> None:
            run_threads_targets[index](index)

        run_threads(4, dispatch)
        assert wrote.is_set()


class TestThreadLocalPool:
    def test_one_resource_per_thread(self):
        pool = ThreadLocalPool(lambda: object())
        seen: dict[int, object] = {}

        def worker(index: int) -> None:
            first = pool.get()
            assert pool.get() is first  # stable within a thread
            seen[index] = first

        run_threads(3, worker)
        assert len({id(resource) for resource in seen.values()}) == 3
        assert pool.size == 3

    def test_close_all_closes_everything(self):
        closed: list[int] = []
        pool = ThreadLocalPool(lambda: object(),
                               close=lambda r: closed.append(id(r)))
        run_threads(3, lambda _index: pool.get())
        pool.close_all()
        pool.close_all()  # idempotent
        assert len(closed) == 3
        assert pool.closed

    def test_get_after_close_raises(self):
        pool = ThreadLocalPool(lambda: object(), close=lambda r: None)
        pool.get()
        pool.close_all()
        with pytest.raises(ReproError):
            pool.get()


@pytest.fixture()
def session():
    with XQuerySession() as active:
        active.add_document("d.xml", DOC_OLD)
        yield active


class TestConcurrentRun:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_hammer_matches_serial(self, session, backend):
        expected = {query: session.run(query, backend=backend).to_xml()
                    for query in QUERIES}

        def worker(index: int) -> None:
            for query in QUERIES:
                result = session.run(query, backend=backend)
                assert result.to_xml() == expected[query]

        run_threads(6, worker)

    def test_mixed_backends_share_one_session(self, session):
        expected = session.run(QUERY_ALL).to_xml()

        def worker(index: int) -> None:
            backend = ALL_BACKENDS[index % len(ALL_BACKENDS)]
            assert session.run(QUERY_ALL,
                               backend=backend).to_xml() == expected

        run_threads(len(ALL_BACKENDS) * 2, worker)

    def test_query_metrics_add_up(self, session):
        before = session.metrics.get(
            "repro_session_queries_total").value(backend="engine")

        def worker(_index: int) -> None:
            for _ in range(5):
                session.run(QUERY_ALL, backend="engine")

        run_threads(4, worker)
        after = session.metrics.get(
            "repro_session_queries_total").value(backend="engine")
        assert after - before == 20


class TestUpdateConsistency:
    @pytest.mark.parametrize("backend", ["engine", "sqlite"])
    def test_replacement_racing_queries_is_atomic(self, session, backend):
        """A query racing a document swap sees old or new — never a mix."""
        old = session.run(QUERY_ALL, backend=backend).to_xml()
        stop = threading.Event()
        observed: set[str] = set()

        def reader(_index: int) -> None:
            while not stop.is_set():
                observed.add(session.run(QUERY_ALL, backend=backend).to_xml())

        def swapper(_index: int) -> None:
            try:
                for flip in range(6):
                    session.add_document(
                        "d.xml", DOC_NEW if flip % 2 == 0 else DOC_OLD)
            finally:
                stop.set()

        targets = [reader, reader, reader, swapper]
        run_threads(4, lambda index: targets[index](index))
        new = session.run(QUERY_ALL, backend=backend).to_xml()
        with XQuerySession() as reference:
            reference.add_document("d.xml", DOC_NEW)
            new_expected = reference.run(QUERY_ALL,
                                         backend=backend).to_xml()
        assert observed <= {old, new_expected}
        assert new == old  # six flips end on DOC_OLD

    def test_apply_update_racing_queries(self, session):
        """An in-place update is atomic with respect to running queries."""
        names = 'document("d.xml")//a'
        old = session.run(names, backend="sqlite").to_xml()
        updatable = session.updatable("d.xml")
        victim = next(row for row in updatable.encoded.tuples
                      if row[0] == "<a>")
        updated = updatable.delete_subtree(victim[1])
        stop = threading.Event()
        observed: set[str] = set()

        def reader(_index: int) -> None:
            while not stop.is_set():
                observed.add(session.run(names, backend="sqlite").to_xml())

        def updater(_index: int) -> None:
            try:
                session.apply_update("d.xml", updated)
            finally:
                stop.set()

        targets = [reader, reader, updater]
        run_threads(3, lambda index: targets[index](index))
        new = session.run(names, backend="sqlite").to_xml()
        assert new != old
        assert observed <= {old, new}

    def test_invalidations_count_each_backend_once(self, session):
        for backend in ALL_BACKENDS:
            session.run(QUERY_ALL, backend=backend)
        invalidations = session.metrics.get(
            "repro_session_invalidations_total")
        deltas = session.metrics.get("repro_session_updates_applied_total")

        def delta_total() -> float:
            return sum(value for _, value in deltas.samples())

        before = invalidations.value()
        before_deltas = delta_total()
        session.apply_update("d.xml",
                             session.updatable("d.xml"))
        # Every live backend is accounted for exactly once: either it
        # absorbed the update in place or it was invalidated.
        absorbed = delta_total() - before_deltas
        invalidated = invalidations.value() - before
        assert absorbed + invalidated == len(ALL_BACKENDS)
        assert absorbed >= 1  # at least the engine backend adopts it

    @pytest.mark.parametrize("backend", ("engine", "sqlite"))
    def test_delta_hammer_readers_never_see_half_a_delta(self, backend):
        """Mixed read/write load over the incremental commit path.

        An updater commits a chain of single-subtree inserts while
        readers hammer the same document.  Every observed answer must be
        one of the committed snapshots (never a blend of two), and each
        reader's sequence of snapshots must be monotone — the write lock
        makes commits linearizable, so a reader can never travel back to
        an older snapshot after seeing a newer one.
        """
        from repro.xml.forest import element, text

        steps = 6
        with XQuerySession() as session:
            session.add_document("d.xml", DOC_OLD)
            query = 'document("d.xml")//a'
            session.run(query, backend=backend)
            snapshots = [session.run(query, backend=backend).to_xml()]
            updates = []
            doc = session.updatable("d.xml")
            with XQuerySession() as reference:
                reference.add_document("d.xml", DOC_OLD)
                for step in range(steps):
                    site = next(row for row in doc.encoded.tuples
                                if row[0] == "<site>")
                    doc = doc.insert_child(
                        site[1], 0, [element("a", [text(f"n{step}")])])
                    updates.append(doc)
                    reference.add_document("d.xml", doc.to_forest())
                    snapshots.append(
                        reference.run(query, backend=backend).to_xml())
            assert len(set(snapshots)) == steps + 1
            rank = {xml: index for index, xml in enumerate(snapshots)}
            stop = threading.Event()
            histories: dict[int, list[str]] = {}

            def reader(index: int) -> None:
                history: list[str] = []
                while not stop.is_set():
                    history.append(
                        session.run(query, backend=backend).to_xml())
                histories[index] = history

            def updater(index: int) -> None:
                try:
                    for updated in updates:
                        session.apply_update("d.xml", updated)
                        time.sleep(0.005)  # let readers overlap commits
                finally:
                    stop.set()
                histories[index] = []

            targets = [reader, reader, reader, updater]
            run_threads(4, lambda index: targets[index](index))
            final = session.run(query, backend=backend).to_xml()
            assert final == snapshots[-1]
            for history in histories.values():
                ranks = [rank[xml] for xml in history]  # KeyError = torn read
                assert ranks == sorted(ranks)

    def test_memo_carrying_readers_race_update_commits(self):
        """Readers against commits that carry memo entries over.

        Four readers loop XMark Q1 / Q17 / Q13 on the engine while one
        writer alternates inserting an item (Q13's region) or a person
        (Q17's) with deleting it again — each commit one incremental
        delta, so the engine's new memo adopts every entry the delta
        cannot reach.  Every answer must be the interpreter's on one of
        the snapshots, never a mix of two.
        """
        from repro import run_xquery
        from repro.xmark.generator import generate_xml
        from repro.xmark.queries import DOCUMENT, EXTRA_QUERIES, QUERIES
        from repro.xml.forest import element, text
        from repro.xquery.lowering import document_variable

        texts = {**QUERIES, **EXTRA_QUERIES}
        queries = [texts["Q1"], texts["Q17"], texts["Q13"]]
        inserts = (("<australia>", element("item", [
                        element("location", [text("Utopia")]),
                        element("name", [text("new item")])])),
                   ("<people>", element("person", [
                        element("name", [text("new person")])])))
        with XQuerySession() as session:
            session.add_document(DOCUMENT, generate_xml(0.002))
            for query in queries:
                session.run(query)
            session.apply_update(DOCUMENT, session.updatable(DOCUMENT))
            base = session.updatable(DOCUMENT)
            lefts = {label: next(row[1] for row in base.encoded.tuples
                                 if row[0] == label) for label, _ in inserts}
            states = [base] + [base.insert_child(lefts[label], 0, [tree])
                               for label, tree in inserts]
            allowed = [{run_xquery(query, {DOCUMENT: state.to_forest()},
                                   backend="interpreter").to_xml()
                        for state in states} for query in queries]
            assert all(len(answers) >= 2 for answers in allowed[1:])
            stop = threading.Event()

            def reader(index: int) -> None:
                turn = index
                while not stop.is_set():
                    turn += 1
                    which = turn % len(queries)
                    answer = session.run(queries[which]).to_xml()
                    assert answer in allowed[which], (which, "torn read")

            def writer() -> None:
                try:
                    for cycle in range(12):
                        label, tree = inserts[cycle % 2]
                        doc = session.updatable(DOCUMENT)
                        inserted = doc.insert_child(lefts[label], 0, [tree])
                        session.apply_update(DOCUMENT, inserted)
                        time.sleep(0.003)  # let readers overlap commits
                        assert not inserted.last_stats.relabeled
                        session.apply_update(DOCUMENT, inserted.delete_subtree(
                            inserted.last_delta.inserted[0][1]))
                        time.sleep(0.003)
                finally:
                    stop.set()

            run_threads(5, lambda index: (
                writer() if index == 4 else reader(index)))
            for which, query in enumerate(queries):
                assert session.run(query).to_xml() == run_xquery(
                    query, {DOCUMENT: base.to_forest()},
                    backend="interpreter").to_xml()
            memo = session.backend_instance("engine").memo(
                document_variable(DOCUMENT))
            assert memo.carried > 0, memo

    def test_full_reencode_invalidates_each_backend_once(self, session):
        for backend in ALL_BACKENDS:
            session.run(QUERY_ALL, backend=backend)
        counter = session.metrics.get("repro_session_invalidations_total")
        before = counter.value()
        session.apply_update("d.xml", session.updatable("d.xml"),
                             incremental=False)
        assert counter.value() - before == len(ALL_BACKENDS)


class TestRunMany:
    def test_results_in_input_order(self, session):
        batch = list(QUERIES) * 3
        expected = [session.run(query).to_xml() for query in batch]
        results = session.run_many(batch, max_workers=4)
        assert [result.to_xml() for result in results] == expected

    def test_empty_batch(self, session):
        assert session.run_many([]) == []

    def test_matches_serial_on_relational_backends(self, session):
        serial = [session.run(query, backend="sqlite").to_xml()
                  for query in QUERIES]
        batch = session.run_many(QUERIES, max_workers=3, backend="sqlite")
        assert [result.to_xml() for result in batch] == serial

    def test_first_error_in_input_order_wins(self, session):
        batch = [QUERY_ALL,
                 'document("missing.xml")/x',  # raises DocumentNotFound
                 QUERY_ALL]
        with pytest.raises(DocumentNotFoundError):
            session.run_many(batch, max_workers=3)

    def test_return_errors_keeps_slots(self, session):
        batch = [QUERY_ALL, 'document("missing.xml")/x', QUERY_ALL]
        results = session.run_many(batch, max_workers=3, return_errors=True)
        assert len(results) == 3
        assert isinstance(results[1], DocumentNotFoundError)
        assert results[0].to_xml() == results[2].to_xml()

    def test_pool_gauges_settle_to_zero(self, session):
        session.run_many(list(QUERIES) * 2, max_workers=2)
        assert session.metrics.get(
            "repro_session_pool_queued").value() == 0
        assert session.metrics.get(
            "repro_session_pool_active").value() == 0
        assert session.metrics.get(
            "repro_session_pool_workers").value() == 2

    def test_pool_gauges_settle_when_workers_raise(self, session):
        # Every query fails: the queued→active hand-off and the active
        # decrement live in ``finally``, so raising workers must not
        # strand either gauge.
        batch = ['document("missing.xml")/x'] * 6
        results = session.run_many(batch, max_workers=3, return_errors=True)
        assert all(isinstance(result, DocumentNotFoundError)
                   for result in results)
        assert session.metrics.get(
            "repro_session_pool_queued").value() == 0
        assert session.metrics.get(
            "repro_session_pool_active").value() == 0

    def test_pool_gauges_settle_when_batch_cancelled(self, session):
        # A batch token cancelled mid-batch: queued queries still pass
        # through ``work()`` and shed at admission, so neither gauge is
        # stranded.
        from repro.errors import QueryCancelledError
        from repro.resilience import CancellationToken
        from tests.faults import FaultPlan, inject_faults

        token = CancellationToken()
        plan = FaultPlan(sleep=time.sleep).slow_on("execute", 0.2)
        with inject_faults("engine", plan):
            timer = threading.Timer(0.1, token.cancel, args=("abort",))
            timer.start()
            try:
                results = session.run_many(list(QUERIES) * 4, max_workers=2,
                                           token=token, return_errors=True)
            finally:
                timer.cancel()
        assert any(isinstance(result, QueryCancelledError)
                   for result in results)
        assert session.metrics.get(
            "repro_session_pool_queued").value() == 0
        assert session.metrics.get(
            "repro_session_pool_active").value() == 0

    def test_pool_persists_across_batches(self, session):
        session.run_many(QUERIES, max_workers=2)
        first = session._executor
        session.run_many(QUERIES, max_workers=2)
        assert session._executor is first  # warm pool reused
        session.run_many(QUERIES, max_workers=3)
        assert session._executor is not first  # resized → rebuilt

    def test_growing_the_pool_refuses_no_racing_batch(self):
        """Eight threads on a fresh session each run batches with one to
        eight workers, for a second: the pool is replaced while other
        batches submit to it, and none of them may reach the replaced
        pool ("cannot schedule new futures after shutdown")."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            stop = time.monotonic() + 1.0
            while time.monotonic() < stop:
                with XQuerySession() as session:
                    session.add_document("d.xml", DOC_OLD)
                    expected = session.run(QUERY_ALL).to_xml()

                    def grow(_index: int) -> None:
                        for workers in range(1, 9):
                            results = session.run_many(
                                [QUERY_ALL] * 4, max_workers=workers,
                                tier="thread")
                            assert [result.to_xml() for result in results] \
                                == [expected] * 4

                    run_threads(8, grow)
        finally:
            sys.setswitchinterval(interval)

    def test_usable_after_close(self, session):
        session.run_many(QUERIES, max_workers=2)
        session.close()
        results = session.run_many(QUERIES, max_workers=2)
        assert len(results) == len(QUERIES)

    def test_traced_batch_has_span_per_query(self, session):
        results = session.run_many(QUERIES, max_workers=2, trace=True)
        tracer = results[0].tracer
        assert tracer is results[1].tracer  # one tracer for the batch
        roots = [root for root in tracer.roots if root.name == "batch.query"]
        assert len(roots) == len(QUERIES)
        assert sorted(root.attributes["index"] for root in roots) == [0, 1, 2]
        for result in results:
            assert result.trace is not None
            assert result.trace.name == "query"

    def test_guards_are_per_query(self, session):
        # A generous per-query budget: every query fits individually, so
        # a (buggy) shared guard accumulating across queries would trip.
        results = session.run_many(list(QUERIES) * 4, max_workers=4,
                                   budget=100_000)
        assert len(results) == 12

    def test_fallback_composes(self):
        from tests.faults import FaultPlan, inject_faults

        plan = FaultPlan().fail_on("execute", calls=(1, 2))
        with inject_faults("sqlite", plan):
            with XQuerySession() as faulty:
                faulty.add_document("d.xml", DOC_OLD)
                results = faulty.run_many(
                    [QUERY_ALL, QUERY_ALL], max_workers=2,
                    backend="sqlite", fallback=("engine",))
        for result in results:
            assert result.backend == "engine"
            assert result.degraded


class TestBackendClose:
    @pytest.mark.parametrize("backend", ["sqlite"])
    def test_close_releases_every_threads_connection(self, session, backend):
        run_threads(3, lambda _index: session.run(QUERY_ALL, backend=backend))
        target = session.backend_instance(backend)
        pool = target._pool
        assert pool.size >= 3
        target.close()
        target.close()  # idempotent
        assert pool.closed
        with pytest.raises(ReproError):
            target.execute(None)  # type: ignore[arg-type]

    def test_concurrent_close_is_safe(self, session):
        session.run(QUERY_ALL, backend="sqlite")
        target = session.backend_instance("sqlite")
        run_threads(4, lambda _index: target.close())
        assert target._pool.closed
