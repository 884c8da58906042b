"""The process tier: shared-memory columns, the worker pool, session wiring.

Every pool here is tiny (1–2 workers) and short-lived; the container
running CI may have a single core, so these tests assert *correctness*
of the process tier — result equality, crash recovery, cancellation,
segment hygiene — never throughput (perfbench's ``batch_run_many``
workload owns that).
"""

from __future__ import annotations

import asyncio
import os
import pickle
import subprocess
import sys
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.concurrency.procpool import ProcessQueryPool
from repro.engine.columns import (
    IntervalColumns,
    SharedColumns,
    export_columns,
)
from repro.engine.evaluator import DIEngine
from repro.errors import (
    QueryCancelledError,
    QueryTimeoutError,
    ResourceBudgetError,
    TransientBackendError,
    WorkerDiedError,
)
from repro.resilience import CancellationToken, QueryGuard, ResourceBudget
from repro.session import XQuerySession
from repro.xmark.generator import generate_document

NAMES = 'document("auction.xml")/site/people/person/name'
COUNT = 'count(document("auction.xml")/site/people/person)'

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


def _encoding(document):
    from repro.xquery.lowering import document_forest

    return DIEngine.prepare_document(document_forest((document,)))


def _doc_var(query: str) -> str:
    from repro.api import compile_xquery

    return next(iter(compile_xquery(query).documents.values()))


# -- shared-memory columns across a real process boundary ----------------------

def _round_trip_child(conn) -> None:
    """Echo worker: attach whatever descriptor arrives, ship the tuples
    back by value.  Top-level so spawn can import it."""
    while True:
        try:
            descriptor = conn.recv()
        except EOFError:
            break
        if descriptor is None:
            break
        attachment = descriptor.attach()
        try:
            conn.send(attachment.columns.tuples())
        finally:
            attachment.detach()
    conn.close()


@pytest.fixture(scope="module")
def echo_child():
    """One long-lived child process all hypothesis examples go through."""
    import multiprocessing

    context = multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods()
        else "spawn")
    parent, child = context.Pipe()
    process = context.Process(target=_round_trip_child, args=(child,),
                              daemon=True)
    process.start()
    child.close()

    def round_trip(columns: IntervalColumns) -> list:
        descriptor, shm = export_columns(columns)
        try:
            parent.send(descriptor)
            return parent.recv()
        finally:
            shm.close()
            shm.unlink()

    yield round_trip
    parent.send(None)
    process.join(timeout=5)
    parent.close()


#: Rows with endpoints up to the top of the int64 range and labels of
#: every class that may contain NUL or be empty: the segment's label table
#: is delimited by lengths, so all of them — and no rows at all — go
#: through shared memory.
_rows = st.lists(
    st.tuples(
        st.text(alphabet="ab<>/@ xyz\x00é", min_size=0, max_size=6),
        st.integers(min_value=0, max_value=2 ** 62 - 1),
        st.integers(min_value=0, max_value=2 ** 62 - 1),
    ),
    max_size=12,
)


class TestColumnsAcrossProcesses:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rows=_rows)
    def test_child_process_sees_equal_relation(self, echo_child, rows):
        """A relation attached in a child equals the parent's, row for
        row."""
        columns = IntervalColumns.from_tuples(rows, sort=True)
        assert echo_child(columns) == columns.tuples()

    def test_nul_label_goes_through_shared_memory(self, echo_child):
        rows = [("a\x00b", 0, 1), ("", 2, 3), ("\x00", 4, 5), ("a", 6, 7)]
        assert echo_child(IntervalColumns.from_tuples(rows)) == rows

    def test_attached_view_is_zero_copy(self):
        columns = IntervalColumns.from_tuples(
            [("<a>", 0, 3), ("x", 1, 2)])
        descriptor, shm = export_columns(columns)
        try:
            attachment = SharedColumns(
                descriptor.name, descriptor.count, descriptor.labels,
                descriptor.label_bytes).attach()
            try:
                # Arrays over the segment's bytes, not copies of them.
                assert all(
                    not getattr(attachment.columns, name).flags.owndata
                    for name in "lrdc")
                assert attachment.columns.tuples() == columns.tuples()
            finally:
                attachment.detach()
        finally:
            shm.close()
            shm.unlink()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.filterwarnings("ignore::DeprecationWarning")  # fork + threads
def test_fork_while_another_thread_interns():
    """``fork`` is the default start method and a pool respawns workers at
    any time: a child forked while another thread is inside the label
    dictionary must inherit a whole table and a lock it can take."""
    import signal
    import uuid

    from repro.engine import columns

    tag = uuid.uuid4().hex[:8]
    stop = threading.Event()

    def intern_forever() -> None:
        labels = [f"<{tag}-{i}>" for i in range(200)]
        while not stop.is_set():
            columns.label_codes(labels)
            with columns._names_lock:  # forgotten again: the table stays small
                for label in labels:
                    del columns._label_of[columns._codes.pop(label)]

    def child() -> None:  # never returns
        signal.alarm(5)  # a deadlock on an inherited lock ends here
        try:
            inverse = (len(columns._codes) == len(columns._label_of)
                       and all(columns._label_of.get(code) == label
                               for label, code in columns._codes.items()))
            fresh = columns.name_code(f"<{tag}-child>")
            os._exit(0 if inverse and columns._label_of[fresh]
                     == f"<{tag}-child>" else 1)
        finally:
            os._exit(2)

    interner = threading.Thread(target=intern_forever, daemon=True)
    interner.start()
    statuses = []
    try:
        for _ in range(30):
            pid = os.fork()
            if pid == 0:
                child()
            statuses.append(os.waitpid(pid, 0)[1])
            if statuses[-1]:
                break
    finally:
        stop.set()
        interner.join(timeout=10)
    assert not interner.is_alive()
    assert statuses == [0] * 30  # 14: SIGALRM ended a deadlocked child


# -- the pool itself -----------------------------------------------------------

@pytest.fixture(scope="module")
def tiny_encoding():
    return _encoding(generate_document(0.0005, seed=42))


@pytest.fixture
def pool(tiny_encoding):
    active = ProcessQueryPool(workers=2)
    active.register_document(_doc_var(NAMES), tiny_encoding)
    yield active
    active.close()


def _reference(query: str, encoding) -> tuple:
    from repro.api import compile_xquery
    from repro.backends.base import ExecutionOptions
    from repro.backends.registry import create_backend

    backend = create_backend("engine")
    try:
        compiled = compile_xquery(query)
        backend.adopt_encoded(_doc_var(query), encoding)
        return backend.execute(compiled, ExecutionOptions())
    finally:
        backend.close()


class TestProcessQueryPool:
    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            ProcessQueryPool(workers=0)
        with pytest.raises(ValueError, match="positive"):
            ProcessQueryPool(workers=-2)

    def test_execute_matches_in_process_engine(self, pool, tiny_encoding):
        forest, worker = pool.execute(NAMES)
        assert worker.startswith("procpool-")
        assert len(forest) > 0  # non-vacuous equality below
        assert forest == _reference(NAMES, tiny_encoding)

    def test_document_replacement_propagates(self, pool):
        var = _doc_var(COUNT)
        before, _ = pool.execute(COUNT)
        replacement = _encoding(generate_document(0.001, seed=7))
        pool.register_document(var, replacement)
        after, _ = pool.execute(COUNT)
        assert after == _reference(COUNT, replacement)
        assert after != before

    def test_crashed_worker_respawns(self, tiny_encoding):
        """One killed worker is absorbed: the pool respawns it, resubmits
        the query to the fresh process, and the first call answers."""
        with ProcessQueryPool(workers=1) as pool:
            pool.register_document(_doc_var(NAMES), tiny_encoding)
            dead = pool._workers[0]
            dead.process.kill()
            dead.process.join(timeout=5)
            forest, worker = pool.execute(NAMES)
            assert forest == _reference(NAMES, tiny_encoding)
            assert worker == "procpool-0"
            assert pool._workers[0] is not dead and pool._workers[0].alive

    def test_crashing_twice_in_a_row_surfaces_worker_died(
            self, tiny_encoding, monkeypatch):
        """A query whose worker dies again after the resubmit surfaces as
        WorkerDiedError, with a fresh worker left for the next caller."""
        import multiprocessing

        from repro.concurrency import procpool

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("the crash is patched into forked workers")
        # Every worker forked while this holds dies on its first query.
        monkeypatch.setattr(procpool._WorkerState, "_query",
                            lambda _state, _spec: os._exit(3))
        with ProcessQueryPool(workers=1, start_method="fork") as pool:
            pool.register_document(_doc_var(NAMES), tiny_encoding)
            spawned = []
            spawn = pool._spawn
            pool._spawn = lambda index: spawned.append(index) or spawn(index)
            with pytest.raises(WorkerDiedError) as exc:
                pool.execute(NAMES)
            assert isinstance(exc.value, TransientBackendError)
            assert spawned == [0, 0]  # one respawn per death
            monkeypatch.undo()
            # The worker left behind was forked under the patch: its death
            # is absorbed, and the resubmit reaches a healthy process.
            forest, _worker = pool.execute(NAMES)
            assert forest == _reference(NAMES, tiny_encoding)
            assert spawned == [0, 0, 0]

    @pytest.mark.parametrize("expiry", ["deadline", "cancel"])
    def test_crashed_worker_is_not_resubmitted_past_the_guard(
            self, tiny_encoding, expiry):
        """A deadline that passes or a cancel that comes while the worker
        dies wins over the resubmit."""
        now = [0.0]
        token = CancellationToken()
        guard = QueryGuard(deadline=1.0, clock=lambda: now[0],
                           token=token).start()
        with ProcessQueryPool(workers=1) as pool:
            pool.register_document(_doc_var(NAMES), tiny_encoding)
            sent = []
            query = pool._query

            def dying_slowly(*args):
                sent.append(args[1])
                try:
                    return query(*args)
                finally:
                    if expiry == "deadline":
                        now[0] = 2.0
                    else:
                        token.cancel("caller gone")

            pool._query = dying_slowly
            dead = pool._workers[0]
            dead.process.kill()
            dead.process.join(timeout=5)
            with pytest.raises(QueryTimeoutError if expiry == "deadline"
                               else QueryCancelledError):
                pool.execute(NAMES, guard=guard)
            assert sent == [NAMES]
            del pool._query
            forest, _worker = pool.execute(NAMES)  # respawned, healthy
            assert forest == _reference(NAMES, tiny_encoding)

    def test_cancellation_kills_the_worker(self, pool):
        token = CancellationToken()
        pool._acquire(0)
        worker = pool._workers[0]
        try:
            worker.send(("sleep", 30.0))  # test hook: unresponsive worker
            timer = threading.Timer(0.2, token.cancel, args=("user gone",))
            timer.start()
            try:
                with pytest.raises(QueryCancelledError, match="user gone"):
                    worker.wait(token=token)
            finally:
                timer.cancel()
            assert not worker.alive
            pool._respawn(0)
        finally:
            pool._release(0)
        forest, _ = pool.execute(NAMES)  # the pool is healthy again
        assert len(forest) > 0

    def test_hung_worker_killed_after_grace(self, pool):
        pool._acquire(0)
        worker = pool._workers[0]
        try:
            worker.send(("sleep", 30.0))
            started = time.monotonic()
            with pytest.raises(QueryTimeoutError) as exc:
                worker.wait(deadline_at=time.monotonic() + 0.3,
                            deadline=0.1)
            assert time.monotonic() - started < 5.0
            assert exc.value.backend == "procpool"
            pool._respawn(0)
        finally:
            pool._release(0)

    def test_worker_side_budget_error_is_typed(self, pool):
        # The worker raises inside its own process; the parent must see
        # the same typed exception, not a pickled stand-in.
        guard = QueryGuard(budget=ResourceBudget(max_tuples=1))
        with pytest.raises(ResourceBudgetError) as exc:
            pool.execute(NAMES, guard=guard)
        assert exc.value.resource == "tuples"

    def test_segments_unlinked_on_close(self, tiny_encoding):
        from multiprocessing.shared_memory import SharedMemory

        pool = ProcessQueryPool(workers=2)
        pool.register_document(_doc_var(NAMES), tiny_encoding)
        names = pool.segment_names
        assert names, "expected a live segment for the registered document"
        pool.close()
        assert pool.segment_names == ()
        for name in names:
            with pytest.raises(FileNotFoundError):
                SharedMemory(name=name)

    def test_unregister_unlinks_segments(self, pool):
        from multiprocessing.shared_memory import SharedMemory

        var = _doc_var(NAMES)
        names = pool.segment_names
        assert names
        pool.unregister_document(var)
        assert pool.segment_names == ()
        for name in names:
            with pytest.raises(FileNotFoundError):
                SharedMemory(name=name)

    def test_spawn_start_method(self, tiny_encoding):
        with ProcessQueryPool(workers=1, start_method="spawn") as pool:
            assert pool.start_method == "spawn"
            pool.register_document(_doc_var(NAMES), tiny_encoding)
            forest, _ = pool.execute(NAMES)
            assert forest == _reference(NAMES, tiny_encoding)

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_name_codes_agree_with_workers(self, start_method):
        """Names the parent interns *after* the workers exist — and after
        a worker interned a name of its own — still select the same rows
        there: shipped codes are adopted, a clashing one is remapped."""
        import multiprocessing
        import uuid

        from repro.xml.text_parser import parse_forest

        if start_method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"{start_method} unavailable")
        tag = "n" + uuid.uuid4().hex[:8]
        first = f'<r><{tag}a>x</{tag}a></r>'
        second = (f'<r><{tag}b><{tag}c k="1">y</{tag}c></{tag}b>'
                  f'<{tag}c>z</{tag}c></r>')
        constructing = (f'for $x in document("auction.xml")/r/{tag}a '
                        f'return <{tag}worker>{{$x}}</{tag}worker>')
        descendants = f'document("auction.xml")//{tag}c'
        var = _doc_var(descendants)
        with ProcessQueryPool(workers=1, start_method=start_method) as pool:
            encoding = _encoding(parse_forest(first)[0])
            pool.register_document(var, encoding)
            # The worker interns <…worker> by itself: the next code the
            # parent hands out is already taken over there.
            forest, _ = pool.execute(constructing)
            assert forest == _reference(constructing, encoding)
            encoding = _encoding(parse_forest(second)[0])
            pool.register_document(var, encoding)
            forest, _ = pool.execute(descendants)
            assert len(forest) == 2
            assert forest == _reference(descendants, encoding)

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_value_codes_agree_with_workers(self, start_method):
        """Text values are numbered like names.  A worker interns a
        ``count()`` result by itself; the code it took is the one the
        parent gives the next new document value (under ``fork`` both
        dictionaries stood at the same number).  The attached relation
        must not take the two for equal — a literal the worker numbers
        itself selects the rows it names, no others — and still joins on
        values."""
        import multiprocessing
        import uuid

        from repro.engine.columns import name_code
        from repro.xml.forest import Node
        from repro.xml.text_parser import parse_forest

        if start_method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"{start_method} unavailable")
        tag = "v" + uuid.uuid4().hex[:8]
        total = next(n for n in range(1000, 9000)
                     if name_code(str(n), intern=False) is None)
        counting = 'count(document("auction.xml")/r/i)'
        join = ('for $x in document("auction.xml")/r/a '
                'for $y in document("auction.xml")/r/b '
                'where $x/k = $y/k return <m>{$y/k/text()}</m>')
        literal = (f'for $k in document("auction.xml")//k '
                   f'where $k/text() = "{total}" return $k')
        var = _doc_var(join)
        # Every *name* is known before the workers exist; the values of
        # the second document are the first labels interned after it.
        first = ("<r><a><k>seed</k></a><b><k>seed</k></b>"
                 + "<i/>" * total + "</r>")
        second = ("<r>"
                  + "".join(f"<a><k>{tag}{i}</k></a>" for i in range(40))
                  + f"<b><k>{total}</k></b>"
                  + "".join(f"<b><k>{tag}{i}</k></b>" for i in range(10))
                  + "</r>")
        encoding = _encoding(parse_forest(first)[0])
        with ProcessQueryPool(workers=1, start_method=start_method) as pool:
            pool.register_document(var, encoding)
            forest, _ = pool.execute(counting)
            assert forest == (Node(str(total)),)
            assert name_code(str(total), intern=False) is None  # theirs only
            encoding = _encoding(parse_forest(second)[0])
            pool.register_document(var, encoding)
            forest, _ = pool.execute(join)
            assert forest == _reference(join, encoding)
            assert forest == tuple(Node("<m>", (Node(f"{tag}{i}"),))
                                   for i in range(10))
            forest, _ = pool.execute(literal)
            assert forest == (Node("<k>", (Node(str(total)),)),)

    def test_nul_labelled_and_empty_documents_are_shared(self, pool):
        """There is one way to a worker: a NUL in a label, or no rows at
        all, still travels as a segment every worker attaches."""
        segments_before = pool.segment_names
        for var, rows in (("$nul", [("<a>", 0, 3), ("x\x00y", 1, 2)]),
                          ("$none", [])):
            pool.register_document(
                var, (IntervalColumns.from_tuples(rows), 4))
        assert len(pool.segment_names) == len(segments_before) + 2
        forest, _ = pool.execute(NAMES)  # the workers are still answering
        assert len(forest) > 1
        for var in ("$nul", "$none"):
            pool.unregister_document(var)
        assert pool.segment_names == segments_before


# -- session wiring ------------------------------------------------------------

def test_worker_reply_is_flat_lists(tiny_encoding, nodes_built):
    """What crosses the pipe: the result's distinct labels with their
    codes, and each row's position among them, depth and subtree end as
    int32 bytes — no tree, no NumPy array (a view would pin the worker's
    attached segment)."""
    from repro.concurrency.procpool import _WorkerState

    state = _WorkerState()
    descriptor, shm = export_columns(tiny_encoding[0])
    try:
        state.adopt(_doc_var(NAMES), (descriptor, tiny_encoding[1]))
        status, forest = state.handle(
            ("query", {"query": NAMES, "strategy": "msj"}))
    finally:
        state.close()
        shm.close()
        shm.unlink()
    assert status == "ok" and len(forest) > 1
    assert {type(label) for label in forest.labels} == {str}
    assert {type(depth) for depth in forest.depths} == {int}
    wire = pickle.dumps((status, forest))
    assert b"numpy" not in wire
    assert pickle.loads(wire) == (status, forest)
    assert nodes_built() == 0
    assert forest == _reference(NAMES, tiny_encoding).trees()


@pytest.mark.parametrize("start_method", ["fork", "spawn"])
def test_reply_labels_the_parent_never_interned(start_method):
    """A worker-built tag and ``count()`` value ride back in the reply's
    label table.  Reading the answer adopts nothing; serializing it
    adopts each distinct label once — remapping a code the parent gave
    to a label of its own since the fork — and the XML is the in-process
    engine's, byte for byte."""
    import multiprocessing
    import uuid

    from repro.engine.columns import name_code
    from repro.xml.forest import Node
    from repro.xml.serializer import forest_to_xml
    from repro.xml.text_parser import parse_forest

    if start_method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"{start_method} unavailable")
    tag = "w" + uuid.uuid4().hex[:8]
    total = next(n for n in range(1000, 9000)
                 if name_code(str(n), intern=False) is None)
    query = f'<{tag}>{{count(document("auction.xml")/r/i)}}</{tag}>'
    encoding = _encoding(parse_forest("<r>" + "<i/>" * total + "</r>")[0])
    with ProcessQueryPool(workers=1, start_method=start_method) as pool:
        pool.register_document(_doc_var(query), encoding)
        # Under fork, the code the worker is about to give <tag>.
        name_code(f"<{tag}-parent>")
        forest, _ = pool.execute(query)
        assert forest == (Node(f"<{tag}>", (Node(str(total)),)),)
        assert name_code(f"<{tag}>", intern=False) is None
        assert name_code(str(total), intern=False) is None
        xml = forest_to_xml(forest)
    assert name_code(f"<{tag}>", intern=False) is not None
    assert xml == f"<{tag}>{total}</{tag}>"
    assert xml == forest_to_xml(_reference(query, encoding))


_RAISING_SIGTERM_SCRIPT = """
import signal

class GracefulShutdown(BaseException):
    pass

def on_sigterm(signum, frame):
    raise GracefulShutdown()

signal.signal(signal.SIGTERM, on_sigterm)

from repro.session import XQuerySession

QUERY = 'document("auction.xml")/site/people/person/name'
with XQuerySession() as session:
    session.add_xmark_document("auction.xml", 0.0005)
    results = session.run_many([QUERY] * 4, tier="process")
    assert all(len(result) for result in results)
print("closed")
"""


def test_workers_finish_teardown_under_a_raising_sigterm_handler():
    """A forked worker inherits the parent's SIGTERM handler; the CLI's
    and the benchmark runner's raise.  ``stop()`` used to terminate the
    worker the moment it acknowledged, unwinding it mid-teardown — the
    attached segments were then closed by ``__del__`` with views alive
    (``BufferError``, printed as ``Exception ignored``)."""
    env = dict(os.environ, REPRO_POOL_WORKERS="2")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, ["src", env.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, "-c", _RAISING_SIGTERM_SCRIPT],
        cwd=os.path.dirname(os.path.dirname(__file__)),
        capture_output=True, text=True, env=env, timeout=120)
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "closed"
    for symptom in ("Exception ignored", "BufferError", "Traceback"):
        assert symptom not in completed.stderr, completed.stderr


def test_worker_compiled_cache_is_bounded():
    """The worker's compiled-query cache shares the session's LRU bound."""
    from repro.compiler.cache import COMPILED_CACHE_SIZE
    from repro.concurrency.procpool import _WorkerState

    state = _WorkerState()
    try:
        for extra in range(COMPILED_CACHE_SIZE + 20):
            state._compile(COUNT + " " * extra)
        assert len(state._compiled) == COMPILED_CACHE_SIZE
        assert state._compile(COUNT) is state._compile(COUNT)
    finally:
        state.close()


@pytest.fixture
def session(monkeypatch):
    monkeypatch.setenv("REPRO_POOL_WORKERS", "2")
    with XQuerySession(slow_seconds=0.0) as active:
        active.add_xmark_document("auction.xml", 0.0005)
        yield active


class TestSessionProcessTier:
    def test_process_tier_matches_thread_tier(self, session):
        batch = [NAMES, COUNT] * 2
        threaded = session.run_many(batch, tier="thread")
        processed = session.run_many(batch, tier="process")
        assert [r.to_xml() for r in processed] \
            == [r.to_xml() for r in threaded]
        assert all(r.backend == "procpool" for r in processed)

    def test_flight_recorder_attributes_worker(self, session):
        session.run_many([NAMES] * 2, tier="process")
        records = [r for r in session.recorder.records()
                   if r.backend == "procpool"]
        assert records
        assert all(r.worker.startswith("procpool-") for r in records)
        assert "worker" in records[-1].to_dict()

    def test_thread_tier_never_attributes_worker(self, session):
        session.run(NAMES)
        record = session.recorder.records()[-1]
        assert record.backend == "engine" and record.worker == ""

    def test_run_async_matches_run(self, session):
        expected = session.run(NAMES).to_xml()
        result = asyncio.run(session.run_async(NAMES))
        assert result.to_xml() == expected

    def test_process_tier_rejects_incompatible_backend(self, session):
        with pytest.raises(ValueError, match="promoted"):
            session.run_many([NAMES] * 2, tier="process", backend="sqlite")

    def test_unknown_tier_rejected(self, session):
        with pytest.raises(ValueError, match="tier"):
            session.run_many([NAMES], tier="fiber")

    @pytest.mark.parametrize("bad", [0, -1, True, 2.0])
    def test_max_workers_must_be_positive_int(self, session, bad):
        with pytest.raises(ValueError, match="max_workers"):
            session.run_many([NAMES], max_workers=bad)

    def test_executor_grows_but_never_churns_on_shrink(self, session):
        session.run_many([NAMES] * 2, max_workers=4)
        grown = session._executor
        assert session._executor_workers == 4
        session.run_many([NAMES] * 2, max_workers=2)
        assert session._executor is grown  # smaller request: no rebuild
        assert session._executor_workers == 4
        session.run_many([NAMES] * 2, max_workers=6)
        assert session._executor is not grown
        assert session._executor_workers == 6

    def test_auto_tier_promotes_only_multicore_big_batches(
            self, session, monkeypatch):
        monkeypatch.setattr("repro.session.os.cpu_count", lambda: 4)
        assert session._tier_backend("auto", None, 8) == "procpool"
        assert session._tier_backend("auto", None, 2) is None  # small batch
        assert session._tier_backend("auto", "sqlite", 8) == "sqlite"
        monkeypatch.setattr("repro.session.os.cpu_count", lambda: 1)
        assert session._tier_backend("auto", None, 8) is None

    def test_session_close_unlinks_all_segments(self, monkeypatch):
        from multiprocessing.shared_memory import SharedMemory

        monkeypatch.setenv("REPRO_POOL_WORKERS", "2")
        active = XQuerySession()
        active.add_xmark_document("auction.xml", 0.0005)
        active.run_many([NAMES] * 2, tier="process")
        target = active.backend_instance("procpool")
        names = target.segment_names
        assert names
        active.close()
        for name in names:
            with pytest.raises(FileNotFoundError):
                SharedMemory(name=name)
