"""Property tests: the incremental update path against its oracle.

Every write-path layer claims the same thing — splicing a
:class:`~repro.encoding.updates.UpdateDelta` into existing state yields
exactly what a full re-encode from the updated document would.  These
tests state that claim once per layer and let Hypothesis drive random
insert/delete sequences (including spread-triggering ones at stride 1)
against the obvious oracle:

* ``splice_columns`` over :class:`IntervalColumns` ≡ columns rebuilt
  from the snapshot, depth and name-code columns included;
* SQLite's ranged ``DELETE`` + batched ``INSERT`` ≡ re-shredding the
  table from scratch — the carried ``e`` and ``d`` columns included;
* the session's incremental ``apply_update`` ≡ the full re-encode path
  (``incremental=False``) on every delta-capable backend.

And one count instead of a timing: on the relational backends a commit
changes as many table rows as its delta names, on every connection
(:class:`TestCommitTouchesOnlyTheDeltasRows`).  The commit protocol
itself: the engine tiers share the one wrapped snapshot a commit builds
(:class:`TestOneSnapshotPerCommit`), and a lagging sqlite connection
replays the delta log or reloads from that snapshot
(:class:`TestDeltaLogBranches`).
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from hypothesis import given, settings, strategies as st

from repro.backends.deltalog import DELTA_LOG_LIMIT
from repro.encoding.updates import DocumentUpdate, UpdatableDocument
from repro.engine.columns import IntervalColumns, splice_columns
from repro.session import XQuerySession
from repro.sql.sqlite_backend import SQLiteDatabase
from repro.xml.forest import element, forest as make_forest, text
from repro.xquery.lowering import DOCUMENT_LABEL, document_variable
from tests.test_updates_model import (
    assert_columns_equal,
    assert_state_is_sound,
)


def shredded_afresh(rows, width):
    """The ``(e, s, l, r, d)`` table a fresh ``load_encoded`` of ``rows``
    (``d`` derived from the intervals) holds: what every patched
    connection's table must equal."""
    with SQLiteDatabase() as fresh:
        table, _ = fresh.load_encoded(
            "doc", IntervalColumns.from_tuples(list(rows)), width)
        return fresh.connection.execute(
            f"SELECT e, s, l, r, d FROM {table} ORDER BY l").fetchall()


def synced_rows(connection, run) -> tuple[int, str]:
    """The rows ``connection`` changed to catch up inside ``run()``'s
    query, and its answer.

    A staged SQLite run inserts and deletes its own temp-table rows too;
    the same query once more, with nothing left to catch up, changes
    exactly those, so they are subtracted.
    """
    before = connection.total_changes
    answer = run()
    caught_up = connection.total_changes
    assert run() == answer
    return 2 * caught_up - before - connection.total_changes, answer


def wrap_document_rows(encoded):
    """The row-level reference for ``DocumentUpdate.columns()``: every
    endpoint +1 under a document-node row spanning ``[0, width + 1]``."""
    return [(DOCUMENT_LABEL, 0, encoded.width + 1)] + [
        (s, l + 1, r + 1) for (s, l, r) in encoded.tuples]


# -- random documents and edit scripts ---------------------------------------

LABELS = ("a", "b", "c", "d")


def _tree(draw, depth: int):
    label = draw(st.sampled_from(LABELS))
    if depth <= 0 or draw(st.booleans()):
        return element(label, [text(draw(st.sampled_from(("x", "y"))))])
    children = [_tree(draw, depth - 1)
                for _ in range(draw(st.integers(1, 2)))]
    return element(label, children)


@st.composite
def forests(draw):
    trees = [_tree(draw, draw(st.integers(0, 2)))
             for _ in range(draw(st.integers(1, 3)))]
    return make_forest(*trees)


@st.composite
def edit_scripts(draw):
    """(initial forest, stride, list of abstract edit operations)."""
    forest = draw(forests())
    # Stride 1 leaves no gaps: the first insert must spread, covering
    # the relabeled/non-incremental delta path alongside the common one.
    stride = draw(st.sampled_from((1, 4, 16)))
    ops = draw(st.lists(st.tuples(st.sampled_from(("insert", "delete",
                                                   "append")),
                                  st.integers(0, 10 ** 6),
                                  st.sampled_from(LABELS)),
                        min_size=1, max_size=6))
    return forest, stride, ops


def _apply_ops(doc: UpdatableDocument, ops) -> UpdatableDocument:
    """Drive the edit script, skipping ops that became impossible.

    A delete may take any row, the last root included (the document is
    then empty and only an append applies); an append widens the
    document.  After every step the state must be sound: Definition 3.1
    in full, and the carried columns equal to the derived ones.
    """
    for kind, position, label in ops:
        rows = list(doc.encoded.tuples)
        new = [element(label, [text("new")])]
        parents = [row for row in rows if row[0].startswith("<")]
        if kind == "delete":
            if not rows:
                continue
            doc = doc.delete_subtree(rows[position % len(rows)][1])
        elif kind == "append" or not parents:
            doc = doc.insert_tree(len(rows), new)
        else:
            parent = parents[position % len(parents)]
            doc = doc.insert_child(parent[1], 0, new)
        assert_state_is_sound(doc)
    return doc


def _wrapped_updates(base: UpdatableDocument,
                     final: UpdatableDocument) -> list[DocumentUpdate]:
    """One DocumentUpdate per committed revision along the chain.

    Splitting the chain at relabeled/width-changing deltas mirrors what
    a session committing after every edit would hand to its backends:
    incremental updates where possible, snapshot rebases where not.
    """
    chain = []
    doc = final
    while doc is not base and doc.base is not None:
        chain.append(doc)
        doc = doc.base
    chain.reverse()
    updates = []
    committed = base
    for step in chain:
        deltas = step.deltas_since(committed)
        updates.append(DocumentUpdate(
            step.revision,
            committed.revision if deltas else None,
            tuple(delta.wrapped() for delta in (deltas or ())),
            step))
        committed = step
    return updates


# -- layer-by-layer equivalence ----------------------------------------------

class TestDeltaOracle:
    @settings(max_examples=60, deadline=None)
    @given(edit_scripts())
    def test_splice_columns_matches_rebuild(self, script):
        forest, stride, ops = script
        base = UpdatableDocument.from_forest(forest, stride=stride)
        final = _apply_ops(base, ops)
        columns = IntervalColumns.from_tuples(wrap_document_rows(base.encoded))
        for update in _wrapped_updates(base, final):
            if update.deltas:
                for delta in update.deltas:
                    spliced = splice_columns(columns, delta)
                    assert len(spliced) == (len(columns) - delta.deleted_rows
                                            + len(delta.inserted))
                    columns = spliced
            else:
                columns = update.columns()
        oracle = IntervalColumns.from_tuples(
            wrap_document_rows(final.encoded))
        assert columns.tuples() == oracle.tuples()
        # The spliced depth and name-code columns (from the deltas'
        # inserted_depths, never recomputed) equal the derived ones.
        assert columns.d.tolist() == oracle.d.tolist()
        assert columns.c.tolist() == oracle.c.tolist()

    @settings(max_examples=60, deadline=None)
    @given(edit_scripts())
    def test_snapshot_columns_match_snapshot_rows(self, script):
        """``DocumentUpdate.columns()`` is what ``from_tuples`` derives
        from the row-level reference, on every column."""
        forest, stride, ops = script
        final = _apply_ops(
            UpdatableDocument.from_forest(forest, stride=stride), ops)
        update = DocumentUpdate(final.revision, None, (), final)
        oracle = IntervalColumns.from_tuples(
            wrap_document_rows(final.encoded))
        assert update.width == final.encoded.width + 2
        assert_columns_equal(update.columns(), oracle)

    @settings(max_examples=25, deadline=None)
    @given(edit_scripts())
    def test_sqlite_delta_matches_reshred(self, script):
        forest, stride, ops = script
        base = UpdatableDocument.from_forest(forest, stride=stride)
        final = _apply_ops(base, ops)
        rows = wrap_document_rows(base.encoded)
        database = SQLiteDatabase()
        try:
            database.load_encoded("doc", IntervalColumns.from_tuples(rows),
                                  base.encoded.width + 2)
            for update in _wrapped_updates(base, final):
                if update.deltas:
                    for delta in update.deltas:
                        database.apply_delta("doc", delta)
                else:
                    database.load_encoded("doc", update.columns(),
                                          update.width)
            table, width = database.documents["doc"]
            shredded = database.connection.execute(
                f"SELECT e, s, l, r, d FROM {table} ORDER BY l").fetchall()
            assert [row[1:4] for row in shredded] == \
                wrap_document_rows(final.encoded)
            assert shredded == shredded_afresh(
                wrap_document_rows(final.encoded), width)
        finally:
            database.close()


SMALL = "<r><a>1</a><b><a>2</a></b></r>"
ALL_A = "doc('d.xml')//a"


def _shut_the_row_form(monkeypatch) -> None:
    """Nail shut the two doors to the row form."""
    from repro.encoding.interval import EncodedForest

    def refuse(*_args, **_kwargs):
        raise AssertionError("row form built on the write path")

    monkeypatch.setattr(IntervalColumns, "tuples", refuse)
    monkeypatch.setattr(EncodedForest, "__init__", refuse)


def _rebase_insert_delete(session, answer) -> None:
    """Commit the rebasing no-op, an insert and its delete on ``SMALL``;
    ``answer()`` reads ``ALL_A`` after each edit."""
    doc = session.updatable("d.xml")
    session.apply_update("d.xml", doc)     # the rebasing commit
    parent = int(doc.columns.l[doc.columns.labels().tolist().index("<b>")])
    edited = doc.insert_child(parent, 0, [element("a", [text("3")])])
    session.apply_update("d.xml", edited)
    assert answer() == "<a>1</a><a>3</a><a>2</a>"
    victim = edited.last_delta.inserted[0][1]
    session.apply_update("d.xml", edited.delete_subtree(victim))
    assert answer() == "<a>1</a><a>2</a>"
    commits = session.recorder.updates()
    assert [record.deltas for record in commits] == [0, 1, 1]
    assert all(record.backends_applied == 1 for record in commits)


class TestNoRowFormOnTheWritePath:
    def test_edit_and_commit_never_build_rows(self, monkeypatch):
        """With the two doors to the row form nailed shut, an edit and its
        commit on the engine backend still go through — rebase included."""
        with XQuerySession(backend="engine") as session:
            session.add_document("d.xml", SMALL)
            assert len(session.run(ALL_A)) == 2
            _shut_the_row_form(monkeypatch)
            _rebase_insert_delete(session,
                                  lambda: session.run(ALL_A).to_xml())

    @pytest.mark.parametrize("backend", ["sqlite", "procpool"])
    def test_other_backends_never_build_rows(self, monkeypatch, backend):
        """The same on the other two backends that absorb updates, each
        answer read on a peer thread too: on sqlite the peer's connection
        reloads from the snapshot columns after the rebasing commit, then
        replays the delete."""
        monkeypatch.setenv("REPRO_POOL_WORKERS", "1")
        with XQuerySession(backend=backend) as session, \
                ThreadPoolExecutor(max_workers=1) as peer:
            def answer() -> str:
                mine = session.run(ALL_A).to_xml()
                assert peer.submit(
                    lambda: session.run(ALL_A).to_xml()).result() == mine
                return mine

            session.add_document("d.xml", SMALL)
            assert answer() == "<a>1</a><a>2</a>"
            _shut_the_row_form(monkeypatch)
            _rebase_insert_delete(session, answer)


# -- the session path end to end ---------------------------------------------

DELTA_BACKENDS = ("engine", "sqlite", "procpool")


class TestSessionEquivalence:
    @pytest.fixture(scope="class", autouse=True)
    def two_pool_workers(self):
        """Every session here spawns a pool: keep it at two workers (so a
        commit is still a broadcast) whatever the host's CPU count."""
        with pytest.MonkeyPatch.context() as patch:
            patch.setenv("REPRO_POOL_WORKERS", "2")
            yield

    @settings(max_examples=10, deadline=None)
    @given(edit_scripts())
    def test_incremental_commits_match_full_reencode(self, script):
        forest, stride, ops = script
        query = "doc('d.xml')//a"
        incremental = XQuerySession()
        full = XQuerySession()
        try:
            for session in (incremental, full):
                session.add_document("d.xml", forest)
                session._updatable["d.xml"] = \
                    UpdatableDocument.from_forest(forest, stride=stride)
                for backend in DELTA_BACKENDS:
                    session.run(query, backend=backend)
            doc_a = _apply_ops(incremental.updatable("d.xml"), ops)
            doc_b = _apply_ops(full.updatable("d.xml"), ops)
            incremental.apply_update("d.xml", doc_a)
            full.apply_update("d.xml", doc_b, incremental=False)
            for backend in DELTA_BACKENDS:
                assert incremental.run(query, backend=backend).to_xml() == \
                    full.run(query, backend=backend).to_xml()
            assert incremental.document("d.xml") == full.document("d.xml")
        finally:
            incremental.close()
            full.close()

    def test_commit_per_edit_keeps_backends_current(self):
        session = XQuerySession()
        try:
            session.add_document(
                "d.xml", "<root><a>1</a><b><a>2</a></b></root>")
            for backend in DELTA_BACKENDS:
                session.run("doc('d.xml')//a", backend=backend)
            for _step in range(4):
                doc = session.updatable("d.xml")
                parent = next(row for row in doc.encoded.tuples
                              if row[0] == "<b>")
                session.apply_update("d.xml", doc.insert_child(
                    parent[1], 0, [element("a", [text("new")])]))
                counts = {backend: len(session.run("doc('d.xml')//a",
                                                   backend=backend).forest)
                          for backend in DELTA_BACKENDS}
                assert len(set(counts.values())) == 1, counts
                # Spliced or re-registered, a commit leaves the pool one
                # live segment per document: the old one is unlinked.
                pool = session.backend_instance("procpool").pool
                assert len(pool.segment_names) == len(pool.documents) == 1
            assert counts["engine"] == 6
        finally:
            session.close()

    def test_lazy_document_materialization(self):
        session = XQuerySession()
        try:
            session.add_document("d.xml", "<r><a>x</a></r>")
            doc = session.updatable("d.xml")
            victim = next(row for row in doc.encoded.tuples
                          if row[0] == "<a>")
            session.apply_update("d.xml", doc.delete_subtree(victim[1]),
                                 incremental=True)
            # The Forest view is deferred until someone asks for it.
            assert "d.xml" not in session._forests
            assert session.document("d.xml") == make_forest(element("r"))
            assert "d.xml" in session._forests
        finally:
            session.close()


class TestCommitTouchesOnlyTheDeltasRows:
    """O(affected subtree) as a number that repeats exactly.

    ``sqlite3.Connection.total_changes`` counts the rows every INSERT and
    DELETE on that connection touched.  A commit through the delta path
    must move it by the delta's own row count — on the committing
    thread's connection at once, on a peer thread's connection when its
    next query replays the :class:`DeltaLog` tail — while re-shredding
    the table would move it by twice the document's.
    """

    QUERY = 'document("auction.xml")/site/regions/australia/item/name'

    @pytest.mark.parametrize("backend", ["sqlite"])
    def test_total_changes_grows_by_the_delta_size(self, xmark_small,
                                                   backend):
        def connection():
            return session.backend_instance(backend).database.connection

        def names():
            return session.run(self.QUERY).to_xml()

        with XQuerySession(backend=backend) as session, \
                ThreadPoolExecutor(max_workers=1) as peer:
            session.add_document("auction.xml", xmark_small)
            names()
            peer.submit(names).result()
            # The first commit after updatable() rebases the loaded
            # tables onto the gapped numbering; deltas chain from there.
            session.apply_update("auction.xml",
                                 session.updatable("auction.xml"))
            mine, theirs = connection(), peer.submit(connection).result()
            assert mine is not theirs

            doc = session.updatable("auction.xml")
            document_rows = len(doc.encoded.tuples)
            australia = next(row for row in doc.encoded.tuples
                             if row[0] == "<australia>")
            victim = next(row for row in doc.encoded.tuples
                          if row[0] == "<item>" and row[1] > australia[1])
            probe = element("item", [element("name", [text("probe")])])
            edits = (
                ("insert", lambda d: d.insert_child(australia[1], 0, probe)),
                ("delete", lambda d: d.delete_subtree(victim[1])),
            )
            for kind, edit in edits:
                edited = edit(session.updatable("auction.xml"))
                delta = edited.last_delta
                assert 0 < delta.size < document_rows // 10, (kind, delta.size)
                before = mine.total_changes, theirs.total_changes
                session.apply_update("auction.xml", edited, incremental=True)
                assert mine.total_changes - before[0] == delta.size, kind
                assert theirs.total_changes == before[1], kind
                changed, answer = synced_rows(
                    theirs, lambda: peer.submit(names).result())
                assert changed == delta.size, kind
                assert session.recorder.updates()[-1].deltas == 1, kind
            assert "probe" in answer
            assert names() == answer

            # The patched rows carry their depth: on both connections the
            # table is what shredding the same rows afresh would hold.
            def table_rows():
                table, width = session.backend_instance(
                    backend).database.documents["doc:auction.xml"]
                return width, connection().execute(
                    f"SELECT e, s, l, r, d FROM {table} ORDER BY l").fetchall()

            for width, rows in (table_rows(), peer.submit(table_rows).result()):
                assert "probe" in {row[1] for row in rows}
                assert rows == shredded_afresh(
                    [row[1:4] for row in rows], width)


# -- the commit protocol ------------------------------------------------------

def _flip(doc: UpdatableDocument) -> UpdatableDocument:
    """Delete the ``<a>`` the previous flip inserted, or insert one under
    ``<b>`` of ``SMALL``: alternating at one slot never spreads."""
    if doc.last_delta is not None and doc.last_delta.inserted:
        return doc.delete_subtree(doc.last_delta.inserted[0][1])
    parent = int(doc.columns.l[doc.columns.labels().tolist().index("<b>")])
    return doc.insert_child(parent, 0, [element("a", [text("new")])])


class TestOneSnapshotPerCommit:
    def test_engine_and_pool_adopt_the_commits_snapshot(self, monkeypatch):
        """The engine holds the commit's wrapped snapshot itself, and the
        process tier is handed the same object: one build per commit."""
        built: list[IntervalColumns] = []
        columns = DocumentUpdate.columns
        monkeypatch.setattr(DocumentUpdate, "columns",
                            lambda update: built.append(columns(update))
                            or built[-1])
        monkeypatch.setenv("REPRO_POOL_WORKERS", "1")
        with XQuerySession() as session:
            session.add_document("d.xml", SMALL)
            for backend in ("engine", "procpool"):
                session.run(ALL_A, backend=backend)
            for _step in range(2):   # a rebase, then a delta
                built.clear()
                session.apply_update("d.xml",
                                     _flip(session.updatable("d.xml")))
                engine = session.backend_instance("engine")
                held, _width = engine._encoded[document_variable("d.xml")]
                assert len(built) == 2
                assert built[0] is built[1] is held
                assert session.run(ALL_A, backend="procpool").to_xml() == \
                    session.run(ALL_A, backend="engine").to_xml()

    def test_sqlite_replays_deltas_without_the_snapshot(self, monkeypatch):
        """A commit SQLite absorbs as deltas is never built into columns,
        not by the commit and not by the next run's prepare: only
        :meth:`DocumentUpdate.columns` is O(document)."""
        built: list[IntervalColumns] = []
        columns = DocumentUpdate.columns
        with XQuerySession(backend="sqlite") as session:
            session.add_document("d.xml", SMALL)
            session.run(ALL_A)
            # The first commit after updatable() rebases (a reload).
            session.apply_update("d.xml", _flip(session.updatable("d.xml")))
            monkeypatch.setattr(DocumentUpdate, "columns",
                                lambda update: built.append(columns(update))
                                or built[-1])
            answers = []
            for _step in range(2):
                session.apply_update("d.xml",
                                     _flip(session.updatable("d.xml")))
                answers.append(session.run(ALL_A).to_xml())
            assert built == []
            assert answers[-1] == session.run(
                ALL_A, backend="interpreter").to_xml()


class TestDeltaLogBranches:
    """Which branch of :class:`DeltaLog` a lagging sqlite connection
    takes, counted on a peer thread's connection."""

    def test_recommitting_the_held_revision_changes_no_row(self):
        with XQuerySession(backend="sqlite") as session:
            session.add_document("d.xml", SMALL)
            session.run(ALL_A)
            session.apply_update("d.xml", session.updatable("d.xml"))
            connection = \
                session.backend_instance("sqlite").database.connection
            before = connection.total_changes
            session.apply_update("d.xml", session.updatable("d.xml"))
            assert connection.total_changes == before
            record = session.recorder.updates()[-1]
            assert (record.deltas, record.relabeled,
                    record.backends_applied) == (0, False, 1)

    def test_lagging_peer_replays_within_the_log_and_reloads_past_it(
            self, monkeypatch):
        loads: list[tuple[int, IntervalColumns]] = []
        load_encoded = SQLiteDatabase.load_encoded

        def spy(database, name, columns, width):
            loads.append((threading.get_ident(), columns))
            return load_encoded(database, name, columns, width)

        monkeypatch.setattr(SQLiteDatabase, "load_encoded", spy)
        with XQuerySession(backend="sqlite") as session, \
                ThreadPoolExecutor(max_workers=1) as peer:
            sqlite = session.backend_instance("sqlite")
            session.add_document("d.xml", SMALL)
            for backend in ("engine", "sqlite"):
                session.run(ALL_A, backend=backend)
            peer_id = peer.submit(threading.get_ident).result()
            theirs = peer.submit(lambda: sqlite.database.connection).result()
            log = sqlite._generations[document_variable("d.xml")]

            def commits(edit, count: int) -> int:
                """Commit ``count`` edits; returns their summed delta size."""
                size = 0
                for _step in range(count):
                    edited = edit(session.updatable("d.xml"))
                    session.apply_update("d.xml", edited)
                    size += edited.last_delta.size
                return size

            def peer_catches_up() -> tuple[int, int]:
                """The rows the peer's connection changed to answer, and
                the snapshot loads it made; its answer is the engine's."""
                reloads = len(loads)
                changes, answer = synced_rows(theirs, lambda: peer.submit(
                    lambda: session.run(ALL_A).to_xml()).result())
                assert answer == session.run(ALL_A, backend="engine").to_xml()
                peer_loads = [columns for thread, columns in loads[reloads:]
                              if thread == peer_id]
                for columns in peer_loads:
                    assert columns is log.update.columns()
                return changes, len(peer_loads)

            commits(_flip, 1)                       # the first: a rebase
            assert peer_catches_up()[1] == 1
            size = commits(_flip, DELTA_LOG_LIMIT)  # all still in the log
            assert peer_catches_up() == (size, 0)
            commits(_flip, DELTA_LOG_LIMIT + 1)     # one past its reach
            assert peer_catches_up()[1] == 1
            commits(lambda doc: doc.relabel(), 1)   # a spread: new major
            commits(_flip, 1)
            assert session.recorder.updates()[-2].relabeled
            assert peer_catches_up()[1] == 1
