"""Property tests: the incremental update path against its oracle.

Every write-path layer claims the same thing — splicing a
:class:`~repro.encoding.updates.UpdateDelta` into existing state yields
exactly what a full re-encode from the updated document would.  These
tests state that claim once per layer and let Hypothesis drive random
insert/delete sequences (including spread-triggering ones at stride 1)
against the obvious oracle:

* ``splice_rows`` over the wrapped delta chain ≡ the update's wrapped
  snapshot rows;
* ``splice_columns`` over :class:`IntervalColumns` ≡ columns rebuilt
  from the snapshot, depth and name-code columns included;
* ``apply_delta_to_stats`` ≡ ``collect_stats`` on the spliced relation,
  so the SQL translator ranks conjuncts the same either way;
* SQLite's ranged ``DELETE`` + batched ``INSERT`` ≡ re-shredding the
  table from scratch — the carried ``e`` and ``d`` columns included;
* the session's incremental ``apply_update`` ≡ the full re-encode path
  (``incremental=False``) on every delta-capable backend.

And one count instead of a timing: on the relational backends a commit
changes as many table rows as its delta names, on every connection
(:class:`TestCommitTouchesOnlyTheDeltasRows`).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import pytest

from hypothesis import given, settings, strategies as st

from repro.encoding.stats import apply_delta_to_stats, collect_stats
from repro.encoding.updates import (
    DocumentUpdate,
    UpdatableDocument,
    splice_rows,
)
from repro.engine.columns import IntervalColumns, splice_columns
from repro.session import XQuerySession
from repro.sql.sqlite_backend import SQLiteDatabase
from repro.xml.forest import element, forest as make_forest, text
from repro.xquery.lowering import DOCUMENT_LABEL
from tests.test_updates_model import (
    assert_columns_equal,
    assert_state_is_sound,
)


def shredded_afresh(rows, width):
    """The ``(e, s, l, r, d)`` table a fresh ``load_encoded`` of ``rows``
    holds: what every patched connection's table must equal."""
    with SQLiteDatabase() as fresh:
        table, _ = fresh.load_encoded("doc", list(rows), width)
        return fresh.connection.execute(
            f"SELECT e, s, l, r, d FROM {table} ORDER BY l").fetchall()


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
    def test_splice_rows_matches_snapshot(self, script):
        forest, stride, ops = script
        base = UpdatableDocument.from_forest(forest, stride=stride)
        final = _apply_ops(base, ops)
        rows = wrap_document_rows(base.encoded)
        width = base.encoded.width + 2
        for update in _wrapped_updates(base, final):
            if update.deltas:
                for delta in update.deltas:
                    assert delta.old_width == width and not delta.relabeled
                    rows = splice_rows(rows, delta)
                    width = delta.new_width
            else:
                rows = update.rows()
                width = update.width
        assert rows == wrap_document_rows(final.encoded)
        assert width == final.encoded.width + 2

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
                    columns = splice_columns(columns, delta)
            else:
                columns = IntervalColumns.from_tuples(update.rows())
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
        from the row-level reference, on all five columns."""
        forest, stride, ops = script
        final = _apply_ops(
            UpdatableDocument.from_forest(forest, stride=stride), ops)
        update = DocumentUpdate(final.revision, None, (), final)
        oracle = IntervalColumns.from_tuples(
            wrap_document_rows(final.encoded))
        assert update.rows() == oracle.tuples()
        assert update.width == final.encoded.width + 2
        assert_columns_equal(update.columns(), oracle)

    @settings(max_examples=60, deadline=None)
    @given(edit_scripts())
    def test_stats_digest_matches_recollect(self, script):
        forest, stride, ops = script
        base = UpdatableDocument.from_forest(forest, stride=stride)
        final = _apply_ops(base, ops)
        rows = wrap_document_rows(base.encoded)
        stats = collect_stats(IntervalColumns.from_tuples(rows),
                              base.encoded.width + 2)
        for update in _wrapped_updates(base, final):
            if update.deltas:
                for delta in update.deltas:
                    stats = apply_delta_to_stats(stats, delta)
            else:
                rebuilt = IntervalColumns.from_tuples(update.rows())
                stats = collect_stats(rebuilt, update.width)
        final_rows = wrap_document_rows(final.encoded)
        oracle = collect_stats(IntervalColumns.from_tuples(final_rows),
                               final.encoded.width + 2)
        assert stats == oracle  # every field, label counts included

    @settings(max_examples=25, deadline=None)
    @given(edit_scripts())
    def test_sqlite_delta_matches_reshred(self, script):
        forest, stride, ops = script
        base = UpdatableDocument.from_forest(forest, stride=stride)
        final = _apply_ops(base, ops)
        rows = wrap_document_rows(base.encoded)
        database = SQLiteDatabase()
        try:
            database.load_encoded("doc", rows, base.encoded.width + 2)
            for update in _wrapped_updates(base, final):
                if update.deltas:
                    for delta in update.deltas:
                        database.apply_delta("doc", delta)
                else:
                    database.load_encoded("doc", update.rows(), update.width)
            table, width = database.documents["doc"]
            shredded = database.connection.execute(
                f"SELECT e, s, l, r, d FROM {table} ORDER BY l").fetchall()
            assert [row[1:4] for row in shredded] == \
                wrap_document_rows(final.encoded)
            assert shredded == shredded_afresh(
                wrap_document_rows(final.encoded), width)
        finally:
            database.close()

    def test_stats_rejects_relabeled_delta(self):
        base = UpdatableDocument.from_forest(
            make_forest(element("a", [text("x")])), stride=1)
        final = base.insert_child(list(base.encoded.tuples)[0][1], 0,
                                  [element("b", [text("y")])])
        delta = final.last_delta
        assert delta is not None and delta.relabeled
        rows = wrap_document_rows(base.encoded)
        stats = collect_stats(IntervalColumns.from_tuples(rows), len(rows))
        with pytest.raises(ValueError):
            apply_delta_to_stats(stats, delta)


class TestStatsUpkeepIsDeltaSized:
    """``apply_delta_to_stats`` along long chains."""

    @staticmethod
    def _wrapped(doc: UpdatableDocument):
        update = DocumentUpdate(doc.revision, None, (), doc)
        return update.columns(), update.width

    @pytest.mark.parametrize("seed", range(3))
    def test_long_chain_where_labels_leave_and_return(self, seed):
        """Two dozen deltas and more under one parent, drawn so that
        labels leave the vocabulary and come back (``<probe>`` starts
        absent, ``<b>`` and ``y`` with one occurrence each); after every
        delta every field equals a fresh collection."""
        import random

        rng = random.Random(seed)
        doc = UpdatableDocument.from_forest(make_forest(element("a", [
            element("b", [text("y")]), element("c", [text("x")]),
            element("d", [text("x")])])), stride=64)
        columns, width = self._wrapped(doc)
        stats = collect_stats(columns, width)
        pool = [[element("probe", [text("only here")])],
                [element("b", [text("y")])], [element("c", [text("x")])]]
        spliced = 0
        gone, came_back = set(), set()
        for step in range(40):
            rows = doc.encoded.tuples
            if step % 2 == 0 or len(rows) == 1:
                doc = doc.insert_child(rows[0][1], rng.randrange(4),
                                       rng.choice(pool))
            else:
                doc = doc.delete_subtree(rng.choice(
                    [row[1] for row in rows
                     if row[0] in ("<b>", "<c>", "<probe>")]))
            delta = doc.last_delta.wrapped()
            if not delta.incremental:  # a spread: rebase, as backends do
                columns, width = self._wrapped(doc)
                stats = collect_stats(columns, width)
                continue
            spliced += 1
            columns = splice_columns(columns, delta)
            stats = apply_delta_to_stats(stats, delta)
            assert stats == collect_stats(columns, width), step
            for label in ("<b>", "y", "<probe>", "only here"):
                if label not in stats.label_counts:
                    gone.add(label)
                elif label in gone:
                    came_back.add(label)
        assert spliced >= 24 and came_back
        assert columns.tuples() == self._wrapped(doc)[0].tuples()


class TestNoRowFormOnTheWritePath:
    def test_edit_and_commit_never_build_rows(self, monkeypatch):
        """With the two doors to the row form nailed shut, an edit and its
        commit on the engine backend still go through — rebase included."""
        from repro.encoding.interval import EncodedForest

        def refuse(*_args, **_kwargs):
            raise AssertionError("row form built on the write path")

        with XQuerySession(backend="engine") as session:
            session.add_document("d.xml", "<r><a>1</a><b><a>2</a></b></r>")
            query = "doc('d.xml')//a"
            assert len(session.run(query)) == 2
            monkeypatch.setattr(IntervalColumns, "tuples", refuse)
            monkeypatch.setattr(EncodedForest, "__init__", refuse)
            doc = session.updatable("d.xml")
            session.apply_update("d.xml", doc)     # the rebasing commit
            parent = int(doc.columns.l[doc.columns.s.tolist().index("<b>")])
            edited = doc.insert_child(parent, 0, [element("a", [text("3")])])
            session.apply_update("d.xml", edited)
            assert session.run(query).to_xml() == "<a>1</a><a>3</a><a>2</a>"
            victim = edited.last_delta.inserted[0][1]
            session.apply_update("d.xml", edited.delete_subtree(victim))
            assert session.run(query).to_xml() == "<a>1</a><a>2</a>"
            commits = session.recorder.updates()
            assert [record.deltas for record in commits] == [0, 1, 1]
            assert all(record.backends_applied == 1 for record in commits)


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
            assert session._documents["d.xml"] is None
            assert session.document("d.xml") == make_forest(element("r"))
            assert session._documents["d.xml"] is not None
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
                answer = peer.submit(names).result()
                assert theirs.total_changes - before[1] == delta.size, kind
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
