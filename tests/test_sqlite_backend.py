"""Tests for the SQLite execution backend."""

import pytest

from repro.errors import EncodingError, ExecutionError, WidthOverflowError
from repro.sql.sqlite_backend import SQLiteDatabase, SQLITE_MAX_WIDTH
from repro.xml.forest import element, text
from repro.xml.labels import label_dictionary_entries
from repro.xml.text_parser import parse_forest
from repro.xquery.ast import FnApp, For, Var


def f(source: str):
    return parse_forest(source)


def held_rows(connection) -> dict[str, int]:
    """Row count of every temp table ``connection`` holds."""
    tables = connection.execute(
        "SELECT name FROM sqlite_temp_master WHERE type='table'").fetchall()
    return {name: connection.execute(
        f"SELECT COUNT(*) FROM temp.{name}").fetchone()[0]
        for (name,) in tables}


class TestDocumentLoading:
    def test_load_returns_table_and_width(self):
        with SQLiteDatabase() as db:
            table, width = db.load_document("x", f("<a><b/></a>"))
            assert table == "doc_0"
            assert width == 4

    def test_rows_inserted(self):
        with SQLiteDatabase() as db:
            table, _ = db.load_document("x", f("<a><b/></a>"))
            rows = db.connection.execute(
                f"SELECT s, l, r FROM {table} ORDER BY l").fetchall()
            assert rows == [("<a>", 0, 3), ("<b>", 1, 2)]

    def test_reload_replaces(self):
        with SQLiteDatabase() as db:
            table1, _ = db.load_document("x", f("<a/>"))
            table2, width = db.load_document("x", f("<c/><d/>"))
            assert table1 == table2
            count = db.connection.execute(
                f"SELECT COUNT(*) FROM {table1}").fetchone()[0]
            assert count == 2
            assert width == 4

    def test_distinct_documents_get_distinct_tables(self):
        with SQLiteDatabase() as db:
            t1, _ = db.load_document("x", f("<a/>"))
            t2, _ = db.load_document("y", f("<b/>"))
            assert t1 != t2

    def test_documents_property(self):
        with SQLiteDatabase() as db:
            db.load_document("x", f("<a/>"))
            assert set(db.documents) == {"x"}

    def test_single_node_accepted(self):
        with SQLiteDatabase() as db:
            _, width = db.load_document("x", f("<a/>")[0])
            assert width == 2

    def test_shredding_interns_no_label(self):
        """No SQL reads a label code, so shredding codes no label: the
        process-wide dictionary, which never evicts, does not grow."""
        values = [f"shred-probe-{index}" for index in range(1000)]
        trees = (element("shredroot", [element("shredvalue", [text(value)])
                                       for value in values]),)
        before = label_dictionary_entries()
        with SQLiteDatabase() as db:
            table, _ = db.load_document("x", trees)
            depths = db.connection.execute(
                f"SELECT d FROM {table} ORDER BY l").fetchall()
        assert label_dictionary_entries() == before
        assert [d for (d,) in depths] == [0] + [1, 2] * len(values)


class TestExecution:
    def test_execute_simple(self):
        with SQLiteDatabase() as db:
            db.load_document("x", f("<a><b/><c/></a>"))
            result = db.execute(FnApp("children", (Var("x"),)))
            assert result == f("<b/><c/>")

    def test_execute_both_modes_agree(self):
        with SQLiteDatabase() as db:
            db.load_document("x", f("<a><b/></a>"))
            expr = FnApp("xnode", (FnApp("children", (Var("x"),)),),
                         (("label", "<w>"),))
            assert db.execute(expr, mode="staged") == db.execute(
                expr, mode="single")

    def test_temp_tables_dropped_on_document_load(self):
        with SQLiteDatabase() as db:
            db.load_document("x", f("<a><b/></a>"))
            expr = FnApp("children", (Var("x"),))
            assert db.execute(expr) == f("<b/>")
            db.load_document("x", f("<a><c/></a>"))
            # The run keeps its tables, but no row: the reloaded document
            # is read afresh.
            assert not any(held_rows(db.connection).values())
            assert db.execute(expr) == f("<c/>")

    def test_default_width_cap(self):
        with SQLiteDatabase() as db:
            db.load_document("x", f("<a/>"))
            # 3 nested subtrees_dfs over a fat doc would overflow; simulate
            # by loading a wide doc and nesting fors.
            db.load_document("big", f("<r>" + "<a/>" * 600 + "</r>"))
            expr = Var("big")
            for _ in range(6):
                expr = For("t", expr, FnApp("subtrees_dfs", (Var("t"),)))
            with pytest.raises(WidthOverflowError):
                db.translate(expr)

    def test_width_cap_constant(self):
        assert SQLITE_MAX_WIDTH == 2 ** 61

    def test_explain_produces_plan(self):
        with SQLiteDatabase() as db:
            db.load_document("x", f("<a/>"))
            assert db.explain(FnApp("children", (Var("x"),)))

    def test_explain_wraps_the_reference_cap(self, figure1_doc):
        # SQLite clones a CTE's parse tree per reference; Q9's one-statement
        # form passes its 65,535-references-per-table cap.  The driver's
        # OperationalError must not leave explain() raw.
        from repro.xmark.queries import Q9
        from repro.xquery.lowering import document_forest, lower_query
        from repro.xquery.parser import parse_xquery

        core, documents = lower_query(parse_xquery(Q9))
        with SQLiteDatabase() as db:
            for name in documents.values():
                db.load_document(name, document_forest(figure1_doc))
            with pytest.raises(ExecutionError, match="too many references") \
                    as caught:
                db.explain(core)
            assert caught.value.statement.startswith("EXPLAIN QUERY PLAN WITH")
            # The staged form has no such cap: one plan line per step.
            assert "for_var: SEARCH u USING" in db.explain(core, mode="staged")

    def test_execution_error_wrapped(self):
        from repro.sql.translator import TranslationResult
        with SQLiteDatabase() as db:
            broken = TranslationResult(
                sql="SELECT nonsense FROM nowhere",
                width=1, cte_count=0, result_table="nowhere",
                ctes=[("bad", "SELECT * FROM missing_table")],
                final_select="SELECT s,l,r,d FROM bad",
            )
            with pytest.raises(ExecutionError) as exc:
                db.run_translation(broken)
            # The failing CTE's own text, not the final SELECT's.
            assert "missing_table" in exc.value.statement

    @pytest.mark.parametrize("mode", ["staged", "single"])
    def test_a_wrong_depth_in_the_result_is_refused(self, mode):
        """The final select's ``d`` is checked like an engine result's:
        a row that does not sit at the depth it carries is named."""
        from repro.sql.translator import TranslationResult
        with SQLiteDatabase() as db:
            table, width = db.load_document("x", f("<a><b/><c/></a>"))
            final = "SELECT s, l, r, d + (s = '<c>') FROM bad ORDER BY l"
            wrong = TranslationResult(
                sql=f"WITH bad AS (SELECT * FROM {table}) {final}",
                width=width, cte_count=1, result_table="bad",
                ctes=[("bad", f"SELECT * FROM {table}")],
                final_select=final,
            )
            with pytest.raises(EncodingError,
                               match=r"'<c>' \[3,4\] does not sit at the depth"):
                db.run_translation(wrong, mode=mode)

    @pytest.mark.parametrize("mode", ["staged", "single"])
    def test_connection_closed_under_a_run_is_wrapped(self, mode):
        # Backend.close() closes every thread's connection from the
        # calling thread; a run caught by it reports the typed error —
        # neither the cleanup nor the handler removal may replace it
        # with the driver's.
        from itertools import count

        from repro.resilience import QueryGuard

        db = SQLiteDatabase()
        db.load_document("x", f("<a><b/></a>"))
        translation = db.translate(FnApp("children", (Var("x"),)))
        reads = count()

        def clock() -> float:
            if next(reads) == 1:  # the check on entry, handler installed
                db.close()
            return 0.0

        guard = QueryGuard(deadline=1.0, clock=clock)
        with pytest.raises(ExecutionError, match="closed database"):
            db.run_translation(translation, mode=mode, guard=guard)

    def test_context_manager_closes(self):
        db = SQLiteDatabase()
        with db:
            pass
        import sqlite3
        with pytest.raises(sqlite3.ProgrammingError):
            db.connection.execute("SELECT 1")


# -- the retained staged schema -------------------------------------------------

MIX_DOC = 'document("auction.xml")'
#: Five texts, each translated under its own table prefix.
MIX = (
    f"{MIX_DOC}/site/regions//item/name",
    f"count({MIX_DOC}/site/people/person)",
    f"for $p in {MIX_DOC}/site/people/person "
    f"where not(empty($p/homepage)) return <h>{{$p/name/text()}}</h>",
    f"for $i in {MIX_DOC}/site/regions/australia/item "
    f"return <item name=\"{{$i/name/text()}}\">{{$i/description}}</item>",
    f"for $a in {MIX_DOC}/site/open_auctions/open_auction "
    f"return $a/initial",
)


def is_ddl(statement: str) -> bool:
    return statement.lstrip().upper().startswith(("CREATE", "DROP"))


class TestRetainedSchema:
    """A staged translation keeps its tables: built on its first run,
    refilled and emptied on every run, dropped when it falls out of the
    :data:`STAGED_CACHE_SIZE` most recently run."""

    def test_warm_pass_runs_no_ddl(self):
        from repro import XQuerySession

        with XQuerySession() as session:
            session.add_xmark_document("auction.xml", 0.0003)
            expected = [session.run(text, backend="interpreter").to_xml()
                        for text in MIX]
            connection = session.backend_instance("sqlite").database.connection
            for warm in (False, True):
                statements: list[str] = []
                connection.set_trace_callback(statements.append)
                for text, answer in zip(MIX, expected):
                    assert session.run(text, backend="sqlite").to_xml() \
                        == answer
                    assert not connection.in_transaction
                    assert not any(held_rows(connection).values())
                connection.set_trace_callback(None)
                assert any(s.startswith("INSERT") for s in statements)
                ddl = [s for s in statements if is_ddl(s)]
                assert bool(ddl) is not warm, ddl[:3]

    def test_more_texts_than_the_bound(self):
        from repro.sql.sqlite_backend import STAGED_CACHE_SIZE

        with SQLiteDatabase() as db:
            db.load_document("x", f("<a><b/><c/></a>"))
            texts = [FnApp("xnode", (FnApp("children", (Var("x"),)),),
                           (("label", f"<w{index}>"),))
                     for index in range(STAGED_CACHE_SIZE + 3)]
            for count, expr in enumerate(texts, 1):
                db.execute(expr)
                recent = texts[max(0, count - STAGED_CACHE_SIZE):count]
                retained = {name for kept in recent
                            for name, _ in db.staged(kept).ctes}
                assert set(held_rows(db.connection)) == retained
                assert not any(held_rows(db.connection).values())
            # The evicted first text builds its tables again and answers.
            assert db.execute(texts[0]) == db.execute(texts[0], mode="single")

    def test_prefixes_keep_translations_apart(self):
        with SQLiteDatabase() as db:
            db.load_document("x", f("<a><b/><c/></a>"))
            one, two = (db.staged(FnApp(fn, (Var("x"),)))
                        for fn in ("children", "subtrees_dfs"))
            assert one.prefix != two.prefix
            assert not {name for name, _ in one.ctes} & \
                {name for name, _ in two.ctes}
            # The default prefix is the one --sql prints.
            assert db.translate(Var("x")).ctes[0][0] == "c0_init_idx"

    def test_a_shared_prefix_replaces_the_tables(self):
        """Translations made by ``translate`` all take the default prefix,
        so running one drops another's tables before building its own."""
        with SQLiteDatabase() as db:
            db.load_document("x", f("<a><b/><c/></a>"))
            first = db.translate(FnApp("children", (Var("x"),)))
            second = db.translate(FnApp("xnode", (Var("x"),),
                                        (("label", "<w>"),)))
            assert db.run_translation(first) == f("<b/><c/>")
            assert db.run_translation(second) == f("<w><a><b/><c/></a></w>")
            assert set(held_rows(db.connection)) == \
                {name for name, _ in second.ctes}
            assert db.run_translation(first) == f("<b/><c/>")

    def test_staged_explain_runs_nothing(self):
        with SQLiteDatabase() as db:
            db.load_document("x", f("<a><b/></a>"))
            statements: list[str] = []
            db.connection.set_trace_callback(statements.append)
            plan = db.explain(FnApp("children", (Var("x"),)), mode="staged")
            db.connection.set_trace_callback(None)
            assert "_children: SCAN doc_0" in plan
            assert not [s for s in statements if s.startswith("INSERT")]
            assert not any(held_rows(db.connection).values())


class TestRetainedSchemaUnderUpdates:
    """A retained schema outlives the document rows it was filled from:
    every run reads the current tables, from the committing thread and
    from a peer thread alike (both use the backend's one connection)."""

    def test_insert_and_delete_after_warming(self):
        from concurrent.futures import ThreadPoolExecutor

        from repro import XQuerySession

        query = ("for $b in doc('d.xml')//b "
                 "return <n>{count($b/a)}{$b/a}</n>")
        with XQuerySession() as session, \
                ThreadPoolExecutor(max_workers=1) as peer:
            session.add_document("d.xml", "<r><b><a>1</a></b><b/></r>")

            def answers() -> tuple[str, str, str]:
                engine = session.run(query, backend="engine").to_xml()
                mine = session.run(query, backend="sqlite").to_xml()
                theirs = peer.submit(lambda: session.run(
                    query, backend="sqlite").to_xml()).result()
                return engine, mine, theirs

            doc = session.updatable("d.xml")
            session.apply_update("d.xml", doc)     # the rebasing commit
            warm = answers()
            assert warm[0] == warm[1] == warm[2]
            connection = session.backend_instance(
                "sqlite").database.connection
            statements: list[str] = []
            connection.set_trace_callback(statements.append)
            labels = doc.columns.labels().tolist()
            parent = int(doc.columns.l[labels.index("<b>", 2)])
            edited = doc.insert_child(parent, 0, [element("a", [text("2")])])
            session.apply_update("d.xml", edited)
            inserted = answers()
            assert inserted[0] == inserted[1] == inserted[2] != warm[0]
            victim = edited.last_delta.inserted[0][1]
            session.apply_update("d.xml", edited.delete_subtree(victim))
            assert answers() == warm
            connection.set_trace_callback(None)
            # The commit changed the rows the retained translation reads
            # (the delete as one replayed ranged DELETE), and no run,
            # on either thread, built a table.
            assert sum(s.startswith("DELETE FROM doc_0 WHERE l >=")
                       for s in statements) == 1
            assert not [s for s in statements if is_ddl(s)]
            assert [record.deltas for record in
                    session.recorder.updates()] == [0, 1, 1]
