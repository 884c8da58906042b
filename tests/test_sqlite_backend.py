"""Tests for the SQLite execution backend."""

import pytest

from repro.errors import ExecutionError, WidthOverflowError
from repro.sql.sqlite_backend import SQLiteDatabase, SQLITE_MAX_WIDTH
from repro.xml.text_parser import parse_forest
from repro.xquery.ast import FnApp, For, Var


def f(source: str):
    return parse_forest(source)


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
            leftovers = db.connection.execute(
                "SELECT name FROM sqlite_temp_master WHERE type='table'"
            ).fetchall()
            assert leftovers == []  # no run leaves temp schema behind
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
                final_select="SELECT s,l,r FROM bad",
            )
            with pytest.raises(ExecutionError) as exc:
                db.run_translation(broken)
            # The failing CTE's own text, not the final SELECT's.
            assert "missing_table" in exc.value.statement

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
