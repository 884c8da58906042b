"""Carried columns are the derived ones — the SQL twin of ``validate=True``.

Every relation of the SQL path is ``(e, s, l, r, d)`` with ``e`` and ``d``
written where a row is produced and never recomputed.  These tests
materialise every relation-tagged CTE of a translation and recompute both
from ``(l, r)`` alone: ``e`` must be ``l / width`` and ``d`` the number of
proper ancestors inside the row's block.
"""

from __future__ import annotations

import pytest

from repro.errors import WidthOverflowError
from repro.sql.sqlite_backend import SQLiteDatabase
from repro.xmark.queries import EXTRA_QUERIES, QUERIES
from repro.xml.text_parser import parse_forest
from repro.xquery.ast import Empty, Equal, FnApp, For, Not, SomeEqual, Var, Where
from repro.xquery.lowering import document_forest, lower_query
from repro.xquery.parser import parse_xquery
from tests.test_sql_templates import FORESTS, UNARY_TEMPLATES

XMARK_TEXTS = {**QUERIES, **EXTRA_QUERIES}


def materialised_relations(database: SQLiteDatabase, translation):
    """``name → (width, [(e, l, r, d), …] by l)`` of every tagged CTE,
    staged as a staged run stages them (unindexed: the inputs are tiny)."""
    connection = database.connection
    staged = []
    try:
        for name, sql in translation.ctes:
            connection.execute(f"CREATE TEMP TABLE {name} AS {sql}")
            staged.append(name)
        return {
            name: (width, connection.execute(
                f"SELECT e, l, r, d FROM {name} ORDER BY l").fetchall())
            for name, width in translation.relations.items()}
    finally:
        for name in staged:
            connection.execute(f"DROP TABLE temp.{name}")


def assert_carried_equals_derived(relations) -> int:
    checked = 0
    for name, (width, rows) in relations.items():
        block, open_rights = None, []
        for e, l, r, d in rows:
            assert e == l // width, (name, width, (e, l, r, d))
            if e != block:
                block, open_rights = e, []
            while open_rights and open_rights[-1] < l:
                open_rights.pop()
            assert d == len(open_rights), (name, width, (e, l, r, d))
            open_rights.append(r)
            checked += 1
    return checked


def check(expr, bindings) -> int:
    with SQLiteDatabase() as database:
        for name, trees in bindings.items():
            database.load_document(name, trees)
        translation = database.translate(expr)
        return assert_carried_equals_derived(
            materialised_relations(database, translation))


class TestXMarkTexts:
    @pytest.mark.parametrize("tag", sorted(XMARK_TEXTS))
    def test_every_relation_of_the_text(self, tag, xmark_tiny, figure1_doc):
        core, documents = lower_query(parse_xquery(XMARK_TEXTS[tag]))
        for document in (xmark_tiny, figure1_doc):
            bindings = {var: document_forest(document)
                        for var in documents.values()}
            try:
                assert check(core, bindings) > 0
            except WidthOverflowError:
                # Q19's sort squares the width: only the sample fits.
                assert tag == "Q19" and document is xmark_tiny


def _shapes(template: FnApp):
    """The template at top level, per iterated tree, and over a variable
    duplicated into every environment — one, many and copied blocks."""
    inner = FnApp(template.fn, (Var("t"),), template.params)
    return {
        "top": template,
        "per_tree": For("t", Var("x"), inner),
        "outer": For("t", Var("x"), template),
        "subtrees": For("t", FnApp("subtrees_dfs", (Var("x"),)), inner),
    }


class TestTemplateMatrix:
    @pytest.mark.parametrize("forest", sorted(FORESTS))
    @pytest.mark.parametrize("shape", ["top", "per_tree", "outer", "subtrees"])
    @pytest.mark.parametrize("template", UNARY_TEMPLATES,
                             ids=[t.fn for t in UNARY_TEMPLATES])
    def test_unary_template(self, template, shape, forest):
        check(_shapes(template)[shape], {"x": parse_forest(FORESTS[forest])})

    @pytest.mark.parametrize("forest", sorted(FORESTS))
    def test_concat_string_and_conditions(self, forest):
        trees = parse_forest(FORESTS[forest])
        pair = FnApp("concat", (Var("t"), FnApp("string_fn", (Var("x"),))))
        for condition in (Not(Empty(FnApp("children", (Var("t"),)))),
                          Equal(FnApp("roots", (Var("t"),)),
                                FnApp("head", (Var("x"),))),
                          SomeEqual(Var("t"), FnApp("tail", (Var("x"),)))):
            assert check(For("t", Var("x"), Where(condition, pair)),
                         {"x": trees}) > 0
