"""Per-operator SQL template tests: each template must agree with the
reference operator algebra when run on SQLite."""

import pytest

from repro.sql.sqlite_backend import run_core_on_sqlite
from repro.xml.text_parser import parse_forest
from repro.xquery.ast import FnApp, Var
from repro.xquery.interpreter import evaluate

FORESTS = {
    "single": "<a/>",
    "flat": "<a/><b/><c/>",
    "nested": "<a><b><c/></b><d/></a>",
    "mixed": "<a id='1'><name>x</name></a><b>y</b><a id='1'><name>x</name></a>",
    "texty": "<p>one</p>two<p>three</p>",
    "duplicated": "<a>1</a><a>1</a><b/><a>2</a>",
}


def check(expr, bindings):
    expected = evaluate(expr, bindings)
    got = run_core_on_sqlite(expr, bindings)
    assert got == expected


@pytest.fixture(params=sorted(FORESTS))
def forest(request):
    return parse_forest(FORESTS[request.param])


UNARY_TEMPLATES = [
    FnApp("roots", (Var("x"),)),
    FnApp("children", (Var("x"),)),
    FnApp("head", (Var("x"),)),
    FnApp("tail", (Var("x"),)),
    FnApp("reverse", (Var("x"),)),
    FnApp("subtrees_dfs", (Var("x"),)),
    FnApp("distinct", (Var("x"),)),
    FnApp("sort", (Var("x"),)),
    FnApp("data", (Var("x"),)),
    FnApp("textnodes", (Var("x"),)),
    FnApp("elementnodes", (Var("x"),)),
    FnApp("count", (Var("x"),)),
    FnApp("select", (Var("x"),), (("label", "<a>"),)),
    FnApp("xnode", (Var("x"),), (("label", "<wrap>"),)),
]


@pytest.mark.parametrize(
    "expr", UNARY_TEMPLATES,
    ids=[e.fn for e in UNARY_TEMPLATES],
)
def test_unary_template_matches_reference(expr, forest):
    check(expr, {"x": forest})


def test_concat_template():
    left = parse_forest("<a><b/></a>")
    right = parse_forest("<c/>x")
    check(FnApp("concat", (Var("x"), Var("y"))), {"x": left, "y": right})


def test_concat_with_empty_side():
    trees = parse_forest("<a/>")
    check(FnApp("concat", (Var("x"), FnApp("empty_forest"))), {"x": trees})
    check(FnApp("concat", (FnApp("empty_forest"), Var("x"))), {"x": trees})


def test_empty_forest_template():
    check(FnApp("empty_forest"), {})


def test_text_const_template():
    check(FnApp("text_const", (), (("value", "hello world"),)), {})


def test_text_const_quoting():
    check(FnApp("text_const", (), (("value", "it's quoted"),)), {})


def test_label_with_quote_in_select():
    trees = (parse_forest("<a/>"))
    expr = FnApp("select", (Var("x"),), (("label", "o'brien"),))
    check(expr, {"x": trees})


def test_composition_of_templates():
    trees = parse_forest("<a><b>x</b><b>y</b></a>")
    expr = FnApp("textnodes", (FnApp("children", (
        FnApp("select", (FnApp("children", (Var("x"),)),),
              (("label", "<b>"),)),
    )),))
    check(expr, {"x": trees})


def test_count_of_empty_is_zero():
    expr = FnApp("count", (FnApp("empty_forest"),))
    result = run_core_on_sqlite(expr, {})
    assert [n.label for n in result] == ["0"]


def test_nested_construction():
    expr = FnApp("xnode", (FnApp("xnode", (FnApp("text_const", (),
                                                 (("value", "x"),)),),
                                 (("label", "<inner>"),)),),
                 (("label", "<outer>"),))
    result = run_core_on_sqlite(expr, {})
    assert evaluate(expr, {}) == result


def test_sort_agrees_on_reordering(forest):
    """sort ∘ reverse must equal sort (order-insensitivity)."""
    expr_direct = FnApp("sort", (Var("x"),))
    expr_reversed = FnApp("sort", (FnApp("reverse", (Var("x"),)),))
    direct = run_core_on_sqlite(expr_direct, {"x": forest})
    rev = run_core_on_sqlite(expr_reversed, {"x": forest})
    assert [t for t in direct] == [t for t in rev]


def test_roots_of_roots_fixpoint(forest):
    once = FnApp("roots", (Var("x"),))
    twice = FnApp("roots", (once,))
    assert (run_core_on_sqlite(once, {"x": forest})
            == run_core_on_sqlite(twice, {"x": forest}))


def test_string_fn_concatenates_in_document_order(forest):
    """The order is the window's ``ORDER BY l``, whatever order the rows
    were produced in: ``reverse`` writes them back to front."""
    check(FnApp("string_fn", (Var("x"),)), {"x": forest})
    check(FnApp("string_fn", (FnApp("reverse", (Var("x"),)),)), {"x": forest})
