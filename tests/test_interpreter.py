"""Unit tests for the Figure 3 reference interpreter."""

import pytest

from repro.baselines.naive import BudgetMeter
from repro.errors import UnboundVariableError, UnknownFunctionError
from repro.xml.forest import element, text
from repro.xml.text_parser import parse_forest
from repro.xquery.ast import (
    And,
    Empty,
    Equal,
    FnApp,
    For,
    Less,
    Let,
    Not,
    Or,
    SomeEqual,
    Var,
    Where,
)
from repro.xquery.interpreter import Interpreter, evaluate, evaluate_condition


def f(source: str):
    return parse_forest(source)


class TestBasicRules:
    def test_variable_lookup(self):
        assert evaluate(Var("x"), {"x": f("<a/>")}) == f("<a/>")

    def test_unbound_variable(self):
        with pytest.raises(UnboundVariableError) as excinfo:
            evaluate(Var("missing"), {})
        assert excinfo.value.name == "missing"

    def test_function_application(self):
        expr = FnApp("children", (Var("x"),))
        assert evaluate(expr, {"x": f("<a><b/></a>")}) == f("<b/>")

    def test_unknown_function(self):
        with pytest.raises(UnknownFunctionError):
            evaluate(FnApp("bogus", ()), {})

    def test_let_binding(self):
        expr = Let("y", FnApp("children", (Var("x"),)), Var("y"))
        assert evaluate(expr, {"x": f("<a><b/></a>")}) == f("<b/>")

    def test_let_shadows(self):
        expr = Let("x", FnApp("empty_forest"), Var("x"))
        assert evaluate(expr, {"x": f("<a/>")}) == ()

    def test_let_does_not_leak(self):
        env = {"x": f("<a/>")}
        evaluate(Let("y", Var("x"), Var("y")), env)
        assert "y" not in env


class TestWhere:
    def test_true_condition(self):
        expr = Where(Empty(FnApp("empty_forest")), Var("x"))
        assert evaluate(expr, {"x": f("<a/>")}) == f("<a/>")

    def test_false_condition_yields_empty(self):
        expr = Where(Not(Empty(FnApp("empty_forest"))), Var("x"))
        assert evaluate(expr, {"x": f("<a/>")}) == ()


class TestFor:
    def test_iterates_top_level_trees(self):
        expr = For("t", Var("x"), FnApp("xnode", (Var("t"),),
                                        (("label", "<w>"),)))
        result = evaluate(expr, {"x": f("<a/><b/>")})
        assert result == f("<w><a/></w><w><b/></w>")

    def test_empty_source(self):
        expr = For("t", FnApp("empty_forest"), Var("t"))
        assert evaluate(expr, {}) == ()

    def test_binds_single_trees(self):
        # The body sees $t as a singleton forest per iteration.
        expr = For("t", Var("x"), FnApp("count", (Var("t"),)))
        result = evaluate(expr, {"x": f("<a/><b/><c/>")})
        assert result == (text("1"), text("1"), text("1"))

    def test_concatenation_preserves_order(self):
        expr = For("t", Var("x"), FnApp("children", (Var("t"),)))
        result = evaluate(expr, {"x": f("<a><p>1</p></a><b><q>2</q></b>")})
        assert [tree.label for tree in result] == ["<p>", "<q>"]

    def test_nested_for_cross_product_order(self):
        inner = For("y", Var("b"), FnApp("concat", (Var("x"), Var("y"))))
        expr = For("x", Var("a"), inner)
        result = evaluate(expr, {"a": f("<i/><j/>"), "b": f("<p/><q/>")})
        labels = [tree.label for tree in result]
        assert labels == ["<i>", "<p>", "<i>", "<q>", "<j>", "<p>", "<j>", "<q>"]

    def test_variable_restored_after_loop(self):
        env = {"x": f("<a/>"), "t": f("<orig/>")}
        expr = For("t", Var("x"), Var("t"))
        evaluate(expr, env)
        assert env["t"] == f("<orig/>")


class TestConditions:
    def test_equal(self):
        assert evaluate_condition(
            Equal(Var("x"), Var("y")),
            {"x": f("<a><b/></a>"), "y": f("<a><b/></a>")},
        )

    def test_equal_is_structural_not_identity(self):
        x = (element("a", (text("v"),)),)
        y = (element("a", (text("v"),)),)
        assert evaluate_condition(Equal(Var("x"), Var("y")), {"x": x, "y": y})

    def test_some_equal(self):
        env = {"x": f("<a/><b/>"), "y": f("<b/><c/>")}
        assert evaluate_condition(SomeEqual(Var("x"), Var("y")), env)

    def test_some_equal_no_overlap(self):
        env = {"x": f("<a/>"), "y": f("<b/>")}
        assert not evaluate_condition(SomeEqual(Var("x"), Var("y")), env)

    def test_some_equal_empty_side(self):
        env = {"x": (), "y": f("<a/>")}
        assert not evaluate_condition(SomeEqual(Var("x"), Var("y")), env)

    def test_less(self):
        env = {"x": f("<a/>"), "y": f("<b/>")}
        assert evaluate_condition(Less(Var("x"), Var("y")), env)
        assert not evaluate_condition(Less(Var("y"), Var("x")), env)

    def test_empty(self):
        assert evaluate_condition(Empty(FnApp("empty_forest")), {})
        assert not evaluate_condition(Empty(Var("x")), {"x": f("<a/>")})

    def test_boolean_combinators(self):
        true = Empty(FnApp("empty_forest"))
        false = Not(true)
        assert evaluate_condition(And(true, true), {})
        assert not evaluate_condition(And(true, false), {})
        assert evaluate_condition(Or(false, true), {})
        assert not evaluate_condition(Or(false, false), {})


class TestTick:
    def test_tick_called(self):
        calls = []
        interpreter = Interpreter(BudgetMeter(tick=lambda: calls.append(1)))
        interpreter.evaluate(For("t", Var("x"), Var("t")),
                             {"x": f("<a/><b/>")})
        # At least one tick per expression node and per iteration.
        assert len(calls) >= 4


class TestDenotationalEquations:
    """Direct transcriptions of the Figure 3 semantic equations."""

    def test_for_equation(self):
        """[[for x in e do e']]E = concat of per-tree body evaluations."""
        env = {"src": f("<a>1</a><b>2</b><c>3</c>")}
        body = FnApp("children", (Var("v"),))
        loop = For("v", Var("src"), body)
        expected = ()
        interpreter = Interpreter()
        for tree in env["src"]:
            expected += interpreter.evaluate(body, {"v": (tree,)})
        assert evaluate(loop, env) == expected

    def test_where_equation(self):
        env = {"x": f("<a/>")}
        condition = Empty(Var("x"))
        expr = Where(condition, Var("x"))
        expected = env["x"] if evaluate_condition(condition, env) else ()
        assert evaluate(expr, env) == expected

    def test_let_equation(self):
        env = {"x": f("<a/>")}
        expr = Let("y", Var("x"), FnApp("concat", (Var("y"), Var("x"))))
        assert evaluate(expr, env) == env["x"] + env["x"]
