"""Tests for join-graph isolation analysis (repro.compiler.joingraph)."""

from __future__ import annotations

from repro.compiler.joingraph import analyze_join, join_graph
from repro.compiler.plan import (
    AndCond,
    EmptyCond,
    FnNode,
    JoinForNode,
    SomeEqualCond,
    VarNode,
)


def _sel(var, label):
    return FnNode("select", (VarNode(var),), (("label", label),))


def _join(var="x", body=None, residual=None):
    return JoinForNode(
        var=var,
        source=VarNode("doc"),
        key_outer=_sel("y", "<k>"),
        key_inner=_sel(var, "<k>"),
        body=body if body is not None else _sel(var, "<name>"),
        residual=residual,
    )


class TestAnalyzeJoin:
    def test_isolable_body(self):
        analysis = analyze_join(_join(body=_sel("x", "<name>")))
        assert analysis.isolable
        assert analysis.required_outer == frozenset()

    def test_body_reading_outer_not_isolable(self):
        body = FnNode("pair", (_sel("x", "<name>"), VarNode("y")))
        analysis = analyze_join(_join(body=body))
        assert not analysis.isolable
        assert analysis.required_outer == {"y"}

    def test_mixed_conjunction_partitions(self):
        inner = EmptyCond(_sel("x", "<flag>"))
        outer = SomeEqualCond(VarNode("x"), VarNode("z"))
        analysis = analyze_join(_join(residual=AndCond(inner, outer)))
        assert analysis.isolable
        # z is needed on the pair sequence; the join variable never is.
        assert analysis.required_outer == {"z"}

    def test_join_keys_not_required_outer(self):
        # key_outer reads y, but keys are evaluated before pairing.
        analysis = analyze_join(_join())
        assert "y" not in analysis.required_outer


class TestJoinGraph:
    def test_preorder_enumeration(self):
        inner = _join(var="b")
        outer = _join(var="a", body=inner)
        analyses = join_graph(outer)
        assert [analysis.node.var for analysis in analyses] == ["a", "b"]
        # The outer join's body is itself a join reading only "b"'s
        # own frees, so the outer body's frees exclude "a".
        assert not analyses[0].isolable

    def test_no_joins(self):
        assert join_graph(_sel("x", "<name>")) == ()
