"""Tests for plan compilation, the Section 5 decorrelation rewrite and
the join-body isolation rule."""

import dataclasses

import pytest

from repro import compile_xquery
from repro.compiler.decorrelate import (
    join_conjuncts,
    match_join,
    split_conjuncts,
)
from repro.compiler.joingraph import analyze_join
from repro.compiler.pipeline import optimize_stage, plan_stage
from repro.compiler.plan import (
    CondPlan,
    FnNode,
    ForNode,
    JoinForNode,
    JoinStrategy,
    LetNode,
    PlanNode,
    VarNode,
    WhereNode,
    iter_plan,
)
from repro.compiler.planner import compile_plan, explain_plan, plan_free
from repro.engine.evaluator import DIEngine
from repro.xmark.generator import cached_document
from repro.xquery.ast import (
    And,
    Empty,
    Equal,
    FnApp,
    For,
    Less,
    Let,
    Not,
    SomeEqual,
    Var,
    Where,
)
from repro.xquery.lowering import document_forest, lower_query
from repro.xquery.parser import parse_xquery

BASE = frozenset({"doc"})


def _key(var: str):
    return FnApp("data", (FnApp("children", (Var(var),)),))


def _inner_loop(source=Var("doc")):
    return For("y", source,
               Where(SomeEqual(_key("y"), _key("x")), Var("y")))


class TestConjunctHelpers:
    def test_split_flat(self):
        c = Empty(Var("a"))
        assert split_conjuncts(c) == [c]

    def test_split_nested_and(self):
        a, b, c = Empty(Var("a")), Empty(Var("b")), Empty(Var("c"))
        assert split_conjuncts(And(And(a, b), c)) == [a, b, c]

    def test_join_roundtrip(self):
        a, b = Empty(Var("a")), Empty(Var("b"))
        rebuilt = join_conjuncts([a, b])
        assert split_conjuncts(rebuilt) == [a, b]

    def test_join_empty(self):
        assert join_conjuncts([]) is None


class TestMatchJoin:
    def test_simple_pattern_matches(self):
        match = match_join(_inner_loop(), BASE)
        assert match is not None
        assert match.var == "y"
        assert match.key_inner == _key("y")
        assert match.key_outer == _key("x")
        assert match.residual is None
        assert match.existential is True

    def test_orientation_swap(self):
        loop = For("y", Var("doc"),
                   Where(SomeEqual(_key("x"), _key("y")), Var("y")))
        match = match_join(loop, BASE)
        assert match is not None
        assert match.key_inner == _key("y")

    def test_deep_equal_key(self):
        loop = For("y", Var("doc"),
                   Where(Equal(_key("y"), _key("x")), Var("y")))
        match = match_join(loop, BASE)
        assert match is not None
        assert match.existential is False

    def test_source_dependent_on_outer_rejected(self):
        loop = _inner_loop(source=FnApp("children", (Var("x"),)))
        assert match_join(loop, BASE) is None

    def test_no_where_rejected(self):
        loop = For("y", Var("doc"), Var("y"))
        assert match_join(loop, BASE) is None

    def test_key_mentioning_both_sides_rejected(self):
        both = FnApp("concat", (Var("x"), Var("y")))
        loop = For("y", Var("doc"), Where(SomeEqual(both, _key("x")), Var("y")))
        assert match_join(loop, BASE) is None

    def test_constant_key_rejected(self):
        const = FnApp("text_const", (), (("value", "k"),))
        loop = For("y", Var("doc"), Where(SomeEqual(const, _key("x")), Var("y")))
        assert match_join(loop, BASE) is None

    def test_let_spine_traversed(self):
        loop = For("y", Var("doc"),
                   Let("n", FnApp("children", (Var("y"),)),
                       Where(SomeEqual(_key("y"), _key("x")), Var("n"))))
        match = match_join(loop, BASE)
        assert match is not None
        assert match.let_spine == (("n", FnApp("children", (Var("y"),))),)
        assert match.return_expr == Var("n")

    def test_key_mentioning_spine_var_rejected(self):
        loop = For("y", Var("doc"),
                   Let("n", FnApp("children", (Var("y"),)),
                       Where(SomeEqual(_key("n"), _key("x")), Var("n"))))
        assert match_join(loop, BASE) is None

    def test_residual_split(self):
        condition = And(SomeEqual(_key("y"), _key("x")),
                        Not(Empty(Var("x"))))
        loop = For("y", Var("doc"), Where(condition, Var("y")))
        match = match_join(loop, BASE)
        assert match is not None
        assert match.residual == Not(Empty(Var("x")))
        assert match.inner_residual is None

    def test_spine_conjunct_stays_inside(self):
        loop = For("y", Var("doc"),
                   Let("n", FnApp("children", (Var("y"),)),
                       Where(And(SomeEqual(_key("y"), _key("x")),
                                 Not(Empty(Var("n")))),
                             Var("n"))))
        match = match_join(loop, BASE)
        assert match is not None
        assert match.residual is None
        assert match.inner_residual == Not(Empty(Var("n")))

    def test_less_key_not_matched(self):
        loop = For("y", Var("doc"),
                   Where(Less(_key("y"), _key("x")), Var("y")))
        assert match_join(loop, BASE) is None


class TestCompilePlan:
    def test_both_strategies_decorrelate(self):
        """The paper's plans differ only in the join operator."""
        outer = For("x", Var("doc"), _inner_loop())
        for strategy in (JoinStrategy.NLJ, JoinStrategy.MSJ):
            plan = compile_plan(outer, strategy, base_vars=BASE)
            assert isinstance(plan, ForNode)
            assert isinstance(plan.body, JoinForNode)
            assert plan.body.strategy is strategy

    def test_fallback_when_dependent(self):
        outer = For("x", Var("doc"),
                    _inner_loop(source=FnApp("children", (Var("x"),))))
        for strategy in (JoinStrategy.NLJ, JoinStrategy.MSJ):
            plan = compile_plan(outer, strategy, base_vars=BASE)
            assert isinstance(plan.body, ForNode)

    def test_fallback_expansion_copies_outer_vars(self):
        outer = For("x", Var("doc"),
                    _inner_loop(source=FnApp("children", (Var("x"),))))
        plan = compile_plan(outer, JoinStrategy.NLJ, base_vars=BASE)
        inner = plan.body
        assert isinstance(inner, ForNode)
        assert inner.required_outer == frozenset({"x"})

    def test_fallback_expansion_copies_doc_when_needed(self):
        # A correlated source referencing both x and the document forces
        # the naive expansion to duplicate the document per environment —
        # the quadratic data blow-up.
        source = FnApp("concat", (FnApp("children", (Var("x"),)),
                                  Var("doc")))
        outer = For("x", Var("doc"), _inner_loop(source=source))
        plan = compile_plan(outer, JoinStrategy.NLJ, base_vars=BASE)
        assert isinstance(plan.body, ForNode)
        assert "doc" in plan.required_outer

    def test_required_outer_excludes_doc(self):
        """The decorrelated join reads documents from the base env only."""
        outer = For("x", Var("doc"), _inner_loop())
        for strategy in (JoinStrategy.NLJ, JoinStrategy.MSJ):
            plan = compile_plan(outer, strategy, base_vars=BASE)
            assert "doc" not in plan.required_outer

    def test_q8_plan_shapes(self):
        from repro.xmark.queries import Q8
        core, docs = lower_query(parse_xquery(Q8))
        nlj = compile_plan(core, JoinStrategy.NLJ, base_vars=docs.values())
        msj = compile_plan(core, JoinStrategy.MSJ, base_vars=docs.values())
        assert isinstance(nlj, ForNode)
        assert isinstance(nlj.body, LetNode)
        assert isinstance(nlj.body.value, JoinForNode)
        assert nlj.body.value.strategy is JoinStrategy.NLJ
        assert isinstance(msj.body.value, JoinForNode)
        assert msj.body.value.strategy is JoinStrategy.MSJ
        assert msj.required_outer == frozenset()

    def test_q9_decorrelates_both_levels(self):
        from repro.compiler.plan import iter_plan
        from repro.xmark.queries import Q9
        core, docs = lower_query(parse_xquery(Q9))
        msj = compile_plan(core, JoinStrategy.MSJ, base_vars=docs.values())
        join_nodes = [node for node in iter_plan(msj)
                      if isinstance(node, JoinForNode)]
        assert len(join_nodes) == 2

    def test_where_node_body_free(self):
        core = Where(Empty(Var("a")), FnApp("concat", (Var("a"), Var("b"))))
        plan = compile_plan(core, JoinStrategy.MSJ, base_vars=BASE)
        assert isinstance(plan, WhereNode)
        assert plan.body_free == {"a", "b"}


class TestDecorrelationAblation:
    """Section 5's rewrite on vs off, on Q8: with ``decorrelate_loops``
    off even the merge engine copies the document per outer binding (the
    naive expansion's quadratic data blow-up); with it on, the NLJ / MSJ
    choice only changes the pair-matching operator."""

    @pytest.fixture(scope="class")
    def q8(self):
        from repro.xmark.queries import Q8
        compiled = compile_xquery(Q8)
        document = cached_document(0.002, seed=42)
        bindings = {var: document_forest(document)
                    for var in compiled.documents.values()}
        return compiled, bindings

    @staticmethod
    def plan(compiled, strategy: JoinStrategy, decorrelate_loops: bool):
        return compile_plan(compiled.core, strategy,
                            base_vars=compiled.documents.values(),
                            decorrelate_loops=decorrelate_loops)

    def test_all_configurations_agree(self, q8):
        compiled, bindings = q8
        results = {
            DIEngine().run_plan(
                self.plan(compiled, strategy, decorrelated), bindings)
            for strategy in (JoinStrategy.NLJ, JoinStrategy.MSJ)
            for decorrelated in (True, False)
        }
        assert len(results) == 1

    def test_decorrelation_removes_data_blowup(self, q8):
        """Without the rewrite, the expansion materializes outer copies;
        the document variable must be absent from the decorrelated plan's
        expansion requirements and present in the naive one's."""
        compiled, _ = q8
        naive = self.plan(compiled, JoinStrategy.MSJ, decorrelate_loops=False)
        rewritten = self.plan(compiled, JoinStrategy.MSJ,
                              decorrelate_loops=True)
        doc_vars = set(compiled.documents.values())
        assert naive.required_outer & doc_vars
        assert not (rewritten.required_outer & doc_vars)


class TestPlanFree:
    def test_var(self):
        assert plan_free(VarNode("x")) == {"x"}

    def test_let_binds(self):
        plan = LetNode("y", VarNode("x"), FnNode("concat",
                                                 (VarNode("y"), VarNode("z"))))
        assert plan_free(plan) == {"x", "z"}

    def test_joinfor_hides_base_reads(self):
        plan = JoinForNode(
            var="y",
            source=VarNode("doc"),
            key_outer=VarNode("x"),
            key_inner=VarNode("y"),
            body=VarNode("y"),
        )
        assert plan_free(plan) == {"x"}


class TestExplain:
    def test_explain_mentions_strategies(self):
        from repro.xmark.queries import Q8
        core, docs = lower_query(parse_xquery(Q8))
        nlj_text = explain_plan(compile_plan(core, JoinStrategy.NLJ,
                                             base_vars=docs.values()))
        msj_text = explain_plan(compile_plan(core, JoinStrategy.MSJ,
                                             base_vars=docs.values()))
        assert "nested-loop join" in nlj_text
        assert "structural merge join" in msj_text

    def test_explain_covers_conditions(self):
        core = Where(And(Empty(Var("a")), Not(Empty(Var("b")))), Var("a"))
        text = explain_plan(compile_plan(core, JoinStrategy.MSJ))
        assert "And" in text and "Not" in text and "Empty" in text


def _erase(value):
    """``value`` with every field the isolation rule sets at its default."""
    if isinstance(value, (PlanNode, CondPlan)):
        fields = {field.name: _erase(getattr(value, field.name))
                  for field in dataclasses.fields(value)}
        for name in ("required_outer", "body_free"):
            if name in fields:
                fields[name] = frozenset()
        if "isolate" in fields:
            fields["isolate"] = False
        return type(value)(**fields)
    if isinstance(value, tuple):
        return tuple(_erase(item) for item in value)
    return value


def _rule_texts():
    from repro.xmark.queries import EXTRA_QUERIES, QUERIES
    from tests.strategies import JOIN_FAMILY, JOIN_SOURCES

    texts = {**QUERIES, **EXTRA_QUERIES}
    texts.update({shape: template % {**JOIN_SOURCES, "K": "k"}
                  for shape, template in JOIN_FAMILY.items()})
    return texts


class TestIsolationRule:
    @pytest.mark.parametrize("strategy", list(JoinStrategy))
    @pytest.mark.parametrize("name", sorted(_rule_texts()))
    def test_every_isolable_join_and_nothing_else(self, name, strategy):
        """``optimize_stage`` isolates exactly the joins whose body reads
        only the join variable, drops their outer keys' copies, and
        changes nothing else about the syntactic plan."""
        compiled = compile_xquery(_rule_texts()[name])
        syntactic = plan_stage(compiled.core, strategy,
                               base_vars=compiled.documents.values())
        optimized = optimize_stage(syntactic)
        assert _erase(optimized) == _erase(syntactic)
        for node in iter_plan(optimized):
            if isinstance(node, JoinForNode):
                analysis = analyze_join(node)
                assert node.isolate == analysis.isolable
                assert node.required_outer == analysis.required_outer

    @pytest.mark.parametrize("name", ["Q1", "Q8", "Q8_ORIGINAL", "Q9"])
    def test_the_rule_isolates_the_join_texts(self, name):
        plan = optimize_stage(compile_xquery(_rule_texts()[name]).plan())
        joins = [node for node in iter_plan(plan)
                 if isinstance(node, JoinForNode)]
        assert joins and all(node.isolate for node in joins)
