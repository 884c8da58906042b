"""Tests for plan compilation, the Section 5 decorrelation rewrite and
the join-body isolation rule."""

import dataclasses
import re

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
    EmptyCond,
    EqualCond,
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


#: ``empty`` read off a counted join: ``count = "0"``.
_ZERO = FnNode("text_const", (), (("value", "0"),))


def _erase(value, chains=None, counted=frozenset()):
    """``value`` with every field the isolation rule sets at its default,
    every lifted chain put back where the lift rule took it from, every
    counted join's reads put back as ``count`` / ``empty`` — ``counted``
    holds the ``let`` variables bound to one — every ordered ``for`` put
    back as the lowering's packed sort, and every sorted tuple's carrier
    named ``#ord``.  (A ``let`` bound to ``count(J)`` would read as the
    let form; no text here has one.)"""
    chains = chains or {}
    if isinstance(value, str) and re.fullmatch(r"#ord\d+", value):
        return "#ord"
    if isinstance(value, ForNode) and value.order is not None:
        return _packed_sort(value, chains, counted)
    if isinstance(value, VarNode) and value.name in chains:
        return _erase(chains[value.name], None, counted)
    if isinstance(value, VarNode) and value.name in counted:
        return FnNode("count", (value,))
    if isinstance(value, EqualCond) and value.right == _ZERO:
        left = value.left
        if isinstance(left, VarNode) and left.name in counted:
            return EmptyCond(left)
        if isinstance(left, JoinForNode) and left.counts:
            return EmptyCond(_erase(dataclasses.replace(left, counts=False),
                                    chains, counted))
    if isinstance(value, LetNode) and isinstance(value.value, JoinForNode) \
            and value.value.counts:
        return LetNode(value.var,
                       _erase(dataclasses.replace(value.value, counts=False),
                              chains, counted),
                       _erase(value.body, chains, counted | {value.var}))
    if isinstance(value, JoinForNode) and value.counts:
        return FnNode("count", (_erase(
            dataclasses.replace(value, counts=False), chains, counted),))
    if isinstance(value, ForNode) and value.lifted:
        inner = {**chains, **{lifted.name: lifted.chain
                              for lifted in value.lifted}}
        erased = _erase(dataclasses.replace(value, lifted=(),
                                            reads_var=True), chains, counted)
        return dataclasses.replace(erased,
                                   body=_erase(value.body, inner, counted))
    if isinstance(value, (PlanNode, CondPlan)):
        fields = {field.name: _erase(getattr(value, field.name), chains,
                                     counted)
                  for field in dataclasses.fields(value)}
        for name in ("required_outer", "body_free"):
            if name in fields:
                fields[name] = frozenset()
        if "isolate" in fields:
            fields["isolate"] = False
        return type(value)(**fields)
    if isinstance(value, tuple):
        return tuple(_erase(item, chains, counted) for item in value)
    return value


def _rule_texts():
    from repro.xmark.queries import EXTRA_QUERIES, QUERIES
    from tests.strategies import JOIN_FAMILY, JOIN_SOURCES, ORDER_FAMILY

    texts = {**QUERIES, **EXTRA_QUERIES}
    texts.update({shape: template % {**JOIN_SOURCES, "K": "k"}
                  for shape, template in JOIN_FAMILY.items()})
    texts.update({f"order_{shape}": template % {**JOIN_SOURCES, "K": "k"}
                  for shape, template in ORDER_FAMILY.items()})
    return texts


def _xnode(child, label):
    return FnNode("xnode", (child,), (("label", label),))


def _packed_sort(loop, chains, counted):
    """The ordered ``loop`` erased back into the lowering's ``order by``
    (``_lower_ordered_flwr``): its clause chain packs the key and the
    ties into ``<#tuple>`` trees, ``sort`` (and ``reverse``) orders
    them, and a ``for`` over the carrier unpacks each tie before the
    return.  The loop's lifted chains are put back wherever it reads
    them, the return included."""
    chains = {**chains, **{lifted.name: lifted.chain
                           for lifted in loop.lifted}}
    order = loop.order
    body, lets = loop.body, []
    while isinstance(body, LetNode):
        lets.append(body)
        body = body.body
    packed = _xnode(order.key, "<#key>")
    for name in order.ties:
        packed = FnNode("concat", (packed,
                                   _xnode(VarNode(name), f"<#v_{name}>")))
    stream_body = _xnode(packed, "<#tuple>")
    if isinstance(body, WhereNode):
        stream_body = WhereNode(body.condition, stream_body)
        body = body.body
    for let in reversed(lets):
        stream_body = LetNode(let.var, let.value, stream_body)
    source = FnNode("sort", (ForNode(loop.var, loop.source, stream_body),))
    if order.descending:
        source = FnNode("reverse", (source,))
    for name in reversed(order.ties):
        body = LetNode(name, FnNode("children", (FnNode(
            "select", (FnNode("children", (VarNode("#ord"),)),),
            (("label", f"<#v_{name}>"),)),)), body)
    return _erase(ForNode("#ord", source, body), chains, counted)


class TestIsolationRule:
    @pytest.mark.parametrize("strategy", list(JoinStrategy))
    @pytest.mark.parametrize("name", sorted(_rule_texts()))
    def test_every_isolable_join_and_nothing_else(self, name, strategy):
        """``optimize_stage`` isolates exactly the joins whose body reads
        only the join variable, drops their outer keys' copies, and —
        the chains it lifted put back — changes nothing else about the
        syntactic plan."""
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


def _counted_joins(text: str, strategy=JoinStrategy.MSJ) -> list[bool]:
    """``counts`` of every join of ``text``'s optimized plan, pre-order."""
    compiled = compile_xquery(text)
    plan = optimize_stage(plan_stage(compiled.core, strategy,
                                     base_vars=compiled.documents.values()))
    return [node.counts for node in iter_plan(plan)
            if isinstance(node, JoinForNode)]


def _adhoc_q8() -> str:
    from perfbench.inputs import ADHOC_SHAPES
    return ADHOC_SHAPES["q8"].format(tag="row0", role="buyer", step="name")


class TestCountRule:
    """Section 6.2's "join + group": an isolated join read only through
    ``count`` / ``empty`` counts its pairs and builds none."""

    @pytest.mark.parametrize("strategy", list(JoinStrategy))
    @pytest.mark.parametrize("name, counted", [
        ("Q8", [True]), ("Q8_ORIGINAL", [True]), ("adhoc q8", [True]),
        ("Q9", [False, False])])
    def test_the_rule_counts_q8_and_not_q9(self, name, counted, strategy):
        text = _adhoc_q8() if name == "adhoc q8" else _rule_texts()[name]
        assert _counted_joins(text, strategy) == counted

    def test_the_let_form_rewrites_the_reads(self):
        from repro.xmark.queries import Q8
        compiled = compile_xquery(Q8)
        plan = optimize_stage(compiled.plan())
        let = plan.body
        assert isinstance(let, LetNode) and let.value.counts
        # where not(empty($a)) ... {count($a)}
        condition = let.body.condition.condition
        assert condition == EqualCond(VarNode("a"), FnNode(
            "text_const", (), (("value", "0"),)))
        assert "count" not in {node.fn for node in iter_plan(let.body)
                               if isinstance(node, FnNode)}
        assert "counted: no pairs built" in explain_plan(plan)

    @pytest.mark.parametrize("text, counted", [
        # count(J) and empty(J) inline, and a quantifier
        ('for $x in document("d")/r/x return '
         '<o>{count(for $y in document("d")/r/y '
         'where $y/k = $x/k return $y)}</o>', [True]),
        ('for $x in document("d")/r/x where empty('
         'for $y in document("d")/r/y where $y/k = $x/k return $y) '
         'return $x', [True]),
        ('for $x in document("d")/r/x where some $y in document("d")/r/y '
         'satisfies $y/k = $x/k return $x', [True]),
        # $a read as a forest anywhere
        ('for $x in document("d")/r/x let $a := for $y in document("d")/r/y '
         'where $y/k = $x/k return $y return <o>{count($a)}{$a}</o>',
         [False]),
        # a join whose body reads the outer variable is not isolated
        ('for $x in document("d")/r/x let $a := for $y in document("d")/r/y '
         'where $y/k = $x/k return $x return <o>{count($a)}</o>', [False]),
        # count(count(J)) counts the join once
        ('for $x in document("d")/r/x return <o>{count(count('
         'for $y in document("d")/r/y where $y/k = $x/k return $y))}</o>',
         [True]),
        # $a rebound under its let
        ('for $x in document("d")/r/x let $a := for $y in document("d")/r/y '
         'where $y/k = $x/k return $y return '
         '<o>{count($a)}{for $a in $x/k return $a}</o>', [False]),
    ])
    def test_where_the_rule_fires(self, text, counted):
        assert _counted_joins(text) == counted

    def test_a_plain_for_binding_is_not_counted(self):
        text = ('for $x in document("d")/r/x let $a := $x/k '
                'return <o>{count($a)}</o>')
        compiled = compile_xquery(text)
        plan = optimize_stage(compiled.plan())
        assert not [node for node in iter_plan(plan)
                    if isinstance(node, JoinForNode)]
        assert "count" in {node.fn for node in iter_plan(plan)
                           if isinstance(node, FnNode)}

    def test_counted_answers_match_the_interpreter(self):
        from repro import run_xquery
        doc = ('<r><x><k>a</k></x><x><k>b</k></x><x/>'
               '<y><k>a</k></y><y><k>a</k><k>b</k></y></r>')
        for text in ('for $x in document("d")/r/x return <o>{count(count('
                     'for $y in document("d")/r/y where $y/k = $x/k '
                     'return $y))}</o>',
                     'for $x in document("d")/r/x let $a := for $y in '
                     'document("d")/r/y where $y/k = $x/k return $y/k '
                     'return <o n="{count($a)}">{if (empty($a)) '
                     'then <none/> else <some/>}</o>'):
            answers = {run_xquery(text, {"d": doc}, backend=backend,
                                  strategy=strategy).to_xml()
                       for backend, strategy in (("interpreter", "msj"),
                                                 ("engine", "msj"),
                                                 ("engine", "nlj"))}
            assert len(answers) == 1, answers

    def test_the_pass_record_counts_them(self):
        from repro.compiler.pipeline import PassRecord
        from repro.xmark.queries import Q8
        compiled = compile_xquery(Q8)
        records: list[PassRecord] = []
        optimize_stage(compiled.plan(), records)
        (record,) = records
        assert record.detail == ("1 join(s), 1 isolated, 1 counted, "
                                 "0 ordered, 2 chain(s) lifted")


def _ordered_loops(text: str, strategy=JoinStrategy.MSJ) -> list:
    """The ``order`` of every ``for`` the order rule made ordered in
    ``text``'s optimized plan, pre-order."""
    compiled = compile_xquery(text)
    plan = optimize_stage(plan_stage(compiled.core, strategy,
                                     base_vars=compiled.documents.values()))
    return [node.order for node in iter_plan(plan)
            if isinstance(node, ForNode) and node.order is not None]


#: The ``order by`` texts of ``tests/test_surface_extensions.py`` — but
#: the one whose ``where $p/age/text() = "36"`` decorrelates into a
#: constant-key join, whose stream keeps the packed sort.
_PEOPLE = 'for $p in document("d")/site/people/person '
_SURFACE_ORDER_TEXTS = [
    _PEOPLE + 'order by $p/name/text() return $p/name/text()',
    _PEOPLE + 'order by $p/name/text() descending return $p/name/text()',
    _PEOPLE + 'order by $p/age/text() return $p/name/text()',
    _PEOPLE + 'let $n := $p/name/text() order by $n return <x>{$n}</x>',
    _PEOPLE + 'order by $p/name/text() return <p id="{$p/@id}"/>',
    'for $b in document("d.xml")/site/i let $k := $b/loc/text() '
    'order by $k descending return $b/n',
]


#: Q8 ordered by its count: the ``let``-bound join is a tie.
_Q8_ORDERED = (
    'for $p in document("auction.xml")/site/people/person '
    'let $a := for $t in document("auction.xml")/site/closed_auctions/'
    'closed_auction where $t/buyer/@person = $p/@id return $t '
    'order by count($a) descending '
    'return <item person="{$p/name/text()}">{count($a)}</item>')


class TestOrderRule:
    """An ``order by`` ranks its iterations: the packed ``<#tuple>``
    sort becomes an ordered ``for`` over the stream's own clauses."""

    @pytest.mark.parametrize("strategy", list(JoinStrategy))
    @pytest.mark.parametrize("text", ["Q19", *_SURFACE_ORDER_TEXTS])
    def test_the_rule_fires(self, text, strategy):
        text = _rule_texts().get(text, text)
        (order,) = _ordered_loops(text, strategy)
        assert order.descending == ("descending" in text)

    def test_q19_plan(self):
        from repro.xmark.queries import Q19
        plan = optimize_stage(compile_xquery(Q19).plan())
        assert isinstance(plan, ForNode) and plan.var == "b"
        assert plan.order.ties == ("b", "k") and not plan.order.descending
        assert plan.order.key == FnNode("data", (VarNode("k"),))
        assert plan.reads_var and len(plan.lifted) == 2
        # No sort, no tuple: the body is the let and the return.
        assert not [node for node in iter_plan(plan)
                    if isinstance(node, FnNode) and (
                        node.fn == "sort" or "#" in dict(node.params).get(
                            "label", ""))]
        assert isinstance(plan.body, LetNode) and plan.body.var == "k"

    @pytest.mark.parametrize("text", [
        # a user-written sort
        'for $x in sort(document("d")/r/x) return $x',
        'for $x in reverse(sort(for $y in document("d")/r/x return $y)) '
        'return $x',
        # two for clauses, or a let before the for
        'for $x in document("d")/r/x for $y in $x/y order by $y '
        'return $y',
        'let $r := document("d")/r for $x in $r/x order by $x return $x',
        # a stream decorrelated into a join: correlated, or on a
        # constant key
        'for $x in document("d")/r/x return <o>{for $y in '
        'document("d")/r/y where $y/k = $x/k order by $y/@id '
        'return $y}</o>',
        _PEOPLE + 'where $p/age/text() = "36" order by $p/name/text() '
        'descending return $p/name/text()',
        # a return that starts with a let: it would read as a clause
        'for $x in document("d")/r/x order by $x '
        'return let $y := $x/y return $y',
    ])
    @pytest.mark.parametrize("strategy", list(JoinStrategy))
    def test_where_the_rule_does_not_fire(self, text, strategy):
        assert _ordered_loops(text, strategy) == []

    def test_a_where_passes_on_what_the_ordering_reads(self):
        text = ('for $x in document("d")/r/x let $v := $x/v '
                'where not(empty($x/w)) order by $x/w return <o/>')
        (plan,) = [node for node in iter_plan(
            optimize_stage(compile_xquery(text).plan()))
            if isinstance(node, ForNode)]
        where = plan.body.body
        assert isinstance(where, WhereNode)
        assert {"x", "v"} <= where.body_free

    def test_explain_says_what_ran(self):
        from repro import XQuerySession
        from repro.xmark.queries import Q19
        from repro.compiler.pipeline import PassRecord
        plan = optimize_stage(compile_xquery(Q19).plan())
        text = explain_plan(plan)
        assert "ordered: iterations ranked, no tuple built" in text
        assert "order by (ascending; ties $b, $k, then iteration order):" \
            in text
        records: list[PassRecord] = []
        optimize_stage(compile_xquery(Q19).plan(), records)
        assert records[0].detail == ("0 join(s), 0 isolated, 0 counted, "
                                     "1 ordered, 2 chain(s) lifted")
        with XQuerySession(admission=False, record=False) as session:
            session.add_document("auction.xml", (cached_document(0.002),))
            analyzed = session.explain(Q19, analyze=True)
        ranked = analyzed.splitlines()[0]
        assert re.search(r"ordered: \d+ iterations ranked, no tuple built",
                         ranked), ranked
        assert "Fn:sort" not in analyzed and "#tuple" not in analyzed

    @pytest.mark.parametrize("strategy", list(JoinStrategy))
    def test_a_tie_bound_to_a_join_is_not_counted(self, strategy):
        """The ranking reads every tie as a forest — and here the key
        reads ``$a`` too — so the count rule leaves the ``let``'s join
        uncounted, although the return reads ``$a`` only through
        ``count``."""
        compiled = compile_xquery(_Q8_ORDERED)
        plan = optimize_stage(plan_stage(
            compiled.core, strategy, base_vars=compiled.documents.values()))
        (loop,) = [node for node in iter_plan(plan)
                   if isinstance(node, ForNode) and node.order is not None]
        assert loop.order.ties == ("p", "a")
        (join,) = [node for node in iter_plan(plan)
                   if isinstance(node, JoinForNode)]
        assert join.isolate and not join.counts

    @pytest.mark.parametrize("strategy", list(JoinStrategy))
    @pytest.mark.parametrize("text", ["Q19", _Q8_ORDERED])
    def test_answers_match_the_packed_sort(self, text, strategy):
        compiled = compile_xquery(_rule_texts().get(text, text))
        bindings = {var: document_forest((cached_document(0.002),))
                    for var in compiled.documents.values()}
        syntactic = plan_stage(compiled.core, strategy,
                               base_vars=compiled.documents.values())
        optimized = optimize_stage(syntactic)
        assert DIEngine(validate=True).run_plan(optimized, bindings) \
            == DIEngine().run_plan(syntactic, bindings)
