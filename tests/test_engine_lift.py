"""Lifted path chains: a ``for`` body's paths over its own variable,
evaluated once over the source and re-blocked into the iterations.

* **Definition 3.3** — ``kernels.reblock(chain(S))`` decodes, per
  iteration, to the chain applied to that iteration's tree — what the
  chain over ``expand_variable(S)`` gives — for child, attribute,
  ``text()``, ``data`` and single-``//`` chains, under the real int64
  limit and under a 10-bit one (where the blocks are rank-compressed);
* **the rule** — which chains ``optimize_plan`` lifts and which it
  leaves: rebinding ``let`` / ``for``, ``where``, inner ``for`` bodies,
  ``count($r//item)``, and a source that is no document chain;
* **evaluation** — answers equal the unlifted plan's and the Figure 3
  interpreter's, an iteration index compacted for an outer binding
  re-blocks by iteration number, a renormalised source runs its chains
  per iteration, and a body that reads its variable only through lifted
  chains never expands it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.api import as_snapshot, compile_xquery
from repro.compiler.pipeline import optimize_stage, plan_stage
from repro.compiler.plan import (FnNode, ForNode, JoinStrategy, LetNode,
                                 VarNode, WhereNode, iter_plan)
from repro.compiler.planner import explain_plan
from repro.encoding.interval import decode, encode
from repro.engine import kernels
from repro.engine.columns import IntervalColumns
from repro.engine.evaluator import DIEngine, EnvSeq
from repro.engine.validate import validate_value
from repro.errors import WidthOverflowError
from repro.obs.trace import Tracer
from repro.xml.serializer import forest_to_xml
from repro.xml.text_parser import parse_forest
from repro.xquery.functions import FUNCTIONS
from repro.xquery.interpreter import evaluate
from repro.xquery.lowering import document_forest

from tests.def33 import env_forests
from tests.strategies import forests

X = VarNode("x")


def _fn(fn: str, arg, label: str | None = None) -> FnNode:
    return FnNode(fn, (arg,), (("label", label),) if label else ())


#: Chains over ``$x`` (innermost step last in the name).
CHAINS = {
    "child": _fn("select", _fn("children", X), "<a>"),
    "attribute": _fn("data", _fn("select", _fn("children", X), "@id")),
    "text": _fn("data", _fn("textnodes", _fn("children", X))),
    "data": _fn("data", X),
    "descendant": _fn("select", _fn("subtrees_dfs", _fn("children", X)),
                      "<b>"),
    "descendant-child": _fn("select", _fn("children", _fn(
        "select", _fn("subtrees_dfs", _fn("children", X)), "<a>")), "<c>"),
}


def _steps(chain) -> list[FnNode]:
    """The chain's XFns, innermost first."""
    steps = []
    while isinstance(chain, FnNode):
        steps.append(chain)
        chain = chain.args[0]
    return steps[::-1]


def _figure2(chain, tree) -> tuple:
    """The chain's Figure 2 operators applied to the one-tree forest."""
    forest = (tree,)
    for step in _steps(chain):
        forest = FUNCTIONS[step.fn].impl((forest,), dict(step.params))
    return forest


# -- Definition 3.3 -----------------------------------------------------------

@pytest.fixture
def int64_bits(request, shrink_int64):
    return request.param, shrink_int64(request.param)


@pytest.mark.parametrize("int64_bits", [63, 10], indirect=True)
@pytest.mark.parametrize("numbering", ["left endpoints", "dense"])
@pytest.mark.parametrize("name", sorted(CHAINS))
def test_reblock_is_the_chain_over_the_expansion(name, numbering,
                                                  int64_bits):
    """Per iteration ``k``, ``reblock(chain(S))`` decodes to the chain
    over tree ``k`` of ``S`` alone — Definition 3.3 of the chain over
    ``expand_variable(S)`` — and passes ``validate_value``; under the
    real limit it *is* the engine's chain over the expansion, column for
    column.  Iterations are numbered by root left endpoint (Section 4)
    or densely (a compacted index)."""
    bits, remedies = int64_bits
    chain = CHAINS[name]
    tally = {"checked": 0, "compressed": 0}

    @settings(max_examples=60, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(trees=forests(max_depth=3 if bits < 63 else 4))
    def check(trees):
        encoded = encode(trees)
        source = (IntervalColumns.from_tuples(encoded.tuples),
                  max(encoded.width, 1))
        cols, width = source
        if not len(cols) or (kernels.overflows((0,), width * width)
                             and "descendant" in name):
            return  # the evaluator expands instead (see _eval_for)
        roots = kernels.roots(cols).l
        index = roots if numbering == "left endpoints" \
            else np.arange(len(roots), dtype=np.int64)
        if kernels.overflows(index[-1:], width):
            return  # the loop numbers its iterations densely, or refuses
        rel, chain_width = DIEngine(validate=True).run_plan_values(
            chain, {"x": source})
        expanded = kernels.expand_variable(cols, width, index)
        try:
            direct = DIEngine(validate=True).evaluate(
                chain, EnvSeq(index, {"x": (expanded, width)}))
        except WidthOverflowError:
            direct = None
        before = remedies["renormalise"]
        try:
            moved, moved_width = kernels.reblock(rel, chain_width, roots,
                                                 width, index)
        except WidthOverflowError:
            # Refused only where the expansion's chain is refused too.
            assert direct is None
            return
        tally["compressed"] += remedies["renormalise"] > before
        tally["checked"] += 1
        validate_value(moved, moved_width, index)
        expected = [_figure2(chain, tree) for tree in trees]
        assert env_forests(moved, moved_width, index.tolist()) == expected
        if bits == 63:
            assert direct == (moved, moved_width)

    check()
    assert tally["checked"] >= 20, tally
    # Only a // chain's squared blocks can leave int64 where the source's
    # own blocks fit.
    if bits == 63 or "descendant" not in name:
        assert tally["compressed"] == 0, tally
    elif name == "descendant":
        assert tally["compressed"] > 0, tally


def test_reblock_refuses_what_fits_neither_way(shrink_int64):
    """Blocks that leave int64 even rank-compressed are refused with
    ``WidthOverflowError``, never wrapped."""
    shrink_int64(10)
    cols = IntervalColumns.from_tuples([("<a>", 0, 9), ("<b>", 1, 8),
                                        ("<c>", 2, 7), ("<d>", 3, 6)])
    with pytest.raises(WidthOverflowError):
        kernels.reblock(cols, 10, np.array([0]), 10,
                        np.array([1000], dtype=np.int64))


# -- the rule -----------------------------------------------------------------

DOC = 'document("d.xml")'
DOCUMENT = ("<r><a id='1'><k>x</k><b>u</b><b><c>v</c></b></a>"
            "<a id='2'><k>y</k><b>w</b></a><a id='3'/></r>")


def _plan(query: str, strategy: JoinStrategy = JoinStrategy.MSJ):
    compiled = compile_xquery(query)
    syntactic = plan_stage(compiled.core, strategy,
                           base_vars=compiled.documents.values())
    return compiled, syntactic, optimize_stage(syntactic)


def _loops(plan) -> list[ForNode]:
    return [node for node in iter_plan(plan) if isinstance(node, ForNode)]


def _answers(query: str) -> set[str]:
    """The optimized plan's, the syntactic plan's and the interpreter's
    answers (validated, under both strategies): one element when they
    agree."""
    found = set()
    for strategy in JoinStrategy:
        compiled, syntactic, optimized = _plan(query, strategy)
        bindings = {var: document_forest(parse_forest(DOCUMENT))
                    for var in compiled.documents.values()}
        found.add(forest_to_xml(evaluate(compiled.core, bindings)))
        for plan in (syntactic, optimized):
            found.add(forest_to_xml(
                DIEngine(validate=True).run_plan(plan, bindings)))
    return found


def _chain_labels(chain) -> list[str]:
    return [step.param("label") for step in _steps(chain)
            if step.fn == "select"]


class TestRule:
    def test_a_rebinding_let_stops_the_lift(self):
        query = (f"for $p in {DOC}/r/a return "
                 "let $p := $p/b return <o>{$p/c}</o>")
        _compiled, _syntactic, plan = _plan(query)
        (loop,) = _loops(plan)
        (lifted,) = loop.lifted
        assert _chain_labels(lifted.chain) == ["<b>"]
        let = loop.body
        assert isinstance(let, LetNode) and let.value == VarNode("p#1")
        # Below the let, $p is the let's: its /c stays in the body.
        assert VarNode("p") in iter_plan(let.body)
        assert not loop.reads_var
        assert len(_answers(query)) == 1

    def test_a_rebinding_for_stops_the_lift(self):
        query = (f"for $p in {DOC}/r/a return "
                 "for $p in $p/b return <o>{$p/c}</o>")
        _compiled, _syntactic, plan = _plan(query)
        outer, inner = _loops(plan)
        (lifted,) = outer.lifted
        assert inner.source == VarNode("p#1") and not inner.lifted
        assert _chain_labels(inner.body.args[0]) == ["<c>"]
        assert len(_answers(query)) == 1

    def test_a_chain_under_where(self):
        query = (f"for $p in {DOC}/r/a where not(empty($p/k)) "
                 "return <o>{$p/@id/text()}</o>")
        _compiled, _syntactic, plan = _plan(query)
        (loop,) = _loops(plan)
        assert len(loop.lifted) == 2 and not loop.reads_var
        where = loop.body
        assert isinstance(where, WhereNode)
        (ids,) = [lifted.name for lifted in loop.lifted
                  if _chain_labels(lifted.chain) == ["@id"]]
        assert where.body_free == {ids}
        assert len(_answers(query)) == 1

    def test_a_chain_inside_an_inner_for_body(self):
        """The inner loop copies the small lifted value, not ``$p``; its
        own chains over ``$q`` stay (it is not at the base)."""
        query = (f"for $p in {DOC}/r/a return "
                 f"for $q in {DOC}/r/a/b return <o>{{$p/@id}}{{$q/c}}</o>")
        _compiled, _syntactic, plan = _plan(query)
        outer, inner = _loops(plan)
        assert [lifted.name for lifted in outer.lifted] == ["p#1"]
        assert not outer.reads_var
        assert inner.required_outer == {"p#1"} and not inner.lifted
        assert len(_answers(query)) == 1

    def test_count_of_a_descendant_chain(self):
        query = f"for $r in {DOC}/r/* return <n>{{count($r//b)}}</n>"
        _compiled, _syntactic, plan = _plan(query)
        (loop,) = _loops(plan)
        (lifted,) = loop.lifted
        assert [step.fn for step in _steps(lifted.chain)] == [
            "children", "subtrees_dfs", "select"]
        assert lifted.rooted == FnNode(
            "select", (FnNode("subtrees_dfs", (FnNode(
                "children", (loop.source,)),)),), (("label", "<b>"),))
        assert not loop.reads_var
        assert len(_answers(query)) == 1

    def test_two_descendant_steps_lift_the_first(self):
        query = f"for $r in {DOC}/r return <n>{{count($r//b//c)}}</n>"
        _compiled, _syntactic, plan = _plan(query)
        (loop,) = _loops(plan)
        (lifted,) = loop.lifted
        assert _chain_labels(lifted.chain) == ["<b>"]
        assert len(_answers(query)) == 1

    @pytest.mark.parametrize("query", [
        f"let $x := {DOC}/r return for $p in $x/a return $p/b",
        f"for $p in ({DOC}/r/a, {DOC}/r/a) return $p/b",
    ])
    def test_a_source_that_is_no_document_chain_is_left_alone(self, query):
        _compiled, _syntactic, plan = _plan(query)
        assert all(not loop.lifted and loop.reads_var
                   for loop in _loops(plan))
        assert len(_answers(query)) == 1

    def test_explain_shows_the_lifted_bindings(self):
        _compiled, _syntactic, plan = _plan(
            f"for $r in {DOC}/r/* return <n>{{count($r//b)}}</n>")
        text = explain_plan(plan)
        assert "For $r [nested-loop expansion; 1 lifted, $r not expanded" \
            in text
        assert "lifted $r#1 (over the source, re-blocked):" in text
        assert "Var($r#1)" in text


# -- evaluation ---------------------------------------------------------------

def test_a_compacted_index_reblocks_by_iteration_number(shrink_int64):
    """An outer binding much wider than the source makes the loop number
    its iterations densely; the lifted chain must then move to those
    numbers, not to its trees' left endpoints."""
    remedies = shrink_int64(10)
    source = "<r><a id='1'/><a id='2'/><a id='3'/></r>"
    wide = "<r>" + "<z>k</z>" * 40 + "</r>"
    query = ('for $x in document("s.xml")/r/a return '
             '<o>{$x/@id/text()}{document("b.xml")/r/z/text()}</o>')
    compiled = compile_xquery(query)
    bindings = {compiled.documents["s.xml"]: document_forest(
                    parse_forest(source)),
                compiled.documents["b.xml"]: document_forest(
                    parse_forest(wide))}
    _compiled, _syntactic, plan = _plan(query)
    assert not _loops(plan)[0].reads_var
    answer = DIEngine(validate=True).run_plan(plan, bindings)
    assert remedies["compact"] > 0
    assert answer == evaluate(compiled.core, bindings)


def test_a_source_too_wide_even_renormalised_runs_per_iteration(
        shrink_int64):
    """At 10 bits the loop's 19-row source is renormalised to width 38,
    whose square still leaves int64: lifted over it, ``$x/c//b`` would
    be renormalised again inside the chain and lose the trees
    ``reblock`` maps its rows to, so the chains run per iteration over
    the expansion, and the answer is the interpreter's."""
    remedies = shrink_int64(10)
    source = ("<r><z/><a/><a><b/><c><c>t</c><c><c/><c/><b/></c></c></a>"
              "<a><d><c><d>t</d><d>t</d><d>t</d></c></d></a></r>")
    query = 'for $x in document("d.xml")/r/a return <o>{$x/c//b}</o>'
    compiled, _syntactic, plan = _plan(query)
    assert _loops(plan)[0].lifted
    bindings = {var: document_forest(parse_forest(source))
                for var in compiled.documents.values()}
    answer = DIEngine(validate=True).run_plan(plan, bindings)
    assert remedies["renormalise"] > 0
    assert forest_to_xml(answer) == forest_to_xml(
        evaluate(compiled.core, bindings))


def test_a_body_reading_only_lifted_chains_expands_nothing():
    from repro.xmark.generator import cached_document
    from repro.xmark.queries import Q13

    compiled = compile_xquery(Q13)
    plan = optimize_stage(compiled.plan())
    document = as_snapshot(cached_document(0.001, seed=42))
    values = {var: document for var in compiled.documents.values()}
    tracer = Tracer()
    rel, _width = DIEngine(tracer=tracer).run_plan_values(plan, values)
    names = {span.name for root in tracer.roots for span in root.walk()}
    assert "engine.kernel.reblock" in names
    assert "engine.kernel.expand_variable" not in names
    unlifted = DIEngine().run_plan_values(compiled.plan(), values)[0]
    assert decode(rel) == decode(unlifted)


@pytest.mark.parametrize("bits", [63, 31])
@pytest.mark.parametrize("strategy", list(JoinStrategy))
def test_xmark_texts_lifted_unlifted_cold_warm(strategy, bits, xmark_tiny,
                                               shrink_int64):
    """Every XMark text, validated: the syntactic plan, the optimized one
    cold, and the optimized one twice on a memo (filling it, then served
    from it) answer the Figure 3 interpreter's bytes — at 31 bits too,
    where Q6's lifted ``//item`` is rank-compressed into its blocks."""
    from repro.engine.memo import DocumentMemo
    from repro.xmark.queries import EXTRA_QUERIES, QUERIES

    shrink_int64(bits)
    for name, text in {**QUERIES, **EXTRA_QUERIES}.items():
        compiled, syntactic, optimized = _plan(text, strategy)
        bindings = {var: document_forest((xmark_tiny,))
                    for var in compiled.documents.values()}
        values = {var: as_snapshot(xmark_tiny)
                  for var in compiled.documents.values()}
        memos = {var: DocumentMemo(*value) for var, value in values.items()}
        expected = forest_to_xml(evaluate(compiled.core, bindings))
        for label, plan, memo in (("unlifted", syntactic, None),
                                  ("cold", optimized, None),
                                  ("filling", optimized, memos),
                                  ("warm", optimized, memos)):
            rel, _width = DIEngine(validate=True).run_plan_values(
                plan, values, memo)
            assert forest_to_xml(decode(rel)) == expected, (name, label)
