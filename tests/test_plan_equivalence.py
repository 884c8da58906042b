"""Join-body isolation is semantically transparent.

The isolation rule (``optimize_stage``) rewrites every join whose body
reads only its join variable — but the result forest must be
*identical* to the faithful syntactic plan (``plan_stage`` alone), and
to every backend, for every document.  A fixed query family covers
decorrelated nested FLWORs with residuals, inner-only conjuncts,
count-wrapped joins and a body that cannot be isolated; a Hypothesis
layer replays the family over random forests.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings

from repro import XQuerySession, compile_xquery
from repro.api import as_forest
from repro.backends.base import coerce_strategy
from repro.compiler.pipeline import optimize_stage, plan_stage
from repro.engine.evaluator import DIEngine
from repro.xmark.queries import FIGURE1_SAMPLE
from repro.xquery.lowering import document_forest

from tests.strategies import forests

DOC = "d.xml"

#: Each query produces output on a document where the predicates
#: actually match.
QUERIES = {
    # Decorrelated nested FLWOR: isolable body, equality residual.
    "join": (
        f'for $x in document("{DOC}")/r/a '
        f'for $y in document("{DOC}")/r/b '
        f'where $x/c = $y/c return <m>{{$y/c}}</m>'
    ),
    # Inner-only second conjunct: it stays in the residual on the pair
    # sequence, and the SQL path emits the conjunction as written.
    "pushdown": (
        f'for $x in document("{DOC}")/r/a '
        f'for $y in document("{DOC}")/r/b '
        f'where $x/c = $y/c and $y/c = "x" return $x'
    ),
    # Aggregate over the join output.
    "count": (
        f'count(for $x in document("{DOC}")/r/a '
        f'for $y in document("{DOC}")/r/b '
        f'where $x/c = $y/c return $y)'
    ),
    # Three-way chain: the innermost loop becomes an isolated join whose
    # residual reads both outer bindings.
    "chain": (
        f'for $x in document("{DOC}")/r/a '
        f'for $y in document("{DOC}")/r/b '
        f'for $z in document("{DOC}")/r/c '
        f'where $x/c = $y/c and $y/c = $z/c return <t>{{$z}}</t>'
    ),
    # Body reads the outer binding too: NOT isolable — the rule must
    # leave it alone, and the conservative path must still be correct.
    "correlated-body": (
        f'for $x in document("{DOC}")/r/a '
        f'for $y in document("{DOC}")/r/b '
        f'where $x/c = $y/c return <p>{{$x/c}}{{$y/c}}</p>'
    ),
}

#: A document where every query above produces non-empty output.
MATCHING_DOC = (
    "<r>"
    "<a><c>x</c></a><a><c>y</c></a>"
    "<b><c>x</c></b><b><c>y</c></b><b><c>z</c></b>"
    "<c><c>x</c></c>"
    "</r>"
)

BACKENDS = ("engine", "interpreter", "naive", "sqlite")


def _engine_pair(query, document, strategy):
    """(rule applied, rule not applied) result forests from ``DIEngine``,
    every node's result and environment index validated."""
    compiled = compile_xquery(query)
    syntactic = plan_stage(compiled.core, coerce_strategy(strategy),
                           base_vars=compiled.documents.values())
    bindings = {compiled.documents[DOC]: document_forest(as_forest(document))}
    return tuple(DIEngine(validate=True).run_plan(plan, bindings)
                 for plan in (optimize_stage(syntactic), syntactic))


class TestFixedFamily:
    # 10 bits: every join of the family overflows on MATCHING_DOC, so
    # both plans run through renormalise and index compaction.
    @pytest.mark.parametrize("bits", [63, 10])
    @pytest.mark.parametrize("strategy", ["msj", "nlj"])
    @pytest.mark.parametrize("name", sorted(QUERIES))
    def test_optimized_equals_syntactic(self, name, strategy, bits,
                                        shrink_int64):
        remedies = shrink_int64(bits)
        optimized, syntactic = _engine_pair(QUERIES[name], MATCHING_DOC,
                                            strategy)
        assert optimized == syntactic
        assert (bits == 63) != (remedies["renormalise"] > 0
                                and remedies["compact"] > 0)
        with XQuerySession() as session:
            session.add_document(DOC, MATCHING_DOC)
            assert optimized == session.run(QUERIES[name],
                                            backend="interpreter").forest
        if name != "count":
            assert len(optimized) > 0  # the family must not test vacuously

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("name", sorted(QUERIES))
    def test_all_backends_agree(self, name, backend):
        query = QUERIES[name]
        with XQuerySession() as session:
            session.add_document(DOC, MATCHING_DOC)
            expected = session.run(query, backend="interpreter").forest
            assert session.run(query, backend=backend).forest == expected

    def test_figure1_join_q8_shape(self):
        from repro.xmark.queries import Q8
        query = Q8.replace('document("auction.xml")', f'document("{DOC}")')
        optimized, syntactic = _engine_pair(query, FIGURE1_SAMPLE, "msj")
        assert optimized == syntactic
        assert len(optimized) > 0


class TestRandomDocuments:
    """The family again, over arbitrary forests (including empty ones)."""

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(document=forests(max_trees=4, max_depth=3))
    def test_join_family_engine(self, document):
        for name in ("join", "pushdown", "count"):
            optimized, syntactic = _engine_pair(QUERIES[name], document,
                                                "msj")
            assert optimized == syntactic, name

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(document=forests(max_trees=3, max_depth=3))
    def test_join_matches_interpreter(self, document):
        query = QUERIES["join"]
        with XQuerySession() as session:
            session.add_document(DOC, document)
            assert (session.run(query, backend="engine").forest
                    == session.run(query, backend="interpreter").forest)
