"""The ``order by`` slice of the differential query fuzzer (ROADMAP
item 1).

Every drawn case — a query of ``strategies.ORDER_FAMILY`` over the join
slice's two-collection documents, whose repeated, missing and
tree-valued keys make equal and empty keys common — must get the
Figure 3 interpreter's answer, byte for byte, from every column of
``test_join_differential``: the DI engine under both join strategies,
with the plan rules (the order rule ranks the iterations) and without
(the lowering's packed ``<#tuple>`` sort), every plan node validated,
under the real int64 limit and a 10-bit one, from SQLite, and from a
pool worker.  Equal keys are broken by the bound values first and by
document order only after that; ``descending`` reverses the whole
order.

The profile is deterministic (``derandomize=True``, 25 examples for each
shape under each limit): a disagreement is a reproducible failure.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings

from repro import compile_xquery
from repro.compiler.pipeline import optimize_stage, plan_stage
from repro.compiler.plan import ForNode, JoinStrategy, iter_plan

from tests.strategies import (
    JOIN_DOCUMENT,
    JOIN_SOURCES,
    ORDER_FAMILY,
    order_cases,
)
from tests.test_join_differential import (  # noqa: F401 - fixtures
    REFUSED,
    answers,
    int64_bits,
    session,
)

#: The shapes the order rule must leave to the packed sort.
CONTROLS = {"two_fors", "join_stream"}

#: The shapes whose packed sort SQLite may refuse on a small document:
#: the width it squares is already a product of two loops'.
SQL_CAPPED = {"nested", "join_stream", "two_fors", "count_key"}


def ordered_loops(query: str, strategy: JoinStrategy) -> int:
    """How many ``for``s of ``query``'s optimized plan the order rule
    made ordered."""
    compiled = compile_xquery(query)
    plan = optimize_stage(plan_stage(compiled.core, strategy,
                                     base_vars=compiled.documents.values()))
    return sum(isinstance(node, ForNode) and node.order is not None
               for node in iter_plan(plan))


@pytest.mark.parametrize("strategy", list(JoinStrategy))
@pytest.mark.parametrize("shape", sorted(ORDER_FAMILY))
def test_the_rule_fires_on_the_family_but_the_controls(shape, strategy):
    query = ORDER_FAMILY[shape] % {**JOIN_SOURCES, "K": "k"}
    assert ordered_loops(query, strategy) == (shape not in CONTROLS)


@pytest.mark.parametrize("int64_bits", [63, 10], indirect=True)
@pytest.mark.parametrize("shape", sorted(ORDER_FAMILY))
def test_order_family_agrees_everywhere(shape, int64_bits, session):
    bits, remedies = int64_bits
    tally: Counter = Counter()

    @settings(max_examples=25, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=order_cases(shape))
    def check(case):
        query, document = case
        session.add_document(JOIN_DOCUMENT, document)
        expected = session.run(query, backend="interpreter").to_xml()
        found = answers(session, query, bits)
        answered = {name: answer for name, answer in found.items()
                    if answer != REFUSED}
        assert answered == dict.fromkeys(answered, expected), query
        tally["sql refused"] += found.get("sqlite") == REFUSED
        tally["refused"] += len(found) - len(answered)
        tally["answered"] += len(answered)
        ranked = [found[name] for name in found if "isolated" in name]
        tally["ranked refused"] += ranked.count(REFUSED)
        tally["ranked answered"] += len(ranked) - ranked.count(REFUSED)
        tally["several trees"] += len(answered) \
            if expected.count("<") > 1 else 0

    check()
    # Loose floors, as in the join slice.  At the real limit the engine
    # refuses nothing and some cases order several trees; SQLite may
    # refuse a packed sort whose inferred width — squared over nested
    # loops or tree-valued bindings — passes its cap.  The small limit
    # makes the remedies run; there the plans that keep the packed sort
    # (the syntactic ones, and the controls') may be refused more often
    # than answered, the ranked ones may not.
    if bits == 63:
        assert tally["refused"] == tally["sql refused"], tally
        assert tally["several trees"] >= 8, tally
    else:
        assert remedies["renormalise"] > 0, remedies
        assert shape in CONTROLS \
            or tally["ranked answered"] > tally["ranked refused"], tally


def test_equal_keys_fall_to_the_bound_values(session):
    """One fixed document on which every shape's ties matter: equal
    keys whose records are out of structural order in the document."""
    from repro.xml.text_parser import parse_forest

    document = parse_forest(
        '<r><as><a id="a3" k="c"><k><t>a</t></k></a>'
        '<a id="a2" k="a"><k>b</k></a><a id="a1" k="a"><k>b</k></a>'
        '<a id="a0"/></as>'
        '<bs><b id="b1" k="a"><k>b</k></b><b id="b0" k="a"><k>a</k></b>'
        '</bs></r>')
    for shape, template in ORDER_FAMILY.items():
        query = template % {**JOIN_SOURCES, "K": "k"}
        session.add_document(JOIN_DOCUMENT, document)
        expected = session.run(query, backend="interpreter").to_xml()
        assert expected, shape
        if shape == "plain":
            assert expected == ('<o a="a0"/><o a="a3"/><o a="a1"/>'
                                '<o a="a2"/>')
        found = answers(session, query, 63)
        if shape in SQL_CAPPED:
            found.pop("sqlite")
        assert found == dict.fromkeys(found, expected), shape
