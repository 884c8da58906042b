"""The join slice of the differential query fuzzer (ROADMAP item 1).

Every drawn case — a query of ``strategies.JOIN_FAMILY`` over a
two-collection document whose records carry flat, attribute, repeated,
missing and tree-valued keys — must get the Figure 3 interpreter's
answer, byte for byte, from the DI engine under both join strategies,
with and without the plan rules (join-body isolation, counted joins,
lifted chains), every plan node validated, under
the real int64 limit and under a 10-bit one (so ``renormalise`` and the
pair-index compaction run; what then fits neither way may be refused
with ``WidthOverflowError``, never answered wrongly), from SQLite, and
from a pool worker that attached the document through shared memory.

The profile is deterministic (``derandomize=True``, 25 examples for each
of the fourteen shapes under each limit): a disagreement is a reproducible
failure, to be committed below as a named regression.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings

from repro import XQuerySession
from repro.compiler.pipeline import optimize_stage, plan_stage
from repro.compiler.plan import JoinStrategy
from repro.engine.evaluator import DIEngine
from repro.errors import WidthOverflowError
from repro.xml.serializer import forest_to_xml
from repro.xquery.lowering import document_forest

from tests.strategies import (
    JOIN_DOCUMENT,
    JOIN_FAMILY,
    JOIN_SOURCES,
    join_cases,
)


@pytest.fixture(scope="module")
def session():
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_POOL_WORKERS", "1")
        with XQuerySession(admission=False, record=False) as active:
            yield active


@pytest.fixture
def int64_bits(request, shrink_int64):
    return request.param, shrink_int64(request.param)


REFUSED = "WidthOverflowError"


def answers(session: XQuerySession, query: str, bits: int) -> dict[str, str]:
    """``configuration → XML text`` from everything but the interpreter,
    over the session's current ``JOIN_DOCUMENT``.

    Under the 10-bit limit a case may be one that fits neither way; the
    typed refusal is then the answer (``REFUSED``), never a wrong one.
    So is SQLite's when the translation's inferred width passes its cap.
    """
    compiled = session.prepare(query)
    bindings = {var: document_forest(session.document(uri))
                for uri, var in compiled.documents.items()}
    found = {}
    for strategy in JoinStrategy:
        syntactic = plan_stage(compiled.core, strategy,
                               base_vars=compiled.documents.values())
        for rule, plan in (("isolated", optimize_stage(syntactic)),
                           ("syntactic", syntactic)):
            try:
                answer = forest_to_xml(
                    DIEngine(validate=True).run_plan(plan, bindings))
            except WidthOverflowError:
                answer = REFUSED
            found[f"engine {strategy.value} {rule} {bits} bits"] = answer
    if bits == 63:  # the other backends never see the engine's limit
        try:
            found["sqlite"] = session.run(query, backend="sqlite").to_xml()
        except WidthOverflowError:  # the SQL translation's width cap
            found["sqlite"] = REFUSED
        found["procpool"] = session.run(query, backend="procpool").to_xml()
    return found


@pytest.mark.parametrize("int64_bits", [63, 10], indirect=True)
@pytest.mark.parametrize("shape", sorted(JOIN_FAMILY))
def test_join_family_agrees_everywhere(shape, int64_bits, session):
    bits, remedies = int64_bits
    tally: Counter = Counter()

    @settings(max_examples=25, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=join_cases(shape))
    def check(case):
        query, document = case
        session.add_document(JOIN_DOCUMENT, document)
        expected = session.run(query, backend="interpreter").to_xml()
        found = answers(session, query, bits)
        answered = {name: answer for name, answer in found.items()
                    if answer != REFUSED}
        assert answered == dict.fromkeys(answered, expected), query
        tally["refused"] += len(found) - len(answered)
        tally["answered"] += len(answered)
        tally["non-empty"] += len(answered) if expected else 0

    check()
    # Loose floors (the drawn cases move with the source of ``check``):
    # some cases match something; the real limit refuses nothing and
    # needs no remedy; the small one is there to make the remedies run,
    # and what fits neither way stays a minority of its answers.
    assert tally["non-empty"] >= 8, tally
    if bits == 63:
        assert not tally["refused"] and not remedies, (tally, remedies)
    else:
        assert remedies["renormalise"] > 0, remedies
        assert tally["answered"] > tally["refused"], tally


def test_the_family_is_not_vacuous(session):
    """One fixed document on which every shape answers something, with
    the answers the family is about: matches, a miss, a repeat, a
    record without keys (deep-equal to another, ``=`` to none)."""
    from repro.xml.text_parser import parse_forest

    document = parse_forest(
        '<r><as><a id="a0" k="a"><k>a</k><k>a</k><k><t>b</t></k></a>'
        '<a id="a1"><k>c</k></a><a id="a2"/></as>'
        '<bs><b id="b0" k="a"><k>a</k></b>'
        '<b id="b1" k="b"><k><t>b</t></k><k>c</k></b>'
        '<b id="b2"><k>c</k></b><b id="b3"/></bs></r>')
    for shape, template in JOIN_FAMILY.items():
        query = template % {**JOIN_SOURCES, "K": "k"}
        session.add_document(JOIN_DOCUMENT, document)
        expected = session.run(query, backend="interpreter").to_xml()
        assert expected, shape
        found = answers(session, query, 63)
        assert found == dict.fromkeys(found, expected), shape
