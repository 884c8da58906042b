"""EXPLAIN ANALYZE: ``session.explain(analyze=True)`` and the per-node
observations it reads off one traced run's op spans
(``repro.compiler.planner.node_observations``)."""

import re

import pytest

from repro.compiler.plan import JoinForNode, iter_plan
from repro.compiler.pipeline import optimize_stage
from repro.compiler.planner import node_observations
from repro.engine.evaluator import DIEngine
from repro.obs.trace import Tracer
from repro.session import XQuerySession
from repro.xmark.queries import FIGURE1_SAMPLE, Q8
from repro.xml.serializer import forest_to_xml
from repro.xquery.lowering import document_forest

ANSWER = '<item person="Cong Rosca">1</item>'
OBS = re.compile(r"  — obs (\d+) tuples, w=(\d+), (\d+) envs, "
                 r"(\d+\.\d) ms(, \d+×)?$")
NODE_LINES = ("Var(", "Fn:", "Let ", "Where", "For ", "JoinFor ")


@pytest.fixture(scope="module")
def session():
    with XQuerySession() as active:
        active.add_document("auction.xml", FIGURE1_SAMPLE)
        yield active


@pytest.fixture(scope="module")
def analyzed(session):
    return session.explain(Q8, analyze=True)


@pytest.fixture(scope="module")
def q8_observed(session):
    compiled = session.prepare(Q8)
    plan = optimize_stage(compiled.plan())
    bindings = {var: document_forest(session.document(uri))
                for uri, var in compiled.documents.items()}
    tracer = Tracer()
    result = DIEngine(tracer=tracer).run_plan(plan, bindings)
    return plan, bindings, node_observations(tracer.roots), result


class TestObservations:
    def test_result_is_unchanged(self, session, q8_observed):
        plan, bindings, _observed, result = q8_observed
        assert forest_to_xml(result) == ANSWER
        assert result == DIEngine().run_plan(plan, bindings)
        assert session.run(Q8).to_xml() == ANSWER
        session.explain(Q8, analyze=True)
        assert session.run(Q8).to_xml() == ANSWER

    def test_root_time_positive(self, q8_observed):
        plan, _bindings, observed, _result = q8_observed
        root = observed[id(plan)]
        assert root.seconds > 0
        assert root.calls == 1 and root.tuples > 0

    def test_every_evaluated_node_shows_tuples_and_ms(self, analyzed,
                                                      q8_observed):
        _plan, _bindings, observed, _result = q8_observed
        lines = [line for line in analyzed.splitlines() if "— obs" in line]
        assert all(OBS.search(line) for line in lines), lines
        assert OBS.search(analyzed.splitlines()[0])  # the root ran
        assert len(lines) == len(observed)

    def test_join_node_measured(self, analyzed, q8_observed):
        plan, _bindings, observed, _result = q8_observed
        join = next(node for node in iter_plan(plan)
                    if isinstance(node, JoinForNode))
        assert observed[id(join)].calls == 1
        assert observed[id(join)].width > 0
        (line,) = [line for line in analyzed.splitlines()
                   if line.lstrip().startswith("JoinFor ")]
        tuples, width, envs, _ms, calls = OBS.search(line).groups()
        assert int(width) > 0 and int(envs) > 0 and calls is None

    def test_inclusive_times_nest(self, q8_observed):
        plan, _bindings, observed, _result = q8_observed
        for node in iter_plan(plan):
            seen = observed.get(id(node))
            if seen is None:
                continue
            for inner in iter_plan(node):
                if id(inner) in observed:
                    assert observed[id(inner)].seconds <= seen.seconds


class TestRendering:
    def test_render_contains_annotations(self, analyzed):
        assert "tuples" in analyzed and "envs" in analyzed
        assert " ms" in analyzed

    def test_render_keeps_plan_structure(self, analyzed):
        assert "JoinFor $t" in analyzed
        assert "Fn:select" in analyzed
        assert "isolated body" in analyzed

    def test_annotations_on_node_lines_only(self, analyzed):
        for line in analyzed.splitlines():
            if "— obs" in line:
                assert line.strip().startswith(NODE_LINES), line

    def test_ends_with_the_total(self, analyzed):
        assert re.fullmatch(r"total: \d+\.\d ms", analyzed.splitlines()[-1])
