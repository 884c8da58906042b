"""Shared benchmark fixtures.

Each figure's benchmark module measures the competing systems on a small
XMark document (so ``pytest benchmarks/ --benchmark-only`` completes in
minutes); the full paper-scale sweeps — with DNF/IM handling — live in
``python -m repro.bench.run_experiments``, which regenerates the tables in
EXPERIMENTS.md.
"""

from __future__ import annotations

import pytest

from repro.api import compile_xquery
from repro.baselines.naive import NaiveEvaluator
from repro.compiler.plan import JoinStrategy
from repro.compiler.planner import compile_plan
from repro.engine.evaluator import DIEngine
from repro.xmark.generator import generate_document
from repro.xmark.queries import QUERIES
from repro.xquery.interpreter import Interpreter
from repro.xquery.lowering import document_forest

#: Scale used by the pytest-benchmark micro comparisons.
BENCH_SCALE = 0.001

#: Scale of the assertions that tell the NLJ plan from the MSJ plan: at
#: BENCH_SCALE the two are indistinguishable (2.6 vs 2.5 ms, the paper's
#: "no crossover penalty"); here the query alone is 46 vs 10 ms
#: (EXPERIMENTS.md, Figures 9 and 10), which one run of each resolves
#: even with the ≈ 70 ms of encoding ``run_plan`` adds to both.
SEPARATION_SCALE = 0.05


@pytest.fixture(scope="session")
def xmark_bench_doc():
    return generate_document(BENCH_SCALE, seed=42)


class QueryRunners:
    """Pre-compiled runners for one query over one document."""

    def __init__(self, query_name: str, document):
        self.compiled = compile_xquery(QUERIES[query_name])
        self.bindings = {
            var: document_forest((document,))
            for var in self.compiled.documents.values()
        }
        self.nlj_plan = compile_plan(
            self.compiled.core, JoinStrategy.NLJ,
            base_vars=self.compiled.documents.values())
        self.msj_plan = compile_plan(
            self.compiled.core, JoinStrategy.MSJ,
            base_vars=self.compiled.documents.values())

    def naive(self):
        return NaiveEvaluator().evaluate(self.compiled.core, self.bindings)

    def interpreter(self):
        return Interpreter().evaluate(self.compiled.core, self.bindings)

    def di_nlj(self):
        return DIEngine().run_plan(self.nlj_plan, self.bindings)

    def di_msj(self):
        return DIEngine().run_plan(self.msj_plan, self.bindings)


@pytest.fixture(scope="session")
def q8_runners(xmark_bench_doc):
    return QueryRunners("Q8", xmark_bench_doc)


@pytest.fixture(scope="session")
def q8_runners_separated():
    return QueryRunners("Q8", generate_document(SEPARATION_SCALE, seed=42))


@pytest.fixture(scope="session")
def q9_runners(xmark_bench_doc):
    return QueryRunners("Q9", xmark_bench_doc)


@pytest.fixture(scope="session")
def q13_runners(xmark_bench_doc):
    return QueryRunners("Q13", xmark_bench_doc)
