"""Tests for the nested-loop baseline — the Figure 3 interpreter run with
a :class:`BudgetMeter` — and its resource models."""

import pytest

from repro.baselines.naive import (
    BudgetMeter,
    MemoryLimitExceeded,
    WorkLimitExceeded,
)
from repro.xml.text_parser import parse_forest
from repro.xquery.interpreter import Interpreter, evaluate
from repro.xquery.lowering import document_forest, lower_query
from repro.xquery.parser import parse_xquery


def compile_with_bindings(source: str, documents: dict):
    core, docs = lower_query(parse_xquery(source))
    bindings = {var: document_forest(documents[uri])
                for uri, var in docs.items()}
    return core, bindings


def naive(core, bindings, **budgets):
    """Run ``core`` as the ``naive`` backend does; returns the answer and
    the meter that charged it."""
    meter = BudgetMeter(**budgets)
    return Interpreter(meter).evaluate(core, bindings), meter


SAMPLE = """
<site><people>
 <person id="p0"><name>Ada</name></person>
 <person id="p1"><name>Bob</name></person>
</people></site>
"""


class TestCorrectness:
    def test_matches_reference_interpreter(self, xmark_tiny):
        from repro.xmark.queries import Q8
        core, bindings = compile_with_bindings(
            Q8, {"auction.xml": (xmark_tiny,)})
        assert naive(core, bindings)[0] == evaluate(core, bindings)

    def test_simple_query(self):
        core, bindings = compile_with_bindings(
            'document("d")/site/people/person/name/text()',
            {"d": parse_forest(SAMPLE)})
        result, _meter = naive(core, bindings)
        assert [n.label for n in result] == ["Ada", "Bob"]


class TestWorkAccounting:
    def test_work_counted(self):
        core, bindings = compile_with_bindings(
            'document("d")//name', {"d": parse_forest(SAMPLE)})
        _result, meter = naive(core, bindings)
        assert meter.work > 0

    def test_work_budget_enforced(self):
        core, bindings = compile_with_bindings(
            'document("d")//name', {"d": parse_forest(SAMPLE)})
        with pytest.raises(WorkLimitExceeded):
            naive(core, bindings, work_budget=3)

    def test_work_superlinear_for_join(self, xmark_tiny, xmark_small):
        """The nested-loop join's work grows faster than the document."""
        from repro.xmark.queries import Q8
        works = []
        for document in (xmark_tiny, xmark_small):
            core, bindings = compile_with_bindings(
                Q8, {"auction.xml": (document,)})
            works.append(naive(core, bindings)[1].work)
        size_ratio = xmark_small.size / xmark_tiny.size
        work_ratio = works[1] / works[0]
        assert work_ratio > 1.5 * size_ratio

    @pytest.mark.parametrize("query, work, peak_memory", [
        ("Q8", 41284, 56),
        ("Q13", 3041, 11),
    ])
    def test_budget_units_are_pinned(self, xmark_tiny, query, work,
                                     peak_memory):
        """The exact steps and peak live cells ``naive`` charges for Q8
        and Q13 over the tiny XMark document: the units the Section 6
        budgets and cells are read in, held fixed."""
        from repro.xmark import queries
        core, bindings = compile_with_bindings(
            getattr(queries, query), {"auction.xml": (xmark_tiny,)})
        _result, meter = naive(core, bindings)
        assert (meter.work, meter.peak_memory, meter.live) \
            == (work, peak_memory, 0)


class TestMemoryAccounting:
    def test_peak_memory_tracked(self):
        core, bindings = compile_with_bindings(
            'for $p in document("d")/site/people/person return $p',
            {"d": parse_forest(SAMPLE)})
        _result, meter = naive(core, bindings)
        assert meter.peak_memory > 0

    def test_memory_budget_enforced(self, xmark_tiny):
        from repro.xmark.queries import Q8
        core, bindings = compile_with_bindings(
            Q8, {"auction.xml": (xmark_tiny,)})
        with pytest.raises(MemoryLimitExceeded):
            naive(core, bindings, memory_budget=10)

    def test_generous_budget_succeeds(self, xmark_tiny):
        from repro.xmark.queries import Q13
        core, bindings = compile_with_bindings(
            Q13, {"auction.xml": (xmark_tiny,)})
        result, _meter = naive(core, bindings, memory_budget=10 ** 9)
        assert result == evaluate(core, bindings)

    def test_live_memory_released_after_loop(self):
        core, bindings = compile_with_bindings(
            'for $p in document("d")/site/people/person return $p',
            {"d": parse_forest(SAMPLE)})
        _result, meter = naive(core, bindings)
        assert meter.live == 0
