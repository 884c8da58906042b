"""The compilation chain: a fixed pass list, timed, rendered on demand."""

import re
import sys

import pytest

from repro import compile_xquery
from repro.backends.base import ExecutionOptions
from repro.backends.registry import create_backend
from repro.compiler import planner
from repro.compiler.pipeline import PassRecord, optimize_stage, render_passes
from repro.compiler.planner import explain_plan
from repro.session import XQuerySession
from repro.xmark.queries import FIGURE1_SAMPLE, Q8
from repro.xquery import ast
from repro.xquery.ast import core_to_str

NAMES = 'document("a.xml")/site/people/person/name/text()'
JOIN_QUERY = Q8.replace('document("auction.xml")', 'document("a.xml")')
PASSES = ("parse", "lower", "decorrelate", "plan", "isolate")


def pass_rows(report: str) -> list[str]:
    """The pass names of a rendered pass table, in order."""
    return re.findall(r"^  (\w+) +[\d.]+ ms", report, flags=re.MULTILINE)


def snapshot(report: str, name: str) -> str:
    """The snapshot printed under pass ``name``."""
    lines = report.splitlines()
    start = next(i for i, line in enumerate(lines)
                 if re.match(rf"  {name} +[\d.]+ ms", line))
    assert lines[start + 1] == "    after:"
    body = []
    for line in lines[start + 2:]:
        if not line.startswith("      "):
            break
        body.append(line[6:])
    return "\n".join(body)


class TestFrontendTrace:
    def test_parse_and_lower_always_recorded(self):
        compiled = compile_xquery(NAMES)
        assert tuple(record.name for record in compiled.passes) == \
            ("parse", "lower")
        assert all(record.seconds >= 0 for record in compiled.passes)
        assert compiled.passes[1].detail == "1 document(s)"


class TestPlanStage:
    def test_explain_verbose_reports_passes_and_timings(self):
        report = compile_xquery(JOIN_QUERY).explain(verbose=True)
        assert pass_rows(report) == [*PASSES, "total"]
        assert "physical plan:" in report
        assert "1/2 loop(s) decorrelated" in report
        assert "1 join(s), 1 isolated" in report

    def test_explain_nonverbose_is_just_the_plan(self):
        compiled = compile_xquery(NAMES)
        report = compiled.explain()
        assert "compilation pipeline" not in report
        assert report == explain_plan(optimize_stage(compiled.plan()))

    def test_join_query_decorrelates(self):
        records: list[PassRecord] = []
        compile_xquery(JOIN_QUERY).plan("msj", records=records)
        assert [record.name for record in records] == ["decorrelate", "plan"]
        assert records[0].detail == "1/2 loop(s) decorrelated"

    def test_decorrelate_disabled_skips_the_pass(self):
        records: list[PassRecord] = []
        compile_xquery(JOIN_QUERY).plan("msj", decorrelate=False,
                                        records=records)
        assert [record.name for record in records] == ["plan"]

    def test_trace_render_includes_total(self):
        compiled = compile_xquery(NAMES)
        report = render_passes(compiled.passes, {})
        assert pass_rows(report) == ["parse", "lower", "total"]

    def test_engine_backend_records_plan_passes(self):
        """The plan passes live in the engine's cache entry, keyed like
        the plan; the compiled query keeps only its own two."""
        from repro.api import _bind_documents

        compiled = compile_xquery(NAMES)
        options = ExecutionOptions()
        with create_backend("engine") as backend:
            backend.prepare(_bind_documents(compiled,
                                            {"a.xml": FIGURE1_SAMPLE}))
            backend.execute(compiled, options)
            (key,) = backend.plan_cache.keys()
            plan, passes = backend.plan_cache.peek(key)
        assert tuple(record.name for record in passes) == \
            ("decorrelate", "plan", "isolate")
        assert options.extra["plan_passes"] is passes
        assert tuple(record.name for record in compiled.passes) == \
            ("parse", "lower")


class TestPassTable:
    def test_total_seconds(self):
        report = render_passes(
            [PassRecord("a", 0.25), PassRecord("b", 0.5, "why")], {})
        assert report.splitlines() == [
            "compilation pipeline:",
            "  a             250.000 ms",
            "  b             500.000 ms  [why]",
            "  total         750.000 ms",
        ]

    @pytest.mark.parametrize("query", [NAMES, JOIN_QUERY])
    def test_each_pass_once_with_its_snapshot(self, query):
        compiled = compile_xquery(query)
        report, plan = compiled.pipeline("msj")
        assert pass_rows(report) == [*PASSES, "total"]
        assert snapshot(report, "lower") == core_to_str(compiled.core)
        assert snapshot(report, "plan") == explain_plan(compiled.plan("msj"))
        assert explain_plan(plan) == \
            explain_plan(optimize_stage(compiled.plan("msj")))

    def test_plan_passes_do_not_pile_up(self):
        """Planning one text under two strategies leaves each pass once
        in a traced run's compile subtree and in the verbose explain."""
        with XQuerySession() as session:
            session.add_document("a.xml", FIGURE1_SAMPLE)
            session.run(JOIN_QUERY, strategy="msj")
            session.run(JOIN_QUERY, strategy="nlj")
            root = session.run(JOIN_QUERY, trace=True).trace
            compile_span = root.find("compile")
            assert [span.name for span in compile_span.walk()
                    if span.name.startswith("pass.")] == \
                [f"pass.{name}" for name in PASSES]
            for analyze in (False, True):
                report = session.explain(JOIN_QUERY, verbose=True,
                                         analyze=analyze)
                assert pass_rows(report) == [*PASSES, "total"]


class TestNoSnapshotsOnRun:
    @pytest.mark.parametrize("backend", ["engine", "procpool"])
    def test_run_renders_no_snapshot(self, monkeypatch, backend):
        """Compiling and planning a new text for a run renders neither the
        core text nor a plan."""
        def refuse(*args, **kwargs):
            raise AssertionError("a run rendered a snapshot")

        for original in (ast.core_to_str, planner.explain_plan):
            for module in list(sys.modules.values()):
                if (getattr(module, "__name__", "").startswith("repro")
                        and module.__dict__.get(original.__name__)
                        is original):
                    monkeypatch.setattr(module, original.__name__, refuse)
        with XQuerySession() as session:
            session.add_document("a.xml", FIGURE1_SAMPLE)
            result = session.run(JOIN_QUERY + " ", backend=backend)
            assert result.to_xml() == '<item person="Cong Rosca">1</item>'
