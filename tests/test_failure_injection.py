"""Failure-injection tests: every component must fail loudly and typed.

Silent corruption is the failure mode interval encodings invite; these
tests feed each layer malformed inputs and assert the typed error
surfaces (never a wrong answer, never a bare KeyError/IndexError).
"""

import numpy as np
import pytest

from repro.bench import harness
from repro.errors import (
    EncodingError,
    ExecutionError,
    PlanError,
    ReproError,
    TranslationError,
    UnboundVariableError,
)

#: The engine's base environment index: environment 0 alone.
BASE_INDEX = np.zeros(1, dtype=np.int64)


class TestHarnessFailures:
    def test_child_exception_classified_as_error(self, monkeypatch):
        """A crash inside the cell worker yields status 'error' + detail."""
        def explode(*args, **kwargs):
            raise RuntimeError("injected fault")

        monkeypatch.setattr(harness, "execute_cell", explode)
        # run_cell forks; the patched module state is inherited by fork.
        cell = harness.run_cell("di-msj", "Q13", 0.0005, timeout=30)
        assert cell.status == harness.ERROR
        assert "injected fault" in cell.detail

    def test_unknown_system_is_error_status(self):
        cell = harness.run_cell("oracle9i", "Q13", 0.0005, timeout=30)
        assert cell.status == harness.ERROR
        assert "ValueError" in cell.detail

    def test_memory_error_classified_im(self, monkeypatch):
        def oom(*args, **kwargs):
            raise MemoryError("boom")

        monkeypatch.setattr(harness, "execute_cell", oom)
        cell = harness.run_cell("naive", "Q13", 0.0005, timeout=30)
        assert cell.status == harness.IM

    def test_width_overflow_classified_ov(self, monkeypatch):
        from repro.errors import WidthOverflowError

        def overflow(*args, **kwargs):
            raise WidthOverflowError("too wide")

        monkeypatch.setattr(harness, "execute_cell", overflow)
        cell = harness.run_cell("sqlite", "Q13", 0.0005, timeout=30)
        assert cell.status == harness.OV


class TestHarnessProcessHygiene:
    def test_worker_hard_crash_reported_not_hung(self, monkeypatch):
        """A worker dying without reporting (segfault analogue) yields a
        classified error, not a DNF or a leaked pipe exception."""
        import os

        def die(*args, **kwargs):
            os._exit(17)

        monkeypatch.setattr(harness, "execute_cell", die)
        cell = harness.run_cell("di-msj", "Q13", 0.0005, timeout=30)
        assert cell.status == harness.ERROR
        assert "exit code" in cell.detail

    def test_no_child_process_leaks(self, monkeypatch):
        """After any outcome the worker is fully reaped (no zombies)."""
        import multiprocessing

        def explode(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(harness, "execute_cell", explode)
        harness.run_cell("di-msj", "Q13", 0.0005, timeout=30)
        assert multiprocessing.active_children() == []


class TestWidthOverflowDegradation:
    """Section 4.3's fixed-width limitation, end to end through sessions."""

    DOC = "<a><a><a><a/></a></a></a>"
    #: Each descendant step squares the inferred width; five steps push a
    #: four-node document past SQLite's 2**61 cap.
    QUERY = 'document("w.xml")' + "//a" * 5

    @pytest.mark.parametrize("backend", ["sqlite"])
    def test_deep_nesting_overflows_sql_backends(self, backend):
        from repro.errors import WidthOverflowError
        from repro.session import XQuerySession

        with XQuerySession() as session:
            session.add_document("w.xml", self.DOC)
            with pytest.raises(WidthOverflowError):
                session.run(self.QUERY, backend=backend)

    @pytest.mark.parametrize("backend", ["sqlite"])
    def test_fallback_converts_overflow_to_degraded_answer(self, backend):
        from repro.backends.registry import reset_breakers
        from repro.session import XQuerySession

        reset_breakers()
        with XQuerySession() as session:
            session.add_document("w.xml", self.DOC)
            result = session.run(self.QUERY, backend=backend,
                                 fallback=("engine",))
            assert result.backend == "engine"
            assert result.degraded
            assert result.degradations[0].kind == "WidthOverflowError"
            # The unbounded-integer engine agrees with itself undegraded.
            plain = session.run(self.QUERY, backend="engine")
            assert result.forest == plain.forest

    def test_overflow_does_not_trip_the_breaker(self):
        """A deterministic capability limit is not backend ill-health."""
        from repro.backends.registry import backend_breaker, reset_breakers
        from repro.resilience import CLOSED
        from repro.session import XQuerySession

        reset_breakers()
        with XQuerySession() as session:
            session.add_document("w.xml", self.DOC)
            for _ in range(6):  # past any default failure threshold
                session.run(self.QUERY, backend="sqlite",
                            fallback=("engine",))
        assert backend_breaker("sqlite").state == CLOSED
        reset_breakers()


class TestEngineFailures:
    def test_corrupt_relation_caught_by_validation(self):
        from repro.compiler.plan import FnNode, VarNode
        from repro.engine.columns import IntervalColumns
        from repro.engine.evaluator import DIEngine, EnvSeq

        engine = DIEngine(validate=True)
        engine._base = EnvSeq(BASE_INDEX, {})
        corrupt = EnvSeq(BASE_INDEX, {"x": (
            IntervalColumns.from_tuples([("a", 5, 3)]), 10)})  # l > r
        with pytest.raises(ExecutionError, match="degenerate"):
            engine.evaluate(FnNode("children", (VarNode("x"),)), corrupt)
        engine._base = None

    def test_unbound_variable_typed(self):
        from repro.compiler.plan import VarNode
        from repro.engine.evaluator import DIEngine, EnvSeq

        engine = DIEngine()
        with pytest.raises(UnboundVariableError):
            engine.evaluate(VarNode("ghost"), EnvSeq(BASE_INDEX, {}))

    def test_unknown_plan_node_typed(self):
        from repro.compiler.plan import PlanNode
        from repro.engine.evaluator import DIEngine, EnvSeq

        class Rogue(PlanNode):
            __slots__ = ()

        with pytest.raises(PlanError):
            DIEngine().evaluate(Rogue(), EnvSeq(BASE_INDEX, {}))

    def test_unknown_fn_typed(self):
        from repro.compiler.plan import FnNode
        from repro.engine.evaluator import DIEngine, EnvSeq

        with pytest.raises(PlanError):
            DIEngine().evaluate(
                FnNode("frobnicate", (FnNode("empty_forest"),)),
                EnvSeq(BASE_INDEX, {}))


class TestTranslatorFailures:
    def test_unknown_fn_has_no_template(self):
        from repro.sql.translator import translate_query
        from repro.xquery.ast import FnApp

        with pytest.raises(TranslationError):
            translate_query(FnApp("frobnicate", ()), {})

    def test_decoding_rejects_overlap_from_bad_sql(self):
        from repro.encoding.interval import decode

        with pytest.raises(EncodingError):
            decode([("a", 0, 10), ("b", 5, 20)])


class TestApiFailures:
    def test_everything_is_a_repro_error(self):
        """Library failures must be catchable with one except clause."""
        from repro import run_xquery

        failures = 0
        for bad_call in (
            lambda: run_xquery("for $x in", {}),           # syntax
            lambda: run_xquery("$x", {}),                  # unbound
            lambda: run_xquery('document("a")/x', {}),     # missing doc
            lambda: run_xquery("empty($x)", {"a": "<a/>"}),  # boolean ctx
        ):
            with pytest.raises(ReproError):
                bad_call()
            failures += 1
        assert failures == 4
