"""Tests for the engine's debug-mode invariant validation."""

import numpy as np
import pytest

from repro.api import compile_xquery
from repro.compiler.planner import compile_plan
from repro.engine.columns import IntervalColumns
from repro.engine.evaluator import DIEngine
from repro.engine.validate import validate_index, validate_value
from repro.errors import ExecutionError
from repro.xmark.queries import EXTRA_QUERIES, QUERIES
from repro.xml.text_parser import parse_forest
from repro.xquery.lowering import document_forest

cols = IntervalColumns.from_tuples


def index(numbers):
    return np.array(numbers, dtype=np.int64)


class TestValidateValue:
    def test_valid_relation_passes(self):
        validate_value(cols([("a", 0, 3), ("b", 1, 2), ("c", 10, 11)]),
                       width=10, index=[0, 1])

    def test_tuple_list_rejected(self):
        with pytest.raises(ExecutionError, match="not IntervalColumns"):
            validate_value([("a", 0, 3)], width=10, index=[0])

    def test_zero_width_empty_ok(self):
        validate_value(cols([]), width=0, index=[0])

    def test_zero_width_with_tuples_rejected(self):
        with pytest.raises(ExecutionError, match="zero-width"):
            validate_value(cols([("a", 0, 1)]), width=0, index=[0])

    def test_unsorted_rejected(self):
        with pytest.raises(ExecutionError, match="document order"):
            validate_value(cols([("b", 5, 6), ("a", 0, 1)]), width=10, index=[0])

    def test_degenerate_interval_rejected(self):
        with pytest.raises(ExecutionError, match="degenerate"):
            validate_value(cols([("a", 3, 3)]), width=10, index=[0])

    def test_env_not_in_index_rejected(self):
        with pytest.raises(ExecutionError, match="not in the index"):
            validate_value(cols([("a", 20, 21)]), width=10, index=[0, 1])

    def test_block_crossing_rejected(self):
        with pytest.raises(ExecutionError, match="crosses"):
            validate_value(cols([("a", 8, 12)]), width=10, index=[0, 1])

    def test_partial_overlap_rejected(self):
        with pytest.raises(ExecutionError, match="overlaps"):
            validate_value(cols([("a", 0, 5), ("b", 3, 8)]), width=10, index=[0])

    def test_context_in_message(self):
        with pytest.raises(ExecutionError, match="after FnNode"):
            validate_value(cols([("a", 3, 3)]), width=10, index=[0],
                           context="FnNode")


class TestValidateIndex:
    def test_increasing_ok(self):
        validate_index(index([1, 5, 9]))
        validate_index(index([]))

    def test_duplicate_rejected(self):
        with pytest.raises(ExecutionError, match="strictly increasing"):
            validate_index(index([1, 1]))

    def test_decreasing_rejected(self):
        with pytest.raises(ExecutionError, match="5 then 3"):
            validate_index(index([1, 5, 3]))

    def test_wrapped_number_rejected(self):
        with pytest.raises(ExecutionError, match="below 0"):
            validate_index(index([-2 ** 62, 0]))

    @pytest.mark.parametrize("shape", [
        [1, 5], np.array([1, 5], dtype=np.int32), np.array([[1, 5]])])
    def test_other_representations_rejected(self, shape):
        with pytest.raises(ExecutionError, match="int64 array"):
            validate_index(shape)

    def test_engine_checks_every_index(self, monkeypatch):
        """``validate=True`` hands the index of every node it evaluates
        to ``validate_index`` — the base and the iterations' alike."""
        from repro.engine import validate

        seen = []
        check = validate.validate_index
        monkeypatch.setattr(validate, "validate_index",
                            lambda i, context="": seen.append(i)
                            or check(i, context))
        compiled = compile_xquery(
            'for $x in document("d")/r/x where $x/text() = "b" return $x')
        bindings = {var: document_forest(parse_forest(
            "<r><x>b</x><x>a</x><x>b</x></r>"))
            for var in compiled.documents.values()}
        plan = compile_plan(compiled.core,
                            base_vars=compiled.documents.values())
        DIEngine(validate=True).run_plan(plan, bindings)
        assert {len(i) for i in seen} >= {1, 2, 3}


class TestEngineDebugMode:
    """Every XMark query evaluates under validation without a complaint:
    each node's result is a well-formed ``IntervalColumns`` with int64
    endpoints, and the answer is the Figure 3 interpreter's — under the
    real int64 limit, where on this document only the syntactic Q19's
    ``order by`` squares a width too far (the optimized one ranks its
    iterations instead), and under a 31-bit one, where Q6 needs
    ``renormalise`` as well and the joins of Q8 and Q9 need their pair
    index compacted, as documents a hundred times the size do for real.
    Both the syntactic plan and the optimized one (``optimize_plan``:
    isolated join bodies, counted joins, lifted chains) are held to
    that; in the optimized Q6 the remedy is ``reblock`` rank-compressing
    the lifted ``//item`` into its iteration blocks, and the optimized
    Q8 and Q8_ORIGINAL count their pairs without numbering them."""

    @pytest.mark.parametrize("bits", [63, 31])
    @pytest.mark.parametrize("name", sorted({**QUERIES, **EXTRA_QUERIES}))
    @pytest.mark.parametrize("strategy", ["nlj", "msj"])
    def test_xmark_queries_validate(self, name, strategy, bits, xmark_small,
                                    shrink_int64, monkeypatch):
        _validate_xmark(False, name, strategy, bits, xmark_small,
                        shrink_int64, monkeypatch)

    @pytest.mark.parametrize("bits", [63, 31])
    @pytest.mark.parametrize("name", sorted({**QUERIES, **EXTRA_QUERIES}))
    @pytest.mark.parametrize("strategy", ["nlj", "msj"])
    def test_optimized_xmark_plans_validate(self, name, strategy, bits,
                                            xmark_small, shrink_int64,
                                            monkeypatch):
        _validate_xmark(True, name, strategy, bits, xmark_small,
                        shrink_int64, monkeypatch)

    def test_surface_extensions_validate(self):
        from repro.api import compile_xquery
        from repro.compiler.planner import compile_plan
        from repro.xml.text_parser import parse_forest

        query = compile_xquery(
            'for $p in document("d")/r/x order by $p/text() descending '
            'return if ($p/text() = "b") then <hit/> else string($p)')
        bindings = {var: document_forest(
            parse_forest("<r><x>b</x><x>a</x><x>c</x></r>"))
            for var in query.documents.values()}
        plan = compile_plan(query.core,
                            base_vars=query.documents.values())
        DIEngine(validate=True).run_plan(plan, bindings)


def _validate_xmark(optimized: bool, name: str, strategy: str, bits: int,
                    xmark_small, shrink_int64, monkeypatch) -> None:
    """One XMark query's plan — syntactic, or ``optimize_plan``'s —
    evaluated under validation at ``bits``-bit int64: the interpreter's
    answer, and a remedy exactly where the widths leave the limit."""
    from repro.compiler.plan import JoinStrategy
    from repro.compiler.planner import optimize_plan
    from repro.encoding.interval import decode
    from repro.engine import kernels
    from repro.xquery.interpreter import evaluate

    remedies = shrink_int64(bits)
    reblock, compressed = kernels.reblock, []

    def counted_reblock(*args):
        before = remedies["renormalise"]
        moved = reblock(*args)
        compressed.append(remedies["renormalise"] > before)
        return moved

    monkeypatch.setattr(kernels, "reblock", counted_reblock)
    compiled = compile_xquery({**QUERIES, **EXTRA_QUERIES}[name])
    bindings = {var: document_forest((xmark_small,))
                for var in compiled.documents.values()}
    plan = compile_plan(compiled.core, JoinStrategy(strategy),
                        base_vars=compiled.documents.values())
    if optimized:
        plan = optimize_plan(plan)
    rel, _width = DIEngine(validate=True).run_plan_encoded(plan, bindings)
    assert rel.l.dtype == rel.r.dtype == "int64"
    assert decode(rel) == DIEngine().run_plan(plan, bindings) \
        == evaluate(compiled.core, bindings)
    # The trigger is the bound and nothing else: only the queries
    # whose widths really leave the limit pay for a remedy.  The
    # optimized Q8 and Q8_ORIGINAL count their join's pairs and number
    # none of them.
    # The optimized Q19 ranks its iterations and squares no width.
    sorted_q19 = [] if optimized else ["Q19"]
    renormalised, compacted = (sorted_q19, []) if bits == 63 else (
        [*sorted_q19, "Q6"],
        ["Q9"] if optimized else ["Q8", "Q8_ORIGINAL", "Q9"])
    assert (remedies["renormalise"] > 0) == (name in renormalised)
    assert (remedies["compact"] > 0) == (name in compacted)
    # Only the optimized plan lifts chains (every loop but Q1's join and
    # Q7, which has none), and only Q6's lifted //item leaves int64 in
    # its iteration blocks.
    assert bool(compressed) == (optimized and name not in ("Q1", "Q7"))
    assert any(compressed) == (optimized and bits == 31 and name == "Q6")
