"""Tests for the benchmark harness (timeouts, failure markers, tables)."""

import pytest

from repro.bench.harness import (
    DNF,
    IM,
    OK,
    CellResult,
    SweepResult,
    estimate_slope,
    run_cell,
    sweep,
)
from repro.bench.reporting import format_breakdown_table, format_timing_table
from repro.bench.systems import SYSTEMS, execute_cell


class TestExecuteCell:
    def test_engine_cell(self):
        result = execute_cell("di-msj", "Q8", 0.0005)
        assert result["seconds"] >= 0
        assert result["result_size"] > 0
        assert result["document_nodes"] > 0

    def test_breakdown_collected(self):
        result = execute_cell("di-msj", "Q8", 0.0005, collect_breakdown=True)
        assert set(result["breakdown"]) >= {"paths", "join", "construction"}
        assert sum(result["breakdown"].values()) == pytest.approx(1.0)

    def test_naive_cell(self):
        result = execute_cell("naive", "Q13", 0.0005)
        assert result["seconds"] >= 0

    def test_determinism_across_systems(self):
        sizes = {
            system: execute_cell(system, "Q8", 0.0005)["result_size"]
            for system in ("naive", "di-nlj", "di-msj")
        }
        assert len(set(sizes.values())) == 1

    def test_unknown_system(self):
        with pytest.raises(ValueError):
            execute_cell("oracle9i", "Q8", 0.0005)

    def test_unknown_query(self):
        with pytest.raises(ValueError):
            execute_cell("di-msj", "Q99", 0.0005)

    def test_systems_registry(self):
        assert set(SYSTEMS) == {"naive", "di-nlj", "di-msj", "sqlite"}


class TestRunCell:
    def test_ok_cell(self):
        cell = run_cell("di-msj", "Q13", 0.0005, timeout=60)
        assert cell.status == OK
        assert cell.seconds is not None
        assert cell.display != DNF

    def test_timeout_produces_dnf(self):
        cell = run_cell("naive", "Q9", 0.02, timeout=1.0)
        assert cell.status == DNF
        assert cell.display == DNF

    def test_memory_budget_produces_im(self):
        cell = run_cell("naive", "Q8", 0.002, timeout=60, memory_budget=50)
        assert cell.status == IM

    def test_display_formats(self):
        assert CellResult("s", "q", 1, OK, seconds=0.1234).display == "0.12"
        assert CellResult("s", "q", 1, OK, seconds=0.00123).display == "0.0012"
        assert CellResult("s", "q", 1, OK, seconds=42.4).display == "42.4"
        assert CellResult("s", "q", 1, OK, seconds=123.4).display == "123"
        assert CellResult("s", "q", 1, DNF).display == DNF


class TestSweep:
    @pytest.fixture(scope="class")
    def q13_sweep(self):
        return sweep("Q13", ["naive", "di-msj"], [0.0005, 0.001], timeout=60)

    def test_all_cells_present(self, q13_sweep):
        assert set(q13_sweep.cells) == {
            (system, scale)
            for system in ("naive", "di-msj")
            for scale in (0.0005, 0.001)
        }

    def test_all_ok(self, q13_sweep):
        assert all(cell.status == OK for cell in q13_sweep.cells.values())

    def test_skip_after_failure(self):
        result = sweep("Q8", ["naive"], [0.001, 0.005], timeout=60,
                       memory_budget=50)
        first = result.cell("naive", 0.001)
        second = result.cell("naive", 0.005)
        assert first.status == IM
        assert second.status == IM
        assert "skipped" in second.detail


class TestReporting:
    @pytest.fixture(scope="class")
    def small_sweep(self):
        return sweep("Q13", ["naive", "di-msj"], [0.0005], timeout=60,
                     collect_breakdown=True)

    def test_timing_table(self, small_sweep):
        table = format_timing_table(small_sweep, "Q13 TIMINGS")
        assert "Q13 TIMINGS" in table
        assert "DI-MSJ" in table
        assert "sf=0.0005" in table

    def test_breakdown_table(self, small_sweep):
        table = format_breakdown_table({"di-msj": small_sweep}, "BREAKDOWN")
        assert "Paths" in table
        assert "%" in table


def make_sweep(cells: dict) -> SweepResult:
    scales = sorted({scale for (_s, scale) in cells})
    systems = sorted({system for (system, _sc) in cells})
    result = SweepResult("Q8", scales, systems)
    for (system, scale), value in cells.items():
        if value is None:
            result.cells[(system, scale)] = CellResult(
                system, "Q8", scale, DNF)
        else:
            result.cells[(system, scale)] = CellResult(
                system, "Q8", scale, OK, seconds=value)
    return result


class TestEstimateSlope:
    @pytest.fixture
    def sweep_linear_vs_quadratic(self):
        cells = {}
        for scale in (0.01, 0.1, 1.0):
            cells[("linear", scale)] = 0.5 * scale
            cells[("quadratic", scale)] = 3.0 * scale * scale
        cells[("quadratic", 1.0)] = None  # DNF at the top
        return make_sweep(cells)

    def test_linear_slope(self, sweep_linear_vs_quadratic):
        slope = estimate_slope(sweep_linear_vs_quadratic, "linear")
        assert slope == pytest.approx(1.0, abs=0.05)

    def test_quadratic_slope(self, sweep_linear_vs_quadratic):
        slope = estimate_slope(sweep_linear_vs_quadratic, "quadratic")
        assert slope == pytest.approx(2.0, abs=0.05)

    def test_insufficient_data(self):
        sweep = make_sweep({("s", 0.1): 1.0, ("s", 1.0): None})
        assert estimate_slope(sweep, "s") is None


class TestRunCellStartMethods:
    def test_spawn_ships_the_document_explicitly(self):
        # macOS/Windows (and Python >= 3.14) default: no fork, no
        # inherited document cache — the parent must serialize the
        # generated document to the child instead.
        cell = run_cell("di-msj", "Q13", 0.0005, timeout=120,
                        start_method="spawn")
        assert cell.status == OK
        assert cell.document_nodes > 0

    def test_spawn_and_fork_agree(self):
        forked = run_cell("di-msj", "Q13", 0.0005, timeout=120)
        spawned = run_cell("di-msj", "Q13", 0.0005, timeout=120,
                           start_method="spawn")
        assert forked.status == spawned.status == OK
        assert forked.result_size == spawned.result_size
