"""Benchmark harness reproducing the Section 6 experiments.

* :mod:`repro.bench.systems` — the competing evaluators as named cells;
* :mod:`repro.bench.harness` — per-cell subprocess execution with
  timeout ("DNF") and memory-budget ("IM") outcomes;
* :mod:`repro.bench.reporting` — paper-style tables (Figures 8–11).
"""

from repro.bench.harness import CellResult, run_cell, sweep
from repro.bench.reporting import format_breakdown_table, format_timing_table
from repro.bench.systems import SYSTEMS, execute_cell

__all__ = [
    "CellResult",
    "SYSTEMS",
    "execute_cell",
    "format_breakdown_table",
    "format_timing_table",
    "run_cell",
    "sweep",
]
