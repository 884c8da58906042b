"""Paper-style table rendering for benchmark sweeps (Figures 8–11)."""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.bench.harness import SweepResult

#: Display names matching the paper's row labels where applicable.
SYSTEM_LABELS = {
    "naive": "Naive (NL interp.)",
    "di-nlj": "DI-NLJ",
    "di-msj": "DI-MSJ",
    "sqlite": "SQLite (generic)",
}

BREAKDOWN_CATEGORIES = ("paths", "join", "construction")


def format_timing_table(result: SweepResult, title: str = "") -> str:
    """Render a sweep as the paper's timing tables (CPU seconds per cell)."""
    header = ["System"] + [_scale_label(scale) for scale in result.scales]
    rows = [
        [SYSTEM_LABELS.get(system, system)]
        + [result.cell(system, scale).display for scale in result.scales]
        for system in result.systems
    ]
    table = _render(header, rows)
    if title:
        return f"{title}\n{table}"
    return table


def format_breakdown_table(results: Mapping[str, SweepResult],
                           title: str = "") -> str:
    """Render the Figure 10 per-component percentage breakdown.

    ``results`` maps system names to sweeps run with
    ``collect_breakdown=True``.
    """
    scales = None
    rows: list[list[str]] = []
    for system, sweep_result in results.items():
        if scales is None:
            scales = sweep_result.scales
        for category in BREAKDOWN_CATEGORIES:
            row = [SYSTEM_LABELS.get(system, system), category.capitalize()]
            for scale in sweep_result.scales:
                cell = sweep_result.cell(system, scale)
                if cell.status != "ok" or cell.breakdown is None:
                    row.append(cell.display)
                else:
                    row.append(f"{cell.breakdown.get(category, 0.0) * 100:.0f}%")
            rows.append(row)
    header = ["System", "Component"] + [_scale_label(s) for s in (scales or [])]
    table = _render(header, rows)
    if title:
        return f"{title}\n{table}"
    return table


def _scale_label(scale: float) -> str:
    return f"sf={scale:g}"


def _render(header: list[str], rows: Iterable[list[str]]) -> str:
    rows = list(rows)
    widths = [len(column) for column in header]
    for row in rows:
        for position, cell in enumerate(row):
            widths[position] = max(widths[position], len(cell))

    def line(cells: list[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))

    separator = "  ".join("-" * width for width in widths)
    return "\n".join([line(header), separator] + [line(row) for row in rows])
