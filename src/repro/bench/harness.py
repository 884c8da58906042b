"""Per-cell benchmark execution with the paper's failure semantics.

Every cell runs in a forked child process so that runaway quadratic plans
can be killed at the timeout — the analogue of the paper's two-hour CPU
limit ("DNF").  Simulated memory exhaustion in the naive baseline surfaces
as "IM", and dynamic-interval width overflow on the 64-bit SQLite backend
as "OV" (a failure mode Section 4.3 predicts for fixed-width integers).
"""

from __future__ import annotations

import math
import multiprocessing
import traceback
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from repro.bench.systems import execute_cell

#: Cell outcome codes (matching the paper's table markers).
OK = "ok"
DNF = "DNF"  # did not finish within the time budget
IM = "IM"    # insufficient memory (simulated budget exhausted)
OV = "OV"    # dynamic-interval width overflow (fixed-width backend)
ERROR = "error"


@dataclass
class CellResult:
    """Outcome of one (system, query, scale) benchmark cell."""

    system: str
    query: str
    scale: float
    status: str
    seconds: float | None = None
    detail: str = ""
    breakdown: Mapping[str, float] | None = None
    result_size: int | None = None
    document_nodes: int | None = None
    #: Untimed setup cost: backend document load + runner construction.
    prepare_seconds: float | None = None
    #: Wall seconds per lifecycle phase (compile / prepare / execute).
    phases: Mapping[str, float] | None = None

    @property
    def display(self) -> str:
        """The table-cell rendering: seconds, or the failure marker."""
        if self.status == OK and self.seconds is not None:
            if self.seconds >= 100:
                return f"{self.seconds:.0f}"
            if self.seconds >= 10:
                return f"{self.seconds:.1f}"
            if self.seconds >= 0.1:
                return f"{self.seconds:.2f}"
            # The columnar engine answers the small scales in well under
            # 10 ms; two decimals would print every such cell as 0.00.
            return f"{self.seconds:.4f}"
        return self.status


def _cell_context(start_method: str | None = None):
    """The multiprocessing context for benchmark cells.

    ``fork`` when the platform offers it (children inherit the memoized
    document cache copy-on-write); ``spawn`` otherwise — macOS, Windows,
    and the Python ≥ 3.14 default — where the parent ships the generated
    document over the pipe instead (see :func:`run_cell`).
    """
    if start_method is None:
        methods = multiprocessing.get_all_start_methods()
        start_method = "fork" if "fork" in methods else "spawn"
    return multiprocessing.get_context(start_method)


def _cell_worker(connection, system: str, query: str, scale: float,
                 seed: int, memory_budget: int | None,
                 collect_breakdown: bool, document=None) -> None:
    """Child-process entry point: run the cell, ship the outcome back."""
    # Imports resolved in the child (inherited under fork, re-imported
    # under spawn); classify failures by name so the parent never needs
    # to unpickle library exception types.
    try:
        if document is not None:
            # Spawn mode: no inherited cache — seed it with the document
            # the parent generated, so generation stays outside the
            # child's timed budget exactly as under fork.
            from repro.xmark.generator import seed_document_cache

            seed_document_cache(scale, document, seed=seed)
        measurements = execute_cell(
            system, query, scale, seed=seed, memory_budget=memory_budget,
            collect_breakdown=collect_breakdown,
        )
        connection.send(("ok", measurements))
    except Exception as error:  # noqa: BLE001 — classified and reported
        kind = type(error).__name__
        if kind == "MemoryLimitExceeded" or isinstance(error, MemoryError):
            connection.send(("im", str(error)))
        elif kind == "WidthOverflowError":
            connection.send(("ov", str(error)))
        else:
            connection.send(("error", f"{kind}: {error}\n"
                                      f"{traceback.format_exc()}"))
    finally:
        connection.close()


def run_cell(system: str, query: str, scale: float,
             timeout: float = 60.0, seed: int = 42,
             memory_budget: int | None = None,
             collect_breakdown: bool = False,
             start_method: str | None = None) -> CellResult:
    """Run one cell under a wall-clock budget; classify the outcome.

    The document is generated (memoized) in the parent *before* the
    child starts, so the budget covers evaluation only — matching the
    paper's exclusion of document load time.  Under ``fork`` the child
    inherits the cache copy-on-write; under ``spawn`` (macOS/Windows,
    or ``start_method="spawn"``) the document is pickled to the child
    explicitly instead.
    """
    from repro.xmark.generator import cached_document

    document = cached_document(scale, seed=seed)
    context = _cell_context(start_method)
    shipped = document if context.get_start_method() != "fork" else None
    parent_conn, child_conn = context.Pipe(duplex=False)
    process = context.Process(
        target=_cell_worker,
        args=(child_conn, system, query, scale, seed, memory_budget,
              collect_breakdown, shipped),
    )
    process.start()
    child_conn.close()
    outcome: tuple[str, Any] | None = None
    crashed = False
    try:
        try:
            if parent_conn.poll(timeout):
                outcome = parent_conn.recv()
        except EOFError:
            # Child died before sending (hard crash, OOM kill): classified
            # below as an error rather than leaking up as a pipe failure.
            crashed = True
        process.join(timeout=1.0)
        if process.is_alive():
            # Escalate: SIGTERM first, SIGKILL if the child ignores it
            # (e.g. stuck in uninterruptible C code), so no zombie ever
            # outlives the harness.
            process.terminate()
            process.join(timeout=1.0)
            if process.is_alive():
                process.kill()
                process.join()
    finally:
        parent_conn.close()

    if outcome is None and crashed:
        return CellResult(system, query, scale, ERROR,
                          detail=f"worker died with exit code "
                                 f"{process.exitcode} before reporting")
    if outcome is None:
        return CellResult(system, query, scale, DNF,
                          detail=f"exceeded {timeout:.0f}s budget")
    kind, payload = outcome
    if kind == "ok":
        return CellResult(
            system, query, scale, OK,
            seconds=payload["seconds"],
            breakdown=payload.get("breakdown"),
            result_size=payload.get("result_size"),
            document_nodes=payload.get("document_nodes"),
            prepare_seconds=payload.get("prepare_seconds"),
            phases=payload.get("phases"),
        )
    if kind == "im":
        return CellResult(system, query, scale, IM, detail=payload)
    if kind == "ov":
        return CellResult(system, query, scale, OV, detail=payload)
    return CellResult(system, query, scale, ERROR, detail=payload)


@dataclass
class SweepResult:
    """All cells of one experiment (query × systems × scales)."""

    query: str
    scales: list[float]
    systems: list[str]
    cells: dict[tuple[str, float], CellResult] = field(default_factory=dict)

    def cell(self, system: str, scale: float) -> CellResult:
        return self.cells[(system, scale)]


def estimate_slope(result: SweepResult, system: str) -> float | None:
    """Least-squares log-log slope of one system's successful cells.

    Slope ≈ 1 means linear scale-up, ≈ 2 quadratic; ``None`` when fewer
    than two cells succeeded.
    """
    series = [
        (math.log10(scale), math.log10(cell.seconds))
        for scale in result.scales
        for cell in [result.cell(system, scale)]
        if cell.status == OK and cell.seconds and cell.seconds > 0
    ]
    if len(series) < 2:
        return None
    n = len(series)
    mean_x = sum(x for x, _ in series) / n
    mean_y = sum(y for _, y in series) / n
    numerator = sum((x - mean_x) * (y - mean_y) for x, y in series)
    denominator = sum((x - mean_x) ** 2 for x, _ in series)
    if denominator == 0:
        return None
    return numerator / denominator


def sweep(query: str, systems: Iterable[str], scales: Iterable[float],
          timeout: float = 60.0, seed: int = 42,
          memory_budget: int | None = None,
          collect_breakdown: bool = False,
          skip_after_failure: bool = True,
          verbose: bool = False) -> SweepResult:
    """Run the full (system × scale) grid for one query.

    With ``skip_after_failure`` (default), once a system DNFs/IMs at some
    scale, larger scales are marked with the same status without running —
    the paper's tables have the same monotone structure, and it keeps
    quadratic sweeps affordable.
    """
    systems = list(systems)
    scales = sorted(scales)
    result = SweepResult(query, scales, systems)
    for system in systems:
        failed_status: str | None = None
        for scale in scales:
            if failed_status is not None and skip_after_failure:
                result.cells[(system, scale)] = CellResult(
                    system, query, scale, failed_status,
                    detail="skipped after smaller-scale failure",
                )
                continue
            cell = run_cell(system, query, scale, timeout=timeout, seed=seed,
                            memory_budget=memory_budget,
                            collect_breakdown=collect_breakdown)
            result.cells[(system, scale)] = cell
            if verbose:
                print(f"  {query} {system} sf={scale}: {cell.display}")
            if cell.status in (DNF, IM, OV):
                failed_status = cell.status
    return result
