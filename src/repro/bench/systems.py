"""The systems under test, as named benchmark cells.

Mapping to the paper's Section 6 rows:

================  ==============================================================
``naive``         the competitor class (Galax / Kweelt / IPSI-XQ / QuiP /
                  X-Hive behaviour): tree-walking nested-loop interpreter
``di-nlj``        the DI prototype with nested-loop iteration plans
``di-msj``        the DI prototype with structural merge-sort-join plans
``sqlite``        the generated single SQL statement on stock SQLite — the
                  "generic relational engine" whose interval-predicate cost
                  motivates Section 5's special operators
================  ==============================================================

Each system is declarative data — a backend-registry name plus
construction/execution options — and cells run through the uniform
:class:`~repro.backends.base.Backend` lifecycle: document loading and
query compilation happen in the untimed :meth:`prepare` /
:meth:`runner` phase, only the returned runner is measured (matching the
paper's methodology: document load time excluded, CPU seconds reported),
and the backend is always closed, connections included.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.api import as_snapshot, compile_xquery
from repro.backends.base import ExecutionOptions
from repro.backends.registry import create_backend
from repro.compiler.plan import JoinStrategy
from repro.engine.stats import EngineStats
from repro.obs.trace import Tracer
from repro.xmark.generator import cached_document
from repro.xmark.queries import QUERIES


@dataclass(frozen=True)
class SystemSpec:
    """One benchmark row: a registered backend plus fixed options."""

    backend: str
    strategy: JoinStrategy | None = None
    #: Extra keyword arguments for the backend factory.
    backend_options: Mapping[str, Any] = field(default_factory=dict)
    #: Whether the factory takes the harness ``memory_budget`` (the
    #: simulated "IM" limit only applies to the naive competitor).
    accepts_memory_budget: bool = False


#: Section 6 system rows → backend registry configurations.
SYSTEM_SPECS: dict[str, SystemSpec] = {
    "naive": SystemSpec("naive", accepts_memory_budget=True),
    "di-nlj": SystemSpec("engine", strategy=JoinStrategy.NLJ),
    "di-msj": SystemSpec("engine", strategy=JoinStrategy.MSJ),
    "sqlite": SystemSpec("sqlite"),
}

SYSTEMS = tuple(SYSTEM_SPECS)


def execute_cell(system: str, query_name: str, scale: float,
                 seed: int = 42, memory_budget: int | None = None,
                 collect_breakdown: bool = False) -> dict[str, Any]:
    """Run one (system, query, scale) cell and return measurements.

    Returns a dict with ``seconds`` (CPU), ``wall_seconds``,
    ``prepare_seconds`` (untimed-phase cost: document loading on the
    backend plus runner construction, i.e. planning / SQL translation),
    ``phases`` (compile / prepare / execute wall seconds, derived from the
    cell's span tree), ``result_size`` (trees in the result), and — for
    engine systems with ``collect_breakdown`` — a ``breakdown`` dict of
    per-category fractions.  Resource-limit failures propagate as
    exceptions for the harness to classify.
    """
    if query_name not in QUERIES:
        raise ValueError(f"unknown query {query_name!r}; "
                         f"choose from {sorted(QUERIES)}")
    try:
        spec = SYSTEM_SPECS[system]
    except KeyError:
        raise ValueError(f"unknown system {system!r}; "
                         f"choose from {SYSTEMS}") from None

    tracer = Tracer()
    cell_span = tracer.span("cell", system=system, query=query_name,
                            scale=scale)
    with cell_span:
        document = cached_document(scale, seed=seed)
        with tracer.span("compile"):
            compiled = compile_xquery(QUERIES[query_name])
        backend_options = dict(spec.backend_options)
        if spec.accepts_memory_budget and memory_budget is not None:
            backend_options["memory_budget"] = memory_budget
        stats = EngineStats() if (collect_breakdown
                                  and spec.backend == "engine") else None
        options = ExecutionOptions(stats=stats)
        if spec.strategy is not None:
            options.strategy = spec.strategy

        with create_backend(spec.backend, **backend_options) as backend:
            # The paper's methodology excludes setup from the reported
            # seconds; measure it separately so trajectories can report
            # prepare (load + plan/translate) vs execute per cell.
            with tracer.span("prepare") as prepare_span:
                snapshot = as_snapshot(document)
                backend.prepare({var: snapshot
                                 for var in compiled.documents.values()})
                runner = backend.runner(compiled, options)

            # Benchmark hygiene: when the harness forks a cell out of a large
            # parent process, the child's first GC pass faults in the whole
            # inherited heap copy-on-write.  Pay that cost before the clock
            # starts, and keep collector pauses out of the measured region.
            gc.collect()
            gc_was_enabled = gc.isenabled()
            gc.disable()
            try:
                with tracer.span("execute"):
                    cpu_start = time.process_time()
                    wall_start = time.perf_counter()
                    result = runner()
                    cpu_seconds = time.process_time() - cpu_start
                    wall_seconds = time.perf_counter() - wall_start
            finally:
                if gc_was_enabled:
                    gc.enable()
            measurements: dict[str, Any] = {
                "seconds": cpu_seconds,
                "wall_seconds": wall_seconds,
                "prepare_seconds": prepare_span.seconds,
                "result_size": len(result),
                "scale": scale,
                "document_nodes": document.size,
            }
    measurements["phases"] = {
        child.name: child.seconds for child in cell_span.children
    }
    if stats is not None:
        measurements["breakdown"] = stats.fractions()
    return measurements
