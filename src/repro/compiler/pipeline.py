"""The compilation chain: parse → lower → decorrelate + plan → isolate.

The paper's compiler is a fixed sequence of plain calls: lower the
surface query to the core language (Figure 3), decorrelate independent
nested loops into joins while building the DI plan (Section 5), then
isolate every join body that reads only its variable, count the
isolated joins read only through ``count`` / ``empty``, and lift the
path chains of base-environment ``for`` bodies, in one walk
(:func:`~repro.compiler.planner.optimize_plan`).  Each stage times its
passes with ``time.perf_counter`` into :class:`PassRecord` entries:

* :func:`frontend_stage` records ``parse`` and ``lower`` — a
  :class:`~repro.api.CompiledQuery` carries them;
* :func:`plan_stage` records ``decorrelate`` and ``plan``, and
  :func:`optimize_stage` records ``isolate`` — the engine backend keeps
  them beside the plan in its cache entry, keyed like the plan.

Nothing here renders a snapshot: ``explain(verbose=True)`` asks
:func:`render_passes` for the pass table and supplies the core text and
plans it already built.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Iterable, Mapping

from repro.compiler import decorrelate as decorrelate_mod
from repro.compiler.plan import (ForNode, JoinForNode, JoinStrategy, PlanNode,
                                 iter_plan)
from repro.compiler.planner import compile_plan, optimize_plan
from repro.xquery.ast import CoreExpr
from repro.xquery.lowering import lower_query
from repro.xquery.parser import parse_xquery


@dataclass(frozen=True)
class PassRecord:
    """One pass execution: its name, wall-clock seconds and a summary."""

    name: str
    seconds: float
    detail: str = ""


def frontend_stage(query: str
                   ) -> tuple[CoreExpr, dict[str, str], tuple[PassRecord, ...]]:
    """Parse and lower ``query``: ``(core, documents, records)``."""
    started = perf_counter()
    surface = parse_xquery(query)
    parsed = perf_counter()
    core, documents = lower_query(surface)
    lowered = perf_counter()
    return core, documents, (
        PassRecord("parse", parsed - started),
        PassRecord("lower", lowered - parsed,
                   f"{len(documents)} document(s)"))


def plan_stage(core: CoreExpr, strategy: JoinStrategy,
               base_vars: Iterable[str], decorrelate: bool = True,
               records: list[PassRecord] | None = None) -> PlanNode:
    """Build the syntactic plan, decorrelating loops into joins.

    With ``records``, appends a ``decorrelate`` and a ``plan`` record.
    Decorrelation happens while the planner walks the core tree, so its
    cost is the summed time of every ``match_join`` attempt and the
    ``plan`` record holds the rest.  ``decorrelate=False`` is the
    Section 5 ablation: every loop stays a nested-loop expansion.
    """
    if records is None:
        return compile_plan(core, strategy, base_vars=base_vars,
                            decorrelate_loops=decorrelate)

    attempts = 0
    matches = 0
    matcher_seconds = 0.0

    def timed_match(loop, base):
        nonlocal attempts, matches, matcher_seconds
        attempts += 1
        started = perf_counter()
        try:
            match = decorrelate_mod.match_join(loop, base)
        finally:
            matcher_seconds += perf_counter() - started
        if match is not None:
            matches += 1
        return match

    started = perf_counter()
    plan = compile_plan(core, strategy, base_vars=base_vars,
                        decorrelate_loops=decorrelate,
                        match_fn=timed_match if decorrelate else None)
    seconds = perf_counter() - started
    if decorrelate:
        records.append(PassRecord(
            "decorrelate", matcher_seconds,
            f"{matches}/{attempts} loop(s) decorrelated"))
    records.append(PassRecord("plan", seconds - matcher_seconds,
                              f"strategy={strategy.value}"))
    return plan


def optimize_stage(plan: PlanNode,
                   records: list[PassRecord] | None = None) -> PlanNode:
    """Isolate join bodies, count the joins read only by ``count`` /
    ``empty``, rank ``order by`` iterations and lift ``for`` body
    chains; with ``records``, append an ``isolate`` record counting the
    plan's joins, how many the rules isolated and counted, the loops
    they ordered and the chains they lifted."""
    if records is None:
        return optimize_plan(plan)
    started = perf_counter()
    optimized = optimize_plan(plan)
    seconds = perf_counter() - started
    joins = isolated = counted = ordered = lifted = 0
    for node in iter_plan(optimized):
        if isinstance(node, JoinForNode):
            joins += 1
            isolated += node.isolate
            counted += node.counts
        elif isinstance(node, ForNode):
            ordered += node.order is not None
            lifted += len(node.lifted)
    records.append(PassRecord(
        "isolate", seconds,
        f"{joins} join(s), {isolated} isolated, {counted} counted, "
        f"{ordered} ordered, {lifted} chain(s) lifted"))
    return optimized


def render_passes(records: Iterable[PassRecord],
                  snapshots: Mapping[str, str]) -> str:
    """The pass table, each pass followed by its ``snapshots`` entry."""
    lines = ["compilation pipeline:"]
    total = 0.0
    for record in records:
        total += record.seconds
        entry = f"  {record.name:<12} {record.seconds * 1e3:8.3f} ms"
        if record.detail:
            entry += f"  [{record.detail}]"
        lines.append(entry)
        snapshot = snapshots.get(record.name)
        if snapshot is not None:
            lines.append("    after:")
            lines.extend("      " + line for line in snapshot.splitlines())
    lines.append(f"  {'total':<12} {total * 1e3:8.3f} ms")
    return "\n".join(lines)
