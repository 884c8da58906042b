"""The staged compilation pipeline: an explicit, observable pass list.

Compilation is an ordered sequence of *named passes* over a shared state:

    parse → lower → [rewrites…] → decorrelate → plan → isolate

Each pass is a registry entry (:class:`CompilerPass`), so turning a
rewrite on or off means selecting passes rather than threading booleans
through call sites, and a future rewrite becomes one
:func:`register_rewrite` call.  Every run records per-pass wall-clock
timings and before/after snapshots into a :class:`PipelineTrace`;
``compile_xquery(...).explain(verbose=True)`` renders the trace, making
the cost/benefit of each pass measurable per query (Koch's complexity
results for nonrecursive XQuery are exactly about such per-pass
trade-offs).

Pass stages:

``frontend``
    ``parse`` (XQuery text → surface AST) and ``lower`` (surface → core
    language + document variables).  Always run.

``rewrite``
    Core-to-core, semantics-preserving transformations.  ``simplify``
    (:mod:`repro.compiler.simplify`) ships registered; select rewrites by
    name via ``compile_xquery(query, passes=["simplify", …])``.

``plan``
    ``decorrelate`` (the Section 5 loop-to-join matcher, timed across all
    match attempts) and ``plan`` (core → physical plan), then ``isolate``
    (join-body isolation, :func:`~repro.compiler.planner.optimize_plan`).
    Run when a plan is requested; the trace records how many loops
    decorrelated and how many joins were isolated.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from repro.compiler import decorrelate as decorrelate_mod
from repro.compiler.plan import JoinForNode, JoinStrategy, PlanNode, iter_plan
from repro.compiler.planner import compile_plan, explain_plan, optimize_plan
from repro.errors import ReproError
from repro.obs.trace import Tracer
from repro.xquery.ast import CoreExpr, core_to_str
from repro.xquery.lowering import lower_query
from repro.xquery.parser import parse_xquery

RewriteFn = Callable[[CoreExpr], CoreExpr]


@dataclass(frozen=True)
class CompilerPass:
    """A named, registered compilation pass."""

    name: str
    stage: str  # "frontend" | "rewrite" | "plan"
    description: str = ""
    rewrite: RewriteFn | None = None  # stage == "rewrite" only


@dataclass
class PassRecord:
    """One pass execution: timing plus optional before/after snapshots."""

    name: str
    seconds: float
    detail: str = ""
    before: str | None = None
    after: str | None = None


class PipelineTrace:
    """The observable record of one compilation.

    Pass timings come from the shared tracing primitive: every measured
    pass opens a span (``pass.<name>``) on :attr:`tracer` and the
    :class:`PassRecord` is derived from it, so a compilation threaded with
    a live query tracer contributes its passes to the full lifecycle
    trace instead of keeping a private stopwatch.
    """

    def __init__(self, records: Iterable[PassRecord] | None = None,
                 tracer: Tracer | None = None):
        self.records: list[PassRecord] = list(records) if records else []
        self.tracer = tracer if tracer is not None else Tracer()

    @contextmanager
    def measure(self, name: str, detail: str = "") -> Iterator[PassRecord]:
        """Time one pass as a span; yields the record to fill in.

        The record's ``seconds`` is set from the span on exit, then the
        record is appended — callers set ``detail``/``before``/``after``
        (and may adjust ``seconds``, e.g. to carve out matcher time).
        """
        record = PassRecord(name, 0.0, detail)
        with self.tracer.span(f"pass.{name}", compiler_pass=name) as span:
            yield record
        record.seconds = span.seconds
        if record.detail:
            span.set(detail=record.detail)
        self.records.append(record)

    def record(self, name: str, seconds: float, detail: str = "",
               before: str | None = None, after: str | None = None) -> None:
        """Append an externally-measured pass (grafted as a closed span)."""
        self.records.append(PassRecord(name, seconds, detail, before, after))
        span = self.tracer.record_span(f"pass.{name}", seconds,
                                       compiler_pass=name)
        if detail:
            span.set(detail=detail)

    def __getitem__(self, name: str) -> PassRecord:
        for record in reversed(self.records):
            if record.name == name:
                return record
        raise KeyError(name)

    def __contains__(self, name: str) -> bool:
        return any(record.name == name for record in self.records)

    @property
    def pass_names(self) -> tuple[str, ...]:
        return tuple(record.name for record in self.records)

    def total_seconds(self) -> float:
        return sum(record.seconds for record in self.records)

    def render(self, verbose: bool = False) -> str:
        """A readable table of passes; ``verbose`` adds the snapshots."""
        lines = ["compilation pipeline:"]
        for record in self.records:
            entry = f"  {record.name:<12} {record.seconds * 1e3:8.3f} ms"
            if record.detail:
                entry += f"  [{record.detail}]"
            lines.append(entry)
            if verbose:
                for label, snapshot in (("before", record.before),
                                        ("after", record.after)):
                    if snapshot is not None:
                        lines.append(f"    {label}:")
                        lines.extend("      " + line
                                     for line in snapshot.splitlines())
        lines.append(f"  {'total':<12} {self.total_seconds() * 1e3:8.3f} ms")
        return "\n".join(lines)


# -- the pass registry --------------------------------------------------------

_PASSES: dict[str, CompilerPass] = {}


def register_pass(compiler_pass: CompilerPass, replace: bool = False) -> CompilerPass:
    if compiler_pass.name in _PASSES and not replace:
        raise ReproError(
            f"compiler pass {compiler_pass.name!r} is already registered; "
            f"pass replace=True to override"
        )
    _PASSES[compiler_pass.name] = compiler_pass
    return compiler_pass


def register_rewrite(name: str, fn: RewriteFn, description: str = "",
                     replace: bool = False) -> CompilerPass:
    """Register a core-to-core rewrite selectable by name."""
    return register_pass(
        CompilerPass(name, "rewrite", description, rewrite=fn), replace)


def registered_passes(stage: str | None = None) -> tuple[str, ...]:
    """Names of registered passes, optionally filtered by stage."""
    return tuple(name for name, p in _PASSES.items()
                 if stage is None or p.stage == stage)


def get_pass(name: str) -> CompilerPass:
    try:
        return _PASSES[name]
    except KeyError:
        known = ", ".join(repr(n) for n in registered_passes())
        raise ReproError(
            f"unknown compiler pass {name!r}; registered passes: {known}"
        ) from None


# -- the structural passes ----------------------------------------------------

register_pass(CompilerPass(
    "parse", "frontend", "XQuery text → surface AST"))
register_pass(CompilerPass(
    "lower", "frontend", "surface AST → core language + document vars"))
register_pass(CompilerPass(
    "decorrelate", "plan",
    "Section 5 rewrite: independent nested loops → structural joins"))
register_pass(CompilerPass(
    "plan", "plan", "core language → DI physical plan"))
register_pass(CompilerPass(
    "isolate", "plan",
    "join-body isolation: every join whose body reads only its variable"))


def _register_simplify() -> None:
    from repro.compiler.simplify import simplify

    register_rewrite(
        "simplify", simplify,
        "algebraic simplification (emptiness, idempotence, dead code)")


_register_simplify()


# -- running the pipeline -----------------------------------------------------

def run_frontend(query: str, rewrites: Iterable[str] = (),
                 trace: PipelineTrace | None = None,
                 ) -> tuple[CoreExpr, dict[str, str], PipelineTrace]:
    """Parse, lower, and apply the named rewrite passes.

    Returns ``(core, documents, trace)``.  ``rewrites`` are names of
    registered rewrite passes, applied in the order given.
    """
    trace = trace if trace is not None else PipelineTrace()

    with trace.measure("parse"):
        surface = parse_xquery(query)

    with trace.measure("lower") as record:
        core, documents = lower_query(surface)
        record.detail = f"{len(documents)} document(s)"
    record.after = core_to_str(core)  # snapshots stay outside the timing

    for name in rewrites:
        compiler_pass = get_pass(name)
        if compiler_pass.stage != "rewrite" or compiler_pass.rewrite is None:
            raise ReproError(
                f"pass {name!r} is a {compiler_pass.stage} pass and cannot "
                f"be selected as a rewrite"
            )
        before = core_to_str(core)
        with trace.measure(name) as record:
            core = compiler_pass.rewrite(core)
        record.before = before
        record.after = core_to_str(core)
    return core, documents, trace


def plan_stage(core: CoreExpr, strategy: JoinStrategy,
               base_vars: Iterable[str], decorrelate: bool = True,
               trace: PipelineTrace | None = None) -> PlanNode:
    """Run the ``decorrelate`` and ``plan`` passes, recording both.

    Decorrelation happens while the planner walks the core tree, so its
    cost is measured by timing every ``match_join`` attempt; the ``plan``
    record reports the remaining plan-construction time.
    """
    if trace is None:
        return compile_plan(core, strategy, base_vars=base_vars,
                            decorrelate_loops=decorrelate)

    attempts = 0
    matches = 0
    matcher_seconds = 0.0

    def timed_match(loop, base):
        nonlocal attempts, matches, matcher_seconds
        attempts += 1
        started = time.perf_counter()
        try:
            match = decorrelate_mod.match_join(loop, base)
        finally:
            matcher_seconds += time.perf_counter() - started
        if match is not None:
            matches += 1
        return match

    with trace.measure("plan") as record:
        plan = compile_plan(core, strategy, base_vars=base_vars,
                            decorrelate_loops=decorrelate,
                            match_fn=timed_match if decorrelate else None)
        if decorrelate:
            # The matcher runs interleaved with planning; carve its summed
            # time out as its own (recorded) pass, nested in the plan span.
            trace.record("decorrelate", matcher_seconds,
                         detail=f"{matches}/{attempts} loop(s) decorrelated")
        record.detail = f"strategy={strategy.value}"
    record.seconds -= matcher_seconds if decorrelate else 0.0
    record.after = explain_plan(plan)
    return plan


def optimize_stage(plan: PlanNode,
                   trace: PipelineTrace | None = None) -> PlanNode:
    """Run the ``isolate`` pass over a compiled plan.

    The record counts the plan's joins and how many the rule isolated.
    """
    if trace is None:
        return optimize_plan(plan)

    with trace.measure("isolate") as record:
        optimized = optimize_plan(plan)
        joins = [node for node in iter_plan(optimized)
                 if isinstance(node, JoinForNode)]
        isolated = sum(1 for node in joins if node.isolate)
        record.detail = f"{len(joins)} join(s), {isolated} isolated"
    record.after = explain_plan(optimized)
    return optimized
