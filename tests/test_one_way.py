"""One way to do each job: the deleted second paths stay deleted.

Each row of :data:`GUARDS` names a pattern that must match no line of
the Python sources under its paths, why (what the single remaining way
is), and ``last_seen`` — the last commit whose tree still had it, so
``git grep -nE '<pattern>' <last_seen> -- <paths>`` shows the row
firing (``never`` for a surface that was never built).
:data:`DELETED_FILES` does the same for modules that must not come back,
and :data:`UNREACHABLE` names the only modules the package ships that no
entry point imports.
"""

import ast
import dataclasses
import inspect
import re
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.engine.evaluator import DIEngine
from repro.resilience import AdmissionConfig
from repro.xquery.interpreter import Interpreter

ROOT = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Guard:
    pattern: str
    paths: tuple[str, ...]
    reason: str
    last_seen: str
    #: Files under ``paths`` the pattern may match (the thing guarded
    #: against importing itself, say).
    exempt: tuple[str, ...] = ()


GUARDS = (
    Guard(r"is_array|_falls_back|_reference\(|_wrap\(", ("src/repro",),
          "one body: every engine relation is int64 IntervalColumns, with "
          "no second algebra or bignum fallback behind the kernels",
          "d7c5588"),
    Guard(r"merge_matching_keys|block_tree_key_sets", ("src",),
          "structural equality is integer equality (kernels.span_ids -> "
          "match_ids), not per-tree tuple keys merged in Python",
          "daa7c03"),
    Guard(r"shard", ("src/repro",),
          "the process pool fans out whole queries; no intra-query "
          "scatter/gather (docs/CONCURRENCY.md)", "e68fba5"),
    Guard(r"http\.server|ThreadingHTTPServer|BaseHTTPRequestHandler|"
          r"TelemetryServer", ("src/repro",),
          "one HTTP server, repro.serving.QueryServer, answers every route",
          "f316acc"),
    Guard(r"DBAPIBackend|paramstyle|_staged_owner|_invalidate_staged",
          ("src/repro",),
          "one relational adapter, sqlite; a retained staged schema is "
          "owned by its translation's table prefix and never invalidated: "
          "every run refills it from the current document tables",
          "13c697e"),
    Guard(r"anc\.l <|_is_root\(|[lr] / \{", ("src/repro/sql",),
          "Section 4 SQL carries e and d: roots is d = 0, an environment "
          "guard an equality on e (docs/TRANSLATION.md)", "3a8b19d"),
    Guard(r"record_observation|worst_deviation|DEVIATION_FACTOR|"
          r"migrate_document|combine_digests|inner_filter|"
          r"_maybe_interchange|ISOLATION_MATCH_FRACTION|optimize=",
          ("src/repro",),
          "engine plans are syntax-directed: join-body isolation is a rule, "
          "with no cost gate or cardinality feedback (docs/PLANNER.md)",
          "bc42248"),
    Guard(r"condition_weight|CostModel|stats_by_var|"
          r"translate_query_with_stats|_order_conjunction|"
          r"apply_delta_to_stats|deleted_labels|deleted_depths",
          ("src/repro",),
          "SQL translation is syntax-directed: a where conjunction is "
          "emitted as written, with no cost model or statistics",
          "1a9df99"),
    Guard(r"register_rewrite|registered_passes|register_pass|PipelineTrace|"
          r"profile_plan|compiler\.simplify|simplify=|plan_for|base_delay=",
          ("src/repro",),
          "one compile path (plain calls) and one EXPLAIN ANALYZE, and no "
          "retry backoff to configure", "6a883af"),
    Guard(r"splice_rows|delta_updates|prepared_documents|_revisions",
          ("src/repro",),
          "one commit path: every backend adopts DocumentUpdate.columns(); "
          "only SQLite replays deltas (docs/UPDATES.md)", "d9b47b1"),
    Guard(r"splice_columns", ("src/repro/backends", "src/repro/concurrency"),
          "no backend splices a private copy of a document", "d9b47b1"),
    Guard(r"is_text_label|label\[:1\]|for label, depth in zip",
          ("src/repro/xml/serializer.py",),
          "one columnar emitter over label ids and piece tables, no "
          "per-row loop reading a node's kind off its label", "932a12a"),
    Guard(r"observed=|NodeObservation\(|_charged|_join_time|_chain_ticks|"
          r"\.measure\(", ("src/repro/engine",),
          "one engine instrument: Figure 10, EXPLAIN ANALYZE and the engine "
          "metrics read the evaluator's op spans (repro.engine.stats)",
          "66dee77"),
    Guard(r"AdaptiveLimiter|latency_quantile|queue_timeout_seconds|"
          r"brownout_levels|half_open_probes|on_transition|adaptive-admission",
          ("src/repro",),
          "no tuning surface in admission: the brownout ladder and its "
          "thresholds are constants (docs/ROBUSTNESS.md)", "3a6e0b2"),
    Guard(r"NaiveEvaluator", ("src/repro",),
          "one Figure 3 interpreter: the naive baseline is "
          "xquery.interpreter.Interpreter run with a baselines.naive."
          "BudgetMeter", "ff0fd0b"),
    Guard(r"class _Parser", ("src/repro/xml",),
          "one XML reader: text_parser's master-regex tokeniser feeds both "
          "the snapshot (read_document) and the trees (parse_forest)",
          "182b6c6"),
    Guard(r"as_forest\(|prepare_document\(|from_forest\(",
          ("src/repro/session.py", "src/repro/backends"),
          "one load path: the session reads a document into one read-only "
          "snapshot that every backend binds and session.updatable builds "
          "from, with no tree in between", "182b6c6"),
    Guard(r"(?i)memo(?!r)",
          ("src/repro/session.py", "src/repro/backends/base.py",
           "src/repro/__main__.py", "src/repro/serving.py"),
          "the document memo has no setting: no session option, CLI flag or "
          "environment variable turns it off or sizes it "
          "(repro.engine.memo)", "never"),
    Guard(r"Charge|_replay|_with_charges|_exact", ("src/repro/engine",),
          "the document memo holds values: a run with a resource budget "
          "reads and fills no memo, so no guard charges are logged, kept "
          "or replayed", "7bf4ce5"),
    Guard(r"RetryPolicy|NO_RETRY|CircuitBreaker|CircuitOpenError|"
          r"backend_breaker|reset_breakers|counts_against_breaker|retry=",
          ("src/repro",),
          "a run tries each backend of its fallback chain once, with no "
          "retry policy or circuit breaker; a dead pool worker is "
          "respawned and its query resubmitted once inside the pool "
          "(concurrency/procpool.py)", "8c1d7bb"),
    Guard(r"inserted_depths|_TRANSIENT_MARKERS", ("src/repro",),
          "an insert delta is one IntervalColumns run carrying its own d "
          "and c; no SQLite message is transient, every database being a "
          "private :memory: connection", "a80e91f"),
    Guard(r"(?<![.\w-])encode\b|derive_depths", ("src/repro/sql",),
          "SQLite shreds a forest's preorder stream through dfs_numbering "
          "and its results leave as columns through decode: the SQL path "
          "runs no tuple encoder", "a80e91f"),
    Guard(r"estimate_queue_wait|scale_budget|budget_scale|shed_batch|"
          r"disable_sampling|set_sampling|batch_deadline|_settle_cancelled|"
          r"max_envs", ("src/repro",),
          "overload control keeps what traffic reaches: the cap, the queue "
          "and drain shed, the brownout ladder stops at its cheap-backend "
          "step, no wait is estimated on arrival, a batch is bounded per "
          "query (deadline=) or by its caller's token, and a budget caps "
          "tuples alone", "8e59093"),
    Guard(r"ThreadLocalPool|DeltaLog|DELTA_LOG_LIMIT|_ThreadDatabase",
          ("src/repro",),
          "one SQLite database per backend: every thread runs on its one "
          "connection under the backend lock, and a commit is applied to "
          "it once, with no per-thread copies or delta log to sync",
          "aa7af04"),
    Guard(r"EnvironmentSequence|decode_sequence|infer_width|width_report|"
          r"ResourceBudget(?!Error)|coerce_budget", ("src/repro",),
          "Definition 3.3 and Section 4.3 each live once: the engine's "
          "EnvSeq and validate_value read environment sequences "
          "(tests/def33.py encodes them), the SQL translator infers widths "
          "from the XFn registry, and a budget is an int", "4ca86ae"),
)

DELETED_FILES = (
    ("src/repro/obs/serve.py", "one HTTP server", "f316acc"),
    ("src/repro/backends/dbapi.py", "one relational adapter", "13c697e"),
    ("src/repro/compiler/cost.py", "SQL translation is syntax-directed",
     "1a9df99"),
    ("benchmarks/conftest.py", "one figure harness: repro.bench runs every "
     "Section 6 cell and tests/test_figures.py asserts its shapes",
     "828c929"),
    ("src/repro/bench/charts.py", "one figure harness, and EXPERIMENTS.md's "
     "figures are tables", "828c929"),
    ("examples/join_scaling.py", "one figure harness: "
     "python -m repro.bench.run_experiments", "828c929"),
    ("src/repro/engine/operators.py", "one reference per semantics: the "
     "kernels are checked against Figure 2 under Def 3.3 (tests/def33.py)",
     "ff0fd0b"),
    ("src/repro/engine/relation.py", "one relation representation, "
     "IntervalColumns, and its block arithmetic", "ff0fd0b"),
    ("src/repro/engine/structural.py", "structural order and equality are "
     "kernels.collation_keys and kernels.span_ids -> match_ids", "ff0fd0b"),
    ("src/repro/backends/naive.py", "backends/interpreter.py registers both "
     "interpreter and naive", "ff0fd0b"),
    ("src/repro/resilience/faults.py", "fault injection is a test helper "
     "(tests/faults.py); the package ships none", "182b6c6"),
    ("src/repro/resilience/retry.py", "no session-wide retry: a run tries "
     "each backend once, and the pool resubmits after a worker death",
     "8c1d7bb"),
    ("src/repro/resilience/breaker.py", "no circuit breaker: /healthz "
     "grades ok and shedding only", "8c1d7bb"),
    ("src/repro/backends/deltalog.py", "one SQLite database per backend, "
     "a commit applied to it once", "aa7af04"),
    ("src/repro/concurrency/pool.py", "one SQLite connection per backend, "
     "not one per thread", "aa7af04"),
    ("src/repro/encoding/dynamic.py", "Definition 3.3 is the engine's "
     "EnvSeq, checked by validate_value; tests/def33.py encodes and "
     "decodes blocks", "4ca86ae"),
    ("src/repro/sql/widths.py", "the SQL translator is the one Section 4.3 "
     "width inference", "4ca86ae"),
)

#: The entry points a user reaches the package through.
ENTRY_POINTS = ("repro", "repro.api", "repro.__main__", "repro.serving")

#: Modules under ``src/repro`` that no entry point imports, each with why
#: it ships anyway (a dotted prefix covers a whole package).
UNREACHABLE = {
    "repro.bench": "the Section 6 figure harness, run as "
                   "python -m repro.bench.run_experiments",
    "repro.encoding.stats": "kept only for perfbench's encoding.stats "
                            "tracing boundary (ROADMAP 2(e))",
}


def _sources(paths: tuple[str, ...]) -> list[Path]:
    files: list[Path] = []
    for path in paths:
        target = ROOT / path
        files.extend([target] if target.is_file()
                     else sorted(target.rglob("*.py")))
    return files


@pytest.mark.parametrize("guard", GUARDS, ids=lambda guard: guard.pattern[:40])
def test_pattern_stays_deleted(guard):
    pattern = re.compile(guard.pattern)
    hits = [
        f"{source.relative_to(ROOT)}:{number}: {line.strip()}"
        for source in _sources(guard.paths)
        if str(source.relative_to(ROOT)) not in guard.exempt
        for number, line in enumerate(
            source.read_text(encoding="utf-8").splitlines(), 1)
        if pattern.search(line)
    ]
    assert not hits, f"back although {guard.reason}:\n" + "\n".join(hits)


@pytest.mark.parametrize("path, reason, last_seen", DELETED_FILES)
def test_module_stays_deleted(path, reason, last_seen):
    assert not (ROOT / path).exists(), f"{path} is back although {reason}"


def _modules() -> dict[str, Path]:
    modules = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        parts = path.relative_to(ROOT / "src").with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


def _imported(path: Path, modules: dict[str, Path]) -> set[str]:
    """The modules ``path`` imports anywhere in its body, each with the
    packages that importing it runs."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}"
                         for alias in node.names)
    return {prefix for name in names
            for parts in [name.split(".")]
            for prefix in (".".join(parts[:i])
                           for i in range(1, len(parts) + 1))
            if prefix in modules}


def test_every_module_is_reachable_or_named():
    """The package ships the system: every module is imported from an
    entry point, or named in :data:`UNREACHABLE` with its reason — and
    every name there is still a module no entry point reaches."""
    modules = _modules()
    reached, todo = set(), list(ENTRY_POINTS)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(_imported(modules[name], modules) - reached)
    unreachable = set(modules) - reached
    unnamed = {name for name in unreachable
               if not any(name == allowed or name.startswith(allowed + ".")
                          for allowed in UNREACHABLE)}
    assert not unnamed, f"no entry point imports {sorted(unnamed)}"
    stale = {allowed for allowed in UNREACHABLE
             if allowed not in unreachable}
    assert not stale, f"named unreachable but imported: {sorted(stale)}"


def test_engine_takes_three_options():
    """No side channel beside the tracer: ``stats``, ``observed``,
    ``metrics`` and ``tick`` are spans read afterwards (a guard's
    deadline ticks inside the engine)."""
    assert list(inspect.signature(DIEngine).parameters) == \
        ["validate", "tracer", "guard"]


def test_interpreter_takes_one_option():
    """One Figure 3 interpreter: the oracle and the naive baseline differ
    only in the meter it is charged through."""
    assert list(inspect.signature(Interpreter).parameters) == ["meter"]


def test_admission_takes_three_fields():
    """Admission is tuned by three fields; everything else in it is a
    constant."""
    assert [field.name for field in dataclasses.fields(AdmissionConfig)] \
        == ["max_concurrency", "max_queue_depth", "brownout_dwell_seconds"]
