"""One way to do each job: the deleted second paths stay deleted.

Each row of :data:`GUARDS` names a pattern that must match no line of
the Python sources under its paths, why (what the single remaining way
is), and ``last_seen`` — the last commit whose tree still had it, so
``git grep -nE '<pattern>' <last_seen> -- <paths>`` shows the row
firing (``never`` for a surface that was never built).
:data:`DELETED_FILES` does the same for modules that must not come back.
"""

import dataclasses
import inspect
import re
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.engine.evaluator import DIEngine
from repro.resilience import AdmissionConfig

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
    Guard(r"^\s*(from|import)\s+repro\.engine(\.operators|\s+import\s.*"
          r"\boperators\b)",
          ("src/repro/engine", "src/repro/backends", "src/repro/concurrency",
           "src/repro/compiler"),
          "engine/operators.py is the kernels' test reference; no "
          "production module imports it", "d7c5588",
          exempt=("src/repro/engine/operators.py",)),
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
          "one relational adapter, sqlite, and a staged run drops its temp "
          "tables before it returns: no schema cache", "13c697e"),
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
          "one compile path (plain calls) and one EXPLAIN ANALYZE; the "
          "retry backoff schedule is constants", "6a883af"),
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
          "no tuning surface in admission or the breaker: the brownout "
          "ladder, thresholds, recovery window and single probe are "
          "constants (docs/ROBUSTNESS.md)", "3a6e0b2"),
    Guard(r"(?i)memo(?!r)",
          ("src/repro/session.py", "src/repro/backends/base.py",
           "src/repro/__main__.py", "src/repro/serving.py"),
          "the document memo has no setting: no session option, CLI flag or "
          "environment variable turns it off or sizes it "
          "(repro.engine.memo)", "never"),
)

DELETED_FILES = (
    ("src/repro/obs/serve.py", "one HTTP server", "f316acc"),
    ("src/repro/backends/dbapi.py", "one relational adapter", "13c697e"),
    ("src/repro/compiler/cost.py", "SQL translation is syntax-directed",
     "1a9df99"),
)


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


def test_engine_takes_three_options():
    """No side channel beside the tracer: ``stats``, ``observed``,
    ``metrics`` and ``tick`` are spans read afterwards (a guard's
    deadline ticks inside the engine)."""
    assert list(inspect.signature(DIEngine).parameters) == \
        ["validate", "tracer", "guard"]


def test_admission_takes_three_fields():
    """Admission is tuned by three fields; everything else in it and in
    the breaker is a constant."""
    assert [field.name for field in dataclasses.fields(AdmissionConfig)] \
        == ["max_concurrency", "max_queue_depth", "brownout_dwell_seconds"]
