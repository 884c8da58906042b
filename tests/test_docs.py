"""Documentation guards: files exist, code snippets actually run."""

import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


class TestDocFilesExist:
    @pytest.mark.parametrize("name", [
        "README.md", "DESIGN.md", "EXPERIMENTS.md",
        "docs/TRANSLATION.md", "docs/OPERATORS.md", "docs/API.md",
        "docs/OBSERVABILITY.md", "docs/ROBUSTNESS.md",
        "docs/CONCURRENCY.md", "docs/PERFORMANCE.md",
        "docs/UPDATES.md",
    ])
    def test_exists_and_nonempty(self, name):
        path = ROOT / name
        assert path.exists(), name
        assert len(path.read_text()) > 500, f"{name} is suspiciously short"

    def test_design_confirms_paper_identity(self):
        text = (ROOT / "DESIGN.md").read_text()
        assert "SIGMOD 2003" in text
        assert "matches the claimed title" in text

    def test_experiments_covers_all_figures(self):
        text = (ROOT / "EXPERIMENTS.md").read_text()
        for figure in ("Figure 8", "Figure 9", "Figure 10", "Figure 11"):
            assert figure in text

    def test_observability_covers_production_telemetry(self):
        text = (ROOT / "docs/OBSERVABILITY.md").read_text()
        assert "## Production telemetry" in text
        for term in ("FlightRecorder", "/metrics", "/healthz",
                     "/debug/queries", "repro_slo_burn_rate",
                     "--serve-telemetry", "python -m repro top",
                     "slow_seconds", "repro.slowlog"):
            assert term in text, term
        # README and the API reference both point at the section.
        assert "Production telemetry" in (ROOT / "README.md").read_text()
        assert "Production telemetry" in (ROOT / "docs/API.md").read_text()

    def test_robustness_covers_overload_protection(self):
        text = (ROOT / "docs/ROBUSTNESS.md").read_text()
        assert "## Overload protection" in text
        for term in ("AdmissionConfig", "OverloadError", "retry_after",
                     "CancellationToken", "QueryCancelledError",
                     "drain_timeout", "BrownoutLevel",
                     "repro_admission_sheds_total",
                     "repro_admission_brownout_level",
                     'priority="interactive"', "max_queue_depth",
                     "brownout_dwell_seconds"):
            assert term in text, term
        # README and the API reference both point at the section.
        assert "Overload protection" in (ROOT / "README.md").read_text()
        assert "Overload protection" in (ROOT / "docs/API.md").read_text()
        # /healthz's 503 semantics are documented where scrapers look.
        observability = (ROOT / "docs/OBSERVABILITY.md").read_text()
        assert "503" in observability and "shedding" in observability

    def test_concurrency_covers_process_parallel_serving(self):
        text = (ROOT / "docs/CONCURRENCY.md").read_text()
        assert "## Process-parallel serving" in text
        for term in ("ProcessQueryPool", "shared_memory", "zero-copy",
                     'tier="process"', "run_async",
                     "Why there is no intra-query scatter",
                     "WorkerDiedError", "root-distributive",
                     "python -m repro serve", "Retry-After",
                     "REPRO_POOL_WORKERS", "REPRO_START_METHOD",
                     "repro_cols", "batch_run_many"):
            assert term in text, term
        # README and the API reference both point at the section.
        assert "Process-parallel serving" in (ROOT / "README.md").read_text()
        assert "Process-parallel serving" in \
            (ROOT / "docs/API.md").read_text()
        # ...and the performance doc says which workload measures it.
        performance = (ROOT / "docs/PERFORMANCE.md").read_text()
        assert "batch_run_many" in performance
        assert "Process-parallel serving" in performance

    def test_updates_covers_incremental_write_path(self):
        text = (ROOT / "docs/UPDATES.md").read_text()
        assert "# Incremental updates" in text
        for term in ("UpdateDelta", "deleted_ranges", "relabeled",
                     "delta.wrapped()", "deltas_since", "apply_update",
                     "deleted_rows", "CacheKey",
                     "incremental=False",
                     "repro_session_updates_applied_total",
                     "repro_update_lock_hold_seconds",
                     "revision rule"):
            assert term in text, term
        # README and the API reference both point at the doc.
        assert "docs/UPDATES.md" in (ROOT / "README.md").read_text()
        assert "docs/UPDATES.md" in (ROOT / "docs/API.md").read_text()
        # ...and the experiments of record say what a write costs.
        assert "write_p50_ms" in (ROOT / "EXPERIMENTS.md").read_text()

    def test_design_per_experiment_index(self):
        text = (ROOT / "DESIGN.md").read_text()
        for experiment in ("fig8", "fig9", "fig10", "fig11",
                           "ex-structkeys", "ex-widths", "ex-decorr"):
            assert experiment in text


class TestDocsNameOnlyWhatExists:
    """A doc that tells the reader to run a module, or to read a
    baseline file, must name one the tree still has."""

    DOCS = [ROOT / name for name in ("README.md", "DESIGN.md",
                                     "EXPERIMENTS.md")]
    DOCS += sorted((ROOT / "docs").glob("*.md"))

    def test_every_python_m_module_resolves(self):
        missing = [
            f"{path.name}: python -m {module}"
            for path in self.DOCS
            for module in sorted(set(re.findall(
                r"python3? -m (repro(?:\.\w+)*)", path.read_text())))
            if importlib.util.find_spec(module) is None]
        assert not missing

    def test_no_doc_reads_the_deleted_engine_baseline(self):
        # perfbench/run.py is the one harness, and its reports are not
        # committed (perfbench/README.md, "Comparing two commits").
        assert not [path.name for path in self.DOCS
                    if "BENCH_engine" in path.read_text()]

    def test_no_doc_names_the_deleted_second_http_server(self):
        # repro.serving.QueryServer is the one server (OBSERVABILITY.md,
        # "The introspection endpoint").
        stale = [f"{path.name}: {name}" for path in self.DOCS
                 for name in ("repro.obs.serve", "TelemetryServer",
                              "ThreadingHTTPServer")
                 if name in path.read_text()]
        assert not stale


class TestReadmeSnippets:
    def test_quickstart_snippet_runs(self):
        """The README's first code block must execute and print the
        documented output."""
        readme = (ROOT / "README.md").read_text()
        blocks = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
        assert blocks, "README has no python blocks"
        snippet = blocks[0]
        printed: list[str] = []
        namespace = {"print": lambda *a: printed.append(" ".join(map(str, a)))}
        exec(snippet, namespace)  # noqa: S102 — our own documentation
        assert printed
        assert '<who id="p0">Ada</who><who id="p1">Bob</who>' in printed[0]

    def test_backend_names_in_readme_are_real(self):
        from repro import run_xquery
        readme = (ROOT / "README.md").read_text()
        for backend in ("engine", "sqlite", "interpreter"):
            assert f'backend="{backend}"' in readme
            # and each really is accepted:
            run_xquery("<x/>", {}, backend=backend)


class TestExperimentsNumbersAreFresh:
    def test_tables_mention_every_system(self):
        text = (ROOT / "EXPERIMENTS.md").read_text()
        for label in ("Naive (NL interp.)", "DI-NLJ", "DI-MSJ",
                      "SQLite (generic)"):
            assert label in text

    def test_failure_markers_documented(self):
        text = (ROOT / "EXPERIMENTS.md").read_text()
        for marker in ("DNF", "IM", "OV"):
            assert marker in text
