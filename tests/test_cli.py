"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import main
from repro.xmark.queries import FIGURE1_SAMPLE


@pytest.fixture
def sample_file(tmp_path):
    path = tmp_path / "auction.xml"
    path.write_text(FIGURE1_SAMPLE)
    return str(path)


QUERY = 'document("a.xml")/site/people/person/name/text()'


class TestRun:
    def test_engine_run(self, sample_file, capsys):
        code = main([QUERY, "--doc", f"a.xml={sample_file}"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "Jaak TempestiCong Rosca"

    @pytest.mark.parametrize("backend", ["interpreter", "sqlite"])
    def test_other_backends(self, sample_file, capsys, backend):
        code = main([QUERY, "--doc", f"a.xml={sample_file}",
                     "--backend", backend])
        assert code == 0
        assert "Jaak Tempesti" in capsys.readouterr().out

    def test_query_from_file(self, sample_file, tmp_path, capsys):
        query_path = tmp_path / "q.xq"
        query_path.write_text(QUERY)
        code = main([f"@{query_path}", "--doc", f"a.xml={sample_file}"])
        assert code == 0
        assert "Cong Rosca" in capsys.readouterr().out

    def test_indent(self, sample_file, capsys):
        code = main(['document("a.xml")/site/people/person[1]',
                     "--doc", f"a.xml={sample_file}", "--indent", "2"])
        assert code == 0
        assert "\n  " in capsys.readouterr().out


class TestIntrospection:
    def test_explain(self, capsys):
        code = main([QUERY, "--explain"])
        assert code == 0
        assert "Fn:select" in capsys.readouterr().out

    def test_explain_nlj(self, capsys):
        from repro.xmark.queries import Q8
        code = main([Q8, "--explain", "--strategy", "nlj"])
        assert code == 0
        assert "nested-loop" in capsys.readouterr().out

    def test_sql(self, sample_file, capsys):
        code = main([QUERY, "--doc", f"a.xml={sample_file}", "--sql"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("WITH ")
        assert "ORDER BY l" in out


class TestObservability:
    def test_trace_writes_chrome_json(self, sample_file, tmp_path, capsys):
        import json

        trace_path = tmp_path / "trace.json"
        code = main([QUERY, "--doc", f"a.xml={sample_file}",
                     "--trace", str(trace_path)])
        assert code == 0
        document = json.loads(trace_path.read_text())
        names = {event["name"] for event in document["traceEvents"]}
        assert {"query", "compile", "prepare", "execute",
                "serialize"} <= names
        assert f"trace written to {trace_path}" in capsys.readouterr().err

    def test_metrics_dumps_valid_prometheus(self, sample_file, capsys):
        from repro.obs.export import parse_prometheus

        code = main([QUERY, "--doc", f"a.xml={sample_file}", "--metrics"])
        assert code == 0
        err = capsys.readouterr().err
        samples = parse_prometheus(err)
        assert any(key.startswith("repro_session_queries_total")
                   for key in samples)

    def test_verbose_logs_to_stderr(self, sample_file, capsys):
        code = main([QUERY, "--doc", f"a.xml={sample_file}", "--verbose"])
        assert code == 0
        captured = capsys.readouterr()
        assert "repro.session" in captured.err
        assert "Jaak Tempesti" in captured.out

    def test_result_unchanged_when_traced(self, sample_file, tmp_path,
                                          capsys):
        code = main([QUERY, "--doc", f"a.xml={sample_file}",
                     "--trace", str(tmp_path / "t.json"),
                     "--backend", "sqlite"])
        assert code == 0
        assert "Jaak TempestiCong Rosca" in capsys.readouterr().out

    def test_serve_telemetry_announces_url(self, sample_file, capsys):
        code = main([QUERY, "--doc", f"a.xml={sample_file}",
                     "--serve-telemetry", "0"])
        assert code == 0
        captured = capsys.readouterr()
        assert "telemetry serving on http://127.0.0.1:" in captured.err
        assert "Jaak Tempesti" in captured.out

    def test_serve_telemetry_endpoint_answers_during_linger(
            self, sample_file, capsys, monkeypatch):
        """While the CLI lingers, /debug/queries shows the batch it ran."""
        import re
        import time as time_module
        from repro.serving import fetch_json

        seen: dict[str, object] = {}

        def scrape_instead_of_sleeping(seconds: float) -> None:
            url = re.search(r"telemetry serving on (\S+)",
                            capsys.readouterr().err).group(1)
            seen.update(fetch_json(url + "/debug/queries?traces=false"))

        monkeypatch.setattr(time_module, "sleep",
                            scrape_instead_of_sleeping)
        code = main([QUERY, QUERY, "--doc", f"a.xml={sample_file}",
                     "--serve-telemetry", "0", "--serve-linger", "5"])
        assert code == 0
        assert seen["stats"]["recorded_total"] == 2

    def test_top_without_server_exits_1(self, capsys):
        code = main(["top", "127.0.0.1:9"])  # discard port: refused
        assert code == 1
        assert "cannot reach" in capsys.readouterr().err


class TestErrors:
    def test_missing_document(self, capsys):
        code = main([QUERY])
        assert code == 1
        assert "a.xml" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        code = main([QUERY, "--doc", "a.xml=/does/not/exist.xml"])
        assert code == 1

    def test_syntax_error(self, capsys):
        code = main(["for $x in"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_bad_doc_argument(self, capsys):
        with pytest.raises(SystemExit):
            main([QUERY, "--doc", "no-equals-sign"])

    def test_sql_requires_doc_binding(self, capsys):
        code = main([QUERY, "--sql"])
        assert code == 1
        assert "missing --doc binding" in capsys.readouterr().err
