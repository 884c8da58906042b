"""The live introspection endpoint: /metrics, /healthz, /debug/queries.

The session's own :class:`~repro.serving.QueryServer`, started on a
background thread by ``serve_telemetry`` on an ephemeral port and
exercised with stdlib urllib — exactly how a scraper or ``repro top``
reaches a production session.  ``/metrics`` must round-trip through the
strict Prometheus validator, concurrent scrapes during a ``run_many``
batch must never observe a torn record, and a scrape that is still
rendering must not hold up ``/healthz`` or ``/query``.
"""

import json
import os
import subprocess
import sys
import threading
import urllib.error
import urllib.request

import pytest

from repro.obs.export import parse_prometheus
from repro.obs.flight import query_fingerprint
from repro.serving import (
    ENDPOINTS,
    PROMETHEUS_CONTENT_TYPE,
    QueryServer,
    ServerThread,
    fetch_json,
    render_top,
    run_top,
)
from repro.session import XQuerySession
from repro.xmark.queries import FIGURE1_SAMPLE

NAMES = 'document("a.xml")/site/people/person/name/text()'


@pytest.fixture
def session():
    with XQuerySession(slow_seconds=0.0) as active:  # tail-sample all runs
        active.add_document("a.xml", FIGURE1_SAMPLE)
        yield active


@pytest.fixture
def server(session):
    yield session.serve_telemetry(port=0)


def get(url: str):
    with urllib.request.urlopen(url, timeout=5) as response:
        return response.status, dict(response.headers), response.read()


class TestServerLifecycle:
    def test_ephemeral_port_and_url(self, server):
        assert server.running
        assert server.port > 0
        assert server.url == f"http://127.0.0.1:{server.port}"

    def test_serve_telemetry_is_idempotent(self, session, server):
        assert session.serve_telemetry() is server

    def test_close_stops_the_server(self, session, server):
        url = server.url
        session.close()
        assert not server.running
        with pytest.raises(urllib.error.URLError):
            get(url + "/healthz")

    def test_stop_is_idempotent(self, server):
        server.stop()
        server.stop()
        assert not server.running

    def test_context_manager(self, session):
        with ServerThread(QueryServer(session, port=0)) as standalone:
            status, _headers, _body = get(standalone.url + "/healthz")
            assert status == 200
        assert not standalone.running

    def test_repr(self, session, server):
        assert server.url in repr(server)
        assert "stopped" in repr(ServerThread(QueryServer(session, port=0)))

    def test_serving_never_imports_http_server(self):
        """The one server is asyncio streams; the stdlib's threaded
        ``http.server`` (≈ 1.5 MB of RSS) stays out of a served process."""
        script = (
            "import sys, repro.serving\n"
            "from repro.session import XQuerySession\n"
            "with XQuerySession() as session:\n"
            "    url = session.serve_telemetry(port=0).url\n"
            "    health = repro.serving.fetch_json(url + '/healthz')\n"
            "assert health['status'] == 'ok', health\n"
            "assert 'http.server' not in sys.modules\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, ["src", env.get("PYTHONPATH")]))
        completed = subprocess.run(
            [sys.executable, "-c", script],
            cwd=os.path.dirname(os.path.dirname(__file__)),
            capture_output=True, text=True, env=env, timeout=120)
        assert completed.returncode == 0, completed.stderr


class TestEndpoints:
    def test_index_lists_endpoints(self, server):
        status, _headers, body = get(server.url + "/")
        assert status == 200
        assert json.loads(body)["endpoints"] == list(ENDPOINTS)

    def test_unknown_path_404s(self, server):
        with pytest.raises(urllib.error.HTTPError) as exc:
            get(server.url + "/nope")
        with exc.value as error:  # HTTPError is the (open) response body
            assert error.code == 404
            assert "endpoints" in json.loads(error.read())

    def test_healthz_200_while_healthy(self, session, server):
        session.run(NAMES)
        status, _headers, body = get(server.url + "/healthz")
        payload = json.loads(body)
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["backend"] == "engine"
        assert "flight" in payload and "slos" in payload
        assert "breakers" not in payload  # no circuit breaker to grade
        assert payload["admission"]["draining"] is False
        # The engine's memo numbers for each document it has bound.
        memo = payload["documents"]["a.xml"]
        assert memo["entries"] >= 1 and memo["carried"] == 0
        assert set(memo) == {"entries", "bytes", "bound", "refused",
                             "carried", "recomputed"}

    def test_healthz_503_while_shedding(self, session, server):
        # Draining is the simplest shedding state to enter on demand; a
        # load balancer polling /healthz must rotate the instance out.
        session.admission.begin_drain()
        try:
            with pytest.raises(urllib.error.HTTPError) as exc:
                get(server.url + "/healthz")
            with exc.value as error:
                assert error.code == 503
                # The admission controller's hint must reach the client
                # as an RFC 9110 Retry-After (whole seconds, rounded up).
                retry_after = error.headers.get("Retry-After")
                assert retry_after is not None
                assert int(retry_after) >= 1
                payload = json.loads(error.read())
                assert payload["status"] == "shedding"
                assert payload["admission"]["draining"] is True
                assert payload["admission"]["retry_after"] > 0
        finally:
            session.admission.end_drain()
        status, headers, body = get(server.url + "/healthz")
        assert status == 200
        assert "Retry-After" not in headers  # healthy replies carry none
        assert json.loads(body)["status"] == "ok"

    def test_metrics_round_trips_strict_validator(self, session, server):
        session.run(NAMES)
        status, headers, body = get(server.url + "/metrics")
        assert status == 200
        assert headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE
        samples = parse_prometheus(body.decode("utf-8"))
        assert any(key.startswith("repro_query_latency_seconds_bucket")
                   for key in samples)
        assert samples['repro_flight_records_total{outcome="ok"}'] == 1
        assert 'repro_slo_burn_rate{slo="default"}' in samples


class TestDebugQueries:
    def payload(self, server, suffix=""):
        _status, _headers, body = get(server.url + "/debug/queries" + suffix)
        return json.loads(body)

    def test_every_run_appears(self, session, server):
        session.run(NAMES)
        session.run(NAMES)
        payload = self.payload(server)
        assert payload["stats"]["recorded_total"] == 2
        assert [r["outcome"] for r in payload["records"]] == ["ok", "ok"]
        assert payload["percentiles"][0]["fingerprint"] == \
            query_fingerprint(NAMES)
        assert payload["slos"][0]["name"] == "default"

    def test_tail_sampled_record_serves_its_span_tree(self, session, server):
        session.run(NAMES)  # slow_seconds=0.0 samples everything
        (record,) = self.payload(server)["records"]
        assert record["sampled"] is True
        assert record["trace"]["name"] == "query"
        compile_span, attempt = record["trace"]["children"]
        assert (compile_span["name"], attempt["name"]) == ("compile", "attempt")
        assert [child["name"] for child in attempt["children"]] == \
            ["prepare", "execute"]

    def test_traces_false_drops_span_trees(self, session, server):
        session.run(NAMES)
        (record,) = self.payload(server, "?traces=false")["records"]
        assert "trace" not in record

    def test_outcome_filter(self, session, server):
        session.run(NAMES)
        with pytest.raises(Exception):
            session.run("let $x := ")
        records = self.payload(server, "?outcome=error")["records"]
        assert [r["outcome"] for r in records] == ["error"]
        assert self.payload(server, "?outcome=timeout")["records"] == []

    def test_sampled_and_limit_filters(self, session, server):
        for _ in range(3):
            session.run(NAMES)
        assert len(self.payload(server, "?sampled=true")["records"]) == 3
        assert len(self.payload(server, "?sampled=no")["records"]) == 0
        limited = self.payload(server, "?limit=2")["records"]
        assert [r["seq"] for r in limited] == [1, 2]  # newest two
        # A limit past what is buffered keeps everything (it used to
        # keep the newest ``limit - buffered``).
        assert len(self.payload(server, "?limit=4")["records"]) == 3

    def test_bad_limit_400s(self, server):
        with pytest.raises(urllib.error.HTTPError) as exc:
            get(server.url + "/debug/queries?limit=banana")
        with exc.value as error:
            assert error.code == 400

    def test_recorder_disabled_404s(self):
        with XQuerySession(record=False) as bare:
            server = bare.serve_telemetry(port=0)
            status, _headers, _body = get(server.url + "/healthz")
            assert status == 200  # health still serves without a recorder
            with pytest.raises(urllib.error.HTTPError) as exc:
                get(server.url + "/debug/queries")
            with exc.value as error:
                assert error.code == 404

    def test_concurrent_scrapes_during_a_batch(self, session, server):
        """HTTP readers hammer /debug/queries while run_many writes."""
        errors: list[BaseException] = []
        stop = threading.Event()

        def scrape_loop():
            try:
                while not stop.is_set():
                    payload = self.payload(server, "?traces=false")
                    for record in payload["records"]:
                        assert record["outcome"]
                        assert record["wall_ms"] >= 0
            except BaseException as error:
                errors.append(error)

        scrapers = [threading.Thread(target=scrape_loop) for _ in range(2)]
        for scraper in scrapers:
            scraper.start()
        try:
            session.run_many([NAMES] * 16, max_workers=4)
        finally:
            stop.set()
            for scraper in scrapers:
                scraper.join(timeout=10.0)
        assert not errors
        assert self.payload(server)["stats"]["recorded_total"] == 16

    def test_a_rendering_scrape_holds_up_nothing_else(self, session, server,
                                                      monkeypatch):
        """Scrapes render off the loop: with ``/debug/queries`` parked
        inside ``recorder.snapshot``, the same listener still answers
        ``/healthz`` and runs a query."""
        session.run(NAMES)
        entered, release = threading.Event(), threading.Event()
        snapshot = session.recorder.snapshot

        def parked_snapshot(**filters):
            entered.set()
            assert release.wait(timeout=30.0)
            return snapshot(**filters)

        monkeypatch.setattr(session.recorder, "snapshot", parked_snapshot)
        scraped: list[dict] = []
        scraper = threading.Thread(target=lambda: scraped.append(
            fetch_json(server.url + "/debug/queries", timeout=60.0)))
        scraper.start()
        try:
            assert entered.wait(timeout=30.0)
            status, _headers, _body = get(server.url + "/healthz")
            assert status == 200
            request = urllib.request.Request(
                server.url + "/query", data=NAMES.encode(), method="POST")
            with urllib.request.urlopen(request, timeout=30) as response:
                assert response.status == 200
                assert b"Jaak" in response.read()
            assert not scraped  # still parked: nothing above waited for it
        finally:
            release.set()
            scraper.join(timeout=30.0)
        assert not scraper.is_alive()
        (payload,) = scraped
        assert [r["outcome"] for r in payload["records"]] == ["ok", "ok"]


class TestTop:
    def test_fetch_json(self, server):
        assert "endpoints" in fetch_json(server.url + "/")

    def test_render_top_summarizes(self, session, server):
        session.run(NAMES)
        payload = fetch_json(server.url + "/debug/queries")
        text = render_top(payload)
        assert "flight recorder: 1 recorded" in text
        assert "slo default" in text
        assert query_fingerprint(NAMES) in text
        assert "last tail-sampled queries" in text  # slow_seconds=0.0

    def test_run_top_completes_bare_host_port(self, session, server):
        session.run(NAMES)
        text = run_top(f"127.0.0.1:{server.port}")
        assert "flight recorder: 1 recorded" in text

    def test_cli_top_command(self, session, server, capsys):
        from repro.__main__ import main

        session.run(NAMES)
        assert main(["top", server.url]) == 0
        assert "flight recorder: 1 recorded" in capsys.readouterr().out

    def test_cli_top_unreachable_exits_1(self, capsys):
        from repro.__main__ import main

        assert main(["top", "127.0.0.1:9"]) == 1  # discard port: refused
        assert "cannot reach" in capsys.readouterr().err


class TestRetryAfterHeader:
    """The 503 Retry-After plumbing from the admission snapshot."""

    def _header(self, health):
        from repro.obs.export import health_reply

        status, headers = health_reply({"status": "shedding", **health})
        assert status == 503
        return headers.get("Retry-After")

    def test_healthy_statuses_reply_200_without_the_header(self):
        from repro.obs.export import health_reply

        for status in ("ok",):
            assert health_reply({"status": status, "admission": {
                "retry_after": 2.0}}) == (200, {})

    def test_rounds_sub_second_hints_up(self):
        assert self._header({"admission": {"retry_after": 0.05}}) == "1"
        assert self._header({"admission": {"retry_after": 2.3}}) == "3"
        assert self._header({"admission": {"retry_after": 4}}) == "4"

    def test_absent_without_a_positive_hint(self):
        assert self._header({}) is None
        assert self._header({"admission": "disabled"}) is None
        assert self._header({"admission": {}}) is None
        assert self._header({"admission": {"retry_after": 0}}) is None
        assert self._header({"admission": {"retry_after": -1.0}}) is None
        assert self._header({"admission": {"retry_after": "soon"}}) is None

    def test_snapshot_exposes_the_hint(self):
        from repro.resilience.admission import (
            AdmissionConfig, AdmissionController)

        controller = AdmissionController(AdmissionConfig(max_concurrency=1))
        snapshot = controller.snapshot()
        assert isinstance(snapshot["retry_after"], float)
        assert snapshot["retry_after"] > 0
