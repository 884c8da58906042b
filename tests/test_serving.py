"""The asyncio HTTP query front-end (:mod:`repro.serving`).

A real ``asyncio.start_server`` on an ephemeral port, driven with raw
HTTP/1.1 over ``asyncio.open_connection`` — stdlib only, no test-client
shims, exactly the bytes a load balancer would send.
"""

from __future__ import annotations

import asyncio
import json
import logging

import pytest

from repro.obs.export import parse_prometheus
from repro.serving import (
    ENDPOINTS,
    MAX_BODY_BYTES,
    QueryServer,
    run_top,
    serve_until_stopped,
)
from repro.session import XQuerySession
from repro.xmark.queries import FIGURE1_SAMPLE

NAMES = 'document("a.xml")/site/people/person/name/text()'


async def raw(server: QueryServer, request: bytes,
              hang_up: bool = False) -> bytes:
    """Send ``request`` verbatim (then, with ``hang_up``, close the
    sending side); everything the server says back."""
    reader, writer = await asyncio.open_connection(server.host, server.port)
    writer.write(request)
    await writer.drain()
    if hang_up:
        writer.write_eof()
    reply = await reader.read()
    writer.close()
    await writer.wait_closed()
    return reply


def http(server: QueryServer, method: str, path: str,
         body: bytes = b"") -> tuple[int, dict[str, str], bytes]:
    """One well-formed HTTP exchange against a running server."""

    async def exchange():
        request = (f"{method} {path} HTTP/1.1\r\n"
                   f"Host: {server.host}\r\n"
                   f"Content-Length: {len(body)}\r\n"
                   f"\r\n").encode("ascii") + body
        reply = await raw(server, request)
        head, _, payload = reply.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split()[1])
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        return status, headers, payload

    return exchange()


def run(server: QueryServer, *exchanges):
    """Start the server, run the exchanges, stop it — one event loop."""

    async def session():
        await server.start()
        try:
            return [await exchange for exchange in exchanges]
        finally:
            await server.stop()

    return asyncio.run(session())


@pytest.fixture
def session():
    with XQuerySession() as active:
        active.add_document("a.xml", FIGURE1_SAMPLE)
        yield active


@pytest.fixture
def server(session):
    return QueryServer(session, port=0)


class TestQueryEndpoint:
    def test_plain_text_query_returns_xml(self, session, server):
        ((status, headers, body),) = run(
            server, http(server, "POST", "/query", NAMES.encode()))
        assert status == 200
        assert headers["content-type"].startswith("application/xml")
        assert headers["x-backend"] == "engine"
        assert body == session.run(NAMES).to_xml().encode()

    def test_json_body_selects_knobs(self, server):
        payload = json.dumps({"query": NAMES, "strategy": "nlj",
                              "deadline": 30.0}).encode()
        ((status, _headers, body),) = run(
            server, http(server, "POST", "/query", payload))
        assert status == 200
        assert b"Jaak" in body

    @pytest.mark.parametrize("deadline", ["soon", None, 10 ** 400],
                             ids=["text", "null", "huge-int"])
    def test_non_numeric_deadline_maps_to_400(self, server, deadline):
        payload = json.dumps({"query": NAMES, "deadline": deadline}).encode()
        ((status, _headers, body),) = run(
            server, http(server, "POST", "/query", payload))
        assert status == 400
        reply = json.loads(body)
        assert reply["error"] == "ExecutionError"
        assert "deadline" in reply["detail"]

    def test_bad_query_maps_to_400(self, server):
        ((status, _headers, body),) = run(
            server, http(server, "POST", "/query", b"let $x := "))
        assert status == 400
        assert json.loads(body)["error"]

    def test_empty_body_maps_to_400(self, server):
        ((status, _headers, body),) = run(
            server, http(server, "POST", "/query"))
        assert status == 400
        assert json.loads(body)["error"] == "empty query"

    def test_get_query_maps_to_405(self, server):
        ((status, _headers, _body),) = run(
            server, http(server, "GET", "/query"))
        assert status == 405

    def test_overload_maps_to_503_with_retry_after(self, session, server):
        session.admission.begin_drain()
        try:
            ((status, headers, body),) = run(
                server, http(server, "POST", "/query", NAMES.encode()))
        finally:
            session.admission.end_drain()
        assert status == 503
        assert int(headers["retry-after"]) >= 1
        assert json.loads(body)["error"] == "overloaded"

    @pytest.mark.parametrize("hint, advertised", [
        (0.05, "1"), (1.0, "1"), (2.3, "3"), (3.0, "3")])
    def test_both_routes_advertise_the_same_retry_after(
            self, session, server, monkeypatch, hint, advertised):
        """One delta-seconds rule: a shed ``/query`` and a shedding
        ``/healthz`` round the same hint the same way (integer-valued
        hints used to come out one second apart)."""
        monkeypatch.setattr(session.admission, "_retry_after_hint",
                            lambda: hint)
        session.admission.begin_drain()
        try:
            (_, query_headers, _), (_, health_headers, _) = run(
                server,
                http(server, "POST", "/query", NAMES.encode()),
                http(server, "GET", "/healthz"))
        finally:
            session.admission.end_drain()
        assert query_headers["retry-after"] == advertised
        assert health_headers["retry-after"] == advertised

    def test_requests_interleave_on_one_loop(self, server):
        results = run(server, *[
            http(server, "POST", "/query", NAMES.encode())
            for _ in range(8)
        ])
        assert [status for status, _h, _b in results] == [200] * 8


class TestOtherEndpoints:
    def test_index_lists_endpoints(self, server):
        ((status, _headers, body),) = run(server, http(server, "GET", "/"))
        assert status == 200
        assert json.loads(body)["endpoints"] == list(ENDPOINTS)

    def test_unknown_path_404s(self, server):
        ((status, _headers, body),) = run(
            server, http(server, "GET", "/nope"))
        assert status == 404
        assert "unknown path" in json.loads(body)["error"]

    def test_healthz_healthy(self, server):
        ((status, headers, body),) = run(
            server, http(server, "GET", "/healthz"))
        assert status == 200
        assert "retry-after" not in headers
        assert json.loads(body)["status"] == "ok"

    def test_healthz_shedding_carries_retry_after(self, session, server):
        session.admission.begin_drain()
        try:
            ((status, headers, body),) = run(
                server, http(server, "GET", "/healthz"))
        finally:
            session.admission.end_drain()
        assert status == 503
        assert int(headers["retry-after"]) >= 1
        assert json.loads(body)["status"] == "shedding"

    def test_malformed_request_line_400s(self, server):
        (reply,) = run(server, raw(server, b"NONSENSE\r\n\r\n"))
        assert b"400" in reply.split(b"\r\n", 1)[0]

    @pytest.mark.parametrize("length, status", [
        (-5, b"400 Bad Request"),
        (MAX_BODY_BYTES + 1, b"413 Payload Too Large"),
    ], ids=["negative", "over-the-cap"])
    def test_unacceptable_content_length_is_answered(self, server, length,
                                                     status):
        (reply,) = run(server, raw(
            server, (f"POST /query HTTP/1.1\r\nContent-Length: {length}"
                     f"\r\n\r\n").encode("ascii")))
        assert reply.split(b"\r\n", 1)[0] == b"HTTP/1.1 " + status

    @pytest.mark.parametrize("request_bytes", [
        b"POST /query HTTP/1.1\r\nX-Big: " + b"a" * 70_000 + b"\r\n\r\n",
        b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n",
    ], ids=["header-line", "request-line"])
    def test_line_over_the_reader_limit_400s(self, server, caplog,
                                             request_bytes):
        """``StreamReader.readline`` raises past 64 KiB; that is the
        client's malformed request, not a handler failure."""
        (reply,) = run(server, raw(server, request_bytes))
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.split(b"\r\n", 1)[0] == b"HTTP/1.1 400 Bad Request"
        assert body == b"malformed request"
        assert not [r for r in caplog.records if r.levelno >= logging.WARNING]

    def test_client_hanging_up_mid_body_is_not_a_server_failure(
            self, server, caplog):
        (reply,) = run(server, raw(
            server, b"POST /query HTTP/1.1\r\nContent-Length: 100\r\n\r\nabc",
            hang_up=True))
        assert reply == b""
        assert not [r for r in caplog.records if r.levelno >= logging.WARNING]

    def test_metrics_and_top_read_the_query_port(self, server):
        """One listener: the record a ``POST /query`` leaves is on the
        same port's ``/metrics`` and in ``repro top`` pointed at it."""

        async def top():
            return await asyncio.to_thread(
                run_top, f"127.0.0.1:{server.port}")

        (status, _h, _b), (_s, headers, scrape), console = run(
            server, http(server, "POST", "/query", NAMES.encode()),
            http(server, "GET", "/metrics"), top())
        assert status == 200
        assert headers["content-type"].startswith("text/plain; version=0.0.4")
        samples = parse_prometheus(scrape.decode("utf-8"))
        assert samples['repro_flight_records_total{outcome="ok"}'] == 1
        assert "flight recorder: 1 recorded" in console

    def test_metrics_read_the_label_dictionary_at_scrape_time(self, server):
        """The dictionary only grows: the gauge is its size *now* — a
        document with new values shows on the next scrape, nothing has
        to run in between."""
        from repro.engine.columns import label_dictionary_entries

        def entries():
            _s, _h, scrape = run(server, http(server, "GET", "/metrics"))[0]
            return parse_prometheus(
                scrape.decode("utf-8"))["repro_label_dictionary_entries"]

        before = entries()
        assert before == label_dictionary_entries()
        server.session.add_document(
            "fresh.xml", "".join(f"<v>gauge-{before}-{i}</v>"
                                 for i in range(7)))
        server.session.run('document("fresh.xml")/v')  # encodes it
        assert entries() == label_dictionary_entries() >= before + 7


class TestLifecycle:
    def test_ephemeral_port_and_url(self, server):
        async def check():
            await server.start()
            try:
                assert server.port > 0
                assert server.url == f"http://127.0.0.1:{server.port}"
            finally:
                await server.stop()

        asyncio.run(check())

    def test_stop_is_idempotent(self, server):
        async def check():
            await server.start()
            await server.stop()
            await server.stop()

        asyncio.run(check())

    def test_serve_until_stopped(self, server):
        async def check():
            stop = asyncio.Event()
            task = asyncio.create_task(serve_until_stopped(server, stop))
            await asyncio.sleep(0.05)
            status, _headers, _body = await http(server, "GET", "/healthz")
            assert status == 200
            stop.set()
            await asyncio.wait_for(task, timeout=5)

        asyncio.run(check())

    def test_server_backend_default_applies(self, session, server):
        server.backend = "naive"
        ((_status, headers, _body),) = run(
            server, http(server, "POST", "/query", NAMES.encode()))
        assert headers["x-backend"] == "naive"
