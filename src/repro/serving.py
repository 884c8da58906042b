"""The HTTP server: queries, health and live introspection on one listener.

:class:`QueryServer` binds one :class:`~repro.session.XQuerySession` to a
minimal stdlib-only asyncio HTTP/1.1 endpoint.  Every query is dispatched
with :meth:`~repro.session.XQuerySession.run_async`, so the event loop
holds thousands of in-flight requests while the actual evaluation happens
on the session's worker pool — and, with ``backend="procpool"``, in worker
*processes* attached zero-copy to the shared-memory document encodings
(see docs/CONCURRENCY.md "Process-parallel serving").

Every listener answers the same routes (:data:`ENDPOINTS`):

* ``POST /query`` — body is the XQuery text (or JSON
  ``{"query": "...", "backend": "...", "deadline": 1.5}``); the reply is
  the serialized XML result.  Overload sheds map to HTTP 503 with a
  ``Retry-After`` header from the admission controller's hint, timeouts
  to 504, cancellations to 499, other query errors — a malformed option
  included — to 400, a body over ``MAX_BODY_BYTES`` to 413.
* ``GET /healthz`` — :meth:`XQuerySession.health` as JSON (breaker
  states, pool gauges, admission snapshot, documents, recorder counters),
  graded for load balancers by :func:`repro.obs.export.health_reply`:
  200 for ``ok`` / ``degraded``, 503 + ``Retry-After`` for ``shedding``
  / ``unavailable``.
* ``GET /metrics`` — the session registry in Prometheus text format
  (:func:`repro.obs.export.render_prometheus`), flight-recorder latency
  histograms and SLO burn gauges included.
* ``GET /debug/queries`` — the flight recorder's ring buffer as JSON,
  plus the percentile table and SLO status.  Filters:
  ``?outcome=error``, ``?sampled=true``, ``?limit=50``,
  ``?traces=false`` (drop span trees from the payload).
* ``GET /`` — the route list.

``/metrics`` and ``/debug/queries`` render on the loop's default thread
executor (``asyncio.to_thread``), never on the loop itself and never on
the session's worker pool (whose gauges and queue belong to queries): a
scrape can take tens of milliseconds and must not stall query traffic.
The renderers go through the recorder's lock-protected snapshot methods,
so a concurrent reader never observes a torn record.

Run it from the CLI::

    python -m repro serve --doc auction.xml=./auction.xml --port 8080

SIGTERM triggers a graceful drain: admission stops accepting, in-flight
requests finish (bounded by ``--drain-timeout``), then the listener
closes.  A process with no event loop of its own gets the same server on
a background thread (:class:`ServerThread`) from
``session.serve_telemetry(port=…)`` or the one-shot CLI's
``--serve-telemetry PORT``; ``python -m repro top HOST:PORT`` renders
either one's percentile table (:func:`render_top`).
"""

from __future__ import annotations

import asyncio
import json
import logging
import threading
from concurrent.futures import Future
from typing import TYPE_CHECKING
from urllib.parse import parse_qsl

from repro.errors import (
    ExecutionError,
    OverloadError,
    QueryCancelledError,
    QueryTimeoutError,
    ReproError,
)
from repro.obs.export import (
    health_reply,
    render_prometheus,
    retry_after_seconds,
)
from repro.obs.flight import render_percentile_table

if TYPE_CHECKING:  # pragma: no cover
    from repro.session import XQuerySession

logger = logging.getLogger("repro.serving")

#: Largest request body accepted (a query text, not a document upload).
MAX_BODY_BYTES = 1 << 20

#: nginx's "client closed request" status, the de-facto cancellation code.
CLIENT_CLOSED_REQUEST = 499

#: Content type Prometheus scrapers expect from a text-format endpoint.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 413: "Payload Too Large",
            499: "Client Closed Request", 500: "Internal Server Error",
            503: "Service Unavailable", 504: "Gateway Timeout"}


def _json(status: int, payload: object,
          headers: "dict[str, str] | None" = None):
    """One route's reply ``(status, body, headers, content type)`` as JSON."""
    body = json.dumps(payload, sort_keys=True, default=str).encode("utf-8")
    return (status, body, headers or {}, "application/json; charset=utf-8")


class QueryServer:
    """Serve one session over asyncio HTTP.

    The server owns no session state: construct the session (documents,
    backend, admission config) first, then hand it over.  ``port=0``
    binds an ephemeral port, readable from :attr:`port` after
    :meth:`start`.
    """

    def __init__(self, session: "XQuerySession",
                 host: str = "127.0.0.1", port: int = 8080,
                 backend: str | None = None,
                 default_deadline: float | None = None):
        self.session = session
        self.host = host
        self._requested_port = port
        #: Backend queries run on unless the request names one.
        self.backend = backend
        #: Deadline applied to requests that do not carry their own.
        self.default_deadline = default_deadline
        self._server: asyncio.AbstractServer | None = None

    @property
    def port(self) -> int:
        if self._server is not None and self._server.sockets:
            return self._server.sockets[0].getsockname()[1]
        return self._requested_port

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    async def start(self) -> "QueryServer":
        if self._server is None:
            self._server = await asyncio.start_server(
                self._handle, self.host, self._requested_port)
            logger.info("query server listening on %s", self.url)
        return self

    async def stop(self) -> None:
        server, self._server = self._server, None
        if server is not None:
            server.close()
            await server.wait_closed()
            logger.info("query server stopped")

    async def serve_forever(self) -> None:
        await self.start()
        assert self._server is not None
        await self._server.serve_forever()

    # -- request handling -----------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            request = await self._read_request(reader)
            if isinstance(request, int):  # refused before reading a body
                status, headers = request, {}
                body = (b"malformed request" if status == 400
                        else b"request body too large")
                content_type = "text/plain; charset=utf-8"
            else:
                status, body, headers, content_type = \
                    await self._route(*request)
            reason = _REASONS.get(status, "")
            head = [f"HTTP/1.1 {status} {reason}",
                    f"Content-Type: {content_type}",
                    f"Content-Length: {len(body)}",
                    "Connection: close"]
            head.extend(f"{name}: {value}"
                        for name, value in headers.items())
            writer.write(("\r\n".join(head) + "\r\n\r\n").encode("ascii"))
            writer.write(body)
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError, asyncio.TimeoutError,
                asyncio.IncompleteReadError):
            pass  # the client went away; mid-body included
        except Exception:  # one bad request must not kill serving
            logger.exception("query server handler failed")
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        """``(method, path, body)``, or the status that refuses the request."""
        length = 0
        try:
            request_line = await reader.readline()
            parts = request_line.decode("latin-1").split()
            if len(parts) < 2:
                return 400
            method, path = parts[0].upper(), parts[1]
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                if name.strip().lower() == "content-length":
                    length = int(value.strip())
        except ValueError:  # a line over readline's limit, or a bad length
            return 400
        if length < 0:
            return 400
        if length > MAX_BODY_BYTES:
            return 413
        body = await reader.readexactly(length) if length else b""
        return method, path, body

    async def _route(self, method: str, path: str, payload: bytes):
        route, _, params = path.partition("?")
        handler = self._ROUTES.get(route.rstrip("/") or "/")
        if handler is None:
            return _json(404, {"error": f"unknown path {route!r}",
                               "endpoints": list(ENDPOINTS)})
        try:
            return await handler(self, method, params, payload)
        except Exception as error:  # a failed route still owes a reply
            logger.exception("query server handler failed for %s", path)
            return _json(500, {"error": type(error).__name__,
                               "detail": str(error)})

    async def _index(self, method: str, params: str, payload: bytes):
        return _json(200, {"endpoints": list(ENDPOINTS)})

    async def _healthz(self, method: str, params: str, payload: bytes):
        health = self.session.health()
        status, headers = health_reply(health)
        return _json(status, health, headers)

    async def _metrics(self, method: str, params: str, payload: bytes):
        text = await asyncio.to_thread(render_prometheus, self.session.metrics)
        return (200, text.encode("utf-8"), {}, PROMETHEUS_CONTENT_TYPE)

    async def _debug_queries(self, method: str, params: str, payload: bytes):
        recorder = self.session.recorder
        if recorder is None:
            return _json(404, {"error": "flight recorder disabled "
                                        "(session built with record=False)"})
        filters = dict(parse_qsl(params))
        sampled = _parse_bool(filters.get("sampled"))
        traces = _parse_bool(filters.get("traces", "true"))
        try:
            limit = int(filters["limit"]) if "limit" in filters else None
        except ValueError:
            return _json(400, {"error": f"bad limit {filters['limit']!r}"})
        return await asyncio.to_thread(lambda: _json(200, {
            "stats": recorder.stats(),
            "slos": recorder.slo_status(),
            "percentiles": recorder.percentiles(),
            "records": recorder.snapshot(
                outcome=filters.get("outcome"), sampled=sampled,
                limit=limit, include_traces=traces),
        }))

    async def _query(self, method: str, params: str, payload: bytes):
        if method != "POST":
            return _json(405, {"error": "POST a query"})
        try:
            text, options = self._parse_query(payload)
            if text is None:
                return _json(400, {"error": "empty query"})
            result = await self.session.run_async(text, **options)
        except OverloadError as error:
            hint = retry_after_seconds(error.retry_after)
            return _json(503, {"error": "overloaded", "detail": str(error)},
                         None if hint is None else {"Retry-After": hint})
        except QueryTimeoutError as error:
            return _json(504, {"error": "timeout", "detail": str(error)})
        except QueryCancelledError as error:
            return _json(CLIENT_CLOSED_REQUEST,
                         {"error": "cancelled", "detail": str(error)})
        except ReproError as error:
            return _json(400, {"error": type(error).__name__,
                               "detail": str(error)})
        body = result.to_xml().encode("utf-8")
        return (200, body, {"X-Backend": result.backend or ""},
                "application/xml; charset=utf-8")

    def _parse_query(self, payload: bytes):
        """The query text + run_async kwargs from a request body.

        A JSON object selects per-request knobs; any other body is the
        query text verbatim.
        """
        text = payload.decode("utf-8", errors="replace").strip()
        options: dict[str, object] = {}
        if self.backend is not None:
            options["backend"] = self.backend
        if self.default_deadline is not None:
            options["deadline"] = self.default_deadline
        if text.startswith("{"):
            try:
                data = json.loads(text)
            except ValueError:
                data = None
            if isinstance(data, dict) and "query" in data:
                text = str(data["query"])
                for knob in ("backend", "strategy", "priority"):
                    if knob in data:
                        options[knob] = str(data[knob])
                if "deadline" in data:
                    try:
                        options["deadline"] = float(data["deadline"])
                    except (TypeError, ValueError, OverflowError):
                        raise ExecutionError(
                            f"deadline must be a number of seconds, got "
                            f"{data['deadline']!r}") from None
        return (text or None), options

    _ROUTES = {"/": _index, "/query": _query, "/healthz": _healthz,
               "/metrics": _metrics, "/debug/queries": _debug_queries}


#: Every listener answers exactly these; the index and the 404 list them.
ENDPOINTS = tuple(QueryServer._ROUTES)


def _parse_bool(text: str | None) -> bool | None:
    if text is None:
        return None
    return text.strip().lower() in ("1", "true", "yes", "on")


async def serve_until_stopped(server: QueryServer,
                              stop: "asyncio.Event") -> None:
    """Run ``server`` until ``stop`` is set (the SIGTERM/SIGINT path)."""
    await server.start()
    try:
        await stop.wait()
    finally:
        await server.stop()


class ServerThread:
    """A :class:`QueryServer` on one daemon thread that owns one event loop
    (what ``session.serve_telemetry`` returns).

    :meth:`start` returns once the port is bound, or raises the bind's
    ``OSError``; :meth:`stop` is synchronous and idempotent.
    """

    def __init__(self, server: QueryServer):
        self.server = server
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def url(self) -> str:
        return self.server.url

    @property
    def running(self) -> bool:
        return self._thread is not None

    def start(self) -> "ServerThread":
        if self._thread is None:
            bound: Future = Future()
            thread = threading.Thread(
                target=lambda: asyncio.run(self._serve(bound)),
                name="repro-serving", daemon=True)
            thread.start()
            self._loop, self._stop = bound.result()
            self._thread = thread
        return self

    async def _serve(self, bound: Future) -> None:
        stop = asyncio.Event()
        try:
            await self.server.start()
        except Exception as error:  # start() re-raises it to the caller
            bound.set_exception(error)
        else:
            bound.set_result((asyncio.get_running_loop(), stop))
            await serve_until_stopped(self.server, stop)

    def stop(self) -> None:
        thread, self._thread = self._thread, None
        if thread is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
            thread.join(timeout=5.0)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def __repr__(self) -> str:
        state = self.url if self.running else "stopped"
        return f"<ServerThread {state}>"


# -- the `repro top` console view ---------------------------------------------

def fetch_json(url: str, timeout: float = 5.0) -> dict:
    """GET ``url`` and decode the JSON body (stdlib urllib)."""
    from urllib.request import urlopen

    with urlopen(url, timeout=timeout) as response:
        return json.loads(response.read().decode("utf-8"))


def render_top(payload: dict) -> str:
    """The ``/debug/queries`` payload as a one-shot console summary."""
    lines: list[str] = []
    stats = payload.get("stats", {})
    lines.append(
        f"flight recorder: {stats.get('recorded_total', 0)} recorded, "
        f"{stats.get('tail_sampled_total', 0)} tail-sampled, "
        f"{stats.get('buffered', 0)}/{stats.get('capacity', 0)} buffered "
        f"(slow ≥ {stats.get('slow_seconds', '?')}s)")
    outcomes = stats.get("outcomes") or {}
    if outcomes:
        rendered = ", ".join(f"{name}={count}" for name, count
                             in sorted(outcomes.items()))
        lines.append(f"outcomes: {rendered}")
    for slo in payload.get("slos", ()):
        lines.append(
            f"slo {slo.get('name')}: target {slo.get('target_seconds')}s "
            f"@ {slo.get('objective')}, {slo.get('violations', 0)}/"
            f"{slo.get('queries', 0)} violations, "
            f"burn rate {slo.get('burn_rate', 0.0)}")
    lines.append("")
    lines.append(render_percentile_table(payload.get("percentiles", [])))
    sampled = [record for record in payload.get("records", ())
               if record.get("sampled")]
    if sampled:
        lines.append("")
        lines.append(f"last tail-sampled queries ({len(sampled)}):")
        for record in sampled[-5:]:
            lines.append(
                f"  #{record.get('seq')} {record.get('outcome'):<9}"
                f"{record.get('wall_ms', 0.0):>10.2f} ms  "
                f"{','.join(record.get('sample_reasons', ()))}  "
                f"{str(record.get('query', ''))[:60]}")
    return "\n".join(lines)


def run_top(url: str) -> str:
    """Fetch a live server's recorder state and render it (CLI ``top``).

    ``url`` may be a full endpoint, a server base URL, or ``HOST:PORT``
    — anything short of the full ``/debug/queries`` path is completed.
    """
    target = url
    if "://" not in target:
        target = f"http://{target}"
    if "/debug/queries" not in target:
        target = target.rstrip("/") + "/debug/queries?traces=false"
    return render_top(fetch_json(target))
