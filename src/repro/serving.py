"""An asyncio HTTP front-end for serving queries at high concurrency.

:class:`QueryServer` binds one :class:`~repro.session.XQuerySession` to a
minimal stdlib-only HTTP/1.1 endpoint.  Every request is dispatched with
:meth:`~repro.session.XQuerySession.run_async`, so the event loop holds
thousands of in-flight requests while the actual evaluation happens on
the session's worker pool — and, with ``backend="procpool"``, in worker
*processes* attached zero-copy to the shared-memory document encodings
(see docs/CONCURRENCY.md "Process-parallel serving").

Endpoints:

* ``POST /query`` — body is the XQuery text (or JSON
  ``{"query": "...", "backend": "...", "deadline": 1.5}``); the reply is
  the serialized XML result.  Overload sheds map to HTTP 503 with a
  ``Retry-After`` header from the admission controller's hint, timeouts
  to 504, cancellations to 499, other query errors — a malformed option
  included — to 400, a body over ``MAX_BODY_BYTES`` to 413.
* ``GET /healthz`` — the session's health snapshot (same grading as the
  telemetry server: 503 + ``Retry-After`` while shedding/unavailable).

Run it from the CLI::

    python -m repro serve --doc auction.xml=./auction.xml --port 8080

SIGTERM triggers a graceful drain: admission stops accepting, in-flight
requests finish (bounded by ``--drain-timeout``), then the listener
closes.
"""

from __future__ import annotations

import asyncio
import json
import logging
from typing import TYPE_CHECKING

from repro.errors import (
    ExecutionError,
    OverloadError,
    QueryCancelledError,
    QueryTimeoutError,
    ReproError,
)
from repro.obs.export import health_reply, retry_after_seconds

if TYPE_CHECKING:  # pragma: no cover
    from repro.session import XQuerySession

logger = logging.getLogger("repro.serving")

#: Largest request body accepted (a query text, not a document upload).
MAX_BODY_BYTES = 1 << 20

#: nginx's "client closed request" status, the de-facto cancellation code.
CLIENT_CLOSED_REQUEST = 499

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 413: "Payload Too Large",
            499: "Client Closed Request", 500: "Internal Server Error",
            503: "Service Unavailable", 504: "Gateway Timeout"}


class QueryServer:
    """Serve one session's queries over asyncio HTTP.

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
                method, path, payload = request
                status, body, headers, content_type = \
                    await self._route(method, path, payload)
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
        except (ConnectionResetError, BrokenPipeError, asyncio.TimeoutError):
            pass
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
        request_line = await reader.readline()
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            return 400
        method, path = parts[0].upper(), parts[1]
        length = 0
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    length = int(value.strip())
                except ValueError:
                    return 400
        if length < 0:
            return 400
        if length > MAX_BODY_BYTES:
            return 413
        body = await reader.readexactly(length) if length else b""
        return method, path, body

    async def _route(self, method: str, path: str, payload: bytes):
        json_type = "application/json; charset=utf-8"
        route = path.split("?", 1)[0].rstrip("/") or "/"
        if route == "/query":
            if method != "POST":
                return (405, b'{"error": "POST a query"}', {}, json_type)
            return await self._query(payload)
        if route == "/healthz":
            health = self.session.health()
            status, headers = health_reply(health)
            body = json.dumps(health, sort_keys=True,
                              default=str).encode("utf-8")
            return (status, body, headers, json_type)
        if route == "/":
            return (200, b'{"endpoints": ["/query", "/healthz"]}', {},
                    json_type)
        return (404, json.dumps({"error": f"unknown path {path!r}"})
                .encode("utf-8"), {}, json_type)

    async def _query(self, payload: bytes):
        json_type = "application/json; charset=utf-8"
        try:
            query, options = self._parse_query(payload)
            if query is None:
                return (400, b'{"error": "empty query"}', {}, json_type)
            result = await self.session.run_async(query, **options)
        except OverloadError as error:
            hint = retry_after_seconds(error.retry_after)
            headers = {} if hint is None else {"Retry-After": hint}
            return (503, json.dumps({"error": "overloaded",
                                     "detail": str(error)}).encode("utf-8"),
                    headers, json_type)
        except QueryTimeoutError as error:
            return (504, json.dumps({"error": "timeout",
                                     "detail": str(error)}).encode("utf-8"),
                    {}, json_type)
        except QueryCancelledError as error:
            return (CLIENT_CLOSED_REQUEST,
                    json.dumps({"error": "cancelled",
                                "detail": str(error)}).encode("utf-8"),
                    {}, json_type)
        except ReproError as error:
            return (400, json.dumps({"error": type(error).__name__,
                                     "detail": str(error)}).encode("utf-8"),
                    {}, json_type)
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


async def serve_until_stopped(server: QueryServer,
                              stop: "asyncio.Event") -> None:
    """Run ``server`` until ``stop`` is set (the SIGTERM/SIGINT path)."""
    await server.start()
    try:
        await stop.wait()
    finally:
        await server.stop()
