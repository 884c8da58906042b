"""The live introspection endpoint: ``/metrics``, ``/healthz``,
``/debug/queries`` on a stdlib :class:`ThreadingHTTPServer`.

A :class:`TelemetryServer` wraps one session (anything exposing
``metrics``, ``recorder``, and ``health()`` — duck-typed so this module
never imports :mod:`repro.session`) and serves:

* ``/metrics`` — the session registry in Prometheus text format
  (:func:`repro.obs.export.render_prometheus`), flight-recorder latency
  histograms and SLO burn gauges included;
* ``/healthz`` — :meth:`XQuerySession.health`: circuit-breaker states,
  worker-pool gauges, admission-control snapshot, documents, recorder
  counters.  HTTP 200 while the instance should keep taking traffic
  (``status`` ``ok`` or ``degraded``), HTTP 503 when a load balancer
  should rotate it out (``shedding`` — admission control refusing work —
  or ``unavailable`` — every backend's breaker open).  503 responses
  carry a ``Retry-After`` header derived from the admission
  controller's ``retry_after`` hint (rounded up to whole seconds);
* ``/debug/queries`` — the flight recorder's ring buffer as JSON, plus
  the percentile table and SLO status.  Filters: ``?outcome=error``,
  ``?sampled=true``, ``?limit=50``, ``?traces=false`` (drop span trees
  from the payload).

Start it with ``session.serve_telemetry(port=…)`` or the CLI's
``--serve-telemetry PORT``; ``python -m repro top URL`` renders a
running server's percentile table in the terminal
(:func:`render_top`).  Requests are handled on daemon threads, so a
scrape can never block query traffic; handler access goes through the
recorder's lock-protected snapshot methods, so a concurrent reader
never observes a torn record.
"""

from __future__ import annotations

import json
import logging
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Protocol, runtime_checkable
from urllib.parse import parse_qs, urlparse

from repro.obs.export import health_reply, render_prometheus
from repro.obs.flight import FlightRecorder, render_percentile_table
from repro.obs.metrics import MetricsRegistry

logger = logging.getLogger("repro.serve")

#: Content type Prometheus scrapers expect from a text-format endpoint.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

ENDPOINTS = ("/metrics", "/healthz", "/debug/queries")


@runtime_checkable
class TelemetrySource(Protocol):
    """What a served session must provide (duck-typed, no import cycle)."""

    metrics: MetricsRegistry
    recorder: FlightRecorder | None

    def health(self) -> dict[str, object]: ...


class TelemetryServer:
    """One session's introspection HTTP server (daemon-threaded).

    ``port=0`` binds an ephemeral port; read the real one from
    :attr:`port` after :meth:`start`.  The server is a context manager
    and :meth:`stop` is idempotent.
    """

    def __init__(self, session: TelemetrySource,
                 host: str = "127.0.0.1", port: int = 0):
        self.session = session
        self.host = host
        self._requested_port = port
        self._httpd: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    @property
    def port(self) -> int:
        if self._httpd is not None:
            return self._httpd.server_address[1]
        return self._requested_port

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def running(self) -> bool:
        return self._httpd is not None

    def start(self) -> "TelemetryServer":
        if self._httpd is not None:
            return self
        handler = _make_handler(self.session)
        self._httpd = ThreadingHTTPServer(
            (self.host, self._requested_port), handler)
        self._httpd.daemon_threads = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-telemetry", daemon=True)
        self._thread.start()
        logger.info("telemetry server listening on %s", self.url)
        return self

    def stop(self) -> None:
        httpd, self._httpd = self._httpd, None
        thread, self._thread = self._thread, None
        if httpd is not None:
            httpd.shutdown()
            httpd.server_close()
        if thread is not None:
            thread.join(timeout=5.0)
        logger.info("telemetry server stopped")

    def __enter__(self) -> "TelemetryServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def __repr__(self) -> str:
        state = self.url if self.running else "stopped"
        return f"<TelemetryServer {state}>"


def _make_handler(session: TelemetrySource):
    class Handler(BaseHTTPRequestHandler):
        server_version = "repro-telemetry"
        protocol_version = "HTTP/1.1"

        def log_message(self, format: str, *args: object) -> None:
            # Route access logs into the repro hierarchy instead of stderr.
            logger.debug("%s %s", self.address_string(), format % args)

        def do_GET(self) -> None:  # noqa: N802 - stdlib handler contract
            try:
                self._route()
            except BrokenPipeError:  # client went away mid-reply
                pass
            except Exception as error:  # one bad request must not kill serving
                logger.exception("telemetry handler failed for %s", self.path)
                try:
                    self._json(500, {"error": type(error).__name__,
                                     "detail": str(error)})
                except Exception:
                    pass

        def _route(self) -> None:
            parsed = urlparse(self.path)
            route = parsed.path.rstrip("/") or "/"
            if route == "/metrics":
                body = render_prometheus(session.metrics).encode("utf-8")
                self._reply(200, body, PROMETHEUS_CONTENT_TYPE)
            elif route == "/healthz":
                health = session.health()
                status, headers = health_reply(health)
                self._json(status, health, headers=headers)
            elif route == "/debug/queries":
                self._debug_queries(parse_qs(parsed.query))
            elif route == "/":
                self._json(200, {"endpoints": list(ENDPOINTS)})
            else:
                self._json(404, {"error": f"unknown path {parsed.path!r}",
                                 "endpoints": list(ENDPOINTS)})

        def _debug_queries(self, query: dict[str, list[str]]) -> None:
            recorder = session.recorder
            if recorder is None:
                self._json(404, {
                    "error": "flight recorder disabled "
                             "(session built with record=False)"})
                return
            outcome = _first(query, "outcome")
            sampled = _parse_bool(_first(query, "sampled"))
            traces = _parse_bool(_first(query, "traces"))
            limit_text = _first(query, "limit")
            try:
                limit = int(limit_text) if limit_text is not None else None
            except ValueError:
                self._json(400, {"error": f"bad limit {limit_text!r}"})
                return
            payload = {
                "stats": recorder.stats(),
                "slos": recorder.slo_status(),
                "percentiles": recorder.percentiles(),
                "records": recorder.snapshot(
                    outcome=outcome, sampled=sampled, limit=limit,
                    include_traces=traces if traces is not None else True),
            }
            self._json(200, payload)

        def _json(self, status: int, payload: object,
                  headers: "dict[str, str] | None" = None) -> None:
            body = json.dumps(payload, indent=1, sort_keys=True,
                              default=str).encode("utf-8")
            self._reply(status, body, "application/json; charset=utf-8",
                        headers=headers)

        def _reply(self, status: int, body: bytes, content_type: str,
                   headers: "dict[str, str] | None" = None) -> None:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            for name, value in (headers or {}).items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(body)

    return Handler


def _first(query: dict[str, list[str]], key: str) -> str | None:
    values = query.get(key)
    return values[0] if values else None


def _parse_bool(text: str | None) -> bool | None:
    if text is None:
        return None
    return text.strip().lower() in ("1", "true", "yes", "on")


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
