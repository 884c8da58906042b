"""Query-lifecycle observability: tracing, metrics, and exporters.

One subsystem instruments the whole parse → lower → plan → execute →
serialize lifecycle uniformly across every registered backend:

* :mod:`repro.obs.trace` — nested :class:`Span` trees collected by a
  :class:`Tracer`; a cheap process-wide no-op default when disabled;
* :mod:`repro.obs.metrics` — :class:`Counter` / :class:`Histogram`
  instruments on a :class:`MetricsRegistry`, fed by the engine, the SQL
  backends, and the session;
* :mod:`repro.obs.export` — Chrome ``trace_event`` JSON (Perfetto /
  ``chrome://tracing``), Prometheus text format (with a validating
  parser), and a human-readable tree renderer;
* :mod:`repro.obs.logs` — console wiring for the ``repro`` stdlib
  logger hierarchy (the CLI's ``--verbose``) and the structured
  slow-query log on ``repro.slowlog``;
* :mod:`repro.obs.flight` — the always-on :class:`FlightRecorder` ring
  buffer every ``session.run`` reports into, with tail-based trace
  sampling, per-(fingerprint, backend) latency percentiles, and
  :class:`SLO` burn-rate gauges.

The HTTP side — ``/metrics``, ``/healthz`` and ``/debug/queries`` — is
:mod:`repro.serving`, the one server that also answers ``/query``.

Entry points: ``XQuerySession.run(query, trace=True)`` returns a
:class:`~repro.api.QueryResult` whose ``trace`` is the root span;
``python -m repro … --trace out.json --metrics`` does the same from the
command line, and ``python -m repro top URL`` renders a live recorder's
percentile table.  See ``docs/OBSERVABILITY.md``.
"""

from repro.obs.export import (
    PrometheusFormatError,
    chrome_trace,
    parse_prometheus,
    render_prometheus,
    render_span_tree,
    write_chrome_trace,
)
from repro.obs.flight import (
    DEFAULT_SLOS,
    LATENCY_BUCKETS,
    SLO,
    AttemptRecord,
    FlightRecorder,
    QueryRecord,
    estimate_quantile,
    query_fingerprint,
    render_percentile_table,
)
from repro.obs.logs import (
    format_slow_query,
    log_slow_query,
    setup_console_logging,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_metrics,
    set_metrics,
)
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    get_tracer,
    set_tracer,
    use_tracer,
)

__all__ = [
    "AttemptRecord",
    "Counter",
    "DEFAULT_SLOS",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "PrometheusFormatError",
    "QueryRecord",
    "SLO",
    "Span",
    "Tracer",
    "chrome_trace",
    "estimate_quantile",
    "format_slow_query",
    "get_metrics",
    "get_tracer",
    "log_slow_query",
    "parse_prometheus",
    "query_fingerprint",
    "render_percentile_table",
    "render_prometheus",
    "render_span_tree",
    "set_metrics",
    "set_tracer",
    "setup_console_logging",
    "use_tracer",
    "write_chrome_trace",
]
