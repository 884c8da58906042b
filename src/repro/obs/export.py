"""Exporters: Chrome ``trace_event`` JSON, Prometheus text, span trees.

* :func:`chrome_trace` / :func:`write_chrome_trace` — the Trace Event
  Format consumed by ``chrome://tracing`` and Perfetto (complete ``"X"``
  events, microsecond timestamps);
* :func:`render_prometheus` — the Prometheus text exposition format,
  with :func:`parse_prometheus` as a strict round-trip validator;
* :func:`render_span_tree` — a human-readable indented tree with
  durations and attributes, for terminals and logs;
* :func:`health_reply` / :func:`retry_after_seconds` — a health snapshot
  as the ``/healthz`` HTTP status and ``Retry-After`` header
  (:mod:`repro.serving`).
"""

from __future__ import annotations

import json
import math
import re
from typing import Iterable, Mapping

from repro.errors import ReproError
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.trace import Span


class PrometheusFormatError(ReproError):
    """The text under validation is not valid Prometheus exposition."""


# -- /healthz ------------------------------------------------------------------

#: ``health()["status"]`` values that flip ``/healthz`` to HTTP 503.
UNHEALTHY_STATUSES = ("shedding",)


def retry_after_seconds(hint: object) -> str | None:
    """A retry hint as an RFC 9110 ``Retry-After`` delta-seconds value.

    ``Retry-After`` is integer seconds; fractional hints round *up* so a
    compliant client never retries before the hinted instant.  ``None``
    without a positive numeric hint.
    """
    if not isinstance(hint, (int, float)) or hint <= 0:
        return None
    return str(math.ceil(hint))


def health_reply(health: dict[str, object]) -> tuple[int, dict[str, str]]:
    """The ``/healthz`` HTTP status and extra headers for one
    ``session.health()`` snapshot.

    503 for the :data:`UNHEALTHY_STATUSES`, carrying the admission
    controller's retry hint as ``Retry-After``; 200 otherwise.
    """
    if health.get("status") not in UNHEALTHY_STATUSES:
        return 200, {}
    admission = health.get("admission")
    hint = retry_after_seconds(admission.get("retry_after")
                               if isinstance(admission, dict) else None)
    return 503, {} if hint is None else {"Retry-After": hint}


# -- Chrome trace_event -------------------------------------------------------

def chrome_trace(spans: Span | Iterable[Span], pid: int = 1,
                 tid: int = 1) -> dict:
    """Spans → a Trace Event Format document (``chrome://tracing``)."""
    if isinstance(spans, Span):
        spans = (spans,)
    events = []
    for root in spans:
        for span in root.walk():
            events.append({
                "name": span.name,
                "cat": str(span.attributes.get("category", "repro")),
                "ph": "X",
                "ts": span.start * 1e6,
                "dur": max(span.seconds, 0.0) * 1e6,
                "pid": pid,
                "tid": tid,
                "args": {key: _jsonable(value)
                         for key, value in span.attributes.items()},
            })
    events.sort(key=lambda event: event["ts"])
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(spans: Span | Iterable[Span], path: str,
                       pid: int = 1) -> None:
    """Serialize :func:`chrome_trace` output as JSON at ``path``."""
    with open(path, "w") as handle:
        json.dump(chrome_trace(spans, pid=pid), handle, indent=1)


def _jsonable(value: object) -> object:
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return str(value)


# -- human-readable span tree -------------------------------------------------

def render_span_tree(span: Span, min_seconds: float = 0.0) -> str:
    """An indented tree: name, duration, attributes per line."""
    lines: list[str] = []
    _render_node(span, 0, min_seconds, lines)
    return "\n".join(lines)


def _render_node(span: Span, depth: int, min_seconds: float,
                 lines: list[str]) -> None:
    if depth and span.seconds < min_seconds:
        return
    attributes = " ".join(f"{key}={value}"
                          for key, value in sorted(span.attributes.items()))
    entry = f"{'  ' * depth}{span.name:<{max(28 - 2 * depth, 1)}} " \
            f"{span.seconds * 1e3:9.3f} ms"
    if attributes:
        entry += f"  [{attributes}]"
    lines.append(entry)
    for child in span.children:
        _render_node(child, depth + 1, min_seconds, lines)


# -- Prometheus text format ---------------------------------------------------

def render_prometheus(registry: MetricsRegistry) -> str:
    """The registry in Prometheus text exposition format."""
    lines: list[str] = []
    for metric in registry.metrics():
        if metric.description:
            lines.append(f"# HELP {metric.name} "
                         f"{_escape_help(metric.description)}")
        lines.append(f"# TYPE {metric.name} {metric.kind}")
        if isinstance(metric, (Counter, Gauge)):
            for labels, value in metric.samples():
                lines.append(f"{metric.name}{_labels(labels)} {_number(value)}")
        elif isinstance(metric, Histogram):
            for key in metric.label_sets():
                labels = dict(zip(metric.label_names, key))
                for bound, count in metric.bucket_counts(**labels):
                    bucket_labels = dict(labels, le=_le(bound))
                    lines.append(f"{metric.name}_bucket"
                                 f"{_labels(bucket_labels)} {count}")
                lines.append(f"{metric.name}_sum{_labels(labels)} "
                             f"{_number(metric.sum(**labels))}")
                lines.append(f"{metric.name}_count{_labels(labels)} "
                             f"{metric.count(**labels)}")
    return "\n".join(lines) + "\n" if lines else ""


def _labels(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    rendered = ",".join(f'{key}="{_escape_label(str(value))}"'
                        for key, value in sorted(labels.items()))
    return "{" + rendered + "}"


def _escape_label(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _escape_help(value: str) -> str:
    return value.replace("\\", r"\\").replace("\n", r"\n")


def _le(bound: float) -> str:
    return "+Inf" if math.isinf(bound) else _number(bound)


def _number(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^{}]*\})?"
    r"\s+(?P<value>[^\s]+)"
    r"(?:\s+(?P<timestamp>-?\d+))?$"
)
_LABEL_RE = re.compile(
    r'(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"'
)


def parse_prometheus(text: str) -> dict[str, float]:
    """Parse (and thereby validate) Prometheus exposition text.

    Returns ``{"name{label=\"v\",…}": value}``.  Raises
    :class:`PrometheusFormatError` on any malformed line, on samples whose
    metric family lacks a ``# TYPE`` declaration, and on histogram series
    that emit bucket bounds out of ascending ``le`` order, repeat a bound,
    decrease cumulatively, omit the ``+Inf`` bucket or the ``_sum`` /
    ``_count`` samples, or whose ``+Inf`` count disagrees with ``_count``
    — the checks the CI round-trip step relies on.
    """
    samples: dict[str, float] = {}
    types: dict[str, str] = {}
    buckets: dict[str, list[tuple[float, float]]] = {}
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 3 and parts[1] == "TYPE":
                if len(parts) < 4 or parts[3] not in (
                        "counter", "gauge", "histogram", "summary", "untyped"):
                    raise PrometheusFormatError(
                        f"line {line_number}: bad TYPE declaration {raw!r}")
                types[parts[2]] = parts[3]
            elif len(parts) >= 2 and parts[1] == "HELP":
                if len(parts) < 3:
                    raise PrometheusFormatError(
                        f"line {line_number}: bad HELP declaration {raw!r}")
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise PrometheusFormatError(
                f"line {line_number}: malformed sample {raw!r}")
        name = match.group("name")
        label_text = match.group("labels") or ""
        labels = _parse_labels(label_text, line_number)
        try:
            value = float(match.group("value"))
        except ValueError:
            raise PrometheusFormatError(
                f"line {line_number}: bad value in {raw!r}") from None
        family = _family(name)
        if family not in types:
            raise PrometheusFormatError(
                f"line {line_number}: sample {name!r} has no "
                f"# TYPE declaration")
        key = name + _labels(labels)
        if key in samples:
            raise PrometheusFormatError(
                f"line {line_number}: duplicate sample {key!r}")
        samples[key] = value
        if name.endswith("_bucket") and types.get(family) == "histogram":
            if "le" not in labels:
                raise PrometheusFormatError(
                    f"line {line_number}: histogram bucket without le label")
            series = dict(labels)
            bound = series.pop("le")
            bound_value = float("inf") if bound == "+Inf" else float(bound)
            buckets.setdefault(family + _labels(series), []).append(
                (bound_value, value))
    _validate_histograms(samples, buckets)
    return samples


def _parse_labels(label_text: str, line_number: int) -> dict[str, str]:
    if not label_text:
        return {}
    body = label_text[1:-1].strip()
    if not body:
        return {}
    labels: dict[str, str] = {}
    position = 0
    while position < len(body):
        match = _LABEL_RE.match(body, position)
        if match is None:
            raise PrometheusFormatError(
                f"line {line_number}: malformed labels {label_text!r}")
        labels[match.group("key")] = match.group("value")
        position = match.end()
        if position < len(body):
            if body[position] != ",":
                raise PrometheusFormatError(
                    f"line {line_number}: malformed labels {label_text!r}")
            position += 1
    return labels


def _family(name: str) -> str:
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return name


def _validate_histograms(samples: Mapping[str, float],
                         buckets: Mapping[str, list[tuple[float, float]]],
                         ) -> None:
    for series, pairs in buckets.items():
        bounds = [bound for bound, _count in pairs]
        if len(set(bounds)) != len(bounds):
            raise PrometheusFormatError(
                f"histogram {series!r}: duplicate bucket bound")
        if bounds != sorted(bounds):
            raise PrometheusFormatError(
                f"histogram {series!r}: bucket bounds are not emitted "
                f"in ascending le order")
        counts = [count for _bound, count in pairs]
        if counts != sorted(counts):
            raise PrometheusFormatError(
                f"histogram {series!r}: bucket counts are not cumulative")
        if not math.isinf(bounds[-1]):
            raise PrometheusFormatError(
                f"histogram {series!r}: missing +Inf bucket")
        family, _brace, label_text = series.partition("{")
        suffix = "{" + label_text if label_text else ""
        count_key = f"{family}_count" + suffix
        if count_key not in samples:
            raise PrometheusFormatError(
                f"histogram {series!r}: missing _count sample")
        if samples[count_key] != pairs[-1][1]:
            raise PrometheusFormatError(
                f"histogram {series!r}: +Inf bucket ({pairs[-1][1]}) "
                f"disagrees with _count ({samples[count_key]})")
        if f"{family}_sum" + suffix not in samples:
            raise PrometheusFormatError(
                f"histogram {series!r}: missing _sum sample")
