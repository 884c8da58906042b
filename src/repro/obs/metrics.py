"""Counters and histograms behind a small Prometheus-style registry.

Instruments are get-or-created by name on a :class:`MetricsRegistry`;
label sets are declared up front (Prometheus semantics) and every sample
is keyed by its label values.  The registry is fed by

* the engine — tuples produced per operator, environment-sequence sizes,
  interval widths (the Koch-style per-environment blow-up, observed
  instead of inferred);
* the SQL backend — statements executed, rows fetched;
* the session — queries run, cache invalidations, documents loaded.

Export to Prometheus text format lives in :mod:`repro.obs.export`.
"""

from __future__ import annotations

import math
import re
import threading
from typing import Callable, Iterator, Mapping

from repro.errors import ReproError

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")

#: Exponential buckets suited to cardinalities and interval widths — both
#: grow multiplicatively (widths by a factor per nesting level).
DEFAULT_BUCKETS: tuple[float, ...] = tuple(4 ** i for i in range(16))


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ReproError(f"invalid metric name {name!r}")
    return name


class Metric:
    """Shared bookkeeping for one named instrument.

    Every mutation (``inc``/``set``/``observe``) takes the instrument's
    own lock, so instruments are safe to feed from concurrent worker
    threads and totals always add up; reads are lock-free snapshots.
    """

    kind = "untyped"

    def __init__(self, name: str, description: str = "",
                 label_names: tuple[str, ...] = ()):
        self.name = _check_name(name)
        self.description = description
        self.label_names = tuple(label_names)
        self._lock = threading.Lock()
        for label in self.label_names:
            _check_name(label)

    def _key(self, labels: Mapping[str, object]) -> tuple[str, ...]:
        if set(labels) != set(self.label_names):
            raise ReproError(
                f"metric {self.name!r} expects labels "
                f"{sorted(self.label_names)}, got {sorted(labels)}"
            )
        return tuple(str(labels[name]) for name in self.label_names)

    def label_sets(self) -> "list[tuple[str, ...]]":
        raise NotImplementedError

    def reset(self) -> None:
        raise NotImplementedError


class Counter(Metric):
    """A monotonically increasing sum, optionally partitioned by labels."""

    kind = "counter"

    def __init__(self, name: str, description: str = "",
                 label_names: tuple[str, ...] = ()):
        super().__init__(name, description, label_names)
        self._values: dict[tuple[str, ...], float] = {}

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        if amount < 0:
            raise ReproError(
                f"counter {self.name!r} cannot decrease (got {amount})")
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: object) -> float:
        return self._values.get(self._key(labels), 0.0)

    def label_sets(self) -> list[tuple[str, ...]]:
        return sorted(self._values)

    def samples(self) -> Iterator[tuple[dict[str, str], float]]:
        """(labels dict, value) pairs in sorted label order."""
        for key in self.label_sets():
            yield dict(zip(self.label_names, key)), self._values[key]

    def reset(self) -> None:
        self._values.clear()


class Gauge(Metric):
    """A value that can go up and down (breaker states, live resources)."""

    kind = "gauge"

    def __init__(self, name: str, description: str = "",
                 label_names: tuple[str, ...] = ()):
        super().__init__(name, description, label_names)
        self._values: dict[tuple[str, ...], float] = {}
        self._read: "Callable[[], float] | None" = None

    def set(self, value: float, **labels: object) -> None:
        self._values[self._key(labels)] = float(value)

    def read_from(self, read: "Callable[[], float]") -> None:
        """Take the (unlabelled) value from ``read()`` each time the gauge
        is sampled — a quantity someone else keeps, read at scrape time."""
        self._read = read

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: object) -> None:
        self.inc(-amount, **labels)

    def _sampled(self) -> dict[tuple[str, ...], float]:
        if self._read is not None:
            self.set(self._read())
        return self._values

    def value(self, **labels: object) -> float:
        return self._sampled().get(self._key(labels), 0.0)

    def label_sets(self) -> list[tuple[str, ...]]:
        return sorted(self._sampled())

    def samples(self) -> Iterator[tuple[dict[str, str], float]]:
        """(labels dict, value) pairs in sorted label order."""
        for key in self.label_sets():
            yield dict(zip(self.label_names, key)), self._values[key]

    def reset(self) -> None:
        self._values.clear()


class Histogram(Metric):
    """Observation counts over fixed buckets, plus sum and count.

    Buckets are upper bounds (``le``); an implicit ``+Inf`` bucket always
    exists, so any observation is representable.  Declared bounds are
    deduplicated, sorted ascending, and stripped of non-finite values
    (``inf``/``nan`` would shadow the implicit ``+Inf`` bucket and break
    the exporter's cumulative-count invariant).
    """

    kind = "histogram"

    def __init__(self, name: str, description: str = "",
                 label_names: tuple[str, ...] = (),
                 buckets: tuple[float, ...] = DEFAULT_BUCKETS):
        super().__init__(name, description, label_names)
        self.buckets = tuple(sorted({float(bound) for bound in buckets
                                     if math.isfinite(bound)}))
        if not self.buckets:
            raise ReproError(
                f"histogram {self.name!r} needs ≥1 finite bucket")
        # label key → [per-bucket counts..., +Inf count, sum, count]
        self._states: dict[tuple[str, ...], list[float]] = {}

    def _state(self, key: tuple[str, ...]) -> list[float]:
        state = self._states.get(key)
        if state is None:
            state = [0.0] * (len(self.buckets) + 3)
            self._states[key] = state
        return state

    def observe(self, value: float, **labels: object) -> None:
        key = self._key(labels)
        with self._lock:
            state = self._state(key)
            for position, bound in enumerate(self.buckets):
                if value <= bound:
                    state[position] += 1
                    break
            else:
                state[len(self.buckets)] += 1  # +Inf
            state[-2] += value
            state[-1] += 1

    def count(self, **labels: object) -> int:
        state = self._states.get(self._key(labels))
        return int(state[-1]) if state else 0

    def sum(self, **labels: object) -> float:
        state = self._states.get(self._key(labels))
        return state[-2] if state else 0.0

    def bucket_counts(self, **labels: object) -> list[tuple[float, int]]:
        """Cumulative (upper bound, count) pairs, ending with ``+Inf``."""
        state = self._states.get(self._key(labels))
        raw = state[:len(self.buckets) + 1] if state \
            else [0.0] * (len(self.buckets) + 1)
        cumulative: list[tuple[float, int]] = []
        running = 0.0
        for bound, count in zip(tuple(self.buckets) + (float("inf"),), raw):
            running += count
            cumulative.append((bound, int(running)))
        return cumulative

    def label_sets(self) -> list[tuple[str, ...]]:
        return sorted(self._states)

    def reset(self) -> None:
        self._states.clear()


class MetricsRegistry:
    """Named instruments, get-or-created with consistent declarations."""

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}
        self._lock = threading.Lock()

    def counter(self, name: str, description: str = "",
                label_names: tuple[str, ...] = ()) -> Counter:
        return self._get_or_create(Counter, name, description, label_names)

    def gauge(self, name: str, description: str = "",
              label_names: tuple[str, ...] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, description, label_names)

    def histogram(self, name: str, description: str = "",
                  label_names: tuple[str, ...] = (),
                  buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> Histogram:
        return self._get_or_create(Histogram, name, description, label_names,
                                   buckets=buckets)

    def _get_or_create(self, cls, name, description, label_names, **extra):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name, description, tuple(label_names), **extra)
                self._metrics[name] = metric
                return metric
        if not isinstance(metric, cls):
            raise ReproError(
                f"metric {name!r} is a {metric.kind}, not a {cls.kind}")
        if metric.label_names != tuple(label_names):
            raise ReproError(
                f"metric {name!r} was declared with labels "
                f"{metric.label_names}, not {tuple(label_names)}")
        return metric

    def get(self, name: str) -> Metric | None:
        return self._metrics.get(name)

    def metrics(self) -> tuple[Metric, ...]:
        """All instruments, sorted by name."""
        return tuple(self._metrics[name] for name in sorted(self._metrics))

    def reset(self) -> None:
        """Zero every instrument (declarations are kept)."""
        for metric in self._metrics.values():
            metric.reset()

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __repr__(self) -> str:
        return f"<MetricsRegistry {len(self._metrics)} metric(s)>"


#: Process-wide default registry; sessions default to their own, but
#: one-shot instrumentation can share this.
_DEFAULT = MetricsRegistry()


def get_metrics() -> MetricsRegistry:
    return _DEFAULT


def set_metrics(registry: MetricsRegistry | None) -> MetricsRegistry:
    """Install a process-wide default registry; returns the previous one."""
    global _DEFAULT
    previous = _DEFAULT
    _DEFAULT = registry if registry is not None else MetricsRegistry()
    return previous
