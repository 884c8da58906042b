"""Reading a run back from the evaluator's spans (behind Figure 10).

A traced :class:`~repro.engine.evaluator.DIEngine` emits one ``op.*``
span per plan-node evaluation — tagged with the node's ``kind``, its
Figure 10 ``category`` (:func:`span_category`), ``node=id(node)`` and
its output ``tuples``, ``width`` and ``envs`` — and one
``engine.kernel.*`` span, tagged ``kernel=``, per kernel invocation.
Everything that observes a run reads those afterwards: the Figure 10
split (:class:`EngineStats`: each node's exclusive time goes to its
category, kernels charging the node that called them), EXPLAIN ANALYZE
(:func:`repro.compiler.planner.node_observations`) and the
``repro_engine_*`` metrics (:func:`observe_metrics`).
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.compiler.plan import (PATH_FNS, FnNode, ForNode, JoinForNode,
                                 PlanNode, WhereNode)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Span, Tracer

PATHS = "paths"
JOIN = "join"
CONSTRUCTION = "construction"
OTHER = "other"

CATEGORIES = (PATHS, JOIN, CONSTRUCTION, OTHER)

#: Category of each XFn for Figure 10 attribution.
FUNCTION_CATEGORIES = {
    **dict.fromkeys(sorted(PATH_FNS), PATHS),
    "xnode": CONSTRUCTION,
    "concat": CONSTRUCTION,
    "text_const": CONSTRUCTION,
    "empty_forest": CONSTRUCTION,
    "count": CONSTRUCTION,
    "string_fn": CONSTRUCTION,
    "head": OTHER,
    "tail": OTHER,
    "reverse": OTHER,
    "distinct": OTHER,
    "sort": OTHER,
}

def span_category(node: PlanNode) -> str:
    """The Figure 10 category a plan node's ``op.*`` span carries: an
    XFn's from :data:`FUNCTION_CATEGORIES`; the loops and ``where`` —
    iteration, pair matching and counting, filtering and block copies —
    are the join."""
    if isinstance(node, FnNode):
        return FUNCTION_CATEGORIES.get(node.fn, OTHER)
    if isinstance(node, (ForNode, JoinForNode, WhereNode)):
        return JOIN
    return OTHER


def op_spans(roots: Iterable[Span]) -> Iterator[Span]:
    """Every ``op.*`` span under ``roots`` that returned (so carries its
    output measurements), pre-order."""
    for root in roots:
        for span in root.walk():
            if "node" in span.attributes and "tuples" in span.attributes:
                yield span


def category_seconds(roots: Iterable[Span]) -> dict[str, float]:
    """Exclusive per-category seconds from ``category``-tagged spans.

    Each tagged span's duration goes to its category and comes off the
    category of the *nearest* tagged span above it (untagged spans pass
    through), so the totals telescope: summing the result equals the
    summed duration of the top-level tagged spans.
    """
    totals: dict[str, float] = {}

    def walk(span: Span, enclosing: str | None) -> None:
        category = span.attributes.get("category")
        if category is not None:
            totals[category] = totals.get(category, 0.0) + span.seconds
            if enclosing is not None:
                totals[enclosing] -= span.seconds
            enclosing = category
        for child in span.children:
            walk(child, enclosing)

    for root in roots:
        walk(root, None)
    return totals


def observe_metrics(metrics: MetricsRegistry, roots: Iterable[Span]) -> None:
    """Feed the engine instruments from one run's spans: per op span its
    environments, width and (for an XFn) tuples; per returned kernel
    span its seconds."""
    tuples = metrics.counter(
        "repro_engine_tuples_total",
        "tuples produced per engine operator", ("operator",))
    envs = metrics.histogram(
        "repro_engine_envseq_size",
        "environment-sequence sizes seen per node evaluation")
    widths = metrics.histogram(
        "repro_engine_interval_width",
        "interval widths of node results")
    kernels = metrics.histogram(
        "repro_engine_kernel_seconds",
        "wall seconds per engine kernel invocation", ("kernel",),
        buckets=(1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0))
    for root in roots:
        for span in root.walk():
            attributes = span.attributes
            if "kernel" in attributes and "error" not in attributes:
                kernels.observe(span.seconds, kernel=attributes["kernel"])
    for span in op_spans(roots):
        attributes = span.attributes
        envs.observe(attributes["envs"])
        widths.observe(attributes["width"])
        if attributes["kind"] == "FnNode":
            tuples.inc(attributes["tuples"],
                       operator=span.name.removeprefix("op."))


class EngineStats:
    """Exclusive wall-clock time and tuple counts per plan category.

    ``tracer`` — the span sink; defaults to a private
    :class:`~repro.obs.trace.Tracer`.  An engine run with ``stats=`` and
    no caller's tracer runs under this one; with both, the run's own op
    spans are adopted here, so either way the split reads one run's spans.
    """

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer if tracer is not None else Tracer()

    @staticmethod
    def check_backend(stats: "EngineStats | None", backend: str) -> None:
        """Refuse ``stats`` off the ``engine`` backend, where it would
        read as an empty split: no other runs the engine in process."""
        if stats is not None and backend != "engine":
            raise ValueError(
                f"stats= needs the engine backend, not {backend!r}")

    @property
    def seconds(self) -> dict[str, float]:
        """Exclusive seconds per category, derived from the span tree."""
        return category_seconds(self.tracer.roots)

    @property
    def tuples(self) -> dict[str, int]:
        """Output tuples per category, summed over the op spans."""
        totals: dict[str, int] = {}
        for span in op_spans(self.tracer.roots):
            category = span.attributes["category"]
            totals[category] = totals.get(category, 0) \
                + span.attributes["tuples"]
        return totals

    @property
    def total_seconds(self) -> float:
        return sum(self.seconds.values())

    def fractions(self) -> dict[str, float]:
        """Per-category share of total time (the Figure 10 percentages)."""
        seconds = self.seconds
        total = sum(seconds.values())
        if total <= 0:
            return {category: 0.0 for category in CATEGORIES}
        return {
            category: seconds.get(category, 0.0) / total
            for category in CATEGORIES
        }

    @classmethod
    def from_trace(cls, span: Span) -> "EngineStats":
        """Rebuild a Figure 10 breakdown from any query span tree."""
        stats = cls()
        stats.tracer.adopt(span)
        return stats

    def reset(self) -> None:
        self.tracer.reset()

    def summary(self) -> str:
        """A one-line human-readable breakdown."""
        fractions = self.fractions()
        parts = [
            f"{category}={fractions[category] * 100:.0f}%"
            for category in CATEGORIES
            if fractions[category] > 0
        ]
        return f"total={self.total_seconds:.3f}s " + " ".join(parts)
