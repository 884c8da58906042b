"""Cardinality and cost estimation for the physical planner.

The planner's rewrites — residual pushdown, join-body isolation, conjunct
ordering — are only worth making when the numbers say so.  This module
supplies those numbers: given per-document :class:`~repro.encoding.stats.
DocumentStats` (collected once at encode time) it propagates estimated
cardinalities through plan operators, using exactly the width arithmetic
the engine itself applies, so interval-endpoint overflow (which costs the
engine a renormalise pass, or a renumbering of the environment index)
can be *predicted* rather than suffered.

Estimates are totals over the current environment sequence, mirroring
the ``tuples`` attribute the engine records on operator spans — which is
what lets observed span counts feed straight back into the next planning
round via :class:`~repro.compiler.cache.PlanCache`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.encoding.stats import DocumentStats

#: Largest interval endpoint the columnar kernels hold; a width that
#: would pass it is renormalised first (mirrors ``repro.engine.columns``).
INT64_MAX = 2 ** 63 - 1

#: Stand-in statistics for variables the backend has no stats for (e.g.
#: planning before any document was prepared).  Shaped like a small
#: mid-depth document so estimates stay finite and comparable.
DEFAULT_STATS = DocumentStats(
    nodes=256, width=512, roots=1,
    label_counts={}, depth_histogram=(1, 15, 60, 180), fanout=4.0,
    digest="default",
)

#: Selectivity of a label select when the label is absent from the
#: statistics (unknown labels on default stats, stale counts).
DEFAULT_SELECT = 0.1
#: Selectivity of a node-class filter (textnodes/elementnodes/data).
CLASS_SELECT = 0.5

#: Relative cost of computing one comparison's keys, by condition type.
#: ``SomeEqual`` builds per-tree key *sets*; ``Equal``/``Less`` build one
#: canonical key per forest; ``Empty`` only inspects occupancy.
CONDITION_WEIGHT = {
    "Empty": 1.0,
    "Equal": 2.0,
    "Less": 2.0,
    "SomeEqual": 4.0,
}

#: Rough fraction of environments surviving a condition, by type — used
#: to damp cardinalities below a ``Where``, never for correctness.
CONDITION_SELECTIVITY = {
    "Empty": 0.5,
    "Equal": 0.2,
    "Less": 0.4,
    "SomeEqual": 0.2,
}


@dataclass(frozen=True)
class Estimate:
    """Estimated result cardinality of one plan node.

    ``tuples``/``trees`` are totals across the whole environment sequence
    (matching the span ``tuples`` attribute recorded by the engine);
    ``width`` is the *exact* static interval width, computed with the same
    rules the engine applies.  ``stats`` carries the provenance document's
    statistics when the value is (a projection of) a single document, so
    label selectivities stay available down a path expression.
    ``observed`` marks estimates overridden by traced actuals.
    """

    tuples: float
    trees: float
    width: int
    stats: DocumentStats | None = None
    observed: bool = False
    #: The model's own prediction, kept when an observation overrides
    #: ``tuples`` — ``--explain`` renders estimated vs. observed from it.
    predicted: float | None = None

    def replace(self, **changes) -> "Estimate":
        return dataclasses.replace(self, **changes)

    def scaled(self, factor: float) -> "Estimate":
        """The same shape at ``factor`` times the cardinality."""
        if factor == 1.0:
            return self
        return self.replace(tuples=self.tuples * factor,
                            trees=self.trees * factor)


#: The empty result.
EMPTY_ESTIMATE = Estimate(tuples=0.0, trees=0.0, width=0)


class CostModel:
    """Per-operator cardinality arithmetic over document statistics.

    ``stats_by_var`` maps document variable names to their collected
    statistics; ``observed`` maps stable plan-node fingerprints to actual
    tuple counts from a previous traced run of the same query shape.
    """

    def __init__(self, stats_by_var: Mapping[str, DocumentStats] | None = None,
                 observed: Mapping[int, int] | None = None):
        self._stats = dict(stats_by_var or {})
        self._observed = dict(observed or {})

    @property
    def has_observations(self) -> bool:
        return bool(self._observed)

    def document(self, name: str) -> DocumentStats | None:
        return self._stats.get(name)

    def base(self, name: str) -> Estimate:
        """The estimate for a document variable in the base environment."""
        stats = self._stats.get(name, DEFAULT_STATS)
        return Estimate(tuples=float(stats.nodes), trees=float(stats.roots),
                        width=stats.width, stats=stats)

    def observe(self, fingerprint: int, estimate: Estimate) -> Estimate:
        """Override an estimate with the observed actual, if one exists.

        Widths stay estimated — spans record tuple counts, and width is
        exact anyway; only the cardinality is corrected.
        """
        actual = self._observed.get(fingerprint)
        if actual is None:
            return estimate
        trees = estimate.trees
        if estimate.tuples > 0:
            trees = estimate.trees * (actual / estimate.tuples)
        return estimate.replace(tuples=float(actual), trees=trees,
                                observed=True, predicted=estimate.tuples)

    # -- operator rules ---------------------------------------------------------------

    def apply_fn(self, fn: str, params: Sequence[tuple[str, str]],
                 args: Sequence[Estimate], envs: float) -> Estimate:
        """Estimate one XFn application over already-estimated arguments.

        ``envs`` is the estimated environment count of the current
        sequence — the per-environment operators (``text_const``,
        ``count``, ``string_fn``, ``xnode``) emit output proportional to
        it regardless of input size.
        """
        if fn == "empty_forest":
            return EMPTY_ESTIMATE
        if fn == "text_const":
            return Estimate(tuples=envs, trees=envs, width=2)
        if fn == "concat":
            left, right = args
            return Estimate(tuples=left.tuples + right.tuples,
                            trees=left.trees + right.trees,
                            width=left.width + right.width)
        if fn == "xnode":
            (content,) = args
            return Estimate(tuples=content.tuples + envs, trees=envs,
                            width=content.width + 2)
        if fn in ("count", "string_fn"):
            return Estimate(tuples=envs, trees=envs, width=2)

        (arg,) = args
        if arg.width == 0:
            return EMPTY_ESTIMATE
        stats = arg.stats
        if fn == "roots":
            return arg.replace(tuples=arg.trees)
        if fn == "children":
            tuples = max(arg.tuples - arg.trees, 0.0)
            fanout = max(stats.fanout, 1.0) if stats is not None else 2.0
            trees = min(arg.trees * fanout, tuples)
            return arg.replace(tuples=tuples, trees=trees)
        if fn == "select":
            label = dict(params).get("label", "")
            if stats is not None and stats.label_counts:
                selectivity = stats.label_fraction(label)
            else:
                selectivity = DEFAULT_SELECT
            trees = arg.trees * selectivity
            subtree = stats.avg_subtree if stats is not None else 2.0
            tuples = min(trees * subtree, arg.tuples)
            return arg.replace(tuples=tuples, trees=trees)
        if fn in ("textnodes", "elementnodes", "data"):
            return arg.scaled(CLASS_SELECT)
        if fn == "head":
            kept = min(arg.trees, envs)
            fraction = kept / arg.trees if arg.trees else 0.0
            return arg.scaled(fraction)
        if fn == "tail":
            kept = max(arg.trees - envs, 0.0)
            fraction = kept / arg.trees if arg.trees else 0.0
            return arg.scaled(fraction)
        if fn in ("reverse", "distinct"):
            return arg
        if fn == "subtrees_dfs":
            subtree = stats.avg_subtree if stats is not None else 2.0
            return arg.replace(tuples=arg.tuples * subtree, trees=arg.tuples,
                               width=arg.width * arg.width)
        if fn == "sort":
            return arg.replace(width=arg.width * arg.width)
        # Unknown operator: assume size-preserving.
        return arg

    def join_pairs(self, outer_envs: float, inner_envs: float,
                   existential: bool) -> float:
        """Expected matched (outer, inner) environment pairs.

        A key join on reasonably selective keys pairs each outer
        environment with O(1) inner partners (and vice versa), so the
        expectation is bounded by the smaller side; deep-Equal joins match
        whole forests and are rarer still.
        """
        if outer_envs <= 0 or inner_envs <= 0:
            return 0.0
        pairs = min(outer_envs, inner_envs)
        return pairs if existential else pairs * 0.5

    # -- condition costing ------------------------------------------------------------

    def condition_rank(self, kind: str, operand_tuples: float) -> float:
        """Relative evaluation cost of one comparison conjunct."""
        return CONDITION_WEIGHT.get(kind, 2.0) * max(operand_tuples, 1.0)

    def condition_selectivity(self, kind: str) -> float:
        return CONDITION_SELECTIVITY.get(kind, 0.5)


def predict_overflow(index_bound: int, output_width: int) -> bool:
    """Whether interval endpoints would exceed the int64 kernel range.

    ``index_bound`` is an exclusive upper bound on the environment indexes
    of the sequence a result re-blocks into; every left endpoint of a
    width-``output_width`` result is below ``index_bound · output_width``.
    The engine's own trigger is this same bound (``kernels.overflows``):
    where it trips the evaluator pays an ``O(n log n)`` renormalise of the
    relation, or renumbers the pair index — no cliff any more, but work
    the planner can avoid by running the body over the small inner index
    (join-graph isolation).
    """
    return index_bound * output_width > INT64_MAX


def expr_weight(expr, stats_by_var: Mapping[str, DocumentStats] | None) -> float:
    """Estimated tuples flowing through a core expression (or plan node).

    Duck-typed over both the core AST (:mod:`repro.xquery.ast`) and the
    physical plan (:mod:`repro.compiler.plan`): the SQL translator ranks
    ``where``-conjuncts on core expressions with the same arithmetic the
    engine planner applies to plan nodes.  Single-environment context
    (``envs = 1``) — relative ranking is all that is needed.
    """
    model = CostModel(stats_by_var)
    return weigh(expr, model).tuples


def condition_weight(condition,
                     stats_by_var: Mapping[str, DocumentStats] | None) -> float:
    """Estimated evaluation cost of a core condition (for emission order)."""
    model = CostModel(stats_by_var)
    return _condition_weight(condition, model)


def weigh(expr, model: CostModel) -> Estimate:
    """Single-environment estimate of an expression, duck-typed.

    Works on core AST nodes and physical plan nodes alike — a quick,
    context-free probe used for ranking, not for annotation.
    """
    name = type(expr).__name__
    if hasattr(expr, "fn"):
        args = [weigh(arg, model) for arg in expr.args]
        return model.apply_fn(expr.fn, tuple(expr.params), args, 1.0)
    if hasattr(expr, "name"):
        return model.base(expr.name)
    if name in ("Let", "LetNode"):
        return weigh(expr.body, model)
    if name in ("Where", "WhereNode"):
        return weigh(expr.body, model)
    if name in ("For", "ForNode"):
        source = weigh(expr.source, model)
        body = weigh(expr.body, model)
        return body.scaled(max(source.trees, 1.0))
    if name == "JoinForNode":
        return weigh(expr.body, model)
    return Estimate(tuples=1.0, trees=1.0, width=2)


def _condition_weight(condition, model: CostModel) -> float:
    name = type(condition).__name__.removesuffix("Cond")
    if name == "Empty":
        return model.condition_rank("Empty", weigh(condition.expr, model).tuples)
    if name in ("Equal", "SomeEqual", "Less"):
        operands = (weigh(condition.left, model).tuples
                    + weigh(condition.right, model).tuples)
        return model.condition_rank(name, operands)
    if name == "Not":
        return _condition_weight(condition.condition, model)
    if name in ("And", "Or"):
        return (_condition_weight(condition.left, model)
                + _condition_weight(condition.right, model))
    return 1.0
