"""Conjunct ranking arithmetic for the SQL translator.

:func:`condition_weight` estimates how much work one ``where``-conjunct
costs, so the SQL translator (:mod:`repro.sql.translator`) can emit a
conjunction cheapest-first.  Estimates come from per-document
:class:`~repro.encoding.stats.DocumentStats` and use the width
arithmetic the engine applies; only the relative ranking matters.  The
DI engine's plans do not read this module: they are syntax-directed
(:func:`repro.compiler.planner.optimize_plan`).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.encoding.stats import DocumentStats

#: Stand-in statistics for variables the backend has no stats for (e.g.
#: planning before any document was prepared).  Shaped like a small
#: mid-depth document so estimates stay finite and comparable.
DEFAULT_STATS = DocumentStats(
    nodes=256, width=512, roots=1,
    label_counts={}, depth_histogram=(1, 15, 60, 180), fanout=4.0,
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


@dataclass(frozen=True)
class Estimate:
    """Estimated result cardinality of one core expression.

    ``tuples``/``trees`` are totals across the whole environment sequence;
    ``width`` is the *exact* static interval width, computed with the same
    rules the engine applies.  ``stats`` carries the provenance document's
    statistics when the value is (a projection of) a single document, so
    label selectivities stay available down a path expression.
    """

    tuples: float
    trees: float
    width: int
    stats: DocumentStats | None = None

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
    statistics.
    """

    def __init__(self, stats_by_var: Mapping[str, DocumentStats] | None = None):
        self._stats = dict(stats_by_var or {})

    def base(self, name: str) -> Estimate:
        """The estimate for a document variable in the base environment."""
        stats = self._stats.get(name, DEFAULT_STATS)
        return Estimate(tuples=float(stats.nodes), trees=float(stats.roots),
                        width=stats.width, stats=stats)

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

    # -- condition costing ------------------------------------------------------------

    def condition_rank(self, kind: str, operand_tuples: float) -> float:
        """Relative evaluation cost of one comparison conjunct."""
        return CONDITION_WEIGHT.get(kind, 2.0) * max(operand_tuples, 1.0)


def condition_weight(condition,
                     stats_by_var: Mapping[str, DocumentStats] | None) -> float:
    """Estimated evaluation cost of a core condition (for emission order)."""
    model = CostModel(stats_by_var)
    return _condition_weight(condition, model)


def weigh(expr, model: CostModel) -> Estimate:
    """Single-environment estimate of a core expression, duck-typed —
    a quick, context-free probe used for ranking."""
    name = type(expr).__name__
    if hasattr(expr, "fn"):
        args = [weigh(arg, model) for arg in expr.args]
        return model.apply_fn(expr.fn, tuple(expr.params), args, 1.0)
    if hasattr(expr, "name"):
        return model.base(expr.name)
    if name in ("Let", "Where"):
        return weigh(expr.body, model)
    if name == "For":
        source = weigh(expr.source, model)
        body = weigh(expr.body, model)
        return body.scaled(max(source.trees, 1.0))
    return Estimate(tuples=1.0, trees=1.0, width=2)


def _condition_weight(condition, model: CostModel) -> float:
    name = type(condition).__name__
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
