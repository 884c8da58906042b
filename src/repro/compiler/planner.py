"""Compile core expressions to DI-engine physical plans.

``compile_plan(expr, strategy, base_vars)`` walks the core AST:

* under :attr:`JoinStrategy.NLJ` every ``for`` becomes a naive
  :class:`~repro.compiler.plan.ForNode` expansion — the nested-loop plans
  the paper's competitors are limited to;
* under :attr:`JoinStrategy.MSJ` each ``for`` is first offered to the
  Section 5 decorrelation (:mod:`repro.compiler.decorrelate`); matches
  become :class:`~repro.compiler.plan.JoinForNode` merge joins, the rest
  fall back to naive expansion.

After compilation the planner computes, bottom-up, the set of outer
variables each iteration actually needs (``required_outer``), so that
environment expansion copies exactly the bindings the body reads —
``JoinForNode`` sources and inner keys read the base environment and are
excluded, which is where the asymptotic savings come from.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Iterable

from repro.errors import PlanError
from repro.compiler import cost, decorrelate
from repro.compiler import joingraph  # module-style: joingraph imports us back
from repro.compiler.plan import (
    iter_plan,
    AndCond,
    CondPlan,
    EmptyCond,
    EqualCond,
    FnNode,
    ForNode,
    JoinForNode,
    JoinStrategy,
    LessCond,
    LetNode,
    NotCond,
    OrCond,
    PlanNode,
    SomeEqualCond,
    VarNode,
    WhereNode,
)
from repro.xquery.ast import (
    And,
    Condition,
    CoreExpr,
    Empty,
    Equal,
    FnApp,
    For,
    Less,
    Let,
    Not,
    Or,
    SomeEqual,
    Var,
    Where,
    free_variables,
)


def compile_plan(expr: CoreExpr, strategy: JoinStrategy = JoinStrategy.MSJ,
                 base_vars: Iterable[str] = (),
                 decorrelate_loops: bool = True,
                 match_fn=None) -> PlanNode:
    """Compile ``expr`` for the given join strategy.

    ``base_vars`` are the variables bound in the initial environment
    (document variables); they gate which loop sources are eligible for
    base-environment evaluation.  ``decorrelate_loops=False`` disables the
    Section 5 rewrite entirely (every loop becomes the naive environment
    expansion, which duplicates outer bindings per iteration) — the
    ablation knob behind ``benchmarks/bench_ablation_decorrelation.py``.
    ``match_fn`` overrides the decorrelation matcher (same signature as
    :func:`repro.compiler.decorrelate.match_join`); the staged pipeline
    uses it to time the ``decorrelate`` pass without changing behaviour.
    """
    compiler = _Compiler(strategy, frozenset(base_vars), decorrelate_loops,
                         match_fn=match_fn)
    return compiler.compile(expr)


class _Compiler:
    def __init__(self, strategy: JoinStrategy, base_vars: frozenset[str],
                 decorrelate_loops: bool = True, match_fn=None):
        self.strategy = strategy
        self.base_vars = base_vars
        self.decorrelate_loops = decorrelate_loops
        self.match_fn = match_fn if match_fn is not None else decorrelate.match_join

    def compile(self, expr: CoreExpr) -> PlanNode:
        if isinstance(expr, Var):
            return VarNode(expr.name)
        if isinstance(expr, FnApp):
            args = tuple(self.compile(arg) for arg in expr.args)
            return FnNode(expr.fn, args, expr.params)
        if isinstance(expr, Let):
            return LetNode(expr.var, self.compile(expr.value),
                           self.compile(expr.body))
        if isinstance(expr, Where):
            return WhereNode(self.compile_condition(expr.condition),
                             self.compile(expr.body),
                             free_variables(expr.body))
        if isinstance(expr, For):
            return self.compile_for(expr)
        raise PlanError(f"cannot compile {type(expr).__name__}")

    def compile_for(self, loop: For) -> PlanNode:
        # Both strategies decorrelate: the paper's Q8 plans are identical
        # except for the join *operator* (nested-loop vs merge-sort pair
        # matching), so the path-extraction work is shared and only the
        # join differs.  Loops the rewrite cannot handle fall back to the
        # naive environment expansion under either strategy.
        if self.decorrelate_loops:
            match = self.match_fn(loop, self.base_vars)
            if match is not None:
                return self._compile_join(match)
        source = self.compile(loop.source)
        body = self.compile(loop.body)
        required = plan_free(body) - {loop.var}
        return ForNode(loop.var, source, body, frozenset(required))

    def _compile_join(self, match: decorrelate.JoinMatch) -> JoinForNode:
        source = self.compile(match.source)
        key_outer = self.compile(match.key_outer)
        key_inner = self.compile(match.key_inner)
        residual = (self.compile_condition(match.residual)
                    if match.residual is not None else None)
        inner: CoreExpr = match.return_expr
        if match.inner_residual is not None:
            inner = Where(match.inner_residual, inner)
        for var, value in reversed(match.let_spine):
            inner = Let(var, value, inner)
        body = self.compile(inner)
        # The syntactic plan conservatively copies the outer key's
        # variables into pair space as well; the optimization layer
        # prunes them (key_outer is evaluated on the enclosing sequence
        # before any pair is materialized), keeping this path a faithful
        # planning-off baseline.
        required = plan_free(body) | plan_free(key_outer)
        if residual is not None:
            required |= cond_free(residual)
        required -= {match.var}
        return JoinForNode(match.var, source, key_outer, key_inner, body,
                           residual, frozenset(required), match.existential,
                           self.strategy)

    def compile_condition(self, condition: Condition) -> CondPlan:
        if isinstance(condition, Empty):
            return EmptyCond(self.compile(condition.expr))
        if isinstance(condition, Equal):
            return EqualCond(self.compile(condition.left),
                             self.compile(condition.right))
        if isinstance(condition, SomeEqual):
            return SomeEqualCond(self.compile(condition.left),
                                 self.compile(condition.right))
        if isinstance(condition, Less):
            return LessCond(self.compile(condition.left),
                            self.compile(condition.right))
        if isinstance(condition, Not):
            return NotCond(self.compile_condition(condition.condition))
        if isinstance(condition, And):
            return AndCond(self.compile_condition(condition.left),
                           self.compile_condition(condition.right))
        if isinstance(condition, Or):
            return OrCond(self.compile_condition(condition.left),
                          self.compile_condition(condition.right))
        raise PlanError(f"cannot compile condition {type(condition).__name__}")


def plan_free(node: PlanNode) -> frozenset[str]:
    """Environment variables a plan reads from its *enclosing* sequence.

    ``JoinForNode`` sources and inner keys are read from the base
    environment, so their variables do not count — that exclusion is what
    lets the enclosing expansion skip copying the documents.
    """
    if isinstance(node, VarNode):
        return frozenset((node.name,))
    if isinstance(node, FnNode):
        result: frozenset[str] = frozenset()
        for arg in node.args:
            result |= plan_free(arg)
        return result
    if isinstance(node, LetNode):
        return plan_free(node.value) | (plan_free(node.body) - {node.var})
    if isinstance(node, WhereNode):
        return cond_free(node.condition) | plan_free(node.body)
    if isinstance(node, ForNode):
        return plan_free(node.source) | (plan_free(node.body) - {node.var})
    if isinstance(node, JoinForNode):
        result = plan_free(node.key_outer) | (plan_free(node.body) - {node.var})
        if node.residual is not None:
            result |= cond_free(node.residual) - {node.var}
        return result
    raise PlanError(f"unknown plan node {type(node).__name__}")


def cond_free(condition: CondPlan) -> frozenset[str]:
    """Environment variables a condition plan reads."""
    if isinstance(condition, EmptyCond):
        return plan_free(condition.expr)
    if isinstance(condition, (EqualCond, SomeEqualCond, LessCond)):
        return plan_free(condition.left) | plan_free(condition.right)
    if isinstance(condition, NotCond):
        return cond_free(condition.condition)
    if isinstance(condition, (AndCond, OrCond)):
        return cond_free(condition.left) | cond_free(condition.right)
    raise PlanError(f"unknown condition plan {type(condition).__name__}")


def _cardinality_suffix(node: PlanNode,
                        annotations: dict[int, cost.Estimate] | None) -> str:
    """`` — est N tuples`` / `` — est N → obs M tuples`` when annotated."""
    if not annotations:
        return ""
    estimate = annotations.get(id(node))
    if estimate is None:
        return ""
    if estimate.observed and estimate.predicted is not None:
        return (f"  — est {estimate.predicted:.0f} → "
                f"obs {estimate.tuples:.0f} tuples")
    return f"  — est {estimate.tuples:.0f} tuples"


def explain_plan(node: PlanNode, indent: int = 0,
                 annotations: dict[int, cost.Estimate] | None = None) -> str:
    """A readable multi-line rendering of a physical plan.

    ``annotations`` (``id(node) → Estimate``, as produced by
    :func:`optimize_plan`) appends estimated — and, after a traced run,
    observed — cardinalities to each node line.
    """
    pad = "  " * indent
    suffix = _cardinality_suffix(node, annotations)
    if isinstance(node, VarNode):
        return f"{pad}Var(${node.name}){suffix}"
    if isinstance(node, FnNode):
        params = ", ".join(f"{k}={v!r}" for k, v in node.params)
        header = f"{pad}Fn:{node.fn}" + (f"[{params}]" if params else "") + suffix
        if not node.args:
            return header
        children = "\n".join(explain_plan(arg, indent + 1, annotations)
                             for arg in node.args)
        return f"{header}\n{children}"
    if isinstance(node, LetNode):
        return (f"{pad}Let ${node.var}{suffix}\n"
                f"{explain_plan(node.value, indent + 1, annotations)}\n"
                f"{explain_plan(node.body, indent + 1, annotations)}")
    if isinstance(node, WhereNode):
        return (f"{pad}Where{suffix}\n"
                f"{_explain_cond(node.condition, indent + 1, annotations)}\n"
                f"{explain_plan(node.body, indent + 1, annotations)}")
    if isinstance(node, ForNode):
        required = ", ".join(sorted(node.required_outer)) or "-"
        return (f"{pad}For ${node.var} [nested-loop expansion; copies: {required}]"
                f"{suffix}\n"
                f"{explain_plan(node.source, indent + 1, annotations)}\n"
                f"{explain_plan(node.body, indent + 1, annotations)}")
    if isinstance(node, JoinForNode):
        required = ", ".join(sorted(node.required_outer)) or "-"
        operator = ("structural merge join"
                    if node.strategy is JoinStrategy.MSJ
                    else "nested-loop join")
        markers = [operator]
        if node.isolate:
            markers.append("isolated body")
        markers.append(f"copies: {required}")
        lines = [
            f"{pad}JoinFor ${node.var} [{'; '.join(markers)}]{suffix}",
            f"{pad}  source (base env):",
            explain_plan(node.source, indent + 2, annotations),
            f"{pad}  key (outer):",
            explain_plan(node.key_outer, indent + 2, annotations),
            f"{pad}  key (inner):",
            explain_plan(node.key_inner, indent + 2, annotations),
        ]
        if node.inner_filter is not None:
            lines.append(f"{pad}  inner filter (pushed below join):")
            lines.append(_explain_cond(node.inner_filter, indent + 2,
                                       annotations))
        if node.residual is not None:
            lines.append(f"{pad}  residual:")
            lines.append(_explain_cond(node.residual, indent + 2, annotations))
        lines.append(f"{pad}  body:")
        lines.append(explain_plan(node.body, indent + 2, annotations))
        return "\n".join(lines)
    raise PlanError(f"unknown plan node {type(node).__name__}")


def _explain_cond(condition: CondPlan, indent: int,
                  annotations: dict[int, cost.Estimate] | None = None) -> str:
    pad = "  " * indent
    if isinstance(condition, EmptyCond):
        return (f"{pad}Empty\n"
                f"{explain_plan(condition.expr, indent + 1, annotations)}")
    if isinstance(condition, EqualCond):
        return (f"{pad}Equal\n"
                f"{explain_plan(condition.left, indent + 1, annotations)}\n"
                f"{explain_plan(condition.right, indent + 1, annotations)}")
    if isinstance(condition, SomeEqualCond):
        return (f"{pad}SomeEqual\n"
                f"{explain_plan(condition.left, indent + 1, annotations)}\n"
                f"{explain_plan(condition.right, indent + 1, annotations)}")
    if isinstance(condition, LessCond):
        return (f"{pad}Less\n"
                f"{explain_plan(condition.left, indent + 1, annotations)}\n"
                f"{explain_plan(condition.right, indent + 1, annotations)}")
    if isinstance(condition, NotCond):
        return (f"{pad}Not\n"
                f"{_explain_cond(condition.condition, indent + 1, annotations)}")
    if isinstance(condition, AndCond):
        return (f"{pad}And\n"
                f"{_explain_cond(condition.left, indent + 1, annotations)}\n"
                f"{_explain_cond(condition.right, indent + 1, annotations)}")
    if isinstance(condition, OrCond):
        return (f"{pad}Or\n"
                f"{_explain_cond(condition.left, indent + 1, annotations)}\n"
                f"{_explain_cond(condition.right, indent + 1, annotations)}")
    raise PlanError(f"unknown condition plan {type(condition).__name__}")


# -- the cost-based optimization layer ----------------------------------------


@dataclass
class OptimizedPlan:
    """A physical plan plus the cost-model evidence it was built from.

    ``annotations`` maps ``id(plan node)`` to its cardinality estimate;
    ``fingerprints`` maps ``id(plan node)`` to a *stable* fingerprint —
    the node's pre-order position in the unoptimized plan, carried
    through every rewrite — which is what lets observed tuple counts
    from engine spans feed back into the next planning round for the
    same query shape.
    """

    plan: PlanNode
    annotations: dict[int, cost.Estimate] = field(default_factory=dict)
    fingerprints: dict[int, int] = field(default_factory=dict)
    estimates_by_fp: dict[int, float] = field(default_factory=dict)
    observed_based: frozenset[int] = frozenset()
    decisions: tuple[str, ...] = ()
    reorders: int = 0
    isolations: int = 0
    pushdowns: int = 0

    def explain(self) -> str:
        return explain_plan(self.plan, annotations=self.annotations)


#: Isolation pays off once at least this fraction of (filtered) inner
#: environments is expected to appear in some matched pair — below that,
#: evaluating the body once per inner environment does more work than
#: evaluating it per pair.
ISOLATION_MATCH_FRACTION = 0.25

#: Hysteresis for join interchange: the swapped-in join must look at
#: least this much cheaper before the planner reorders.
INTERCHANGE_MARGIN = 0.8


def optimize_plan(plan: PlanNode, model: cost.CostModel | None = None,
                  base_vars: Iterable[str] = ()) -> OptimizedPlan:
    """Cost-order a compiled plan and annotate it with cardinalities.

    Rewrites applied, every one cost-gated and semantics-preserving:

    * **select pushdown** — residual conjuncts over the join variable
      alone sink below the join (``inner_filter``), so non-matching inner
      environments are dropped before any pair is materialized;
    * **join-body isolation** (Grust et al.) — when a join body reads
      only the join variable it runs once on the inner expansion and the
      finished blocks are gathered into the pairs, keeping intermediate
      endpoints in the small inner index space (predicted int64 overflow
      forces this on; otherwise a matched-inner-fraction threshold);
    * **conjunct reordering** — ``where`` and residual conjunctions are
      evaluated cheapest-first (set intersection is order-insensitive);
    * **join interchange** — adjacent independent joins swap so the more
      selective one runs first, only under order-insensitive consumers
      (``count``, whose value cannot depend on block-internal order).
    """
    model = model if model is not None else cost.CostModel()
    return _Optimizer(model, base_vars, plan).run(plan)


@dataclass(frozen=True)
class _Env:
    """Estimation context while walking a plan: the current sequence."""

    envs: float                       #: estimated environment count
    index_bound: int                  #: exclusive bound on env indexes
    scope: dict                       #: var → per-environment Estimate
    unordered: bool = False           #: consumer ignores in-block order


class _Optimizer:
    def __init__(self, model: cost.CostModel, base_vars: Iterable[str],
                 plan: PlanNode):
        self.model = model
        self._fps: dict[int, int] = {}
        for position, node in enumerate(iter_plan(plan)):
            self._fps.setdefault(id(node), position)
        # Nodes synthesized mid-walk must stay alive so their ids stay
        # unique for the duration of the optimization.
        self._keep: list[PlanNode] = [plan]
        self.annotations: dict[int, cost.Estimate] = {}
        self.fingerprints: dict[int, int] = {}
        self.estimates_by_fp: dict[int, float] = {}
        self.observed_based: set[int] = set()
        self.decisions: list[str] = []
        self.reorders = 0
        self.isolations = 0
        self.pushdowns = 0
        base_scope = {name: model.base(name) for name in base_vars}
        self._base_env = _Env(envs=1.0, index_bound=1, scope=base_scope)

    def run(self, plan: PlanNode) -> OptimizedPlan:
        optimized, _est = self._walk(plan, self._base_env)
        return OptimizedPlan(
            plan=optimized,
            annotations=self.annotations,
            fingerprints=self.fingerprints,
            estimates_by_fp=self.estimates_by_fp,
            observed_based=frozenset(self.observed_based),
            decisions=tuple(self.decisions),
            reorders=self.reorders,
            isolations=self.isolations,
            pushdowns=self.pushdowns,
        )

    # -- bookkeeping ------------------------------------------------------------------

    def _note(self, original: PlanNode, rebuilt: PlanNode,
              estimate: cost.Estimate) -> cost.Estimate:
        """Record a node's estimate (observed-corrected) and fingerprint."""
        fingerprint = self._fps.get(id(original))
        if fingerprint is not None:
            estimate = self.model.observe(fingerprint, estimate)
            self.fingerprints[id(rebuilt)] = fingerprint
            self.estimates_by_fp[fingerprint] = estimate.tuples
            if estimate.observed:
                self.observed_based.add(fingerprint)
        self.annotations[id(rebuilt)] = estimate
        return estimate

    # -- the walk ---------------------------------------------------------------------

    def _walk(self, node: PlanNode, env: _Env) -> tuple[PlanNode, cost.Estimate]:
        if isinstance(node, VarNode):
            per_env = env.scope.get(node.name)
            if per_env is None:
                per_env = self.model.base(node.name)
            estimate = self._note(node, node, per_env.scaled(env.envs))
            return node, estimate
        if isinstance(node, FnNode):
            return self._walk_fn(node, env)
        if isinstance(node, LetNode):
            return self._walk_let(node, env)
        if isinstance(node, WhereNode):
            return self._walk_where(node, env)
        if isinstance(node, ForNode):
            return self._walk_for(node, env)
        if isinstance(node, JoinForNode):
            return self._walk_join(node, env)
        raise PlanError(f"unknown plan node {type(node).__name__}")

    def _walk_fn(self, node: FnNode, env: _Env) -> tuple[PlanNode, cost.Estimate]:
        child_env = env
        if node.fn == "count":
            # count() reads per-environment root counts, which cannot
            # depend on the order of trees within a block — everything
            # below may be freely reordered.
            child_env = dataclasses.replace(env, unordered=True)
        new_args: list[PlanNode] = []
        arg_estimates: list[cost.Estimate] = []
        for arg in node.args:
            new_arg, arg_estimate = self._walk(arg, child_env)
            new_args.append(new_arg)
            arg_estimates.append(arg_estimate)
        if all(new is old for new, old in zip(new_args, node.args)):
            rebuilt: PlanNode = node
        else:
            rebuilt = FnNode(node.fn, tuple(new_args), node.params)
        estimate = self.model.apply_fn(node.fn, node.params, arg_estimates,
                                       env.envs)
        estimate = self._note(node, rebuilt, estimate)
        return rebuilt, estimate

    def _walk_let(self, node: LetNode, env: _Env) -> tuple[PlanNode, cost.Estimate]:
        new_value, value_estimate = self._walk(node.value, env)
        scope = dict(env.scope)
        scope[node.var] = value_estimate.scaled(1.0 / max(env.envs, 1.0))
        new_body, body_estimate = self._walk(
            node.body, dataclasses.replace(env, scope=scope))
        if new_value is node.value and new_body is node.body:
            rebuilt: PlanNode = node
        else:
            rebuilt = LetNode(node.var, new_value, new_body)
        estimate = self._note(node, rebuilt, body_estimate)
        return rebuilt, estimate

    def _walk_where(self, node: WhereNode, env: _Env) -> tuple[PlanNode, cost.Estimate]:
        conjuncts = joingraph.split_conjuncts(node.condition)
        ordered, selectivity, changed = self._order_conjuncts(conjuncts, env)
        if changed:
            self.reorders += 1
            self.decisions.append("reordered where-conjuncts cheapest-first")
        condition = joingraph.merge_conjuncts(ordered)
        body_env = dataclasses.replace(env, envs=env.envs * selectivity)
        new_body, body_estimate = self._walk(node.body, body_env)
        rebuilt = WhereNode(condition, new_body, plan_free(new_body))
        estimate = self._note(node, rebuilt, body_estimate)
        return rebuilt, estimate

    def _walk_for(self, node: ForNode, env: _Env) -> tuple[PlanNode, cost.Estimate]:
        new_source, source_estimate = self._walk(node.source, env)
        trees = source_estimate.trees
        per_env = cost.Estimate(
            tuples=source_estimate.tuples / max(trees, 1.0), trees=1.0,
            width=source_estimate.width, stats=source_estimate.stats)
        scope = dict(env.scope)
        scope[node.var] = per_env
        body_env = _Env(envs=trees,
                        index_bound=env.index_bound
                        * max(source_estimate.width, 1),
                        scope=scope, unordered=env.unordered)
        new_body, body_estimate = self._walk(node.body, body_env)
        required = frozenset(plan_free(new_body) - {node.var})
        if (new_source is node.source and new_body is node.body
                and required == node.required_outer):
            rebuilt: PlanNode = node
        else:
            rebuilt = ForNode(node.var, new_source, new_body, required)
        estimate = cost.Estimate(
            tuples=body_estimate.tuples, trees=body_estimate.trees,
            width=source_estimate.width * body_estimate.width)
        estimate = self._note(node, rebuilt, estimate)
        return rebuilt, estimate

    def _walk_join(self, node: JoinForNode, env: _Env) -> tuple[PlanNode, cost.Estimate]:
        swapped = self._maybe_interchange(node, env)
        if swapped is not None:
            self.reorders += 1
            self.decisions.append(
                f"interchanged join ${node.var} below ${swapped.var} "
                f"(more selective join first)")
            node = swapped
        analysis = joingraph.analyze_join(node)

        new_source, source_estimate = self._walk(node.source, self._base_env)
        source_width = max(source_estimate.width, 1)
        inner_trees = source_estimate.trees
        per_env = cost.Estimate(
            tuples=source_estimate.tuples / max(inner_trees, 1.0), trees=1.0,
            width=source_estimate.width, stats=source_estimate.stats)

        key_unordered = node.existential  # SomeEqual keys are per-tree sets
        inner_scope = dict(self._base_env.scope)
        inner_scope[node.var] = per_env
        inner_env = _Env(envs=inner_trees, index_bound=source_width,
                         scope=inner_scope, unordered=key_unordered)
        new_key_inner, _ = self._walk(node.key_inner, inner_env)
        new_key_outer, _ = self._walk(
            node.key_outer, dataclasses.replace(env, unordered=key_unordered))

        # Select pushdown: var-only residual conjuncts filter the inner
        # expansion before matching (non-matching environments never pair).
        inner_conjuncts = (joingraph.split_conjuncts(node.inner_filter)
                           + list(analysis.inner_conjuncts))
        if analysis.inner_conjuncts:
            self.pushdowns += len(analysis.inner_conjuncts)
            self.decisions.append(
                f"pushed {len(analysis.inner_conjuncts)} residual "
                f"conjunct(s) below join ${node.var}")
        ordered_inner, inner_selectivity, inner_changed = \
            self._order_conjuncts(inner_conjuncts, inner_env)
        if inner_changed:
            self.reorders += 1
        filtered_inner = inner_trees * (inner_selectivity
                                        if inner_conjuncts else 1.0)

        pairs = self.model.join_pairs(env.envs, filtered_inner,
                                      node.existential)
        pair_bound = env.index_bound * source_width
        pair_scope = dict(env.scope)
        pair_scope[node.var] = per_env
        pair_env = _Env(envs=pairs, index_bound=pair_bound, scope=pair_scope,
                        unordered=env.unordered)
        ordered_residual, residual_selectivity, residual_changed = \
            self._order_conjuncts(list(analysis.residual_conjuncts), pair_env)
        if residual_changed:
            self.reorders += 1
            self.decisions.append(
                f"reordered residual conjuncts of join ${node.var}")
        final_pairs = pairs * (residual_selectivity
                               if analysis.residual_conjuncts else 1.0)

        # Isolation decision: forced when the pair index space would push
        # interval endpoints past int64 (the engine would have to renumber
        # the pairs and renormalise the bindings it copies into them),
        # chosen when enough of the inner side is expected to match anyway.
        body_width = self._probe_width(
            node.body, {name: est.width for name, est in pair_scope.items()})
        overflow = cost.predict_overflow(pair_bound,
                                         source_width * max(body_width, 1))
        matched_fraction = (pairs / filtered_inner) if filtered_inner else 0.0
        isolate = analysis.isolable and (
            overflow or matched_fraction >= ISOLATION_MATCH_FRACTION)
        if isolate:
            self.isolations += 1
            reason = ("predicted int64 overflow" if overflow
                      else f"matched-inner fraction ~{matched_fraction:.2f}")
            self.decisions.append(
                f"isolated body of join ${node.var} ({reason})")

        if isolate:
            body_scope = dict(env.scope)
            body_scope[node.var] = per_env
            body_env = _Env(envs=filtered_inner, index_bound=source_width,
                            scope=body_scope, unordered=env.unordered)
        else:
            body_env = dataclasses.replace(pair_env, envs=final_pairs)
        new_body, body_estimate = self._walk(node.body, body_env)

        required = set(plan_free(new_body))
        for conjunct in ordered_residual:
            required |= cond_free(conjunct)
        required.discard(node.var)

        rebuilt = JoinForNode(
            node.var, new_source, new_key_outer, new_key_inner, new_body,
            joingraph.merge_conjuncts(ordered_residual), frozenset(required),
            node.existential, node.strategy,
            joingraph.merge_conjuncts(ordered_inner), isolate)
        self._keep.append(rebuilt)

        if isolate:
            scale = final_pairs / max(filtered_inner, 1.0)
            result_tuples = body_estimate.tuples * scale
            result_trees = body_estimate.trees * scale
        else:
            result_tuples = body_estimate.tuples
            result_trees = body_estimate.trees
        estimate = cost.Estimate(
            tuples=result_tuples, trees=result_trees,
            width=source_estimate.width * body_estimate.width)
        estimate = self._note(node, rebuilt, estimate)
        return rebuilt, estimate

    # -- conjunct ordering ------------------------------------------------------------

    def _order_conjuncts(self, conjuncts: list[CondPlan], env: _Env,
                         ) -> tuple[list[CondPlan], float, bool]:
        """Walk, rank, and sort conjuncts cheapest-first.

        Returns the reordered conjuncts, their combined selectivity, and
        whether the order changed.  Conjunction evaluation intersects
        environment-index sets, so order never affects the result — only
        how soon the evaluator can short-circuit.
        """
        if not conjuncts:
            return [], 1.0, False
        walked = [self._walk_cond(conjunct, env) for conjunct in conjuncts]
        ranked = sorted(range(len(walked)), key=lambda i: walked[i][1])
        changed = ranked != list(range(len(walked)))
        selectivity = 1.0
        for _cond, _rank, conjunct_selectivity in walked:
            selectivity *= conjunct_selectivity
        return [walked[i][0] for i in ranked], selectivity, changed

    def _walk_cond(self, condition: CondPlan, env: _Env,
                   ) -> tuple[CondPlan, float, float]:
        """Walk one condition; returns (rebuilt, rank, selectivity)."""
        if isinstance(condition, EmptyCond):
            # Emptiness only reads block occupancy — order-insensitive.
            new_expr, estimate = self._walk(
                condition.expr, dataclasses.replace(env, unordered=True))
            rebuilt = (condition if new_expr is condition.expr
                       else EmptyCond(new_expr))
            return (rebuilt, self.model.condition_rank("Empty", estimate.tuples),
                    self.model.condition_selectivity("Empty"))
        if isinstance(condition, (EqualCond, SomeEqualCond, LessCond)):
            kind = type(condition).__name__.removesuffix("Cond")
            # SomeEqual compares per-tree key *sets*; Equal/Less compare
            # canonical forest keys, which depend on tree order.
            operand_env = dataclasses.replace(env,
                                              unordered=kind == "SomeEqual")
            new_left, left_estimate = self._walk(condition.left, operand_env)
            new_right, right_estimate = self._walk(condition.right, operand_env)
            if new_left is condition.left and new_right is condition.right:
                rebuilt = condition
            else:
                rebuilt = type(condition)(new_left, new_right)
            rank = self.model.condition_rank(
                kind, left_estimate.tuples + right_estimate.tuples)
            return rebuilt, rank, self.model.condition_selectivity(kind)
        if isinstance(condition, NotCond):
            inner, rank, selectivity = self._walk_cond(condition.condition, env)
            rebuilt = (condition if inner is condition.condition
                       else NotCond(inner))
            return rebuilt, rank, max(1.0 - selectivity, 0.05)
        if isinstance(condition, AndCond):
            left, left_rank, left_sel = self._walk_cond(condition.left, env)
            right, right_rank, right_sel = self._walk_cond(condition.right, env)
            if left is condition.left and right is condition.right:
                rebuilt = condition
            else:
                rebuilt = AndCond(left, right)
            return rebuilt, left_rank + right_rank, left_sel * right_sel
        if isinstance(condition, OrCond):
            left, left_rank, left_sel = self._walk_cond(condition.left, env)
            right, right_rank, right_sel = self._walk_cond(condition.right, env)
            if left is condition.left and right is condition.right:
                rebuilt = condition
            else:
                rebuilt = OrCond(left, right)
            selectivity = 1.0 - (1.0 - left_sel) * (1.0 - right_sel)
            return rebuilt, left_rank + right_rank, selectivity
        raise PlanError(f"unknown condition plan {type(condition).__name__}")

    # -- join interchange -------------------------------------------------------------

    def _maybe_interchange(self, node: JoinForNode,
                           env: _Env) -> JoinForNode | None:
        """Swap two adjacently nested independent joins, selective first.

        Loop interchange permutes the order of iteration pairs inside the
        enclosing block, so it is only offered when the consumer is
        provably order-insensitive (``env.unordered``), and only when the
        inner join's graph half is independent of the outer variable.
        """
        if not env.unordered:
            return None
        inner = node.body
        if not isinstance(inner, JoinForNode):
            return None
        references = plan_free(inner.key_outer)
        if inner.residual is not None:
            references |= cond_free(inner.residual)
        if inner.inner_filter is not None:
            references |= cond_free(inner.inner_filter)
        if node.var in references:
            return None
        outer_trees = cost.weigh(node.source, self.model).trees
        inner_trees = cost.weigh(inner.source, self.model).trees
        outer_pairs = self.model.join_pairs(env.envs, outer_trees,
                                            node.existential)
        inner_pairs = self.model.join_pairs(env.envs, inner_trees,
                                            inner.existential)
        if inner_pairs >= outer_pairs * INTERCHANGE_MARGIN:
            return None
        new_inner = JoinForNode(
            node.var, node.source, node.key_outer, node.key_inner, inner.body,
            node.residual, node.required_outer, node.existential,
            node.strategy, node.inner_filter, node.isolate)
        new_outer = JoinForNode(
            inner.var, inner.source, inner.key_outer, inner.key_inner,
            new_inner, inner.residual, inner.required_outer, inner.existential,
            inner.strategy, inner.inner_filter, inner.isolate)
        self._keep.extend((new_inner, new_outer))
        fp_inner = self._fps.get(id(inner))
        fp_outer = self._fps.get(id(node))
        if fp_inner is not None:
            self._fps[id(new_outer)] = fp_inner
        if fp_outer is not None:
            self._fps[id(new_inner)] = fp_outer
        return new_outer

    # -- static width probing ---------------------------------------------------------

    def _probe_width(self, node: PlanNode, widths: dict[str, int]) -> int:
        """The exact static output width of ``node`` (engine arithmetic)."""
        if isinstance(node, VarNode):
            if node.name in widths:
                return widths[node.name]
            return self.model.base(node.name).width
        if isinstance(node, FnNode):
            fn = node.fn
            if fn == "empty_forest":
                return 0
            if fn in ("text_const", "count", "string_fn"):
                return 2
            if fn == "concat":
                return (self._probe_width(node.args[0], widths)
                        + self._probe_width(node.args[1], widths))
            width = self._probe_width(node.args[0], widths)
            if fn == "xnode":
                return width + 2
            if fn in ("subtrees_dfs", "sort"):
                return width * width
            return width
        if isinstance(node, LetNode):
            extended = dict(widths)
            extended[node.var] = self._probe_width(node.value, widths)
            return self._probe_width(node.body, extended)
        if isinstance(node, WhereNode):
            return self._probe_width(node.body, widths)
        if isinstance(node, (ForNode, JoinForNode)):
            source_width = self._probe_width(node.source, widths)
            extended = dict(widths)
            extended[node.var] = source_width
            return source_width * self._probe_width(node.body, extended)
        raise PlanError(f"unknown plan node {type(node).__name__}")
