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

:func:`optimize_plan` then applies the one plan rewrite, join-body
isolation, as a rule on the plan's shape: the physical plan is a
function of the query text and the join strategy alone.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Iterable, Mapping

from repro.errors import PlanError
from repro.compiler import decorrelate
from repro.compiler import joingraph  # module-style: joingraph imports us back
from repro.compiler.plan import (
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

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.trace import Span


@dataclasses.dataclass
class NodeObservation:
    """What one plan node did in a run (EXPLAIN ANALYZE): its last
    output's tuples, width and environments, and its summed inclusive
    seconds over ``calls`` evaluations."""

    tuples: int = 0
    width: int = 0
    envs: int = 0
    seconds: float = 0.0
    calls: int = 0


#: ``id(plan node) → what it did in a run``.
Annotations = Mapping[int, NodeObservation]


def node_observations(roots: Iterable[Span]) -> dict[int, NodeObservation]:
    """The annotations of one traced engine run, read off its ``op.*``
    spans (:func:`repro.engine.stats.op_spans`)."""
    from repro.engine.stats import op_spans  # the engine imports us

    observed: dict[int, NodeObservation] = {}
    for span in op_spans(roots):
        attributes = span.attributes
        seen = observed.setdefault(attributes["node"], NodeObservation())
        seen.seconds += span.seconds
        seen.calls += 1
        seen.tuples = attributes["tuples"]
        seen.width = attributes["width"]
        seen.envs = attributes["envs"]
    return observed


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
    ablation knob ``tests/test_planner.py::TestDecorrelationAblation``
    turns.
    ``match_fn`` overrides the decorrelation matcher (same signature as
    :func:`repro.compiler.decorrelate.match_join`); the pipeline uses it
    to time the ``decorrelate`` pass without changing behaviour.
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
        # variables into pair space as well; optimize_plan prunes them
        # (key_outer is evaluated on the enclosing sequence before any
        # pair is materialized), keeping this path a faithful
        # rule-off baseline.
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


def optimize_plan(plan: PlanNode) -> PlanNode:
    """Join-body isolation as a rule (Grust, Mayr and Rittinger).

    Every join whose body reads nothing but its join variable is
    isolated: the body runs once per inner environment and the finished
    blocks are gathered into the matched pairs, keeping intermediate
    endpoints in the small inner index space.  Along the way every
    ``required_outer`` / ``body_free`` is rebuilt from the rewritten
    children, and a join stops copying its outer key's variables into
    pair space (the key is evaluated before any pair exists).
    """
    if isinstance(plan, VarNode):
        return plan
    if isinstance(plan, FnNode):
        return FnNode(plan.fn, tuple(optimize_plan(arg) for arg in plan.args),
                      plan.params)
    if isinstance(plan, LetNode):
        return LetNode(plan.var, optimize_plan(plan.value),
                       optimize_plan(plan.body))
    if isinstance(plan, WhereNode):
        body = optimize_plan(plan.body)
        return WhereNode(_optimize_cond(plan.condition), body, plan_free(body))
    if isinstance(plan, ForNode):
        body = optimize_plan(plan.body)
        return ForNode(plan.var, optimize_plan(plan.source), body,
                       plan_free(body) - {plan.var})
    if isinstance(plan, JoinForNode):
        residual = (_optimize_cond(plan.residual)
                    if plan.residual is not None else None)
        rebuilt = dataclasses.replace(
            plan, source=optimize_plan(plan.source),
            key_outer=optimize_plan(plan.key_outer),
            key_inner=optimize_plan(plan.key_inner),
            body=optimize_plan(plan.body), residual=residual)
        analysis = joingraph.analyze_join(rebuilt)
        return dataclasses.replace(rebuilt,
                                   required_outer=analysis.required_outer,
                                   isolate=analysis.isolable)
    raise PlanError(f"unknown plan node {type(plan).__name__}")


def _optimize_cond(condition: CondPlan) -> CondPlan:
    if isinstance(condition, EmptyCond):
        return EmptyCond(optimize_plan(condition.expr))
    if isinstance(condition, (EqualCond, SomeEqualCond, LessCond)):
        return type(condition)(optimize_plan(condition.left),
                               optimize_plan(condition.right))
    if isinstance(condition, NotCond):
        return NotCond(_optimize_cond(condition.condition))
    if isinstance(condition, (AndCond, OrCond)):
        return type(condition)(_optimize_cond(condition.left),
                               _optimize_cond(condition.right))
    raise PlanError(f"unknown condition plan {type(condition).__name__}")


def explain_plan(node: PlanNode, indent: int = 0,
                 annotations: Annotations | None = None) -> str:
    """A readable multi-line rendering of a physical plan.

    ``annotations`` (EXPLAIN ANALYZE) appends to each evaluated node's
    line ``— obs N tuples, w=W, E envs, X.X ms``: its output tuples,
    width and environments, and inclusive time, with ``k×`` when the
    node ran more than once.
    """
    pad = "  " * indent
    suffix = _observed(annotations, node)
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
        if node.residual is not None:
            lines.append(f"{pad}  residual:")
            lines.append(_explain_cond(node.residual, indent + 2, annotations))
        lines.append(f"{pad}  body:")
        lines.append(explain_plan(node.body, indent + 2, annotations))
        return "\n".join(lines)
    raise PlanError(f"unknown plan node {type(node).__name__}")


def _observed(annotations: Annotations | None, node: PlanNode) -> str:
    seen = annotations.get(id(node)) if annotations else None
    if seen is None:
        return ""
    calls = f", {seen.calls}×" if seen.calls > 1 else ""
    return (f"  — obs {seen.tuples} tuples, w={seen.width}, "
            f"{seen.envs} envs, {seen.seconds * 1e3:.1f} ms{calls}")


def _explain_cond(condition: CondPlan, indent: int,
                  annotations: Annotations | None = None) -> str:
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
