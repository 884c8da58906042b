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

:func:`optimize_plan` then applies four rules on the plan's shape, in
one walk — join-body isolation, counting an isolated join read only
through ``count`` / ``empty``, ranking an ``order by``'s iterations
instead of sorting packed tuples, and lifting a base-environment
``for`` body's path chains over its own variable out to the source:
the physical plan is a function of the query text and the join
strategy alone.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Iterable, Mapping

from repro.errors import PlanError
from repro.compiler import decorrelate
from repro.compiler import joingraph  # module-style: joingraph imports us back
from repro.compiler.plan import (
    PATH_FNS,
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
    Lifted,
    NotCond,
    Ordering,
    OrCond,
    PlanNode,
    SomeEqualCond,
    VarNode,
    WhereNode,
    chain_var,
    clause_chain,
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
        return plan_free(node.source) | _body_free(
            node.var, node.body, node.lifted, node.order)
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


def _body_free(var: str, body: PlanNode, lifted: tuple[Lifted, ...],
               order: Ordering | None) -> frozenset[str]:
    """The outer variables a ``for``'s body — and its ordering — read:
    what the iterations copy in."""
    free = plan_free(body)
    if order is not None:
        free |= plan_free(order.key) - set(order.ties)
    return free - {var, *(chain.name for chain in lifted)}


def optimize_plan(plan: PlanNode) -> PlanNode:
    """The plan rules, in one walk.

    * **Join-body isolation** (Grust, Mayr and Rittinger).  Every join
      whose body reads nothing but its join variable is isolated: the
      body runs once per inner environment and the finished blocks are
      gathered into the matched pairs, keeping intermediate endpoints in
      the small inner index space.
    * **Join + group** (Section 6.2).  An isolated join read as
      ``count(J)`` or ``empty(J)``, or bound by a ``let`` whose every
      read is ``count($a)`` or ``empty($a)``, is *counted*: it yields
      its ``count`` per outer environment and builds no pair.  The reads
      become ``$a`` and ``$a = "0"``; ``count(J)`` becomes the join and
      ``empty(J)`` the join ``= "0"``.
    * **Lifting.**  A ``for`` evaluated at the base environment whose
      source is a path chain over a document variable gets each distinct
      maximal chain of its body over its own variable (with at most one
      ``//``) as a :class:`~repro.compiler.plan.Lifted` binding, and the
      body reads a fresh variable ``$var#k`` instead.  Under Definition
      3.3 the expansion shifts source tree ``k`` by whole blocks and a
      path chain keeps or drops whole rows per tree, so the chain over
      the expanded variable is the chain over the source — a
      document-rooted chain — moved into the iteration blocks
      (``kernels.reblock``).  Chains inside inner ``for`` and join
      bodies are lifted too (they are loop-invariant there), never below
      a ``let``, ``for`` or join that rebinds the variable.
    * **Ordering.**  A lowered ``order by`` — ``for $#o in sort(S)``,
      or ``reverse(sort(S))``, whose body unpacks each clause variable
      from the ``<#tuple>`` trees ``S`` packs — becomes the ``for`` of
      ``S`` itself with an :class:`~repro.compiler.plan.Ordering`: its
      clause chain ends in the return expression instead of the tuple,
      and the iterations are ranked by the key, then by each clause
      variable's value, as the packed trees compare.  ``S`` must be a
      ``for`` of one clause, its ``let``s and at most one ``where``; a
      stream decorrelated into a join keeps the sort.

    Along the way every ``required_outer`` / ``body_free`` is rebuilt
    from the rewritten children, and a join stops copying its outer
    key's variables into pair space (the key is evaluated before any
    pair exists).
    """
    return _optimize(plan, None, frozenset())


class _Lift:
    """The chains of one ``for`` body being lifted: ``var`` is the
    ``for``'s variable, ``chains`` maps each distinct chain to its fresh
    variable, and ``reads_var`` records a read of ``var`` itself."""

    __slots__ = ("var", "chains", "reads_var")

    def __init__(self, var: str):
        self.var = var
        self.chains: dict[PlanNode, str] = {}
        self.reads_var = False

    def name(self, chain: PlanNode) -> str:
        return self.chains.setdefault(chain,
                                      f"{self.var}#{len(self.chains) + 1}")


def _optimize(plan: PlanNode, lift: _Lift | None,
              base: frozenset[str] | None) -> PlanNode:
    """``plan`` rewritten.  ``lift`` — the ``for`` body being lifted
    from, if ``plan`` is inside one; ``base`` — when ``plan`` is
    evaluated at the base environment, the variables enclosing ``let``s
    bind (so not documents), else ``None``."""
    if isinstance(plan, VarNode):
        if lift is not None and plan.name == lift.var:
            lift.reads_var = True
        return plan
    if isinstance(plan, FnNode):
        if lift is not None and _liftable(plan, lift.var):
            return VarNode(lift.name(plan))
        args = tuple(_optimize(arg, lift, base) for arg in plan.args)
        if plan.fn == "count" and _countable(args[0]):
            return dataclasses.replace(args[0], counts=True)
        return FnNode(plan.fn, args, plan.params)
    if isinstance(plan, LetNode):
        value = _optimize(plan.value, lift, base)
        body = _optimize(plan.body, _unless(lift, plan.var),
                         None if base is None else base | {plan.var})
        if _countable(value):
            try:
                body, value = (_counted(body, plan.var),
                               dataclasses.replace(value, counts=True))
            except _ReadAsForest:
                pass
        return LetNode(plan.var, value, body)
    if isinstance(plan, WhereNode):
        body = _optimize(plan.body, lift, None)
        return WhereNode(_optimize_cond(plan.condition, lift, base), body,
                         plan_free(body))
    if isinstance(plan, ForNode):
        plan = _ordered(plan) or plan
        source = _optimize(plan.source, lift, base)
        var = chain_var(source)
        if base is not None and var is not None and var not in base:
            return _lift_for(plan, source)
        body, order = _for_body(plan, _unless(lift, plan.var))
        return _for_node(plan.var, source, body, order)
    if isinstance(plan, JoinForNode):
        inner = _unless(lift, plan.var)
        residual = (_optimize_cond(plan.residual, inner, None)
                    if plan.residual is not None else None)
        rebuilt = dataclasses.replace(
            plan, source=_optimize(plan.source, None, None),
            key_outer=_optimize(plan.key_outer, lift, base),
            key_inner=_optimize(plan.key_inner, None, None),
            body=_optimize(plan.body, inner, None), residual=residual)
        analysis = joingraph.analyze_join(rebuilt)
        return dataclasses.replace(rebuilt,
                                   required_outer=analysis.required_outer,
                                   isolate=analysis.isolable)
    raise PlanError(f"unknown plan node {type(plan).__name__}")


def _unless(lift: _Lift | None, var: str) -> _Lift | None:
    """``lift``, unless ``var`` rebinds its variable."""
    return None if lift is None or lift.var == var else lift


def _liftable(node: FnNode, var: str) -> bool:
    """Whether ``node`` is a path chain over ``var`` with at most one
    ``//`` (``subtrees_dfs``)."""
    descendants = 0
    while isinstance(node, FnNode) and node.fn in PATH_FNS \
            and len(node.args) == 1:
        descendants += node.fn == "subtrees_dfs"
        node = node.args[0]
    return isinstance(node, VarNode) and node.name == var \
        and descendants <= 1


def _lift_for(plan: ForNode, source: PlanNode) -> ForNode:
    """A base-environment ``for`` over a document chain (``source``),
    its body's chains over its variable lifted.  An ordered one reads
    its variable to break ties."""
    lift = _Lift(plan.var)
    body, order = _for_body(plan, lift)
    lifted = tuple(Lifted(name, chain, _rebase(chain, source))
                   for chain, name in lift.chains.items())
    return _for_node(plan.var, source, body, order, lifted,
                     lift.reads_var or not lifted or order is not None)


def _for_body(plan: ForNode, lift: _Lift | None
              ) -> tuple[PlanNode, Ordering | None]:
    """``plan``'s body and ordering rewritten, with ``lift``."""
    if plan.order is None:
        return _optimize(plan.body, lift, None), None
    return _optimize_ordered(plan.body, plan.order, lift)


def _for_node(var: str, source: PlanNode, body: PlanNode,
              order: Ordering | None, lifted: tuple[Lifted, ...] = (),
              reads_var: bool = True) -> ForNode:
    """A rewritten ``for``, its ``required_outer`` read off its parts."""
    return ForNode(var, source, body, _body_free(var, body, lifted, order),
                   lifted, reads_var, order)


def _optimize_ordered(body: PlanNode, order: Ordering, lift: _Lift | None
                      ) -> tuple[PlanNode, Ordering]:
    """An ordered ``for``'s clause chain and ordering rewritten.  The
    ranking reads every tie as a forest, so no clause ``let`` is
    counted; the key is read inside every clause variable's scope, and
    the ``where`` passes on what the ordering reads."""
    lets, where, tail = clause_chain(body)
    values = []
    for let in lets:
        values.append(_optimize(let.value, lift, None))
        lift = _unless(lift, let.var)
    body = _optimize(tail, lift, None)
    order = dataclasses.replace(order, key=_optimize(order.key, lift, None))
    if where is not None:
        body = WhereNode(_optimize_cond(where.condition, lift, None), body,
                         plan_free(body) | plan_free(order.key)
                         | set(order.ties))
    for let, value in zip(reversed(lets), reversed(values)):
        body = LetNode(let.var, value, body)
    return body, order


def _ordered(plan: ForNode) -> ForNode | None:
    """The order rule: ``plan`` as an ordered ``for``, when it is the
    lowering of an ``order by`` (``xquery.lowering._lower_ordered_flwr``)
    over a ``for`` stream of one clause, its ``let``s and at most one
    ``where``; else ``None``."""
    source, descending = plan.source, False
    if _is_fn(source, "reverse"):
        source, descending = source.args[0], True
    if not _is_fn(source, "sort"):
        return None
    stream = source.args[0]
    if not isinstance(stream, ForNode) or stream.order is not None:
        return None
    lets, where, packed = clause_chain(stream.body)
    ties = (stream.var, *(let.var for let in lets))
    key = _packed_key(packed, ties)
    if key is None or len(set(ties)) < len(ties):
        return None
    tail = plan.body
    for name in ties:
        if not isinstance(tail, LetNode) or tail.var != name \
                or tail.value != _unpacked(plan.var, name):
            return None
        tail = tail.body
    # A return that starts with a ``let`` or ``where`` would read as a
    # clause of the stream's (``clause_chain``).
    if isinstance(tail, (LetNode, WhereNode)) or plan.var in plan_free(tail):
        return None
    if where is not None:
        tail = dataclasses.replace(where, body=tail)
    for let in reversed(lets):
        tail = dataclasses.replace(let, body=tail)
    return ForNode(stream.var, stream.source, tail,
                   order=Ordering(key, ties, descending))


def _is_fn(node: PlanNode, fn: str, arity: int = 1) -> bool:
    return isinstance(node, FnNode) and node.fn == fn \
        and len(node.args) == arity


def _packed_key(packed: PlanNode, ties: tuple[str, ...]) -> PlanNode | None:
    """The key of a ``<#tuple>`` packing the ``ties``' values after it,
    or ``None`` when ``packed`` is no such tuple."""
    if not _is_fn(packed, "xnode") \
            or packed.params != (("label", "<#tuple>"),):
        return None
    packed = packed.args[0]
    for name in reversed(ties):
        if not _is_fn(packed, "concat", 2) or packed.args[1] != FnNode(
                "xnode", (VarNode(name),), (("label", f"<#v_{name}>"),)):
            return None
        packed = packed.args[0]
    if not _is_fn(packed, "xnode") or packed.params != (("label", "<#key>"),):
        return None
    return packed.args[0]


def _unpacked(carrier: str, name: str) -> FnNode:
    """How the lowering reads ``name``'s value back out of a tuple."""
    return FnNode("children", (FnNode(
        "select", (FnNode("children", (VarNode(carrier),)),),
        (("label", f"<#v_{name}>"),)),))


def _rebase(chain: PlanNode, source: PlanNode) -> PlanNode:
    """``chain`` with the variable it reads replaced by ``source``."""
    if isinstance(chain, VarNode):
        return source
    return FnNode(chain.fn, (_rebase(chain.args[0], source),), chain.params)


def _countable(node: PlanNode) -> bool:
    """Whether ``node`` is an isolated join not yet counted."""
    return isinstance(node, JoinForNode) and node.isolate \
        and not node.counts


def _is_zero(count: PlanNode) -> EqualCond:
    """``empty`` read off a count: ``count = "0"``."""
    return EqualCond(count, FnNode("text_const", (), (("value", "0"),)))


class _ReadAsForest(Exception):
    """A counted variable is read other than through ``count`` /
    ``empty``, or rebound."""


def _counted(plan: PlanNode, var: str) -> PlanNode:
    """``plan`` with every ``count($var)`` read as ``$var`` and every
    ``empty($var)`` as ``$var = "0"``; raises :class:`_ReadAsForest`
    when it reads ``$var`` any other way, or rebinds it."""
    if isinstance(plan, VarNode):
        if plan.name == var:
            raise _ReadAsForest(var)
        return plan
    if isinstance(plan, (LetNode, ForNode, JoinForNode)) and plan.var == var:
        raise _ReadAsForest(var)
    if isinstance(plan, FnNode):
        if plan.fn == "count" and plan.args == (VarNode(var),):
            return plan.args[0]
        return FnNode(plan.fn, tuple(_counted(arg, var) for arg in plan.args),
                      plan.params)
    if isinstance(plan, LetNode):
        return LetNode(plan.var, _counted(plan.value, var),
                       _counted(plan.body, var))
    if isinstance(plan, WhereNode):
        return dataclasses.replace(
            plan, condition=_counted_cond(plan.condition, var),
            body=_counted(plan.body, var))
    if isinstance(plan, ForNode):
        order = plan.order and dataclasses.replace(
            plan.order, key=_counted(plan.order.key, var))
        return dataclasses.replace(plan, source=_counted(plan.source, var),
                                   body=_counted(plan.body, var), order=order)
    if isinstance(plan, JoinForNode):
        # The source and inner key read the base environment alone.
        return dataclasses.replace(
            plan, key_outer=_counted(plan.key_outer, var),
            body=_counted(plan.body, var),
            residual=(_counted_cond(plan.residual, var)
                      if plan.residual is not None else None))
    raise PlanError(f"unknown plan node {type(plan).__name__}")


def _counted_cond(condition: CondPlan, var: str) -> CondPlan:
    """:func:`_counted` for a condition."""
    if isinstance(condition, EmptyCond):
        if condition.expr == VarNode(var):
            return _is_zero(condition.expr)
        return EmptyCond(_counted(condition.expr, var))
    if isinstance(condition, (EqualCond, SomeEqualCond, LessCond)):
        return type(condition)(_counted(condition.left, var),
                               _counted(condition.right, var))
    if isinstance(condition, NotCond):
        return NotCond(_counted_cond(condition.condition, var))
    if isinstance(condition, (AndCond, OrCond)):
        return type(condition)(_counted_cond(condition.left, var),
                               _counted_cond(condition.right, var))
    raise PlanError(f"unknown condition plan {type(condition).__name__}")


def _optimize_cond(condition: CondPlan, lift: _Lift | None,
                   base: frozenset[str] | None) -> CondPlan:
    if isinstance(condition, EmptyCond):
        expr = _optimize(condition.expr, lift, base)
        if _countable(expr):
            return _is_zero(dataclasses.replace(expr, counts=True))
        return EmptyCond(expr)
    if isinstance(condition, (EqualCond, SomeEqualCond, LessCond)):
        return type(condition)(_optimize(condition.left, lift, base),
                               _optimize(condition.right, lift, base))
    if isinstance(condition, NotCond):
        return NotCond(_optimize_cond(condition.condition, lift, base))
    if isinstance(condition, (AndCond, OrCond)):
        return type(condition)(_optimize_cond(condition.left, lift, base),
                               _optimize_cond(condition.right, lift, base))
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
        markers = ["nested-loop expansion"]
        if node.order is not None:
            markers.append(_order_marker(node.order, annotations))
        if node.lifted:
            markers.append(f"{len(node.lifted)} lifted" + (
                "" if node.reads_var else f", ${node.var} not expanded"))
        markers.append(f"copies: {required}")
        lines = [f"{pad}For ${node.var} [{'; '.join(markers)}]{suffix}",
                 explain_plan(node.source, indent + 1, annotations)]
        for lifted in node.lifted:
            lines.append(f"{pad}  lifted ${lifted.name} (over the source, "
                         "re-blocked):")
            lines.append(explain_plan(lifted.chain, indent + 2, annotations))
        if node.order is not None:
            ties = ", ".join(f"${name}" for name in node.order.ties)
            direction = "descending" if node.order.descending else "ascending"
            lines.append(f"{pad}  order by ({direction}; ties {ties}, "
                         "then iteration order):")
            lines.append(explain_plan(node.order.key, indent + 2,
                                      annotations))
        lines.append(explain_plan(node.body, indent + 1, annotations))
        return "\n".join(lines)
    if isinstance(node, JoinForNode):
        required = ", ".join(sorted(node.required_outer)) or "-"
        operator = ("structural merge join"
                    if node.strategy is JoinStrategy.MSJ
                    else "nested-loop join")
        markers = [operator]
        if node.isolate:
            markers.append("isolated body")
        if node.counts:
            markers.append("counted: no pairs built")
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


def _order_marker(order: Ordering, annotations: Annotations | None) -> str:
    """An ordered ``for``'s marker; under EXPLAIN ANALYZE it counts the
    iterations ranked — the environments its key was read in."""
    seen = annotations.get(id(order.key)) if annotations else None
    ranked = f"{seen.envs} iterations" if seen is not None else "iterations"
    return f"ordered: {ranked} ranked, no tuple built"


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
