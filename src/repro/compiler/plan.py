"""Physical plan nodes executed by the DI engine.

The plan mirrors the core AST one-to-one except for iteration:

* :class:`ForNode` is the naive dynamic-interval expansion — every
  environment of the current sequence is split per tree of the source, and
  every outer variable the body needs is **copied per new environment**.
  When the source depends on the sequence being expanded this is the
  nested-loop strategy (DI-NLJ), with its quadratic data blow-up.

  A ``for`` at the base environment over a document path may carry
  :class:`Lifted` chains: its body's paths over its own variable,
  evaluated once over the source and moved into the iteration blocks.
  A ``for`` with an :class:`Ordering` is an ``order by`` FLWR: its
  iterations are ranked and its body's blocks emitted in rank order.

* :class:`JoinForNode` is the Section 5 decorrelated form: the source is
  evaluated once against the *base* environment, join keys are computed on
  both sides, environments are matched by a structural merge join, and only
  the matching pairs are materialized (DI-MSJ).  A join read only through
  ``count`` / ``empty`` is *counted*: it groups its pairs per outer
  environment and materializes none (Section 6.2's "join + group").

Plan nodes precompute ``required_outer`` — the outer variables the body
actually references — so expansion copies no more data than necessary.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator


#: The path XFns: each keeps or drops whole rows per tree and keeps
#: their coordinates (``subtrees_dfs`` widens the block).  A unary run of
#: them down to a variable is a *path chain* — what the document memo
#: keeps and what ``optimize_plan`` lifts out of a ``for`` body.
PATH_FNS = frozenset({"children", "select", "textnodes", "elementnodes",
                      "subtrees_dfs", "data", "roots"})


class JoinStrategy(enum.Enum):
    """Join execution strategy for nested FLWR loops."""

    NLJ = "nlj"  #: nested-loop: naive environment expansion
    MSJ = "msj"  #: merge-sort join on structural keys (Section 5)


class PlanNode:
    """Base class of physical plan nodes."""

    __slots__ = ()


class CondPlan:
    """Base class of condition plan nodes."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class VarNode(PlanNode):
    name: str


@dataclass(frozen=True, slots=True)
class FnNode(PlanNode):
    fn: str
    args: tuple[PlanNode, ...] = ()
    params: tuple[tuple[str, str], ...] = ()

    def param(self, key: str) -> str:
        for name, value in self.params:
            if name == key:
                return value
        raise KeyError(key)


@dataclass(frozen=True, slots=True)
class LetNode(PlanNode):
    var: str
    value: PlanNode
    body: PlanNode


@dataclass(frozen=True, slots=True)
class WhereNode(PlanNode):
    condition: CondPlan
    body: PlanNode
    #: Free variables of the body — only these survive the index filter.
    body_free: frozenset[str] = frozenset()


@dataclass(frozen=True, slots=True)
class Lifted:
    """A path chain of a ``for`` body over the ``for``'s own variable,
    bound once per iteration to the variable ``name`` the body reads
    instead.  ``chain`` reads the ``for``'s variable; ``rooted`` is the
    same chain over the ``for``'s source — a document-rooted chain, the
    key its value is memoized under."""

    name: str
    chain: PlanNode
    rooted: PlanNode


@dataclass(frozen=True, slots=True)
class Ordering:
    """The ``order by`` of an ordered ``for`` (``optimize_plan``'s order
    rule).  ``key`` — the atomized key, read where the ``return`` is;
    ``ties`` — the clause variables (the ``for``'s, then each ``let``'s)
    whose values break equal keys, in turn, before iteration order does;
    ``descending`` reverses the whole order.  The ``for``'s body is its
    clause chain — a ``let`` per tie after the first, then at most one
    ``where`` — ending in the return expression (:func:`clause_chain`)."""

    key: PlanNode
    ties: tuple[str, ...]
    descending: bool = False


@dataclass(frozen=True, slots=True)
class ForNode(PlanNode):
    """Naive iteration: expand environments per source tree."""

    var: str
    source: PlanNode
    body: PlanNode
    #: Outer variables to copy into the expanded sequence.
    required_outer: frozenset[str] = frozenset()
    #: Chains over ``var`` evaluated over the source and re-blocked
    #: (``optimize_plan``'s lift rule), in the order the body reads them.
    lifted: tuple[Lifted, ...] = ()
    #: Whether the body reads ``var`` other than through ``lifted``: if
    #: not, the source is never expanded.
    reads_var: bool = True
    #: An ``order by`` (``optimize_plan``'s order rule): the iterations
    #: are ranked within each enclosing environment.
    order: Ordering | None = None


@dataclass(frozen=True, slots=True)
class JoinForNode(PlanNode):
    """Decorrelated iteration executed as an environment join.

    Semantics are identical to
    ``ForNode(var, source, WhereNode(SomeEqual(key_outer, key_inner) ∧
    residual, body))`` — but ``source`` and ``key_inner`` are evaluated
    against the base environment (they are provably independent of every
    enclosing iteration variable), and only key-matching environment pairs
    are materialized.

    ``strategy`` selects the *pair-matching operator* — the paper's Q8
    experiment uses two plans "whose only difference was that where one
    plan used a nested-loop join operator, the other used a merge-sort
    join":

    * :attr:`JoinStrategy.MSJ` — sort both key lists by structural order,
      merge in one pass (near-linear);
    * :attr:`JoinStrategy.NLJ` — compare every (outer, inner) key pair
      (quadratic in the number of environments).
    """

    var: str
    source: PlanNode       # evaluated on the base environment
    key_outer: PlanNode    # evaluated on the current sequence
    key_inner: PlanNode    # evaluated on the source expansion of the base env
    body: PlanNode
    residual: CondPlan | None = None
    required_outer: frozenset[str] = frozenset()
    #: True when the key conjunct was SomeEqual (match any tree pair);
    #: False for Equal (match whole forests).
    existential: bool = True
    #: The pair-matching operator (see class docstring).
    strategy: JoinStrategy = JoinStrategy.MSJ
    #: Join-graph isolation (Grust et al.): evaluate the body once per
    #: inner environment and gather the finished blocks into the matched
    #: pairs.  Only valid when the body reads no variable but ``var``.
    isolate: bool = False
    #: Join + group (``optimize_plan``'s count rule, isolated joins only):
    #: yield per outer environment the number of trees the body gives
    #: over the matched pairs, as ``count`` would — one text node, width
    #: 2 — and build no pair.
    counts: bool = False


# -- condition plan nodes -------------------------------------------------------


@dataclass(frozen=True, slots=True)
class EmptyCond(CondPlan):
    expr: PlanNode


@dataclass(frozen=True, slots=True)
class EqualCond(CondPlan):
    left: PlanNode
    right: PlanNode


@dataclass(frozen=True, slots=True)
class SomeEqualCond(CondPlan):
    left: PlanNode
    right: PlanNode


@dataclass(frozen=True, slots=True)
class LessCond(CondPlan):
    left: PlanNode
    right: PlanNode


@dataclass(frozen=True, slots=True)
class NotCond(CondPlan):
    condition: CondPlan


@dataclass(frozen=True, slots=True)
class AndCond(CondPlan):
    left: CondPlan
    right: CondPlan


@dataclass(frozen=True, slots=True)
class OrCond(CondPlan):
    left: CondPlan
    right: CondPlan


def chain_var(node: PlanNode) -> str | None:
    """The variable a path chain reads — a unary run of :data:`PATH_FNS`
    down to a :class:`VarNode` — or ``None`` when ``node`` is no chain."""
    while isinstance(node, FnNode) and node.fn in PATH_FNS \
            and len(node.args) == 1:
        node = node.args[0]
        if isinstance(node, VarNode):
            return node.name
    return None


def clause_chain(body: PlanNode
                 ) -> tuple[list[LetNode], WhereNode | None, PlanNode]:
    """An ordered ``for``'s ``body`` taken apart: its ``let``s, taken
    greedily, its ``where`` if it has one, and the return expression
    they lead to — which the order rule never lets start with a ``let``
    or a ``where``."""
    lets = []
    while isinstance(body, LetNode):
        lets.append(body)
        body = body.body
    where = None
    if isinstance(body, WhereNode):
        where, body = body, body.body
    return lets, where, body


def iter_plan(node: PlanNode) -> Iterator[PlanNode]:
    """Yield ``node`` and every nested plan node, pre-order."""
    stack: list[PlanNode] = [node]
    while stack:
        current = stack.pop()
        yield current
        if isinstance(current, FnNode):
            stack.extend(current.args)
        elif isinstance(current, LetNode):
            stack.extend((current.value, current.body))
        elif isinstance(current, WhereNode):
            stack.extend(_condition_plans(current.condition))
            stack.append(current.body)
        elif isinstance(current, ForNode):
            stack.extend((current.source, current.body))
            stack.extend(lifted.chain for lifted in current.lifted)
            if current.order is not None:
                stack.append(current.order.key)
        elif isinstance(current, JoinForNode):
            stack.extend((current.source, current.key_outer,
                          current.key_inner, current.body))
            if current.residual is not None:
                stack.extend(_condition_plans(current.residual))


def _condition_plans(condition: CondPlan) -> list[PlanNode]:
    if isinstance(condition, EmptyCond):
        return [condition.expr]
    if isinstance(condition, (EqualCond, SomeEqualCond, LessCond)):
        return [condition.left, condition.right]
    if isinstance(condition, NotCond):
        return _condition_plans(condition.condition)
    if isinstance(condition, (AndCond, OrCond)):
        return _condition_plans(condition.left) + _condition_plans(condition.right)
    raise TypeError(f"unknown condition plan: {type(condition).__name__}")
