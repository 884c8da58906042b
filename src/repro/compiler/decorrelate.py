"""The Section 5 decorrelation rewrite.

The paper's example::

    for x in e1(z) do for y in e2(z) do where x = y return e

generalizes to any ``for`` whose source is independent of every enclosing
iteration variable and whose body filters on a key equality splitting into
an outer-only side and an iteration-variable-only side.  Such loops can be
evaluated *once* against the base environment and joined to the enclosing
sequence with a structural merge join — identical semantics (the resulting
environment sequence is exactly the one nested-loop evaluation builds,
restricted to matching pairs), radically different cost.

:func:`match_join` performs the pattern detection on the core AST:

* the loop body may start with a spine of ``let`` bindings (Q9's shape) as
  long as the key condition does not mention them — filtering then commutes
  with the pure ``let`` values;
* the key conjunct is ``Equal``/``SomeEqual`` with one side referencing
  only the loop variable and the other side not referencing it at all;
* remaining conjuncts become a residual condition evaluated per matched
  pair.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.xquery.ast import (
    And,
    Condition,
    CoreExpr,
    Equal,
    For,
    Let,
    SomeEqual,
    Where,
    condition_free_variables,
    free_variables,
)


@dataclass(frozen=True)
class JoinMatch:
    """A successfully matched decorrelation opportunity."""

    var: str                       # the loop variable y
    source: CoreExpr               # e2 — base-environment evaluable
    key_outer: CoreExpr            # the side not mentioning y
    key_inner: CoreExpr            # the side mentioning only y
    residual: Condition | None     # leftover conjuncts free of spine vars
    #: leftover conjuncts that mention let-spine variables; these must stay
    #: below the lets and are re-attached inside the rebuilt body.
    inner_residual: Condition | None
    #: let-spine as (var, value) pairs between the for and the where
    let_spine: tuple[tuple[str, CoreExpr], ...]
    #: the where body (the loop's return expression)
    return_expr: CoreExpr
    #: True for a SomeEqual key (existential), False for a deep Equal key.
    existential: bool = True


def split_conjuncts(condition: Condition) -> list[Condition]:
    """Flatten an ``And`` tree into its conjunct list."""
    if isinstance(condition, And):
        return split_conjuncts(condition.left) + split_conjuncts(condition.right)
    return [condition]


def join_conjuncts(conjuncts: list[Condition]) -> Condition | None:
    """Rebuild an ``And`` tree (None for an empty list)."""
    if not conjuncts:
        return None
    result = conjuncts[0]
    for conjunct in conjuncts[1:]:
        result = And(result, conjunct)
    return result


def match_join(loop: For, base_vars: frozenset[str]) -> JoinMatch | None:
    """Try to match ``loop`` against the decorrelation pattern.

    ``base_vars`` are the variables of the base (initial) environment;
    the loop source must reference nothing else for the rewrite to be
    able to evaluate it there.
    """
    if not free_variables(loop.source) <= base_vars:
        return None

    # Walk the let-spine down to a where clause.
    spine: list[tuple[str, CoreExpr]] = []
    body = loop.body
    while isinstance(body, Let):
        spine.append((body.var, body.value))
        body = body.body
    if not isinstance(body, Where):
        return None
    spine_vars = {var for var, _ in spine}

    conjuncts = split_conjuncts(body.condition)
    for position, conjunct in enumerate(conjuncts):
        if not isinstance(conjunct, (Equal, SomeEqual)):
            continue
        key = _split_key(conjunct, loop.var, spine_vars)
        if key is None:
            continue
        key_outer, key_inner = key
        others = conjuncts[:position] + conjuncts[position + 1:]
        # Pulling the key filter above pure lets is sound because a false
        # condition makes the result [] regardless of the let values, and
        # the key itself mentions no spine variable (checked in _split_key).
        # Conjuncts that *do* mention spine variables must stay below them.
        pair_level = [c for c in others
                      if not condition_free_variables(c) & spine_vars]
        inner_level = [c for c in others
                       if condition_free_variables(c) & spine_vars]
        return JoinMatch(
            var=loop.var,
            source=loop.source,
            key_outer=key_outer,
            key_inner=key_inner,
            residual=join_conjuncts(pair_level),
            inner_residual=join_conjuncts(inner_level),
            let_spine=tuple(spine),
            return_expr=body.body,
            existential=isinstance(conjunct, SomeEqual),
        )
    return None


def _split_key(conjunct: Equal | SomeEqual, var: str,
               spine_vars: set[str]) -> tuple[CoreExpr, CoreExpr] | None:
    """Orient the key conjunct as (outer side, inner side) or give up."""
    left_free = free_variables(conjunct.left)
    right_free = free_variables(conjunct.right)
    if left_free & spine_vars or right_free & spine_vars:
        return None
    if left_free == {var} and var not in right_free:
        return conjunct.right, conjunct.left
    if right_free == {var} and var not in left_free:
        return conjunct.left, conjunct.right
    return None
