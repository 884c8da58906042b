"""Denotational reference interpreter for the core language (Figure 3).

    [[x]]E                      = E(x)
    [[XFn(e1,…,ek)]]E           = XFn([[e1]]E, …, [[ek]]E)
    [[let x = e in e']]E        = [[e']] E[x := [[e]]E]
    [[where φ return e]]E       = [[e]]E  if [[φ]]E else []
    [[for x in e do e']]E       = [[e']]E[x:=v1] @ … @ [[e']]E[x:=vk]
                                   where [v1,…,vk] = [[e]]E

This interpreter is the semantic oracle: it is deliberately simple (a
direct transcription of the semantic equations, nested-loop iteration,
no rewriting) and every other evaluator in the package is tested against
it.  It is also the engine behind the ``naive`` backend: run with a
:class:`~repro.baselines.naive.BudgetMeter`, it is the nested-loop,
materializing competitor the paper attributes to contemporary XQuery
processors, charged in steps and live cells.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping

from repro.errors import UnboundVariableError
from repro.xml import operations as ops
from repro.xml.forest import Forest, forest_size
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
)
from repro.xquery.functions import get_function

if TYPE_CHECKING:  # pragma: no cover
    from repro.baselines.naive import BudgetMeter

Environment = Mapping[str, Forest]


class Interpreter:
    """Evaluate core expressions under an environment.

    ``meter`` — optional accounting hook (a
    :class:`~repro.baselines.naive.BudgetMeter`): it is charged one step
    per expression and condition evaluated and per ``for`` iteration,
    result sizes per function application and comparison, and the live
    cells of ``let`` bindings and accumulating ``for`` pieces.  Without
    one the interpreter counts nothing and sizes no forest.
    """

    def __init__(self, meter: "BudgetMeter | None" = None):
        self._meter = meter

    def evaluate(self, expr: CoreExpr, env: Environment) -> Forest:
        """Compute ``[[expr]]env``."""
        meter = self._meter
        if meter is not None:
            meter.step()
        if isinstance(expr, Var):
            try:
                return env[expr.name]
            except KeyError:
                raise UnboundVariableError(expr.name) from None
        if isinstance(expr, FnApp):
            spec = get_function(expr.fn)
            args = tuple(self.evaluate(arg, env) for arg in expr.args)
            result = spec.impl(args, dict(expr.params))
            if meter is not None:
                meter.step(max(1, forest_size(result)))
            return result
        if isinstance(expr, Let):
            bound = self.evaluate(expr.value, env)
            extended = dict(env)
            extended[expr.var] = bound
            if meter is None:
                return self.evaluate(expr.body, extended)
            cells = forest_size(bound)
            meter.hold(cells)
            try:
                return self.evaluate(expr.body, extended)
            finally:
                meter.release(cells)
        if isinstance(expr, Where):
            if self.evaluate_condition(expr.condition, env):
                return self.evaluate(expr.body, env)
            return ()
        if isinstance(expr, For):
            source = self.evaluate(expr.source, env)
            pieces: list[Forest] = []
            extended = dict(env)
            held = 0
            try:
                for tree in source:
                    if meter is not None:
                        meter.step()
                    extended[expr.var] = (tree,)
                    piece = self.evaluate(expr.body, extended)
                    if meter is not None:
                        cells = forest_size(piece)
                        meter.hold(cells)
                        held += cells
                    pieces.append(piece)
                return tuple(node for piece in pieces for node in piece)
            finally:
                if held:
                    meter.release(held)
        raise TypeError(f"unknown expression type: {type(expr).__name__}")

    def _operands(self, condition: Equal | SomeEqual | Less,
                  env: Environment) -> tuple[Forest, Forest]:
        """Both sides of a comparison, charged by their size."""
        left = self.evaluate(condition.left, env)
        right = self.evaluate(condition.right, env)
        if self._meter is not None:
            self._meter.step(forest_size(left) + forest_size(right))
        return left, right

    def evaluate_condition(self, condition: Condition, env: Environment) -> bool:
        """Compute the truth value of φ under ``env``."""
        if self._meter is not None:
            self._meter.step()
        if isinstance(condition, Equal):
            return ops.equal(*self._operands(condition, env))
        if isinstance(condition, SomeEqual):
            left, right = self._operands(condition, env)
            right_set = set(right)
            return any(tree in right_set for tree in left)
        if isinstance(condition, Less):
            return ops.less(*self._operands(condition, env))
        if isinstance(condition, Empty):
            return ops.empty(self.evaluate(condition.expr, env))
        if isinstance(condition, Not):
            return not self.evaluate_condition(condition.condition, env)
        if isinstance(condition, And):
            return self.evaluate_condition(condition.left, env) and \
                self.evaluate_condition(condition.right, env)
        if isinstance(condition, Or):
            return self.evaluate_condition(condition.left, env) or \
                self.evaluate_condition(condition.right, env)
        raise TypeError(f"unknown condition type: {type(condition).__name__}")


def evaluate(expr: CoreExpr, env: Environment | None = None) -> Forest:
    """Convenience wrapper: evaluate ``expr`` under ``env`` (default empty)."""
    return Interpreter().evaluate(expr, dict(env or {}))


def evaluate_condition(condition: Condition, env: Environment | None = None) -> bool:
    """Convenience wrapper for condition evaluation."""
    return Interpreter().evaluate_condition(condition, dict(env or {}))
