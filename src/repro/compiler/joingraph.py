"""Join-graph isolation analysis over compiled physical plans.

Following Grust, Mayr and Rittinger's *XQuery Join Graph Isolation*, a
decorrelated :class:`~repro.compiler.plan.JoinForNode` splits into two
halves: the *join graph* — source, keys, and any residual predicate —
and the surrounding *plan tail* (the loop body).  When the body depends
on nothing but the join variable itself, the tail can be evaluated once
over the inner expansion (one environment per source tree) and the
finished blocks gathered into the matched pairs, instead of re-running
the body per pair.  That keeps every intermediate interval relation in
the *small* inner index space — which is exactly what keeps endpoints
inside int64 kernel range on multi-join queries like XMark Q9.

This module is pure analysis: it decides what *can* be isolated and
which outer bindings a join genuinely needs copied.
:func:`repro.compiler.planner.optimize_plan` isolates every join the
analysis allows — a rule, not a cost decision.
"""

from __future__ import annotations

from dataclasses import dataclass

import repro.compiler.planner as planner
from repro.compiler.plan import JoinForNode, PlanNode, iter_plan


@dataclass(frozen=True)
class JoinAnalysis:
    """One join edge of the plan's join graph.

    ``isolable`` — the loop body reads only the join variable, so it can
    run once on the inner expansion.  ``required_outer`` — the outer
    bindings the pair sequence actually needs: the body's frees plus the
    residual's frees.  The join keys are *not* in it — ``key_outer`` is
    evaluated on the enclosing sequence before any pair is materialized,
    so its variables never need copying into pair space.
    """

    node: JoinForNode
    isolable: bool
    required_outer: frozenset[str]


def analyze_join(node: JoinForNode) -> JoinAnalysis:
    """Split one join into its graph half and its plan-tail half."""
    var = node.var
    body_free = planner.plan_free(node.body)
    required = set(body_free)
    if node.residual is not None:
        required |= planner.cond_free(node.residual)
    required.discard(var)
    return JoinAnalysis(
        node=node,
        isolable=body_free <= {var},
        required_outer=frozenset(required),
    )


def join_graph(plan: PlanNode) -> tuple[JoinAnalysis, ...]:
    """Every join edge of ``plan``, in pre-order."""
    return tuple(analyze_join(node) for node in iter_plan(plan)
                 if isinstance(node, JoinForNode))
