"""Physical plan compilation for the DI engine (Section 5).

* :mod:`repro.compiler.plan` — physical plan node types;
* :mod:`repro.compiler.decorrelate` — the Section 5 rewrite recognizing
  nested ``for`` loops whose inner source is independent of the outer
  iteration variable, turning them into structural merge joins;
* :mod:`repro.compiler.planner` — core AST → plan, per join strategy,
  and the join-body isolation rule (:func:`~repro.compiler.planner.
  optimize_plan`), analysed by :mod:`repro.compiler.joingraph`;
* :mod:`repro.compiler.pipeline` — the fixed chain ``parse`` → ``lower``
  → ``decorrelate`` + ``plan`` → ``isolate``, each pass timed into a
  :class:`~repro.compiler.pipeline.PassRecord`.
"""

from repro.compiler.plan import JoinStrategy, PlanNode
from repro.compiler.planner import compile_plan, explain_plan
from repro.compiler.pipeline import PassRecord

__all__ = [
    "JoinStrategy",
    "PassRecord",
    "PlanNode",
    "compile_plan",
    "explain_plan",
]
