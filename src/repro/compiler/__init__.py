"""Physical plan compilation for the DI engine (Section 5).

* :mod:`repro.compiler.plan` — physical plan node types;
* :mod:`repro.compiler.decorrelate` — the Section 5 rewrite recognizing
  nested ``for`` loops whose inner source is independent of the outer
  iteration variable, turning them into structural merge joins;
* :mod:`repro.compiler.planner` — core AST → plan, per join strategy,
  and the join-body isolation rule (:func:`~repro.compiler.planner.
  optimize_plan`), analysed by :mod:`repro.compiler.joingraph`;
* :mod:`repro.compiler.pipeline` — the staged pass manager: named,
  registered passes (``parse``, ``lower``, rewrites such as ``simplify``,
  ``decorrelate``, ``plan``, ``isolate``) with per-pass timings and
  snapshots.
"""

from repro.compiler.plan import JoinStrategy, PlanNode
from repro.compiler.planner import compile_plan, explain_plan
from repro.compiler.pipeline import (
    CompilerPass,
    PipelineTrace,
    register_pass,
    register_rewrite,
    registered_passes,
)

__all__ = [
    "CompilerPass",
    "JoinStrategy",
    "PipelineTrace",
    "PlanNode",
    "compile_plan",
    "explain_plan",
    "register_pass",
    "register_rewrite",
    "registered_passes",
]
