"""Baseline XQuery evaluators standing in for the paper's competitors.

The systems the paper compares against (Galax, Kweelt, IPSI-XQ, QuiP,
X-Hive) are defunct or unobtainable.  What the paper establishes about
them is *behavioural*: all evaluate nested FLWR expressions with
nested-loop strategies and scale quadratically on Q8/Q9, several also
exhausting memory on large documents ("IM").  The ``naive`` backend
reproduces exactly that behaviour class: the Figure 3 interpreter
(:class:`~repro.xquery.interpreter.Interpreter`, per-iteration
materialization) run with the :class:`~repro.baselines.naive.BudgetMeter`
of :mod:`repro.baselines.naive` and its optional memory budget.
"""

from repro.baselines.naive import (
    BudgetMeter,
    MemoryLimitExceeded,
    WorkLimitExceeded,
)

__all__ = ["BudgetMeter", "MemoryLimitExceeded", "WorkLimitExceeded"]
