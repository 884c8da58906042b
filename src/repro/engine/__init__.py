"""The DI prototype: a relational engine specialized for dynamic intervals.

Section 5 of the paper extends a relational engine with order-aware
physical operators so that translated XQuery plans run in linear (or
``O(n log n)``) time instead of the quadratic time a generic engine needs
for interval predicates.  This package is that engine:

* :mod:`repro.engine.columns` / :mod:`repro.engine.kernels` — ordered
  interval relations as four NumPy columns (``l``, ``r``, a depth and a
  label-code column) and every operator as a whole-column kernel: the
  one representation and the one algebra the evaluator runs.  Roots is
  Algorithm 5.2's scan kept as the depth column (``d == 0``), and
  Algorithm 5.3's structural comparison is integer span ids
  (``span_ids`` → ``match_ids``) for equality and collation-ranked byte
  keys (``collation_keys``) for order.  Each kernel is tested against
  Definition 3.3 read literally: per environment, its decoded output is
  the Figure 2 operator (:mod:`repro.xml.operations`) applied to the
  decoded input;
* :mod:`repro.engine.evaluator` — evaluation of compiled plans over
  dynamic-interval environment sequences, including the merge-join
  execution of decorrelated FLWR loops;
* :mod:`repro.engine.stats` — per-category accounting behind Figure 10.
"""

from repro.engine.evaluator import DIEngine, EnvSeq
from repro.engine.stats import EngineStats

__all__ = ["DIEngine", "EngineStats", "EnvSeq"]
