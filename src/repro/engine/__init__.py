"""The DI prototype: a relational engine specialized for dynamic intervals.

Section 5 of the paper extends a relational engine with order-aware
physical operators so that translated XQuery plans run in linear (or
``O(n log n)``) time instead of the quadratic time a generic engine needs
for interval predicates.  This package is that engine:

* :mod:`repro.engine.columns` / :mod:`repro.engine.kernels` — ordered
  interval relations as five NumPy columns (the triples plus a depth and
  a label-code column) and every operator as a whole-column kernel: the
  one representation and the one algebra the evaluator runs;
* :mod:`repro.engine.relation` / :mod:`repro.engine.operators` — the
  same relations as plain tuple lists and the same operators as linear
  single-pass functions over them (Roots is Algorithm 5.2, plus the
  per-environment lifted forms of every Figure 2 operator): the
  reference the kernels are tested against, imported by no production
  module;
* :mod:`repro.engine.structural` — ``DeepCompare`` (Algorithm 5.3) and the
  canonical structural keys used for sorting and merge joins;
* :mod:`repro.engine.evaluator` — evaluation of compiled plans over
  dynamic-interval environment sequences, including the merge-join
  execution of decorrelated FLWR loops;
* :mod:`repro.engine.stats` — per-category accounting behind Figure 10.
"""

from repro.engine.evaluator import DIEngine, EnvSeq
from repro.engine.stats import EngineStats

__all__ = ["DIEngine", "EngineStats", "EnvSeq"]
