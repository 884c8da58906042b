"""Per-document statistics over an interval encoding.

The SQL translator ranks ``where``-conjuncts by estimated work
(:func:`repro.compiler.cost.condition_weight`) and needs a summary of
each document it translates against: how many nodes there are, how they
are labelled, how deep the tree is, and how wide the fan-out runs.  All
of that is derivable from the interval encoding alone — the ``(s, l, r)``
triples carry the full tree shape, which the columnar encoding keeps as
its depth and label-code columns — so :func:`collect_stats` reduces those
columns where the SQLite backend shreds the document, and
:func:`apply_delta_to_stats` keeps them current across incremental
updates.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.xml.forest import is_element_label

#: Depth histogram entries beyond this depth are folded into the last
#: bucket; real documents rarely nest deeper, and a bounded histogram
#: keeps estimates O(1) in document depth.
MAX_DEPTH_BUCKETS = 64


@dataclass(frozen=True)
class DocumentStats:
    """Shape statistics of one interval-encoded document.

    ``label_counts`` maps node labels (``"<person>"``, ``"@id"``, text
    values) to occurrence counts; ``depth_histogram[d]`` counts nodes at
    depth ``d`` (roots are depth 0).  ``fanout`` is the mean child count
    per element node, ``elements`` the number of element nodes it divides
    by.  ``avg_subtree`` is the mean subtree size over all nodes — exactly
    ``Σ(depth+1)/nodes``, since each node contributes one tuple to every
    ancestor-or-self subtree.
    """

    nodes: int
    width: int
    roots: int
    label_counts: Mapping[str, int] = field(default_factory=dict)
    depth_histogram: tuple[int, ...] = ()
    fanout: float = 0.0
    elements: int = 0

    @property
    def max_depth(self) -> int:
        return max(len(self.depth_histogram) - 1, 0)

    @property
    def avg_subtree(self) -> float:
        """Mean subtree size (tuples per selected root), ≥ 1."""
        if not self.nodes:
            return 1.0
        weighted = sum((depth + 1) * count
                       for depth, count in enumerate(self.depth_histogram))
        return max(weighted / self.nodes, 1.0)

    def label_fraction(self, label: str) -> float:
        """The fraction of nodes carrying ``label`` (0 when absent)."""
        if not self.nodes:
            return 0.0
        return self.label_counts.get(label, 0) / self.nodes


def collect_stats(rel, width: int) -> DocumentStats:
    """Statistics over an encoded relation in document order.

    ``rel`` holds a single environment block, as
    :class:`IntervalColumns` (what every backend passes) or as a list of
    ``(s, l, r)`` tuples, which ``from_tuples`` turns into columns first.
    The tree shape is read off the depth and label-code columns: the
    histogram is one ``bincount``, root and element counts are mask sums.
    """
    from repro.engine.columns import ELEMENT, KIND_MASK, IntervalColumns

    rel = IntervalColumns.from_tuples(rel)
    nodes = len(rel)
    buckets = min(MAX_DEPTH_BUCKETS, max(nodes, 1))
    histogram = np.bincount(np.minimum(rel.d, buckets - 1),
                            minlength=buckets).tolist()
    label_counts = dict(Counter(rel.s.tolist()))
    return _finished(
        nodes, width, histogram, label_counts,
        elements=int(np.count_nonzero(rel.c & KIND_MASK == ELEMENT)))


def apply_delta_to_stats(stats: DocumentStats,
                         delta: "UpdateDelta") -> DocumentStats:
    """Statistics after an incremental update.

    Produces exactly what :func:`collect_stats` would compute over the
    spliced relation — same counts, same histogram folding — without
    touching the unaffected rows (the property suite in
    ``tests/test_update_delta.py`` pins the equivalence).  The work is
    O(delta) beside one copy of the ``label_counts`` dictionary, which
    is as large as the document's vocabulary.  Only valid for
    :attr:`~repro.encoding.updates.UpdateDelta.incremental` deltas; a
    relabel moves every endpoint and requires a fresh collection pass.
    """
    if delta.relabeled:
        raise ValueError("relabeled deltas carry no incremental statistics; "
                         "re-collect from the rebased relation")
    inserted = [row[0] for row in delta.inserted]
    change = Counter(inserted)
    change.subtract(delta.deleted_labels)
    label_counts = dict(stats.label_counts)
    for label, difference in change.items():
        count = label_counts.get(label, 0) + difference
        if count > 0:
            label_counts[label] = count
        else:
            label_counts.pop(label, None)
    histogram = list(stats.depth_histogram)
    # collect_stats folds depths ≥ MAX_DEPTH_BUCKETS into the last bucket
    # (depth never exceeds nodes - 1, so small documents are unaffected).
    fold = MAX_DEPTH_BUCKETS - 1
    for depth in delta.inserted_depths:
        bucket = min(depth, fold)
        if bucket >= len(histogram):
            histogram.extend([0] * (bucket + 1 - len(histogram)))
        histogram[bucket] += 1
    for depth in delta.deleted_depths:
        histogram[min(depth, fold)] -= 1
    elements = (stats.elements + sum(map(is_element_label, inserted))
                - sum(map(is_element_label, delta.deleted_labels)))
    return _finished(
        stats.nodes + len(inserted) - len(delta.deleted_labels),
        delta.new_width, histogram, label_counts, elements)


def _finished(nodes: int, width: int, histogram: list[int],
              label_counts: dict[str, int], elements: int) -> DocumentStats:
    """The statistics record with its derived fields filled in."""
    while histogram and histogram[-1] == 0:
        histogram.pop()
    roots = histogram[0] if histogram else 0
    return DocumentStats(
        nodes=nodes,
        width=int(width),
        roots=roots,
        label_counts=label_counts,
        depth_histogram=tuple(histogram),
        fanout=(nodes - roots) / elements if elements else 0.0,
        elements=elements,
    )
