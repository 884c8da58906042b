"""Per-document statistics collected once at encode time.

The cost-based planner (:mod:`repro.compiler.cost`) needs a summary of
each document it plans against: how many nodes there are, how they are
labelled, how deep the tree is, and how wide the fan-out runs.  All of
that is derivable from the interval encoding alone — the ``(s, l, r)``
triples carry the full tree shape, which the columnar encoding keeps as
its depth and name-code columns — so :func:`collect_stats` reduces those
columns at the same point where the backend shreds the document, and the
result rides along on the backend's shared document state.

Every :class:`DocumentStats` carries a stable :attr:`~DocumentStats.digest`
of its contents.  The digest is the document half of a plan-cache key:
two documents with identical statistics plan identically, and any update
that changes the statistics changes the digest — which is what lets
``session.apply_update`` invalidate exactly the plans that were optimized
for the old contents.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping

from repro.xml.forest import is_element_label

#: Depth histogram entries beyond this depth are folded into the last
#: bucket; real documents rarely nest deeper, and a bounded histogram
#: keeps digests and estimates O(1) in document depth.
MAX_DEPTH_BUCKETS = 64


@dataclass(frozen=True)
class DocumentStats:
    """Shape statistics of one interval-encoded document.

    ``label_counts`` maps node labels (``"<person>"``, ``"@id"``, text
    values) to occurrence counts; ``depth_histogram[d]`` counts nodes at
    depth ``d`` (roots are depth 0).  ``fanout`` is the mean child count
    per element node.  ``avg_subtree`` is the mean subtree size over all
    nodes — exactly ``Σ(depth+1)/nodes``, since each node contributes one
    tuple to every ancestor-or-self subtree.
    """

    nodes: int
    width: int
    roots: int
    label_counts: Mapping[str, int] = field(default_factory=dict)
    depth_histogram: tuple[int, ...] = ()
    fanout: float = 0.0
    digest: str = ""

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
    The tree shape is read off the depth and name-code columns: the
    histogram is one ``bincount``, root and element counts are mask sums.
    """
    import numpy as np

    from repro.engine.columns import ELEMENT, KIND_MASK, IntervalColumns

    rel = IntervalColumns.from_tuples(rel)
    nodes = len(rel)
    buckets = min(MAX_DEPTH_BUCKETS, max(nodes, 1))
    histogram = np.bincount(np.minimum(rel.d, buckets - 1),
                            minlength=buckets).tolist()
    while histogram and histogram[-1] == 0:
        histogram.pop()
    roots = histogram[0] if histogram else 0
    elements = int(np.count_nonzero(rel.c & KIND_MASK == ELEMENT))
    stats = DocumentStats(
        nodes=nodes,
        width=int(width),
        roots=roots,
        label_counts=dict(Counter(rel.s.tolist())),
        depth_histogram=tuple(histogram),
        fanout=(nodes - roots) / elements if elements else 0.0,
    )
    return replace(stats, digest=_digest(stats))


def apply_delta_to_stats(stats: DocumentStats,
                         delta: "UpdateDelta") -> DocumentStats:
    """Statistics after an incremental update, in O(delta) time.

    Produces exactly what :func:`collect_stats` would compute over the
    spliced relation — same counts, same histogram folding, same digest —
    without touching the unaffected rows (the property suite in
    ``tests/test_update_delta.py`` pins the equivalence).  Only valid for
    :attr:`~repro.encoding.updates.UpdateDelta.incremental` deltas; a
    relabel moves every endpoint and requires a fresh collection pass.
    """
    if delta.relabeled:
        raise ValueError("relabeled deltas carry no incremental statistics; "
                         "re-collect from the rebased relation")
    label_counts = dict(stats.label_counts)
    for label in delta.deleted_labels:
        remaining = label_counts.get(label, 0) - 1
        if remaining > 0:
            label_counts[label] = remaining
        else:
            label_counts.pop(label, None)
    for row in delta.inserted:
        label_counts[row[0]] = label_counts.get(row[0], 0) + 1
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
    while histogram and histogram[-1] == 0:
        histogram.pop()
    nodes = stats.nodes + len(delta.inserted) - len(delta.deleted_labels)
    roots = histogram[0] if histogram else 0
    elements = sum(count for label, count in label_counts.items()
                   if is_element_label(label))
    fanout = (nodes - roots) / elements if elements else 0.0
    updated = DocumentStats(
        nodes=nodes,
        width=int(delta.new_width),
        roots=roots,
        label_counts=label_counts,
        depth_histogram=tuple(histogram),
        fanout=fanout,
    )
    return replace(updated, digest=_digest(updated))


def _digest(stats: DocumentStats) -> str:
    """A stable content digest of the statistics (hex, 16 chars)."""
    hasher = hashlib.sha256()
    hasher.update(f"{stats.nodes}|{stats.width}|{stats.roots}|".encode())
    hasher.update(",".join(str(c) for c in stats.depth_histogram).encode())
    for label in sorted(stats.label_counts):
        hasher.update(f"|{label}={stats.label_counts[label]}".encode())
    return hasher.hexdigest()[:16]


def combine_digests(stats_by_var: Mapping[str, DocumentStats],
                    variables: Iterable[str]) -> str:
    """The combined stats digest over the document variables a plan reads.

    Variables without collected statistics contribute a fixed marker, so
    a plan built before its documents were prepared never shares a cache
    key with one built after.
    """
    hasher = hashlib.sha256()
    for var in sorted(set(variables)):
        stats = stats_by_var.get(var)
        hasher.update(f"{var}={stats.digest if stats else '?'};".encode())
    return hasher.hexdigest()[:16]
