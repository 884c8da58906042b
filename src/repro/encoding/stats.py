"""Per-document statistics collected once at encode time.

The cost-based planner (:mod:`repro.compiler.cost`) needs a summary of
each document it plans against: how many nodes there are, how they are
labelled, how deep the tree is, and how wide the fan-out runs.  All of
that is derivable from the interval encoding alone — the ``(s, l, r)``
triples carry the full tree shape, which the columnar encoding keeps as
its depth and label-code columns — so :func:`collect_stats` reduces those
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
import zlib
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

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
    per element node, ``elements`` the number of element nodes it divides
    by.  ``avg_subtree`` is the mean subtree size over all nodes — exactly
    ``Σ(depth+1)/nodes``, since each node contributes one tuple to every
    ancestor-or-self subtree.  ``label_hash`` is the label half of the
    digest: the sum, modulo 2⁶⁴, of one hash per ``(label, count)`` pair,
    so an update adjusts it for the labels it touches and nothing else.
    """

    nodes: int
    width: int
    roots: int
    label_counts: Mapping[str, int] = field(default_factory=dict)
    depth_histogram: tuple[int, ...] = ()
    fanout: float = 0.0
    digest: str = ""
    elements: int = 0
    label_hash: int = 0

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
        elements=int(np.count_nonzero(rel.c & KIND_MASK == ELEMENT)),
        label_hash=int(_pair_hashes(list(label_counts),
                                    list(label_counts.values())).sum()))


def apply_delta_to_stats(stats: DocumentStats,
                         delta: "UpdateDelta") -> DocumentStats:
    """Statistics after an incremental update.

    Produces exactly what :func:`collect_stats` would compute over the
    spliced relation — same counts, same histogram folding, same digest —
    without touching the unaffected rows (the property suite in
    ``tests/test_update_delta.py`` pins the equivalence).  The work is
    O(delta) — at most two pair hashes per distinct label the delta
    touches — beside one copy of the ``label_counts`` dictionary, which
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
    touched = [label for label, difference in change.items() if difference]
    label_counts = dict(stats.label_counts)
    # The touched labels' (label, count) pairs leave the hash sum as they
    # were and enter it as they become.
    before = [label for label in touched if label in label_counts]
    counts = [label_counts[label] for label in before]
    for label in touched:
        count = label_counts.get(label, 0) + change[label]
        if count > 0:
            label_counts[label] = count
        else:
            label_counts.pop(label, None)
    after = [label for label in touched if label in label_counts]
    counts += [label_counts[label] for label in after]
    hashes = _pair_hashes(before + after, counts)
    label_hash = (stats.label_hash - int(hashes[:len(before)].sum())
                  + int(hashes[len(before):].sum())) % 2 ** 64
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
        delta.new_width, histogram, label_counts, elements, label_hash)


def _finished(nodes: int, width: int, histogram: list[int],
              label_counts: dict[str, int], elements: int,
              label_hash: int) -> DocumentStats:
    """The statistics record, derived fields and digest (stable across
    processes, 16 hex characters) filled in."""
    while histogram and histogram[-1] == 0:
        histogram.pop()
    roots = histogram[0] if histogram else 0
    hasher = hashlib.sha256()
    hasher.update(f"{nodes}|{int(width)}|{roots}|".encode())
    hasher.update(",".join(map(str, histogram)).encode())
    hasher.update(f"|{label_hash:016x}".encode())
    return DocumentStats(
        nodes=nodes,
        width=int(width),
        roots=roots,
        label_counts=label_counts,
        depth_histogram=tuple(histogram),
        fanout=(nodes - roots) / elements if elements else 0.0,
        digest=hasher.hexdigest()[:16],
        elements=elements,
        label_hash=label_hash,
    )


def _pair_hashes(labels: Sequence[str], counts: Sequence[int]) -> np.ndarray:
    """One 64-bit hash per ``(label, count)`` pair, given as two columns.

    Their sum modulo 2⁶⁴ is the label half of the digest: independent of
    order, and adjustable pair by pair.  Every process must compute the
    same values, which rules out ``hash()`` (salted per process), and a
    ``hashlib`` object per pair costs more than the sorted single-hasher
    pass this replaces (12.9 against 10.7 ms over 15,411 labels): the two
    halves of a word are the label's CRC-32 and Adler-32, the count is
    added times an odd constant, and splitmix64's finaliser scatters it.
    Nothing here allocates a container per pair — fifteen thousand tuples
    are enough to set off a full collection over the loaded document.
    """
    texts = [label.encode() for label in labels]
    size = len(texts)
    word = (np.fromiter(map(zlib.crc32, texts), np.uint64, size)
            | np.fromiter(map(zlib.adler32, texts), np.uint64, size)
            << np.uint64(32))
    word += np.array(counts, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    word = (word ^ word >> np.uint64(30)) * np.uint64(0xBF58476D1CE4E5B9)
    word = (word ^ word >> np.uint64(27)) * np.uint64(0x94D049BB133111EB)
    return word ^ word >> np.uint64(31)


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
