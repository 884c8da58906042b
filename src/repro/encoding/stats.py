"""Per-document shape statistics over an interval encoding.

No query path reads these: engine plans and SQL translations are both
syntax-directed (docs/PLANNER.md).  The module stays only because the
benchmark's tracing boundary ``encoding.stats`` (``perfbench/tracing.py``)
patches :func:`collect_stats` by name; once that boundary goes, so does
this module.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

#: Depth histogram entries beyond this depth are folded into the last
#: bucket, which keeps the histogram bounded in document depth.
MAX_DEPTH_BUCKETS = 64


@dataclass(frozen=True)
class DocumentStats:
    """Shape statistics of one interval-encoded document.

    ``label_counts`` maps node labels (``"<person>"``, ``"@id"``, text
    values) to occurrence counts; ``depth_histogram[d]`` counts nodes at
    depth ``d`` (roots are depth 0).  ``fanout`` is the mean child count
    per element node, ``elements`` the number of element nodes it divides
    by.
    """

    nodes: int
    width: int
    roots: int
    label_counts: Mapping[str, int] = field(default_factory=dict)
    depth_histogram: tuple[int, ...] = ()
    fanout: float = 0.0
    elements: int = 0


def collect_stats(rel, width: int) -> DocumentStats:
    """Statistics over an encoded relation in document order.

    ``rel`` holds a single environment block, as
    :class:`IntervalColumns` or as a list of ``(s, l, r)`` tuples, which
    ``from_tuples`` turns into columns first.  The tree shape is read off
    the depth and label-code columns: the histogram is one ``bincount``,
    root and element counts are mask sums.
    """
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
    return DocumentStats(
        nodes=nodes,
        width=int(width),
        roots=roots,
        label_counts=dict(Counter(rel.s.tolist())),
        depth_histogram=tuple(histogram),
        fanout=(nodes - roots) / elements if elements else 0.0,
        elements=elements,
    )
