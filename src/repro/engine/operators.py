"""Linear physical operators over tuple-list interval relations.

Each operator here is the DI-engine counterpart of one SQL template from
:mod:`repro.sql.templates`: same input/output contract (relations sorted by
left endpoint, environment = ``l // width``), but implemented as one or two
linear passes instead of joins with order predicates.

This module is the **reference algebra**: every function takes and returns
plain ``list[(s, l, r)]`` relations and walks them tuple at a time, as the
paper's pseudo-code does (``roots`` is Algorithm 5.2 verbatim).  It is
the semantic ground truth and nothing else: the kernel property suite in
``tests/`` asserts every whole-column kernel of
:mod:`repro.engine.kernels` is pointwise-equal to the same-named function
here on randomized forests.  No production module imports it and no
benchmark times it — the engine runs the kernels only, and keeps them
inside int64 by renormalising widths.

All operators are pure functions; none mutates its input.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.encoding.interval import IntervalTuple
from repro.engine.relation import (
    Relation,
    env_blocks,
    filter_by_index,  # noqa: F401 - the reference of kernels.filter_by_index
    group_by_env,
    tree_slices,
)
from repro.engine.structural import canonical_key
from repro.xml.forest import is_element_label, is_text_label

LabelPredicate = Callable[[str], bool]


def roots(rel: Sequence[IntervalTuple]) -> Relation:
    """Algorithm 5.2 — root tuples in one pass, O(1) extra space.

    Works across environment blocks without knowing the width: blocks are
    disjoint, so the "next root" test ``l > max`` is correct globally.
    """
    result: Relation = []
    max_right = -1
    for row in rel:
        if row[1] > max_right:
            max_right = row[2]
            result.append(row)
    return result


def children(rel: Sequence[IntervalTuple]) -> Relation:
    """Non-root tuples (the CHILDREN template) in one pass."""
    result: Relation = []
    max_right = -1
    for row in rel:
        if row[1] > max_right:
            max_right = row[2]
        else:
            result.append(row)
    return result


def select_trees(rel: Sequence[IntervalTuple],
                 predicate: LabelPredicate) -> Relation:
    """Whole trees whose root label satisfies ``predicate`` — one pass."""
    result: Relation = []
    max_right = -1
    keep_right = -1
    for row in rel:
        if row[1] > max_right:
            max_right = row[2]
            if predicate(row[0]):
                keep_right = row[2]
        if row[1] <= keep_right:
            result.append(row)
    return result


def select_label(rel: Sequence[IntervalTuple], label: str) -> Relation:
    """Trees rooted at the exact ``label``."""
    return select_trees(rel, lambda s: s == label)


def textnode_trees(rel: Sequence[IntervalTuple]) -> Relation:
    """Trees rooted at text nodes (the ``text()`` node test)."""
    return select_trees(rel, is_text_label)


def elementnode_trees(rel: Sequence[IntervalTuple]) -> Relation:
    """Trees rooted at elements (the ``*`` node test)."""
    return select_trees(rel, is_element_label)


def head(rel: Sequence[IntervalTuple], width: int) -> Relation:
    """The first tree of every environment — one pass."""
    result: Relation = []
    current_env = None
    first_right = -1
    for row in rel:
        env = row[1] // width
        if env != current_env:
            current_env = env
            first_right = row[2]
        if row[1] <= first_right:
            result.append(row)
    return result


def tail(rel: Sequence[IntervalTuple], width: int) -> Relation:
    """Everything but the first tree of every environment — one pass."""
    result: Relation = []
    current_env = None
    first_right = -1
    for row in rel:
        env = row[1] // width
        if env != current_env:
            current_env = env
            first_right = row[2]
        elif row[1] > first_right:
            result.append(row)
    return result


def reverse(rel: Sequence[IntervalTuple], width: int) -> Relation:
    """Top-level reversal within each environment block.

    A root with local extent ``[a, b]`` moves to ``[w-1-b, w-1-a]``; its
    descendants shift with it, so child order inside trees is preserved.
    Emitting the trees in reverse original order keeps the output sorted.
    """
    result: Relation = []
    for env, block in group_by_env(rel, width):
        base = env * width
        for slice_ in reversed(list(tree_slices(block))):
            root = slice_[0]
            shift = (width - 1) - (root[2] - base) - (root[1] - base)
            result.extend((s, l + shift, r + shift) for (s, l, r) in slice_)
    return result


def subtrees_dfs(rel: Sequence[IntervalTuple], width: int) -> Relation:
    """All subtrees in DFS order; output width is ``width²``.

    The copy rooted at node ``v`` is placed at block offset
    ``(v.l mod w)·w`` inside the widened environment block; document order
    of the copies follows ``v.l``, so the output is sorted by construction.
    Cost is linear in the *output* (sum of subtree sizes).
    """
    wout = width * width
    result: Relation = []
    rows = list(rel)
    for position, (s, l, r) in enumerate(rows):
        env = l // width
        base = env * wout + (l - env * width) * width
        end = position
        while end < len(rows) and rows[end][1] <= r:
            result.append((
                rows[end][0],
                base + (rows[end][1] - l),
                base + (rows[end][2] - l),
            ))
            end += 1
    return result


def concat(left: Sequence[IntervalTuple], left_width: int,
           right: Sequence[IntervalTuple], right_width: int) -> Relation:
    """Per-environment concatenation; output width is the sum of widths.

    A merge over the two env-grouped streams keeps the output sorted.
    """
    width = left_width + right_width
    left_groups = list(group_by_env(left, left_width)) if left_width else []
    right_groups = list(group_by_env(right, right_width)) if right_width else []
    result: Relation = []
    i = 0
    j = 0
    while i < len(left_groups) or j < len(right_groups):
        left_env = left_groups[i][0] if i < len(left_groups) else None
        right_env = right_groups[j][0] if j < len(right_groups) else None
        env = min(e for e in (left_env, right_env) if e is not None)
        if left_env == env:
            offset = env * (width - left_width)
            result.extend((s, l + offset, r + offset)
                          for (s, l, r) in left_groups[i][1])
            i += 1
        if right_env == env:
            offset = env * (width - right_width) + left_width
            result.extend((s, l + offset, r + offset)
                          for (s, l, r) in right_groups[j][1])
            j += 1
    return result


def xnode(label: str, content: Sequence[IntervalTuple],
          content_width: int,
          index: Sequence[int]) -> tuple[Relation, int]:
    """Wrap each environment's content under a new root node.

    Emits one root per index entry (environments with empty content still
    get an empty element) followed by the shifted content; returns the
    relation and the output width ``content_width + 2``.
    """
    width = content_width + 2
    blocks = dict(group_by_env(content, content_width)) if content_width else {}
    result: Relation = []
    for env in index:
        base = env * width
        result.append((label, base, base + width - 1))
        for s, l, r in blocks.get(env, ()):
            local = l - (l // content_width) * content_width
            local_r = r - (l // content_width) * content_width
            result.append((s, base + 1 + local, base + 1 + local_r))
    return result, width


def text_const(value: str,
               index: Sequence[int]) -> tuple[Relation, int]:
    """A single text node per environment; width 2."""
    return [(value, env * 2, env * 2 + 1) for env in index], 2


def count_roots(rel: Sequence[IntervalTuple], width: int,
                index: Sequence[int]) -> tuple[Relation, int]:
    """Per-environment root count as a text node; width 2.

    Environments without tuples count zero — the index drives the output.
    """
    counts = {env: 0 for env in index}
    max_right = -1
    for row in rel:
        if row[1] > max_right:
            max_right = row[2]
            env = row[1] // width
            if env in counts:
                counts[env] += 1
    return [(str(counts[env]), env * 2, env * 2 + 1) for env in index], 2


def data(rel: Sequence[IntervalTuple], width: int) -> Relation:
    """Atomization: text roots, and text children of non-text roots.

    Matches :func:`repro.xml.operations.data`: kept tuples decode to
    childless text nodes (descendants are simply not emitted).
    """
    result: Relation = []
    open_rights: list[int] = []
    current_env = None
    root_is_text = False
    for s, l, r in rel:
        env = l // width
        if env != current_env:
            current_env = env
            open_rights.clear()
        while open_rights and open_rights[-1] < l:
            open_rights.pop()
        depth = len(open_rights)
        if depth == 0:
            root_is_text = is_text_label(s)
            if root_is_text:
                result.append((s, l, r))
        elif depth == 1 and not root_is_text and is_text_label(s):
            result.append((s, l, r))
        open_rights.append(r)
    return result


def string_fn(rel: Sequence[IntervalTuple], width: int,
              index: Sequence[int]) -> tuple[Relation, int]:
    """``string()``: per-environment concatenation of text labels; width 2.

    One pass — text tuples arrive in document order, which is exactly
    string-value order.
    """
    parts = {env: [] for env in index}
    for s, l, _r in rel:
        if is_text_label(s):
            env = l // width
            if env in parts:
                parts[env].append(s)
    return [("".join(parts[env]), env * 2, env * 2 + 1)
            for env in index], 2


def distinct(rel: Sequence[IntervalTuple], width: int) -> Relation:
    """Structurally distinct trees per environment, first occurrence kept.

    Hash-based on canonical structural keys: linear in total size.
    """
    result: Relation = []
    for _env, block in group_by_env(rel, width):
        seen: set = set()
        for slice_ in tree_slices(block):
            key = canonical_key(slice_)
            if key not in seen:
                seen.add(key)
                result.extend(slice_)
    return result


def sort(rel: Sequence[IntervalTuple],
         width: int) -> tuple[Relation, int]:
    """Per-environment stable sort by structural tree order; width squares.

    Tree ranked ``k`` lands at block offset ``k·w`` inside the widened
    environment block, with its nodes keeping their offsets from the root.
    """
    wout = width * width
    result: Relation = []
    for env, block in group_by_env(rel, width):
        slices = list(tree_slices(block))
        slices.sort(key=canonical_key)  # Python sort is stable: doc order ties
        for rank, slice_ in enumerate(slices):
            base = env * wout + rank * width
            root_left = slice_[0][1]
            result.extend(
                (s, base + (l - root_left), base + (r - root_left))
                for (s, l, r) in slice_
            )
    return result, wout


def expand_variable(rel: Sequence[IntervalTuple], width: int,
                    root_lefts: Sequence[int]) -> Relation:
    """Re-block each tree into the environment named by its root's left end."""
    result: Relation = []
    position = -1
    boundary = -1  # right endpoint of the current tree's root
    offset = 0
    for s, l, r in rel:
        if l > boundary:  # this tuple opens the next tree (and is its root)
            position += 1
            boundary = r
            root_left = root_lefts[position]
            env = root_left // width
            offset = root_left * width - env * width
        result.append((s, l + offset, r + offset))
    return result


def gather_blocks(rel: Sequence[IntervalTuple], width: int,
                  moves: Sequence[tuple[int, int]]) -> Relation:
    """Copy the block of each origin env to its target env, in move order."""
    blocks = env_blocks(rel, width)
    result: Relation = []
    for origin, target in moves:
        block = blocks.get(origin)
        if not block:
            continue
        offset = (target - origin) * width
        result.extend((s, l + offset, r + offset) for (s, l, r) in block)
    return result
