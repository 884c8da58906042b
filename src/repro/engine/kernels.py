"""Whole-column operator kernels over :class:`IntervalColumns`.

This is the engine's one algebra: the evaluator calls these functions
and nothing else.  Each kernel is held to Definition 3.3 read literally
by the kernel property suites in ``tests/``: for every environment
block, decoding its output gives the Figure 2 operator the interpreter
runs (``xquery.functions.FUNCTIONS[fn].impl``) applied to the decoded
input, at the width Section 4.3's rule gives.  A kernel never walks
``(s, l, r)`` tuples: it turns the question into a mask over the ``d``
(depth) and ``c`` (label code) columns, finds the extents of the rows
it keeps with binary search on the sorted ``l`` column, and
materializes the answer through one gather.  Labels are
codes throughout; only ``string_fn``, whose answer is a string, and the
collation ranks below read the label dictionary.

What the paper's linear scans became.  Algorithm 5.2 finds roots by
streaming the relation with a running maximum of right endpoints; that
scan *is* a depth computation, and it runs exactly once per relation —
in the encoder's DFS, or in ``IntervalColumns.from_tuples`` — and is
kept as the ``d`` column.  ``roots`` is then ``d == 0``, ``children`` is
``d > 0`` (one level shallower), and a child or descendant step with a
name test is ``(d == 1) & (c == code)`` or ``c == code``: still one
ordered pass over the relation per operator, as Section 5 requires, but
a vector compare instead of an interpreted loop, and never a re-scan to
rediscover structure an earlier operator already knew.

:func:`_emit_runs` is the single materialization point: every kernel
that keeps or moves rows hands it run bounds ``[a, b)`` plus one
coordinate offset per run, and it gathers all four columns, shifts the
endpoints, and rebases ``d`` by the depth of each run's first row (so a
subtree copied out of its context becomes a tree of its own).  A single
run comes back as a zero-copy view of the input.

Order without strings.  ``sort`` and ``Less`` order trees by their
canonical ``(depth, label)`` keys, compared as tuples, and
:func:`order_iterations` ranks an ordered loop's iterations by tuples
of them.
:func:`collation_keys` builds no tuple: each distinct code of the
relations compared gets its collation rank — its place among their
distinct labels in Python string order, the one read of the dictionary
— and each row becomes the big-endian uint32 pair ``(d, rank)``; a
span's key is its slice of those bytes.  Every row is eight bytes, so
bytes compare pair by pair as the tuples do, a prefix before its
extensions.

Overflow discipline: widths multiply with query nesting while the rows
stay few, and NumPy wraps silently on int64 overflow — never acceptable
here.  Every kernel that places blocks tests one bound first,
:func:`overflows` — a block of the output width at the last environment
must end inside int64 — and raises :class:`WidthOverflowError` when it
fails.  The evaluator tests the same bound before it calls and spends
the freedom Definition 3.1 leaves (only relative order and nesting
matter): :func:`renormalise` rank-compresses the endpoints inside every
block, after which the width is twice the largest block and the kernel
fits.  There is no second body.
"""

from __future__ import annotations

import operator
from itertools import count as _counter
from typing import Sequence

import numpy as np

from repro.engine.columns import (
    ELEMENT,
    INT64_MAX,
    KIND_MASK,
    TEXT,
    IntervalColumns,
    distinct_labels,
    label_codes,
    labels_of,
    name_code,
)
from repro.errors import WidthOverflowError


def overflows(envs: Sequence[int], width: int) -> bool:
    """Whether a block of ``width`` at the last of the ascending ``envs``
    ends beyond int64 — the bound behind every :class:`WidthOverflowError`
    here, and the evaluator's one trigger for :func:`renormalise`.  No
    ``envs`` stands for environment 0: a width beyond int64 is unusable
    even by the empty relation."""
    last = int(envs[-1]) if len(envs) else 0
    return (last + 1) * width > INT64_MAX


def _check_fits(envs: Sequence[int], width: int, kernel: str) -> None:
    if overflows(envs, width):
        raise WidthOverflowError(
            f"{kernel}: a block of width {width} at the last environment "
            f"ends beyond int64 (renormalise the input)")


def _last_env(cols: IntervalColumns, width: int) -> np.ndarray:
    """The environment of the last row, as a 0- or 1-element array."""
    return cols.l[-1:] // max(width, 1)


def _int64(values) -> np.ndarray:
    """``values`` as an int64 array; one that does not fit is an error."""
    try:
        return np.asarray(values, dtype=np.int64)
    except OverflowError:
        raise WidthOverflowError(
            "environment index beyond int64 (compact the index)") from None


def renormalise(cols: IntervalColumns, width: int,
                blocks: "tuple[np.ndarray, np.ndarray, np.ndarray] | None"
                = None) -> tuple[IntervalColumns, int]:
    """Rank-compress the endpoints inside every environment block.

    Definition 3.1 constrains only the relative order and nesting of a
    block's ``2n`` endpoints, so replacing them by their ranks
    ``0 … 2n-1`` encodes the same forests: one stable ``argsort``, the
    ``d``/``c`` columns are shared with the input, and the new width is
    twice the largest block — however loose ``width`` was.  ``blocks``,
    when given, is ``(envs, starts, ends)``: consecutive row runs, in
    ascending coordinates, each compressed into the block of its
    environment (:func:`reblock` moves a chain's trees this way); by
    default each environment's block of ``width`` stays where it is.
    """
    count = len(cols)
    if count == 0:
        return cols, 0
    # A block wider than int64 holds every row there can be.
    envs, starts, ends = blocks if blocks is not None \
        else cols.block_bounds(min(width, INT64_MAX))
    sizes = ends - starts
    tight = 2 * int(sizes.max())
    rank = np.empty(2 * count, dtype=np.int64)
    rank[np.argsort(np.concatenate((cols.l, cols.r)), kind="stable")] = \
        np.arange(2 * count)
    # Blocks are disjoint and ordered: block k's ranks start at 2·starts[k].
    base = np.repeat(envs * tight - 2 * starts, sizes)
    return IntervalColumns(rank[:count] + base, rank[count:] + base,
                           cols.d, cols.c), tight


def _rows(cols: IntervalColumns, index: np.ndarray, d=None) -> IntervalColumns:
    """The rows at sorted positions ``index``; ``d(depths)`` re-roots them.

    A contiguous index — the children of a single root, say — is taken
    as a slice, which NumPy answers with views instead of copies.
    """
    if len(index) and index[-1] - index[0] + 1 == len(index):
        index = slice(int(index[0]), int(index[-1]) + 1)
    depths = cols.d[index]
    return IntervalColumns(cols.l[index], cols.r[index],
                           depths if d is None else d(depths), cols.c[index])


def _emit_runs(cols: IntervalColumns, a: np.ndarray, b: np.ndarray,
               offsets: "np.ndarray | None" = None) -> IntervalColumns:
    """Fused slice→shift→concat: ``cols[a[i]:b[i]] + offsets[i]`` per run.

    Runs come out in the order given (they may repeat or permute input
    rows).  All four columns move by one gather — ``arange`` mapped back
    to source positions via ``repeat`` — endpoints get one bulk add, and
    ``d`` is rebased by the depth of each run's first row.
    """
    sizes = b - a
    if not sizes.all():  # empty runs may point past the last row
        keep = sizes > 0
        a, sizes = a[keep], sizes[keep]
        offsets = None if offsets is None else offsets[keep]
    total = int(sizes.sum())
    if total == 0:
        return IntervalColumns.empty()
    base = cols.d[a]
    if len(a) > 1 and offsets is None and (a[1:] == a[:-1] + sizes[:-1]).all() \
            and (base == base[0]).all():
        a, base = a[:1], base[:1]  # back-to-back runs (a step that keeps all)
    single = len(a) == 1  # one contiguous run: views, no index arithmetic
    if single:
        source = slice(int(a[0]), int(a[0]) + total)
    else:
        starts = np.cumsum(sizes) - sizes
        source = np.arange(total) + np.repeat(a - starts, sizes)

    def spread(per_run: np.ndarray):
        return per_run[0] if single else np.repeat(per_run, sizes)

    l, r, d = cols.l[source], cols.r[source], cols.d[source]
    if offsets is not None and offsets.any():
        shift = spread(offsets)
        l, r = l + shift, r + shift
    if base.any():
        d = d - spread(base)
    return IntervalColumns(l, r, d, cols.c[source])


def _subtree_ends(cols: IntervalColumns, starts: np.ndarray) -> np.ndarray:
    """End positions of the subtrees rooted at ``starts`` (one searchsorted)."""
    return np.searchsorted(cols.l, cols.r[starts])


def _subtrees(cols: IntervalColumns, starts: np.ndarray) -> IntervalColumns:
    """The whole subtrees rooted at positions ``starts``, in order."""
    return _emit_runs(cols, starts, _subtree_ends(cols, starts))


def _trees(cols: IntervalColumns, width: int):
    """``(starts, ends, envs)`` of every top-level tree, in order."""
    starts = np.flatnonzero(cols.d == 0)
    return starts, np.append(starts[1:], len(cols)), cols.l[starts] // width


def _match(cols: IntervalColumns, label: str,
           depth: "int | None" = None) -> np.ndarray:
    """Positions of the rows labelled ``label`` (at ``depth``, if given):
    one compare on the code column, for a name and a text value alike."""
    code = name_code(label, intern=False)
    if code is None:  # a label no relation in this process carries
        return np.empty(0, dtype=np.intp)
    mask = cols.c == code
    if depth is not None:
        mask &= cols.d == depth
    return np.flatnonzero(mask)


# -- scan kernels ------------------------------------------------------------------


def roots(cols: IntervalColumns) -> IntervalColumns:
    return _rows(cols, np.flatnonzero(cols.d == 0))


def children(cols: IntervalColumns) -> IntervalColumns:
    return _rows(cols, np.flatnonzero(cols.d > 0), lambda depths: depths - 1)


def select_label(cols: IntervalColumns, label: str) -> IntervalColumns:
    """Trees rooted at the exact ``label``."""
    return _subtrees(cols, _match(cols, label, depth=0))


def select_children(cols: IntervalColumns, label: str) -> IntervalColumns:
    """Fused ``select_label ∘ children`` — the child path step.

    The children relation's roots are the depth-1 rows of the input, so
    the step is one mask and one ``searchsorted``; the (document-sized)
    children relation is never materialized.
    """
    return _subtrees(cols, _match(cols, label, depth=1))


def _dfs_offsets(lefts: np.ndarray, width: int) -> np.ndarray:
    """Where ``subtrees_dfs`` puts the copy rooted at each ``l``: block
    offset ``(l mod w)·w`` of the widened block, relative to ``l``."""
    env = lefts // width
    return env * (width * width) + (lefts - env * width) * width - lefts


def _check_squares(cols: IntervalColumns, width: int, kernel: str) -> None:
    """The widened blocks (``width²``) must still end inside int64."""
    _check_fits(_last_env(cols, width), width * width, kernel)


def subtrees_dfs(cols: IntervalColumns, width: int) -> IntervalColumns:
    """All subtrees in DFS order; output width is ``width²``."""
    if len(cols) == 0:
        return cols
    _check_squares(cols, width, "subtrees_dfs")
    starts = np.arange(len(cols))
    return _emit_runs(cols, starts, _subtree_ends(cols, starts),
                      _dfs_offsets(cols.l, width))


def select_descendants(cols: IntervalColumns, width: int,
                       label: str) -> IntervalColumns:
    """Fused ``select_label ∘ subtrees_dfs`` — the descendant path step.

    ``subtrees_dfs`` copies the subtree of *every* node only for the
    select to keep the few copies whose root matches; this emits just
    those, at the coordinates ``subtrees_dfs`` would have given them.
    """
    if len(cols) == 0:
        return cols
    _check_squares(cols, width, "select_descendants")
    starts = _match(cols, label)
    return _emit_runs(cols, starts, _subtree_ends(cols, starts),
                      _dfs_offsets(cols.l[starts], width))


def textnode_trees(cols: IntervalColumns) -> IntervalColumns:
    return _subtrees(cols, np.flatnonzero(
        (cols.d == 0) & (cols.c & KIND_MASK == TEXT)))


def elementnode_trees(cols: IntervalColumns) -> IntervalColumns:
    return _subtrees(cols, np.flatnonzero(
        (cols.d == 0) & (cols.c & KIND_MASK == ELEMENT)))


def head(cols: IntervalColumns, width: int) -> IntervalColumns:
    """The first tree of every environment."""
    _envs, starts, _ends = cols.block_bounds(width)
    return _subtrees(cols, starts)


def tail(cols: IntervalColumns, width: int) -> IntervalColumns:
    """Everything but each environment's first tree."""
    _envs, starts, ends = cols.block_bounds(width)
    return _emit_runs(cols, _subtree_ends(cols, starts), ends)


def data(cols: IntervalColumns, width: int) -> IntervalColumns:
    """Atomization: text roots, and text children of non-text roots."""
    is_root = cols.d == 0
    is_text = cols.c & KIND_MASK == TEXT
    # Each row's governing root is the latest root at or before it.
    under_text_root = is_text[np.flatnonzero(is_root)][np.cumsum(is_root) - 1]
    keep = np.flatnonzero(
        is_text & (is_root | ((cols.d == 1) & ~under_text_root)))
    # Kept rows stand alone (their descendants are not emitted).
    return _rows(cols, keep, np.zeros_like)


# -- shift kernels ------------------------------------------------------------------


def reverse(cols: IntervalColumns, width: int) -> IntervalColumns:
    """Top-level reversal per environment — one bulk shift per tree."""
    starts, ends, envs = _trees(cols, width)
    order = np.lexsort((-starts, envs))  # env ascending, trees backwards
    a = starts[order]
    base = envs[order] * width
    shift = (width - 1) - (cols.r[a] - base) - (cols.l[a] - base)
    return _emit_runs(cols, a, ends[order], shift)


def filter_by_index(cols: IntervalColumns, width: int,
                    index: Sequence[int]) -> IntervalColumns:
    """Keep tuples whose env is in the sorted ``index`` — per-block runs."""
    last = _last_env(cols, width)
    _check_fits(last, width, "filter_by_index")
    targets = _int64(index)
    targets = targets[targets <= last.max(initial=-1)]  # later envs: no rows
    return _emit_runs(cols, np.searchsorted(cols.l, targets * width),
                      np.searchsorted(cols.l, (targets + 1) * width))


def expand_variable(cols: IntervalColumns, width: int,
                    root_lefts: Sequence[int]) -> IntervalColumns:
    """Fused select→shift: re-block every tree into its per-root env.

    Tree ``k`` shifts so its block index becomes ``root_lefts[k]`` — the
    left endpoint of its root, as Section 4 numbers the iterations, or
    any other ascending numbering of them (the evaluator passes ranks
    when blocks at the left endpoints would leave int64).  Rows keep
    their order, so nothing is gathered: one ``repeat`` spreads the
    per-tree shifts and the other columns are shared with the input.
    """
    if len(cols) == 0:
        return cols
    _check_fits(root_lefts, width, "expand_variable")
    starts, ends, envs = _trees(cols, width)
    shift = np.repeat((_int64(root_lefts) - envs) * width, ends - starts)
    return IntervalColumns(cols.l + shift, cols.r + shift, cols.d, cols.c)


def reblock(cols: IntervalColumns, width: int, root_lefts: np.ndarray,
            source_width: int, targets: np.ndarray
            ) -> tuple[IntervalColumns, int]:
    """A path chain's result over a ``for`` source, moved into the
    iteration blocks: ``chain(expand_variable(S))`` from ``chain(S)``.

    ``S`` has width ``source_width`` and its top-level trees start at
    the ascending ``root_lefts``; tree ``k`` is iteration ``targets[k]``.
    Every path XFn keeps or drops whole rows per tree and keeps their
    coordinates — ``//`` widens the block to ``source_width²`` and puts
    the copy of the subtree rooted at ``y`` at block coordinate ``y`` —
    so a row's tree is one ``searchsorted`` of its (block) coordinate
    on ``root_lefts``, and it moves by whole blocks of the chain's
    ``width``, as :func:`expand_variable` moves its tree.  When those
    blocks would leave int64 the trees are rank-compressed into them
    instead (:func:`renormalise`), and the width is the tight one.
    """
    if len(cols) == 0:
        return cols, width
    scale = width // source_width
    trees = np.searchsorted(root_lefts, cols.l // scale, "right") - 1
    targets = _int64(targets)
    if overflows(targets[-1:], width):
        present, starts = np.unique(trees, return_index=True)
        ends = np.append(starts[1:], len(cols))
        moved, tight = renormalise(cols, width,
                                   (targets[present], starts, ends))
        _check_fits(targets[-1:], tight, "reblock")
        return moved, tight
    shift = ((targets - root_lefts // source_width) * width)[trees]
    return IntervalColumns(cols.l + shift, cols.r + shift,
                           cols.d, cols.c), width


def gather_blocks(cols: IntervalColumns, width: int, origins: Sequence[int],
                  targets: Sequence[int]) -> IntervalColumns:
    """Fused slice→concat: copy env blocks to target envs in one pass.

    The block of ``origins[k]`` goes to ``targets[k]``, targets strictly
    ascending — the copy plan behind nested-loop iteration and join pair
    construction (the evaluator's ``_gather``).
    """
    if len(origins) == 0 or len(cols) == 0:
        return IntervalColumns.empty()
    origins, targets = _int64(origins), _int64(targets)
    # Origins past the last row name empty blocks; drop them so that only
    # blocks that exist are multiplied out.
    exists = origins <= _last_env(cols, width)[0]
    if not exists.all():
        origins, targets = origins[exists], targets[exists]
    _check_fits(targets[-1:], width, "gather_blocks")
    return _emit_runs(cols, np.searchsorted(cols.l, origins * width),
                      np.searchsorted(cols.l, (origins + 1) * width),
                      (targets - origins) * width)


# -- constructors ------------------------------------------------------------------


def _scatter(dest_a: np.ndarray, a, dest_b: np.ndarray,
             b: np.ndarray) -> np.ndarray:
    """Merge two columns into one, each value at its computed position."""
    out = np.empty(len(dest_a) + len(dest_b), dtype=b.dtype)
    out[dest_a] = a
    out[dest_b] = b
    return out


def concat(left: IntervalColumns, left_width: int, right: IntervalColumns,
           right_width: int) -> IntervalColumns:
    """Per-env concatenation; output width is the sum of widths.

    Each row's shift depends only on its own env (left gains
    env·right_width, right env·left_width + left_width) and its output
    position is its own index plus the other side's rows before it — two
    searchsorteds, no per-block loop.
    """
    width = left_width + right_width
    _check_fits(_last_env(left, left_width), width, "concat")
    _check_fits(_last_env(right, right_width), width, "concat")
    left_env = left.l // max(left_width, 1)
    right_env = right.l // max(right_width, 1)
    at_left = np.arange(len(left)) \
        + np.searchsorted(right.l, left_env * right_width)
    at_right = np.arange(len(right)) \
        + np.searchsorted(left.l, (right_env + 1) * left_width)
    left_shift = left_env * right_width
    right_shift = right_env * left_width + left_width
    return IntervalColumns(
        _scatter(at_left, left.l + left_shift, at_right, right.l + right_shift),
        _scatter(at_left, left.r + left_shift, at_right, right.r + right_shift),
        _scatter(at_left, left.d, at_right, right.d),
        _scatter(at_left, left.c, at_right, right.c))


def xnode(label: str, content: IntervalColumns, content_width: int,
          index: Sequence[int]) -> tuple[IntervalColumns, int]:
    """Wrap each environment's content under a new root node.

    One root per entry of the (strictly increasing) ``index``; content
    rows whose env is in the index shift by ``2·env + 1`` and sink one
    level; roots and content are scattered to computed merge positions.
    """
    width = content_width + 2
    _check_fits(index[-1:], width, "xnode")
    envs = _int64(index)
    if len(envs) == 0:
        return IntervalColumns.empty(), width
    env_of = content.l // max(content_width, 1)
    slot = np.searchsorted(envs, env_of)
    kept = np.flatnonzero(envs[np.minimum(slot, len(envs) - 1)] == env_of)
    if len(kept) < len(content):
        content = _rows(content, kept)
        env_of, slot = env_of[kept], slot[kept]
    at_root = np.arange(len(envs)) + np.searchsorted(env_of, envs)
    at_content = np.arange(len(content)) + slot + 1
    shift = 2 * env_of + 1
    return IntervalColumns(
        _scatter(at_root, envs * width, at_content, content.l + shift),
        _scatter(at_root, envs * width + (width - 1), at_content,
                 content.r + shift),
        _scatter(at_root, 0, at_content, content.d + 1),
        _scatter(at_root, name_code(label), at_content, content.c),
    ), width


def _leaves(codes: np.ndarray,
            index: np.ndarray) -> tuple[IntervalColumns, int]:
    """One childless node per environment of ``index``; width 2."""
    _check_fits(index[-1:], 2, "leaf constructor")
    lefts = 2 * index
    return IntervalColumns(lefts, lefts + 1,
                           np.zeros(len(index), dtype=np.int32), codes), 2


def _per_env(index: np.ndarray, envs: np.ndarray, values: np.ndarray,
             fill) -> np.ndarray:
    """``values[k]`` at the position of ``envs[k]`` in the sorted
    ``index`` and ``fill`` everywhere else; both ascend, and an env the
    index does not hold is dropped."""
    out = np.full(len(index), fill, dtype=values.dtype)
    if len(index) and len(envs):
        at = np.minimum(np.searchsorted(index, envs), len(index) - 1)
        hit = index[at] == envs
        out[at[hit]] = values[hit]
    return out


def text_const(value: str, index: Sequence[int]) -> tuple[IntervalColumns, int]:
    """A single text node per environment; width 2."""
    envs = _int64(index)
    return _leaves(np.full(len(envs), name_code(value), dtype=np.int32), envs)


def _count_leaves(counts: np.ndarray,
                  envs: np.ndarray) -> tuple[IntervalColumns, int]:
    """``count``'s answer: ``counts[k]`` as a text node in environment
    ``envs[k]``; width 2.  A label is built per distinct count, not per
    environment, and looked up in a table indexed by the count."""
    seen = np.bincount(counts, minlength=1)
    distinct = np.flatnonzero(seen)
    table = np.empty(len(seen), dtype=np.int32)
    table[distinct] = label_codes([str(count)
                                   for count in distinct.tolist()])
    return _leaves(table[counts], envs)


def _tally(owners: np.ndarray, envs: np.ndarray,
           weights: np.ndarray | None = None) -> np.ndarray:
    """Per environment of ``envs``, how many of ``owners`` (ascending,
    each one of ``envs``) it is — or the sum of their ``weights``: one
    ``searchsorted``."""
    bounds = np.append(np.searchsorted(owners, envs), len(owners))
    if weights is None:
        return np.diff(bounds)
    summed = np.concatenate(([0], np.cumsum(weights)))
    return summed[bounds[1:]] - summed[bounds[:-1]]


def root_counts(cols: IntervalColumns, width: int,
                index: Sequence[int]) -> np.ndarray:
    """The number of trees in each environment's block, per environment
    of ``index``."""
    return _tally(cols.l[cols.d == 0] // width, _int64(index))


def count_roots(cols: IntervalColumns, width: int,
                index: Sequence[int]) -> tuple[IntervalColumns, int]:
    """Per-environment root count as a text node; width 2."""
    envs = _int64(index)
    return _count_leaves(root_counts(cols, width, envs), envs)


def count_pairs(ix: np.ndarray, index: Sequence[int],
                weights: np.ndarray | None = None,
                ) -> tuple[IntervalColumns, int]:
    """A join's ``count`` without its pairs (Section 6.2's join +
    group): per environment of ``index``, the number of pairs whose
    outer environment ``ix`` (ascending, each one of ``index``) it is —
    or the sum of their ``weights``, the trees each pair's body holds —
    as a text node; width 2."""
    envs = _int64(index)
    return _count_leaves(_tally(ix, envs, weights), envs)


def string_fn(cols: IntervalColumns, width: int,
              index: Sequence[int]) -> tuple[IntervalColumns, int]:
    """``string()``: per-env concatenation of text labels; width 2."""
    at = np.flatnonzero(cols.c & KIND_MASK == TEXT)
    present, first = np.unique(cols.l[at] // width, return_index=True)
    bounds = np.append(first, len(at)).tolist()
    texts = labels_of(cols.c[at]).tolist()
    parts = ["".join(texts[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    envs = _int64(index)
    return _leaves(_per_env(envs, present, label_codes(parts),
                            name_code("")), envs)


# -- structural-key kernels ---------------------------------------------------------


def span_ids(*sides) -> list[np.ndarray]:
    """One integer per span of rows, equal exactly when the spans'
    canonical keys are — across every side, so one call's ids compare.

    A side is ``(cols, starts, ends)``; a span starts at a root of the
    relation, so its ``d`` values are its own depths.  The id of a
    one-row span is its ``c``.  When any span anywhere is longer (or
    empty), every span is numbered through one dict over byte slices of
    the interleaved int32 ``(d, c)`` rows — a code names one label, so
    equal bytes are equal keys; linear in key nodes.
    """
    if all((ends - starts == 1).all() for _cols, starts, ends in sides):
        return [cols.c[starts] for cols, starts, _ends in sides]
    ids: dict[bytes, int] = {}
    fresh = _counter()  # first sightings take a new number, not a dense one
    numbered = []
    for cols, starts, ends in sides:
        blob = np.column_stack((cols.d, cols.c)).tobytes()
        keys = [blob[a:b] for a, b in zip((8 * starts).tolist(),
                                          (8 * ends).tolist())]
        numbered.append(np.fromiter(map(ids.setdefault, keys, fresh),
                                    np.int64, len(keys)))
    return numbered


def collation_keys(*sides) -> list[list[bytes]]:
    """One byte string per span of rows, ordered as the spans' canonical
    ``(depth, label)`` keys are — across every side, so one call's keys
    compare.

    A side is ``(cols, starts, ends)``, as for :func:`span_ids`.  Each
    distinct code of all sides gets its collation rank, its place among
    their distinct labels in Python string order (the dictionary is read
    once per distinct code); each row becomes the big-endian uint32 pair
    ``(d, rank)``, and a span's key is its slice of those eight-byte
    rows.
    """
    distinct, inverse = np.unique(
        np.concatenate([cols.c for cols, _starts, _ends in sides]),
        return_inverse=True)
    labels = distinct_labels(distinct)
    rank = np.empty(len(distinct), dtype=np.int64)
    rank[sorted(range(len(labels)), key=labels.__getitem__)] = \
        np.arange(len(distinct))
    depths = np.concatenate([cols.d for cols, _starts, _ends in sides])
    blob = np.column_stack((depths, rank[inverse])).astype(">u4").tobytes()
    keys, base = [], 0
    for cols, starts, ends in sides:
        keys.append([blob[a:b] for a, b in zip((8 * (starts + base)).tolist(),
                                               (8 * (ends + base)).tolist())])
        base += len(cols)
    return keys


def first_occurrences(envs: np.ndarray, ids: np.ndarray):
    """An index selecting the first of every distinct ``(env, id)`` pair,
    in order; ``envs`` ascends, and span ids stay below 2³¹."""
    new_env = np.ones(len(envs), dtype=np.bool_)
    new_env[1:] = envs[1:] != envs[:-1]
    if new_env.all():  # one key per environment: nothing can repeat
        return slice(None)
    packed = np.cumsum(new_env) << 31 | ids
    return np.sort(np.unique(packed, return_index=True)[1])


def _block_spans(cols: IntervalColumns, width: int, index: Sequence[int]):
    """``(starts, ends, envs)`` of the block of every environment of
    ``index``; one that holds no rows is an empty span."""
    envs = _int64(index)
    starts = np.zeros(len(envs), dtype=np.intp)
    ends = starts.copy()
    if len(cols):
        present, a, b = cols.block_bounds(width)
        at = np.searchsorted(envs, present)
        starts[at], ends[at] = a, b
    return starts, ends, envs


def key_ids(existential: bool, *sides) -> list[tuple[np.ndarray, np.ndarray]]:
    """``(envs, ids)`` of the structural keys of every ``(cols, width,
    index)`` side, ids comparable across sides.

    Existential (SomeEqual) keys are per top-level tree, repeats within
    an environment dropped; deep-Equal keys are per environment of the
    index, the empty forest included.
    """
    spans = [_trees(cols, max(width, 1)) if existential
             else _block_spans(cols, width, index)
             for cols, width, index in sides]
    ids = span_ids(*((side[0], starts, ends)
                     for side, (starts, ends, _envs) in zip(sides, spans)))
    keyed = []
    for (_starts, _ends, envs), key in zip(spans, ids):
        if existential:
            first = first_occurrences(envs, key)
            envs, key = envs[first], key[first]
        keyed.append((envs, key))
    return keyed


def _equal_runs(outer: np.ndarray, inner: np.ndarray):
    """The merge join on integer keys: one stable argsort of the inner
    ids, two searchsorteds of the outer ids.  Returns the inner order
    and, per outer id, the run ``[lo, hi)`` of its equals in that order."""
    order = np.argsort(inner, kind="stable")
    ranked = inner[order]
    return (order, np.searchsorted(ranked, outer, "left"),
            np.searchsorted(ranked, outer, "right"))


def match_ids(outer: np.ndarray, inner: np.ndarray):
    """Positions ``(i, j)`` of every ``outer[i] == inner[j]``: the equal
    runs of the merge, expanded by repeat."""
    order, lo, hi = _equal_runs(outer, inner)
    runs = hi - lo
    left = np.repeat(np.arange(len(outer)), runs)
    skipped = lo - (np.cumsum(runs) - runs)
    return left, order[np.arange(len(left)) + np.repeat(skipped, runs)]


def equal_envs(existential: bool, left, right) -> np.ndarray:
    """The environments of one index in which ``left`` and ``right`` hold
    equal forests — or, existentially, some pair of equal trees."""
    (envs, left_ids), (right_envs, right_ids) = key_ids(
        existential, left, right)
    if not existential:  # one key per environment, both sides
        return envs[left_ids == right_ids]
    # Equal trees *of one environment*: merge on (rank of env, id), both
    # below 2³¹; a run that is not empty is a match.
    index = _int64(left[2])
    _order, lo, hi = _equal_runs(
        np.searchsorted(index, envs) << 31 | left_ids,
        np.searchsorted(index, right_envs) << 31 | right_ids)
    return envs[hi > lo]


def less_envs(left, right) -> np.ndarray:
    """A mask over one index: the environments in which the ``left``
    forest is structurally less than the ``right`` one (the empty forest
    is less than any other).  A side is ``(cols, width, index)``, as for
    :func:`equal_envs`; the collation ranks are taken over both sides at
    once, so their keys compare."""
    spans = [_block_spans(*side) for side in (left, right)]
    left_keys, right_keys = collation_keys(
        *((side[0], starts, ends)
          for side, (starts, ends, _envs) in zip((left, right), spans)))
    return np.fromiter(map(operator.lt, left_keys, right_keys), np.bool_,
                       len(left_keys))


def distinct(cols: IntervalColumns, width: int) -> IntervalColumns:
    """Structurally distinct trees per env, first occurrence kept."""
    starts, ends, envs = _trees(cols, width)
    (ids,) = span_ids((cols, starts, ends))
    keep = first_occurrences(envs, ids)
    return _emit_runs(cols, starts[keep], ends[keep])


def _ranked(order: list[int], envs: np.ndarray):
    """``(order, env, rank)``: the positions of ``order`` grouped by
    their environments ``envs`` — each keeping its positions in
    ``order``'s order — each one's environment, and its rank there."""
    order = np.array(order, dtype=np.int64)
    order = order[np.argsort(envs[order], kind="stable")]
    env = envs[order]
    first = np.searchsorted(env, env)  # sorted position of each env's first
    return order, env, np.arange(len(order)) - first


def sort(cols: IntervalColumns, width: int) -> tuple[IntervalColumns, int]:
    """Per-env stable sort by structural tree order; width squares.

    One stable sort of every tree's collation key (document order breaks
    ties), then one stable ``argsort`` by environment.
    """
    wout = width * width
    if len(cols) == 0:
        return cols, wout
    _check_squares(cols, width, "sort")
    starts, ends, envs = _trees(cols, width)
    (keys,) = collation_keys((cols, starts, ends))
    order, env, rank = _ranked(sorted(range(len(keys)), key=keys.__getitem__),
                               envs)
    a = starts[order]
    return _emit_runs(cols, a, ends[order],
                      env * wout + rank * width - cols.l[a]), wout


def order_iterations(values: Sequence[tuple[IntervalColumns, int]],
                     index: Sequence[int], fan: int, descending: bool
                     ) -> tuple[np.ndarray, np.ndarray]:
    """``order by`` without tuples: the iterations of ``index`` in order
    within each enclosing environment ``index // fan``, as ``(origins,
    targets)`` for :func:`gather_blocks` — iteration ``origins[k]`` goes
    to ``env · fan + rank``.

    An iteration's sort key is the tuple of the collation keys of its
    blocks of the ``values`` ``(cols, width)``, in turn: the atomized
    key, then each clause variable's value.  That orders the iterations
    as the packed trees ``<#tuple><#key>k</#key><#v_x>x</#v_x>…</#tuple>``
    of the same values sort — key first, then each value, a value that
    is a prefix of another before it — and equal tuples keep index
    order.  ``descending`` reverses the whole order, as ``reverse`` does
    the sorted forest.  No tuple is built and no width squares.
    """
    index = _int64(index)
    sides = [(cols, *_block_spans(cols, width, index)[:2])
             for cols, width in values]
    keys = list(zip(*collation_keys(*sides)))
    order = sorted(range(len(keys)), key=keys.__getitem__)
    if descending:
        order.reverse()
    order, env, rank = _ranked(order, index // fan)
    return index[order], env * fan + rank

