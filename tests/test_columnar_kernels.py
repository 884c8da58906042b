"""Property suite: every columnar kernel equals its list-based reference.

For each operator the engine has two implementations — the original
tuple-at-a-time functions of :mod:`repro.engine.operators` (the semantic
ground truth) and the same-named whole-column kernels of
:mod:`repro.engine.kernels`.  These properties assert pointwise equality
(same tuples, same order, same width) on randomized blocked relations,
near the origin and far from it (the same blocks 2**40 environments out,
where a 32-bit slip or a wrapped product would show).  After every
kernel the carried depth and name-code columns must equal what
``from_tuples`` derives from the triples alone.  Edge cases: empty
relations, minimal widths, and outputs that would leave int64 — there
the kernel must raise, ``renormalise`` must make it fit, and the answer
must be the reference's forest for forest (``TestOverflow``).
"""

from __future__ import annotations

import itertools
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.plan import JoinStrategy
from repro.encoding.interval import decode, encode
from repro.engine import kernels
from repro.engine import operators as ops
from repro.engine.columns import (
    INT64_MAX,
    IntervalColumns,
    label_codes,
    name_code,
)
from repro.engine.evaluator import DIEngine
from repro.engine.structural import canonical_key, tree_keys
from repro.engine.relation import group_by_env, tree_slices
from repro.engine.validate import validate_value
from repro.errors import WidthOverflowError

from tests.strategies import LABELS, forests

#: Env shift that keeps every coordinate inside int64 but far from zero.
FAR_ENV = 2 ** 40


def far(rows, width):
    """The same blocks ``FAR_ENV`` environments further out."""
    return [(s, l + FAR_ENV * width, r + FAR_ENV * width)
            for (s, l, r) in rows]


def near_top(rows, width):
    """The same blocks with endpoints just below 2**62: environment
    numbers that no product or packed key may be computed from."""
    shift = (2 ** 62 // width - 8) * width
    return [(s, l + shift, r + shift) for (s, l, r) in rows]


def forests_in_order(rel, width):
    """The forest of every non-empty environment block, in block order."""
    return [decode(list(block)) for _env, block in group_by_env(list(rel),
                                                                width)]


def assert_derived(rel: IntervalColumns) -> None:
    """The invariant: ``d`` is a function of the triples, and ``c`` codes
    the labels — names and text values alike."""
    fresh = IntervalColumns.from_tuples(rel.tuples())
    labels = rel.labels().tolist()
    assert rel.d.tolist() == fresh.d.tolist()
    assert rel.c.tolist() == fresh.c.tolist() \
        == label_codes(labels).tolist() \
        == [name_code(label, intern=False) for label in labels]
    assert len(set(rel.c.tolist())) == len(set(labels))
    assert len(rel.l) == len(rel.r) == len(rel.d) == len(rel.c)


@st.composite
def blocked(draw, max_envs: int = 4, max_depth: int = 3,
            labels: tuple[str, ...] = LABELS):
    """A blocked relation: ``(rows, width, env_index)``.

    Random environments (possibly none, possibly with gaps and empty
    forests) at a random — sometimes tight, sometimes slack — width.
    ``max_depth=1`` makes every tree a single node of any label class.
    A short ``labels`` alphabet makes structurally equal trees common.
    """
    count = draw(st.integers(min_value=0, max_value=max_envs))
    env_ids = sorted(draw(st.sets(st.integers(min_value=0, max_value=6),
                                  min_size=count, max_size=count)))
    encodings = [encode(draw(forests(max_trees=3, max_depth=max_depth,
                                     labels=labels)))
                 for _ in env_ids]
    minimum = max((enc.width for enc in encodings), default=0)
    # Width 1 is legal only for all-empty blocks — the smallest interval
    # needs two endpoints — so the floor is max(minimum, 1).
    width = max(minimum, 1) + draw(st.integers(min_value=0, max_value=5))
    rows = []
    index = []
    for env, enc in zip(env_ids, encodings):
        index.append(env)
        rows.extend((s, l + env * width, r + env * width)
                    for (s, l, r) in enc.tuples)
    return rows, width, index


#: Join-key relations: flat (every tree one node) or structured, over one
#: label of each class so that equal keys are common — or over a single
#: label, so that keys differ in shape alone.
keyed = blocked(max_depth=1, labels=("<a>", "@k", "x")) \
    | blocked(labels=("<a>", "@k", "x")) | blocked(labels=("<a>",))


def check(kernel, reference, rows, *args, width=None):
    """Kernel(columns) must equal reference(rows), near and far.

    With ``width`` given the relation is also run ``FAR_ENV`` blocks out;
    kernels that take env-indexed arguments shift those themselves and
    call this once per placement.
    """
    inputs = [list(rows)]
    if width is not None and rows:
        inputs.append(far(rows, width))
    for variant in inputs:
        expected = reference(list(variant), *args)
        result = kernel(IntervalColumns.from_tuples(variant), *args)
        if isinstance(expected, tuple):  # (relation, width) operators
            assert isinstance(result, tuple)
            assert result[1] == expected[1]
            result, expected = result[0], expected[0]
        assert result.tuples() == expected
        assert_derived(result)


class TestScanKernels:
    @given(blocked())
    def test_roots(self, data):
        rows, width, _index = data
        check(kernels.roots, ops.roots, rows, width=width)

    @given(blocked())
    def test_children(self, data):
        rows, width, _index = data
        check(kernels.children, ops.children, rows, width=width)

    @given(blocked(), st.sampled_from(["<a>", "<b>", "x", "@id"]))
    def test_select_trees(self, data, label):
        rows, width, _index = data
        check(kernels.select_label,
              lambda rel, lab: ops.select_trees(
                  rel, lambda s: s == lab), rows, label, width=width)

    @given(blocked(), st.sampled_from(["<a>", "<b>", "x", "@id"]))
    def test_select_children_fusion(self, data, label):
        """The fused path-step kernel equals select after children."""
        rows, width, _index = data
        check(kernels.select_children,
              lambda rel, lab: ops.select_trees(
                  ops.children(rel), lambda s: s == lab),
              rows, label, width=width)

    @given(blocked(max_envs=3),
           st.sampled_from(["<a>", "<b>", "x", "@id", "<never-seen>"]))
    def test_select_descendants_fusion(self, data, label):
        """The fused ``//name`` kernel equals select after subtrees_dfs,
        row for row."""
        rows, width, _index = data
        check(kernels.select_descendants,
              lambda rel, w, lab: ops.select_trees(
                  ops.subtrees_dfs(rel, w), lambda s: s == lab),
              rows, width, label, width=width)
        cols = IntervalColumns.from_tuples(rows)
        assert kernels.select_descendants(cols, width, label).tuples() == \
            kernels.select_label(kernels.subtrees_dfs(cols, width),
                                 label).tuples()

    @given(blocked())
    def test_textnode_and_elementnode_trees(self, data):
        rows, width, _index = data
        from repro.xml.forest import is_element_label, is_text_label
        check(kernels.textnode_trees,
              lambda rel: ops.select_trees(rel, is_text_label), rows,
              width=width)
        check(kernels.elementnode_trees,
              lambda rel: ops.select_trees(rel, is_element_label),
              rows, width=width)

    @given(blocked())
    def test_head(self, data):
        rows, width, _index = data
        check(kernels.head, ops.head, rows, width, width=width)

    @given(blocked())
    def test_tail(self, data):
        rows, width, _index = data
        check(kernels.tail, ops.tail, rows, width, width=width)

    @given(blocked())
    def test_data(self, data):
        rows, width, _index = data
        check(kernels.data, ops.data, rows, width, width=width)


class TestShiftKernels:
    @given(blocked())
    def test_reverse(self, data):
        rows, width, _index = data
        check(kernels.reverse, ops.reverse, rows, width, width=width)

    @given(blocked(max_envs=3))
    def test_subtrees_dfs(self, data):
        rows, width, _index = data
        check(kernels.subtrees_dfs, ops.subtrees_dfs, rows, width, width=width)

    @given(blocked())
    def test_distinct(self, data):
        rows, width, _index = data
        check(kernels.distinct, ops.distinct, rows, width, width=width)

    @given(blocked())
    def test_sort(self, data):
        rows, width, _index = data
        check(kernels.sort, ops.sort, rows, width, width=width)

    @given(blocked(), st.lists(st.integers(min_value=0, max_value=8),
                               unique=True).map(sorted))
    def test_filter_by_index(self, data, index):
        rows, width, _index = data
        check(kernels.filter_by_index, ops.filter_by_index, rows,
              width, index)
        check(kernels.filter_by_index, ops.filter_by_index,
              far(rows, width), width, [env + FAR_ENV for env in index])

    @given(blocked())
    def test_expand_variable(self, data):
        rows, width, _index = data
        root_lefts = [row[1] for row in ops.roots(rows)]
        check(kernels.expand_variable, ops.expand_variable, rows,
              width, root_lefts)
        check(kernels.expand_variable, ops.expand_variable,
              far(rows, width), width,
              [left + FAR_ENV * width for left in root_lefts])

    @given(blocked(), st.data())
    def test_expand_variable_into_any_numbering(self, data, drawn):
        """Tree ``k`` lands, unchanged, in the block it is told to — the
        root left endpoints are one ascending numbering among many."""
        rows, width, _index = data
        cols = IntervalColumns.from_tuples(rows)
        trees = [decode(list(tree)) for tree in tree_slices(rows)]
        targets = sorted(drawn.draw(st.sets(
            st.integers(min_value=0, max_value=3 * len(trees)),
            min_size=len(trees), max_size=len(trees))))
        result = kernels.expand_variable(cols, width, targets)
        assert_derived(result)
        assert [(env, decode(list(block))) for env, block
                in group_by_env(result.tuples(), width)] \
            == list(zip(targets, trees))

    @given(blocked(), st.data())
    def test_gather_blocks(self, data, drawn):
        rows, width, index = data
        origins = drawn.draw(st.lists(
            st.sampled_from(index + [7, 8]), min_size=0, max_size=6)
            if index else st.just([]))
        targets = sorted(drawn.draw(st.sets(
            st.integers(min_value=0, max_value=30),
            min_size=len(origins), max_size=len(origins))))
        moves = list(zip(origins, targets))
        check(lambda cols, width, _moves: kernels.gather_blocks(
                  cols, width, np.array(origins, dtype=np.int64),
                  np.array(targets, dtype=np.int64)),
              ops.gather_blocks, rows, width, moves)


class TestConstructorKernels:
    @given(blocked(), blocked())
    def test_concat(self, left_data, right_data):
        left_rows, left_width, _li = left_data
        right_rows, right_width, _ri = right_data
        variants = [(left_rows, right_rows)]
        if left_rows or right_rows:
            # Same env ids on both sides, so the blocks still pair up.
            variants.append((far(left_rows, left_width),
                             far(right_rows, right_width)))
        for left, right in variants:
            expected = ops.concat(left, left_width, right, right_width)
            result = kernels.concat(
                IntervalColumns.from_tuples(left), left_width,
                IntervalColumns.from_tuples(right), right_width)
            assert result.tuples() == expected
            assert_derived(result)

    @given(blocked(), st.sampled_from(["<w>", "<a>"]))
    def test_xnode(self, data, label):
        rows, width, index = data
        variants = [(rows, index)]
        if rows:
            variants.append((far(rows, width),
                             [env + FAR_ENV for env in index]))
        for variant, envs in variants:
            expected = ops.xnode(label, list(variant), width, envs)
            result = kernels.xnode(label, IntervalColumns.from_tuples(variant),
                                   width, envs)
            assert result[1] == expected[1]
            assert result[0].tuples() == expected[0]
            assert_derived(result[0])

    @given(st.lists(st.integers(min_value=0, max_value=40),
                    unique=True).map(sorted),
           st.sampled_from(["", "x", "some text"]))
    def test_text_const(self, index, value):
        expected = ops.text_const(value, index)
        result = kernels.text_const(value, index)
        assert result[1] == expected[1]
        assert result[0].tuples() == expected[0]
        assert_derived(result[0])

    @given(blocked())
    def test_count_roots(self, data):
        rows, width, index = data
        check(kernels.count_roots, ops.count_roots, rows, width, index)

    @given(blocked())
    def test_string_fn(self, data):
        rows, width, index = data
        check(kernels.string_fn, ops.string_fn, rows, width, index)


class TestStructuralKernels:
    @given(blocked())
    def test_encoder_depths_match_derivation(self, data):
        """The encoder's DFS depths are what ``from_tuples`` derives."""
        from repro.encoding.interval import decode, encode_columns
        rows, _width, _index = data
        cols, _w = encode_columns(decode(rows))
        assert_derived(cols)

    @given(blocked())
    def test_collation_keys_order_as_canonical_keys(self, data):
        """Every environment block's byte key compares with every other
        one — the empty block included — as their canonical
        ``(depth, label)`` keys do."""
        rows, width, index = data
        cols = IntervalColumns.from_tuples(rows)
        starts, ends, _envs = kernels._block_spans(cols, width, index)
        (keys,) = kernels.collation_keys((cols, starts, ends))
        blocks = {env: list(block) for env, block in group_by_env(rows, width)}
        canonical = [canonical_key(blocks.get(env, [])) for env in index]
        for one, other in itertools.product(range(len(index)), repeat=2):
            assert (keys[one] < keys[other]) \
                == (canonical[one] < canonical[other])
            assert (keys[one] == keys[other]) \
                == (canonical[one] == canonical[other])

    @given(keyed, keyed)
    def test_span_ids_number_the_canonical_keys(self, outer, inner):
        """Two spans get one id exactly when their canonical keys are
        equal — across both sides, flat keys (every tree one node: the
        id is the label code) and structured ones (one dict over the
        ``(d, c)`` bytes) alike."""
        sides, keys = [], []
        for rows, width, _index in (outer, inner):
            cols = IntervalColumns.from_tuples(rows)
            starts, ends, _envs = kernels._trees(cols, width)
            sides.append((cols, starts, ends))
            keys += [key for _env, block in group_by_env(rows, width)
                     for key in tree_keys(list(block))]
        ids = np.concatenate(kernels.span_ids(*sides)).tolist()
        assert len(ids) == len(keys)
        assert len(set(zip(ids, keys))) == len(set(ids)) == len(set(keys))

    def test_span_ids_read_depths_and_whole_spans(self):
        """The two halves of a structured key: same labels in another
        shape, and the same root over other children, are other keys."""
        chain = IntervalColumns.from_tuples(
            [("<a>", 0, 5), ("<b>", 1, 4), ("x", 2, 3)])
        fan = IntervalColumns.from_tuples(
            [("<a>", 0, 5), ("<b>", 1, 2), ("x", 3, 4)])
        leaf = IntervalColumns.from_tuples([("<a>", 0, 1)])
        whole = (np.array([0]), np.array([3]))
        ids = kernels.span_ids((chain, *whole), (fan, *whole),
                               (leaf, np.array([0]), np.array([1])),
                               (chain, *whole))
        assert len({int(one[0]) for one in ids}) == 3
        assert ids[0] == ids[3]

    @settings(deadline=None)
    @given(keyed, keyed, st.booleans(), st.sampled_from(list(JoinStrategy)))
    def test_match_pairs_equal_brute_force(self, outer, inner, existential,
                                           strategy):
        """The join matcher against keys compared one pair at a time:
        per tree (``tree_keys``) for an existential join, per environment
        of the index — the empty forest included — for a deep-Equal one;
        near the origin and with environment numbers near 2**62."""
        def keys(rows, width, index):
            blocks = {env: list(block)
                      for env, block in group_by_env(rows, width)}
            if existential:
                return {env: set(tree_keys(blocks[env])) for env in blocks}
            return {env: {canonical_key(blocks.get(env, []))}
                    for env in index}

        for place in (lambda rows, width: rows, near_top):
            sides, side_keys = [], []
            for rows, width, index in (outer, inner):
                placed = place(rows, width)
                shift = (placed[0][1] - rows[0][1]) // width if rows else 0
                index = [env + shift for env in index]
                sides += [IntervalColumns.from_tuples(placed), width, index]
                side_keys.append(keys(placed, width, index))
            expected = sorted(
                (ix, iy) for ix, mine in side_keys[0].items()
                for iy, theirs in side_keys[1].items() if mine & theirs)
            ix, iy = DIEngine()._match_pairs(
                *sides, existential=existential, strategy=strategy)
            assert ix.dtype == iy.dtype == np.int64
            assert list(zip(ix.tolist(), iy.tolist())) == expected

    @given(keyed)
    def test_distinct_near_the_top_of_int64(self, data):
        rows, width, _index = data
        placed = near_top(rows, width)
        result = kernels.distinct(IntervalColumns.from_tuples(placed), width)
        assert result.tuples() == ops.distinct(placed, width)
        assert_derived(result)

    @given(blocked())
    def test_tree_slices_on_columns(self, data):
        rows, width, _index = data
        cols = IntervalColumns.from_tuples(rows)
        for (_e, block), (_e2, ref) in zip(group_by_env(cols, width),
                                           group_by_env(rows, width)):
            got = [list(slice_) for slice_ in tree_slices(block)]
            want = [list(slice_) for slice_ in tree_slices(list(ref))]
            assert got == want


class TestDerivedColumns:
    """``d`` and ``c`` stay functions of the triples wherever a relation
    goes: through any chain of kernels, slicing, pickling, and a
    shared-memory export/attach."""

    #: name → (list form, kernel form) of width-aware unary steps, each
    #: mapping ``(rel, width)`` to ``(rel, width)``.
    STEPS = {
        "roots": (lambda r, w: (ops.roots(r), w),
                  lambda c, w: (kernels.roots(c), w)),
        "children": (lambda r, w: (ops.children(r), w),
                     lambda c, w: (kernels.children(c), w)),
        "select": (lambda r, w: (ops.select_trees(
                       r, lambda s: s == "<a>"), w),
                   lambda c, w: (kernels.select_label(c, "<a>"), w)),
        "child_step": (lambda r, w: (ops.select_trees(
                           ops.children(r), lambda s: s == "<b>"), w),
                       lambda c, w: (kernels.select_children(c, "<b>"), w)),
        "descendant_step": (
            lambda r, w: (ops.select_trees(
                ops.subtrees_dfs(r, w), lambda s: s == "<a>"), w * w),
            lambda c, w: (kernels.select_descendants(c, w, "<a>"), w * w)),
        "subtrees": (lambda r, w: (ops.subtrees_dfs(r, w), w * w),
                     lambda c, w: (kernels.subtrees_dfs(c, w), w * w)),
        "elements": (lambda r, w: (ops.elementnode_trees(r), w),
                     lambda c, w: (kernels.elementnode_trees(c), w)),
        "head": (lambda r, w: (ops.head(r, w), w),
                 lambda c, w: (kernels.head(c, w), w)),
        "tail": (lambda r, w: (ops.tail(r, w), w),
                 lambda c, w: (kernels.tail(c, w), w)),
        "data": (lambda r, w: (ops.data(r, w), w),
                 lambda c, w: (kernels.data(c, w), w)),
        "reverse": (lambda r, w: (ops.reverse(r, w), w),
                    lambda c, w: (kernels.reverse(c, w), w)),
        "distinct": (lambda r, w: (ops.distinct(r, w), w),
                     lambda c, w: (kernels.distinct(c, w), w)),
        "sort": (ops.sort, kernels.sort),
        "twice": (lambda r, w: (ops.concat(r, w, r, w), 2 * w),
                  lambda c, w: (kernels.concat(c, w, c, w), 2 * w)),
        "wrap": (lambda r, w: ops.xnode(
                     "<w>", r, w, sorted({row[1] // w for row in r})),
                 lambda c, w: kernels.xnode("<w>", c, w,
                                            c.block_bounds(w)[0])),
        "expand": (lambda r, w: (ops.expand_variable(
                       r, w, [row[1] for row in ops.roots(r)]), w),
                   lambda c, w: (kernels.expand_variable(
                       c, w, [row[1] for row in kernels.roots(c)]), w)),
    }

    @settings(max_examples=150, deadline=None)
    @given(blocked(max_envs=3),
           st.lists(st.sampled_from(sorted(STEPS)), min_size=1, max_size=5))
    def test_kernel_chains(self, data, chain):
        """Chains squaring the width a few times run off the end of int64
        on their own (the reference side is Python integers and keeps
        going): there the kernel raises, the chain renormalises as the
        evaluator would, and from then on the two sides agree forest for
        forest instead of coordinate for coordinate."""
        rows, list_width, _index = data
        cols, width = IntervalColumns.from_tuples(rows), list_width
        same_coordinates = True
        for name in chain:
            list_step, kernel_step = self.STEPS[name]
            rows, list_width = list_step(rows, list_width)
            try:
                cols, width = kernel_step(cols, width)
            except WidthOverflowError:
                same_coordinates = False
                cols, width = kernel_step(*kernels.renormalise(cols, width))
            if same_coordinates:
                assert width == list_width
                assert cols.tuples() == rows, name
            assert forests_in_order(cols, width) \
                == forests_in_order(rows, list_width), name
            assert cols.l.dtype == cols.r.dtype == np.int64
            assert_derived(cols)

    @given(blocked(), st.data())
    def test_slices_shards_and_pickles(self, data, drawn):
        rows, _width, _index = data
        cols = IntervalColumns.from_tuples(rows)
        lo = drawn.draw(st.integers(0, len(rows)))
        hi = drawn.draw(st.integers(lo, len(rows)))
        for piece in [cols[lo:hi], cols[::2]]:
            assert_derived(piece)
        assert cols[lo:hi].tuples() == rows[lo:hi]
        clone = pickle.loads(pickle.dumps(cols))
        assert clone == cols
        assert_derived(clone)

    @settings(max_examples=25, deadline=None)
    @given(blocked())
    def test_shared_memory_roundtrip(self, data):
        from repro.engine.columns import export_columns
        rows, _width, _index = data
        cols = IntervalColumns.from_tuples(rows)
        descriptor, shm = export_columns(cols)
        try:
            attachment = pickle.loads(pickle.dumps(descriptor)).attach()
            try:
                assert attachment.columns.tuples() == rows
                assert_derived(attachment.columns)
            finally:
                attachment.detach()
        finally:
            shm.close()
            shm.unlink()

    def test_attach_remaps_a_clashing_code(self):
        """A worker whose dictionary already gave a shipped code to another
        label — a constructor name, a ``count()`` result — translates its
        private ``c``; with no clash the column stays zero-copy."""
        import uuid

        from repro.engine import columns
        tag = uuid.uuid4().hex[:8]
        labels = [f"<a-{tag}>", f"<b-{tag}>", f"v-{tag}"]
        rows = [(labels[0], 0, 5), (labels[1], 1, 4), (labels[2], 2, 3)]
        descriptor, shm = columns.export_columns(
            IntervalColumns.from_tuples(rows))
        try:
            # Become a process that never saw the document's labels and
            # has numbered two labels of its own with their codes.
            with columns._names_lock:
                shipped = [columns._codes.pop(label) for label in labels]
                for code in shipped:
                    del columns._label_of[code]
            own = [f"<w-{tag}>", f"17-{tag}"]
            assert columns.adopt_labels(own, shipped[1:]) == shipped[1:]
            attachment = descriptor.attach()
            try:
                attached = attachment.columns
                assert attached.tuples() == rows
                assert_derived(attached)
                assert attached.c[0] == shipped[0]  # free: adopted as shipped
                assert not set(attached.c[1:].tolist()) & set(shipped[1:])
                assert [name_code(label) for label in own] == shipped[1:]
                assert kernels.select_label(attached, labels[2]).tuples() \
                    == [] != kernels.select_descendants(
                        attached, 6, labels[2]).tuples()
            finally:
                attachment.detach()
        finally:
            shm.close()
            shm.unlink()

    def test_validate_value_catches_drift(self, monkeypatch):
        """A ``d`` that is not the intervals' depths, a code the
        dictionary does not hold, and a code whose kind bits are not its
        label's kind are each refused."""
        from repro.engine import validate
        from repro.engine.columns import ELEMENT, _label_of
        from repro.errors import ExecutionError
        cols = IntervalColumns.from_tuples([("<a>", 0, 3), ("x", 1, 2)])
        validate_value(cols, 4, [0])
        unknown = (max(_label_of) | 3) + 1  # an id past every one taken
        flipped = int(cols.c[1]) | ELEMENT  # "x" under an element's bits
        monkeypatch.setattr(validate, "_label_of",
                            {**_label_of, flipped: "x"})
        for d, c in ((np.array([0, 0], dtype=np.int32), cols.c),
                     (cols.d, np.array([cols.c[0], unknown], dtype=np.int32)),
                     (cols.d, np.array([cols.c[0], flipped], dtype=np.int32))):
            with pytest.raises(ExecutionError, match="drifted"):
                validate_value(IntervalColumns(cols.l, cols.r, d, c), 4, [0])


class TestNameCodes:
    def test_codes_agree_across_documents(self):
        """One dictionary for names and text values: a label has one code
        in every relation of the process, two labels never share one, and
        the query side (``intern=False``) never grows it."""
        from repro.engine.columns import KIND_MASK, TEXT, _codes, _label_of
        from repro.encoding.interval import encode_columns
        from repro.xml.text_parser import parse_forest
        one, _ = encode_columns(parse_forest("<a k='1'><b>x</b>1</a>"))
        two, _ = encode_columns(parse_forest("<b><a k='2'>y</a>x</b>"))
        for cols in (one, two):
            for label, code in zip(cols.labels().tolist(), cols.c.tolist()):
                assert code == name_code(label, intern=False)
        assert one.c[one.labels() == "x"].tolist() \
            == two.c[two.labels() == "x"].tolist()
        assert len(set(one.c.tolist())) == len(set(one.labels().tolist()))
        size = len(_codes)
        assert name_code("text no relation carries", intern=False) is None
        assert name_code("<no-such-element>", intern=False) is None
        assert len(_codes) == len(_label_of) == size
        # Kind lives in the low two bits, the label's id above them.
        assert name_code("<a>") & KIND_MASK == 1
        assert name_code("@k") & KIND_MASK == 2
        assert name_code("x") & KIND_MASK == name_code("") & KIND_MASK == TEXT
        assert len({name_code(label) for label in ("<a>", "<b>", "x", "y",
                                                   "1", "@1", "<1>", "")}) == 8
        assert all(_label_of[code] == label for label, code in _codes.items())


class TestRenormalise:
    """``renormalise`` changes coordinates and nothing else."""

    @given(blocked())
    def test_same_forests_tightest_width(self, data):
        rows, width, _index = data
        cols = IntervalColumns.from_tuples(rows)
        before = [column.copy() for column in (cols.l, cols.r, cols.d, cols.c)]
        tight, tight_width = kernels.renormalise(cols, width)
        blocks = list(group_by_env(rows, width))
        assert tight_width == 2 * max((len(block) for _env, block in blocks),
                                      default=0)
        # The same forest in every environment, under the same number.
        assert [(env, decode(list(block))) for env, block
                in group_by_env(tight.tuples(), tight_width)] \
            == [(env, decode(list(block))) for env, block in blocks]
        assert_derived(tight)
        validate_value(tight, tight_width, [env for env, _block in blocks])
        assert tight.l.dtype == tight.r.dtype == np.int64
        # Idempotent, and the input is not written to.
        again, again_width = kernels.renormalise(tight, tight_width)
        assert (again.tuples(), again_width) == (tight.tuples(), tight_width)
        for column, saved in zip((cols.l, cols.r, cols.d, cols.c), before):
            assert column.tolist() == saved.tolist()
        assert tight.d is cols.d and tight.c is cols.c

    def test_width_beyond_int64_is_one_block(self):
        rows = [("<a>", 5, 2 ** 62), ("x", 7, 90)]
        tight, width = kernels.renormalise(
            IntervalColumns.from_tuples(rows), 2 ** 80)
        assert (tight.tuples(), width) == ([("<a>", 0, 3), ("x", 1, 2)], 4)


class TestOverflow:
    """Coordinates that would leave int64: nothing wraps and nothing
    changes representation — input from outside is refused at the door,
    a kernel whose bound trips raises, and after ``renormalise`` it
    answers what the reference answers on Python integers."""

    BEYOND = [("<a>", 0, 2 ** 63), ("x", 1, 2)]

    def test_endpoints_beyond_int64_stop_at_the_door(self):
        from repro.compiler.plan import VarNode
        from repro.engine.columns import _rebuild_columns, make_int_column
        from repro.engine.evaluator import DIEngine

        with pytest.raises(WidthOverflowError):
            IntervalColumns.from_tuples(self.BEYOND)
        with pytest.raises(WidthOverflowError):
            make_int_column([0, 2 ** 63])
        assert make_int_column([0, INT64_MAX]).dtype == np.int64
        # The state a release with list-backed columns pickled.
        with pytest.raises(WidthOverflowError):
            _rebuild_columns(["<a>"], [0], [2 ** 63],
                             np.zeros(1, dtype=np.int32).tobytes())
        with pytest.raises(WidthOverflowError):
            DIEngine().run_plan_values(VarNode("$d"),
                                       {"$d": (self.BEYOND, 2 ** 64)})

    @settings(max_examples=25)
    @given(blocked())
    def test_targets_beyond_int64_raise(self, data):
        rows, width, index = data
        cols = IntervalColumns.from_tuples(rows)
        for shift in (2 ** 64, INT64_MAX // width):  # unstorable, unplaceable
            if rows:
                with pytest.raises(WidthOverflowError):
                    kernels.gather_blocks(cols, width, index,
                                          [env + shift for env in index])
                with pytest.raises(WidthOverflowError):
                    kernels.xnode("<w>", cols, width,
                                  [env + shift for env in index])
        for env in (2 ** 64, INT64_MAX // 2):
            with pytest.raises(WidthOverflowError):
                kernels.text_const("x", [0, env])

    def test_overflow_bound_is_checked_not_wrapped(self):
        # One block close to the int64 edge: widening must refuse, never
        # silently wrap in vector arithmetic — and fit once renormalised.
        width = 2 ** 32
        rows = [("<a>", 0, 1), ("<a>", width * (2 ** 30), width * (2 ** 30) + 1)]
        cols = IntervalColumns.from_tuples(rows)
        assert (2 ** 30 + 1) * width * width > INT64_MAX
        for kernel in (kernels.subtrees_dfs, kernels.sort,
                       lambda c, w: kernels.select_descendants(c, w, "<a>")):
            with pytest.raises(WidthOverflowError):
                kernel(cols, width)
        tight, tight_width = kernels.renormalise(cols, width)
        assert tight_width == 2
        result = kernels.subtrees_dfs(tight, tight_width)
        assert result.l.dtype == np.int64
        assert forests_in_order(result, tight_width ** 2) \
            == forests_in_order(ops.subtrees_dfs(rows, width), width ** 2)

    def test_descendant_chain_runs_off_int64(self):
        """The CI overflow case, ``//a//a//a//a//a``: every ``//`` squares
        the width, so the chain's width product runs off int64 and the
        evaluator renormalises on the way — with ``validate=True``
        checking the carried columns after every node — and still agrees
        with the interpreter."""
        from repro.api import compile_xquery
        from repro.compiler.planner import compile_plan
        from repro.engine.evaluator import DIEngine
        from repro.xml.text_parser import parse_forest
        from repro.xquery.interpreter import evaluate
        from repro.xquery.lowering import document_forest

        compiled = compile_xquery('document("w.xml")//a//a//a//a//a')
        forest = document_forest(parse_forest(
            "<a><a><b><a><a><a>x</a></a><a/></a></b></a></a>"))
        bindings = {var: forest for var in compiled.documents.values()}
        plan = compile_plan(compiled.core,
                            base_vars=compiled.documents.values())
        engine = DIEngine(validate=True)
        rel, width = engine.run_plan_encoded(plan, bindings)
        assert width <= INT64_MAX
        assert rel.l.dtype == rel.r.dtype == np.int64
        assert engine.run_plan(plan, bindings) == \
            evaluate(compiled.core, bindings) != ()


class TestEmptyAndEdgeCases:
    def test_empty_relation_all_kernels(self):
        empty = IntervalColumns.empty()
        assert kernels.roots(empty).tuples() == []
        assert kernels.children(empty).tuples() == []
        assert kernels.head(empty, 4).tuples() == []
        assert kernels.tail(empty, 4).tuples() == []
        assert kernels.reverse(empty, 4).tuples() == []
        assert kernels.subtrees_dfs(empty, 4).tuples() == []
        assert kernels.data(empty, 4).tuples() == []
        assert kernels.distinct(empty, 4).tuples() == []
        rel, width = kernels.sort(empty, 4)
        assert rel.tuples() == [] and width == 16
        assert kernels.concat(empty, 2, empty, 3).tuples() == []
        assert kernels.filter_by_index(empty, 4, [0, 1]).tuples() == []
        assert kernels.expand_variable(empty, 4, []).tuples() == []
        assert kernels.gather_blocks(empty, 4, [0], [1]).tuples() == []
        base = np.zeros(1, dtype=np.int64)
        assert kernels.collation_keys((empty, base, base)) == [[b""]]
        assert kernels.less_envs((empty, 4, base),
                                 (empty, 4, base)).tolist() == [False]
        for existential in (True, False):
            ((envs, ids),) = kernels.key_ids(existential, (empty, 4, []))
            assert len(envs) == len(ids) == 0

    def test_width_one_empty_blocks(self):
        # Width 1 holds only empty forests; constructors must still emit
        # per-environment output driven by the index.
        rel, width = kernels.count_roots(IntervalColumns.empty(), 1, [0, 2])
        assert width == 2
        assert rel.tuples() == [("0", 0, 1), ("0", 4, 5)]
        rel, width = kernels.string_fn(IntervalColumns.empty(), 1, [1])
        assert rel.tuples() == [("", 2, 3)]

    def test_single_tuple_blocks(self):
        # Width-2 blocks each holding exactly one node — the smallest
        # non-empty block shape.
        rows = [("x", 0, 1), ("y", 2, 3), ("z", 6, 7)]
        cols = IntervalColumns.from_tuples(rows)
        assert kernels.roots(cols).tuples() == rows
        assert kernels.children(cols).tuples() == []
        assert kernels.reverse(cols, 2).tuples() == \
            ops.reverse(rows, 2)
        assert kernels.sort(cols, 2)[0].tuples() == \
            ops.sort(rows, 2)[0]
