"""Property suite: every columnar kernel equals its list-based reference.

For each operator the engine has two implementations — the original
tuple-at-a-time functions of :mod:`repro.engine.operators` (the semantic
ground truth) and the same-named whole-column kernels of
:mod:`repro.engine.kernels`.  These properties assert pointwise equality
(same tuples, same order, same width) on randomized blocked relations,
on both bodies a kernel has: the vector body over int64 columns, and the
overflow fallback — the same relation pushed beyond int64, where the
endpoint columns are plain lists and the kernel routes to the reference
operator.  After every kernel the carried depth and name-code columns
must equal what ``from_tuples`` derives from the triples alone.  Edge
cases: empty relations, minimal widths, outputs that overflow.
"""

from __future__ import annotations

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.encoding.interval import encode
from repro.engine import kernels
from repro.engine import operators as ops
from repro.engine.columns import INT64_MAX, IntervalColumns
from repro.engine.structural import canonical_key, tree_keys
from repro.engine.relation import group_by_env, tree_slices

from tests.strategies import forests

#: Env shift that pushes every coordinate beyond int64 (bignum mode).
BIG_ENV = 2 ** 64


def overflowed(rows, width):
    """The same blocks pushed beyond int64 — the overflow-fallback input."""
    return [(s, l + BIG_ENV * width, r + BIG_ENV * width)
            for (s, l, r) in rows]


def assert_derived(rel: IntervalColumns) -> None:
    """The invariant: ``d`` and ``c`` are functions of the triples."""
    fresh = IntervalColumns.from_tuples(rel.tuples())
    assert rel.d.tolist() == fresh.d.tolist()
    assert rel.c.tolist() == fresh.c.tolist()
    assert len(rel.s) == len(rel.l) == len(rel.r) == len(rel.d) == len(rel.c)


@st.composite
def blocked(draw, max_envs: int = 4):
    """A blocked relation: ``(rows, width, env_index)``.

    Random environments (possibly none, possibly with gaps and empty
    forests) at a random — sometimes tight, sometimes slack — width.
    """
    count = draw(st.integers(min_value=0, max_value=max_envs))
    env_ids = sorted(draw(st.sets(st.integers(min_value=0, max_value=6),
                                  min_size=count, max_size=count)))
    encodings = [encode(draw(forests(max_trees=3, max_depth=3)))
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


def check(kernel, reference, rows, *args, width=None):
    """Kernel(columns) must equal reference(rows) on both kernel bodies.

    With ``width`` given the relation is also run shifted beyond int64;
    kernels that take env-indexed arguments shift those themselves and
    call this once per body.
    """
    inputs = [list(rows)]
    if width is not None and rows:
        inputs.append(overflowed(rows, width))
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
        check(kernels.select_trees, ops.select_trees, rows,
              lambda s: s == label, width=width)
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
        row for row, on the vector body and on the overflow fallback."""
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
              overflowed(rows, width), width,
              [env + BIG_ENV for env in index])

    @given(blocked())
    def test_expand_variable(self, data):
        rows, width, _index = data
        root_lefts = [row[1] for row in ops.roots(rows)]
        check(kernels.expand_variable, ops.expand_variable, rows,
              width, root_lefts)
        check(kernels.expand_variable, ops.expand_variable, rows,
              width, [left + BIG_ENV * width for left in root_lefts])

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
        check(kernels.gather_blocks, ops.gather_blocks, rows,
              width, moves)


class TestConstructorKernels:
    @given(blocked(), blocked())
    def test_concat(self, left_data, right_data):
        left_rows, left_width, _li = left_data
        right_rows, right_width, _ri = right_data
        variants = [(left_rows, right_rows)]
        if left_rows or right_rows:
            # Same env ids on both sides, so the blocks still pair up.
            variants.append((overflowed(left_rows, left_width),
                             overflowed(right_rows, right_width)))
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
            variants.append((overflowed(rows, width),
                             [env + BIG_ENV for env in index]))
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
    def test_block_keys(self, data):
        rows, width, _index = data
        cols = IntervalColumns.from_tuples(rows)
        expected = {env: canonical_key(list(block))
                    for env, block in group_by_env(rows, width)}
        assert kernels.block_keys(cols, width) == expected
        if rows:
            big = IntervalColumns.from_tuples(overflowed(rows, width))
            assert kernels.block_keys(big, width) == {
                env + BIG_ENV: key for env, key in expected.items()}

    @given(blocked())
    def test_block_tree_key_sets(self, data):
        """The kernel's (depth-tuple, label-tuple) keys are the unzip of
        the canonical keys — a bijection, so they induce exactly the
        tree-equality classes the SomeEqual joins rely on."""
        rows, width, _index = data
        cols = IntervalColumns.from_tuples(rows)
        expected = {
            env: {(tuple(d for d, _ in key), tuple(s for _, s in key))
                  for key in tree_keys(list(block))}
            for env, block in group_by_env(rows, width)}
        assert kernels.block_tree_key_sets(cols, width) == expected
        if rows:
            big = IntervalColumns.from_tuples(overflowed(rows, width))
            assert kernels.block_tree_key_sets(big, width) == {
                env + BIG_ENV: keys for env, keys in expected.items()}

    @given(blocked())
    def test_canonical_key_columnar_fast_path(self, data):
        rows, width, _index = data
        cols = IntervalColumns.from_tuples(rows)
        for _env, block in group_by_env(cols, width):
            assert canonical_key(block) == canonical_key(block.tuples())

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
    goes: through any chain of kernels, slicing, sharding, pickling, and
    a shared-memory export/attach."""

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
                                            c.envs_present(w))),
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
        on their own, so the overflow fallback is inside this property."""
        rows, width, _index = data
        cols = IntervalColumns.from_tuples(rows)
        for name in chain:
            list_step, kernel_step = self.STEPS[name]
            rows, list_width = list_step(rows, width)
            cols, width = kernel_step(cols, width)
            assert width == list_width
            assert cols.tuples() == rows, name
            assert_derived(cols)

    @given(blocked(), st.data())
    def test_slices_shards_and_pickles(self, data, drawn):
        rows, _width, _index = data
        cols = IntervalColumns.from_tuples(rows)
        lo = drawn.draw(st.integers(0, len(rows)))
        hi = drawn.draw(st.integers(lo, len(rows)))
        for piece in [cols[lo:hi], cols[::2],
                      *cols.shard(drawn.draw(st.integers(1, 4)))]:
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
        name translates its private ``c``; agreeing names stay zero-copy."""
        from repro.engine.columns import export_columns, name_code
        cols = IntervalColumns.from_tuples(
            [("<remap-a>", 0, 3), ("<remap-b>", 1, 2)])
        descriptor, shm = export_columns(cols)
        try:
            # Pretend the exporter numbered <remap-b> with the code this
            # process knows as <remap-a>.
            clash = name_code("<remap-a>")
            descriptor.names = tuple(
                (label, clash if label == "<remap-b>" else code)
                for label, code in descriptor.names)
            attachment = descriptor.attach()
            try:
                assert attachment.columns.tuples() == cols.tuples()
                translated = attachment.columns.c.tolist()
                assert translated[0] == name_code("<remap-b>")
            finally:
                attachment.detach()
        finally:
            shm.close()
            shm.unlink()

    def test_validate_value_catches_drift(self):
        import numpy as np
        import pytest
        from repro.engine.validate import validate_value
        from repro.errors import ExecutionError
        cols = IntervalColumns.from_tuples([("<a>", 0, 3), ("x", 1, 2)])
        validate_value(cols, 4, [0])
        for column in ("d", "c"):
            broken = IntervalColumns(cols.s, cols.l, cols.r, cols.d, cols.c)
            setattr(broken, column, np.array([0, 0], dtype=np.int32))
            with pytest.raises(ExecutionError, match="drifted"):
                validate_value(broken, 4, [0])


class TestNameCodes:
    def test_codes_agree_across_documents(self):
        from repro.engine.columns import TEXT_CODE, name_code
        from repro.encoding.interval import encode_columns
        from repro.xml.text_parser import parse_forest
        one, _ = encode_columns(parse_forest("<a k='1'><b>x</b></a>"))
        two, _ = encode_columns(parse_forest("<b><a k='2'>y</a>z</b>"))
        for cols in (one, two):
            for label, code in zip(cols.s.tolist(), cols.c.tolist()):
                assert code == name_code(label, intern=False)
        assert name_code("some text", intern=False) == TEXT_CODE
        assert name_code("<no-such-element>", intern=False) is None
        # Kind lives in the low two bits; text never enters the table.
        assert name_code("<a>") & 3 == 1 and name_code("@k") & 3 == 2
        assert name_code("<a>") != name_code("<b>")


class TestBignumFallback:
    """Coordinates beyond int64: columns fall back to lists, kernels to
    the reference paths, results stay exact (Python bignums)."""

    @settings(max_examples=25)
    @given(blocked())
    def test_shifted_relation_roundtrip(self, data):
        rows, width, _index = data
        shifted = [(s, l + BIG_ENV * width, r + BIG_ENV * width)
                   for (s, l, r) in rows]
        cols = IntervalColumns.from_tuples(shifted)
        if rows:
            assert not cols.is_array  # bignum storage engaged
        assert kernels.roots(cols).tuples() == ops.roots(shifted)
        assert kernels.reverse(cols, width).tuples() == \
            ops.reverse(shifted, width)
        assert kernels.distinct(cols, width).tuples() == \
            ops.distinct(shifted, width)

    @settings(max_examples=25)
    @given(blocked())
    def test_gather_blocks_into_bignum_targets(self, data):
        rows, width, index = data
        moves = [(env, env + BIG_ENV) for env in index]
        cols = IntervalColumns.from_tuples(rows)
        expected = ops.gather_blocks(list(rows), width, moves)
        result = kernels.gather_blocks(cols, width, moves)
        assert result.tuples() == expected
        if rows:
            assert not result.is_array  # targets exceed int64

    def test_overflow_bound_is_checked_not_wrapped(self):
        # One block close to the int64 edge: widening must take the
        # reference path, never silently wrap in vector arithmetic.
        width = 2 ** 32
        rows = [("<a>", 0, 1), ("<a>", width * (2 ** 30), width * (2 ** 30) + 1)]
        cols = IntervalColumns.from_tuples(rows)
        assert cols.is_array
        assert (2 ** 30 + 1) * width * width > INT64_MAX
        result = kernels.subtrees_dfs(cols, width)
        assert result.tuples() == ops.subtrees_dfs(rows, width)
        assert not result.is_array


    def test_descendant_chain_runs_off_int64(self):
        """The CI overflow case, ``//a//a//a//a//a``: every ``//`` squares
        the width, so the chain starts on the fused vector kernel and ends
        on its fallback — with ``validate=True`` checking the carried
        columns after every node — and still agrees with the interpreter."""
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
        assert width > INT64_MAX and not rel.is_array
        assert engine.run_plan(plan, bindings) == \
            evaluate(compiled.core, bindings) != ()


class TestEmptyAndEdgeCases:
    def test_empty_relation_all_kernels(self):
        empty = IntervalColumns.empty()
        assert kernels.roots(empty).tuples() == []
        assert kernels.children(empty).tuples() == []
        assert kernels.select_trees(empty, lambda s: True).tuples() == []
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
        assert kernels.gather_blocks(empty, 4, [(0, 1)]).tuples() == []
        assert kernels.block_keys(empty, 4) == {}
        assert kernels.block_tree_key_sets(empty, 4) == {}

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
