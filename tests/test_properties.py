"""Property-based tests (hypothesis) for the core invariants.

These pin the cross-representation contracts everything else rests on:
encode/decode inverses; structural-order agreement between the forest
model and the engine's structural keys (the collation-ranked byte keys
and integer span ids of :mod:`repro.engine.kernels`, which decide
Algorithm 5.3's order and equality); and operator agreement
between Figure 2 and the engine's kernels on whole forests, under
Definition 3.3 (:mod:`tests.def33`).
"""

import functools

import numpy as np

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.encoding.interval import decode, encode, validate_encoding
from repro.engine import kernels
from repro.engine.columns import IntervalColumns
from repro.engine.validate import validate_value
from repro.xml import operations as ref_ops
from repro.xml.forest import compare_forests, compare_trees
from repro.xml.serializer import forest_to_xml
from repro.xml.text_parser import parse_forest

from tests.def33 import check, encode_sequence, env_forests, unary
from tests.strategies import forests, xml_safe_forests


def sign(value: int) -> int:
    return (value > 0) - (value < 0)


def whole_spans(*encodings):
    """One ``(cols, starts, ends)`` side per encoding: its whole relation
    as one span."""
    return [(IntervalColumns.from_tuples(encoded.tuples), np.array([0]),
             np.array([len(encoded.tuples)])) for encoded in encodings]


class TestEncodingProperties:
    @given(forests())
    def test_encode_decode_roundtrip(self, trees):
        assert decode(encode(trees)) == trees

    @given(forests())
    def test_encoding_is_valid(self, trees):
        encoded = encode(trees)
        validate_encoding(encoded.tuples, encoded.width)

    @given(forests(), st.integers(min_value=0, max_value=1000))
    def test_shift_invariance(self, trees, offset):
        """Decoding only depends on relative order, not absolute values."""
        assert decode(encode(trees).shifted(offset)) == trees

    @given(st.lists(forests(max_trees=2, max_depth=3), max_size=4))
    def test_sequence_roundtrip(self, forest_list):
        index, rows, width = encode_sequence(forest_list)
        validate_value(IntervalColumns.from_tuples(rows), width, index)
        assert env_forests(rows, width, index) == forest_list

    @given(forests())
    def test_width_bounds_endpoints(self, trees):
        encoded = encode(trees)
        assert all(r < encoded.width for (_s, _l, r) in encoded.tuples)


class TestSerializationProperties:
    @given(xml_safe_forests())
    def test_serialize_parse_roundtrip(self, trees):
        assert parse_forest(forest_to_xml(trees),
                            strip_whitespace=False) == trees


class TestStructuralOrderProperties:
    @given(forests(max_trees=3, max_depth=3),
           forests(max_trees=3, max_depth=3))
    def test_deep_compare_agrees_with_model(self, left, right):
        """Algorithm 5.3's three-way order, as the kernels decide it
        (collation-ranked byte keys), is the model's."""
        one, other = (keys[0] for keys in kernels.collation_keys(
            *whole_spans(encode(left), encode(right))))
        assert sign((one > other) - (one < other)) \
            == sign(compare_forests(left, right))

    @given(forests(max_trees=3, max_depth=3),
           forests(max_trees=3, max_depth=3))
    def test_canonical_key_agrees_with_model(self, left, right):
        """Equal span ids exactly for equal forests."""
        one, other = (ids[0] for ids in kernels.span_ids(
            *whole_spans(encode(left), encode(right))))
        assert (one == other) == (compare_forests(left, right) == 0)

    @given(forests(max_trees=2, max_depth=3),
           forests(max_trees=2, max_depth=3))
    def test_antisymmetry(self, left, right):
        assert compare_forests(left, right) == -compare_forests(right, left)

    @given(forests(max_trees=2, max_depth=2),
           forests(max_trees=2, max_depth=2),
           forests(max_trees=2, max_depth=2))
    def test_transitivity(self, a, b, c):
        ordered = sorted([a, b, c],
                         key=functools.cmp_to_key(compare_forests))
        for left, right in zip(ordered, ordered[1:]):
            assert compare_forests(left, right) <= 0

    @given(forests(max_trees=3, max_depth=3))
    def test_equality_iff_zero(self, trees):
        assert compare_forests(trees, trees) == 0

    @given(forests(max_trees=3, max_depth=3))
    def test_equal_forests_share_canonical_key(self, trees):
        """Keys read nesting, not coordinates: a loose encoding keys as
        the tight one does."""
        encodings = whole_spans(encode(trees, start=17), encode(trees))
        loose, tight = kernels.span_ids(*encodings)
        assert loose[0] == tight[0]
        loose, tight = kernels.collation_keys(*encodings)
        assert loose == tight


class TestAlgebraProperties:
    @given(forests())
    def test_head_tail_partition(self, trees):
        assert ref_ops.concat(ref_ops.head(trees),
                              ref_ops.tail(trees)) == trees

    @given(forests())
    def test_reverse_involution(self, trees):
        assert ref_ops.reverse(ref_ops.reverse(trees)) == trees

    @given(forests())
    def test_distinct_idempotent(self, trees):
        once = ref_ops.distinct(trees)
        assert ref_ops.distinct(once) == once

    @given(forests())
    def test_sort_idempotent(self, trees):
        once = ref_ops.sort(trees)
        assert ref_ops.sort(once) == once

    @given(forests())
    def test_sort_order_insensitive(self, trees):
        assert ref_ops.sort(ref_ops.reverse(trees)) == ref_ops.sort(trees)

    @given(forests())
    def test_sort_is_sorted(self, trees):
        result = ref_ops.sort(trees)
        for left, right in zip(result, result[1:]):
            assert compare_trees(left, right) <= 0

    @given(forests())
    def test_subtrees_count_equals_node_count(self, trees):
        from repro.xml.forest import forest_size
        assert len(ref_ops.subtrees_dfs(trees)) == forest_size(trees)

    @given(forests(), forests())
    def test_concat_count(self, left, right):
        assert (ref_ops.tree_count(ref_ops.concat(left, right))
                == ref_ops.tree_count(left) + ref_ops.tree_count(right))


class TestEngineAgreementProperties:
    """The DI engine's kernels on one whole forest (a single environment,
    deeper and wider than the blocked relations of
    :mod:`tests.test_columnar_kernels`) decode to Figure 2's answer."""

    @staticmethod
    def _check(fn, kernel, trees, **params):
        encoded = encode(trees)
        unary(fn, kernel, encoded.tuples, max(encoded.width, 1), [0],
              **params)

    @given(forests())
    def test_roots(self, trees):
        self._check("roots", lambda cols, _w: kernels.roots(cols), trees)

    @given(forests())
    def test_children(self, trees):
        self._check("children", lambda cols, _w: kernels.children(cols),
                    trees)

    @given(forests())
    def test_select(self, trees):
        self._check("select",
                    lambda cols, _w: kernels.select_label(cols, "<a>"),
                    trees, label="<a>")

    @given(forests())
    def test_head_tail(self, trees):
        self._check("head", kernels.head, trees)
        self._check("tail", kernels.tail, trees)

    @given(forests())
    def test_reverse(self, trees):
        self._check("reverse", kernels.reverse, trees)

    @given(forests(max_trees=3, max_depth=3))
    def test_subtrees(self, trees):
        self._check("subtrees_dfs", kernels.subtrees_dfs, trees)

    @given(forests())
    def test_distinct(self, trees):
        self._check("distinct", kernels.distinct, trees)

    @given(forests())
    def test_sort(self, trees):
        self._check("sort", kernels.sort, trees)

    @given(forests())
    def test_data(self, trees):
        self._check("data", kernels.data, trees)

    @given(forests(max_trees=3, max_depth=3),
           forests(max_trees=3, max_depth=3))
    def test_concat(self, left, right):
        sides = [(encoded.tuples, max(encoded.width, 1))
                 for encoded in (encode(left), encode(right))]
        check("concat", lambda one, w1, other, w2, _envs:
              kernels.concat(one, w1, other, w2), sides, [0])


@settings(max_examples=25, deadline=None)
@given(xml_safe_forests(max_trees=2))
def test_sqlite_operator_agreement(trees):
    """Random forests through one SQL template must match the reference."""
    from repro.sql.sqlite_backend import run_core_on_sqlite
    from repro.xquery.ast import FnApp, Var

    expr = FnApp("sort", (FnApp("children", (Var("x"),)),))
    from repro.xquery.interpreter import evaluate
    assert run_core_on_sqlite(expr, {"x": trees}) == evaluate(
        expr, {"x": trees})
