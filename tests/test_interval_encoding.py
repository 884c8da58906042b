"""Unit tests for the interval encoding (Definition 3.1, Example 3.2)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.encoding.interval import (
    EncodedForest,
    decode,
    encode,
    encode_columns,
    validate_encoding,
)
from repro.engine.columns import IntervalColumns
from repro.errors import EncodingError
from repro.xml.forest import PreorderForest, element, preorder, text
from repro.xml.text_parser import parse_forest

from tests.strategies import forests


def as_columns(rows) -> IntervalColumns:
    """The rows as the engine would hold them: sorted, ``d``/``c`` derived."""
    return IntervalColumns.from_tuples(rows, sort=True)


#: Both shapes ``decode`` accepts: tuple rows (the relational backends)
#: and columns (an engine result).
BOTH_INPUTS = pytest.mark.parametrize("shape", [list, as_columns],
                                      ids=["tuples", "columns"])

#: Malformed relations, by the message fragment ``decode`` must raise.
MALFORMED = {
    "partial overlap": ("overlaps", [("a", 0, 10), ("b", 5, 15)]),
    "overlap with a later sibling's subtree": ("overlaps", [
        ("<a>", 0, 20), ("<b>", 1, 6), ("x", 2, 3), ("<c>", 5, 9)]),
    "child opening on its parent's close": ("overlaps", [
        ("a", 0, 4), ("b", 4, 6)]),
    "l == r": ("l >= r", [("a", 5, 5)]),
    "l == r under a parent": ("l >= r", [("<p>", 0, 9), ("a", 5, 5)]),
    "l > r": ("l >= r", [("<p>", 0, 9), ("a", 7, 3)]),
}


class TestEncode:
    def test_single_leaf(self):
        encoded = encode((text("x"),))
        assert encoded.tuples == [("x", 0, 1)]
        assert encoded.width == 2

    def test_dfs_counter_example32(self):
        trees = parse_forest("<a><b/><c/></a>")
        encoded = encode(trees)
        assert encoded.tuples == [("<a>", 0, 5), ("<b>", 1, 2), ("<c>", 3, 4)]
        assert encoded.width == 6

    def test_width_is_twice_node_count(self):
        trees = parse_forest("<a><b><c/></b><d/></a>")
        encoded = encode(trees)
        assert encoded.width == 2 * 4

    def test_start_offset(self):
        encoded = encode((text("x"),), start=10)
        assert encoded.tuples == [("x", 10, 11)]
        assert encoded.width == 12

    def test_empty_forest(self):
        encoded = encode(())
        assert encoded.tuples == []
        assert len(encoded) == 0

    def test_single_node_accepted(self):
        encoded = encode(element("a"))
        assert encoded.tuples == [("<a>", 0, 1)]

    def test_forest_of_two_trees(self):
        encoded = encode(parse_forest("<a/><b/>"))
        assert encoded.tuples == [("<a>", 0, 1), ("<b>", 2, 3)]

    def test_deep_document_no_recursion_error(self):
        # 5000 levels — far beyond Python's default recursion limit.
        tree = text("leaf")
        for _ in range(5000):
            tree = element("d", (tree,))
        encoded = encode((tree,))
        assert len(encoded) == 5001
        assert decode(encoded) == (tree,)

    def test_labels_in_document_order(self, figure1_forest):
        encoded = encode(figure1_forest)
        assert encoded.labels()[:3] == ["<site>", "<people>", "<person>"]


class TestDecode:
    def test_roundtrip(self, figure1_forest):
        assert decode(encode(figure1_forest)) == figure1_forest

    def test_roundtrip_xmark(self, xmark_tiny):
        assert decode(encode((xmark_tiny,))) == (xmark_tiny,)

    def test_non_tight_encoding_decodes(self):
        # Intervals need not be consecutive — only relative order matters.
        rows = [("<a>", 0, 99), ("x", 10, 20), ("y", 30, 44)]
        assert decode(rows) == (element("a", (text("x"), text("y"))),)

    def test_unsorted_input_accepted(self):
        rows = [("y", 30, 44), ("<a>", 0, 99), ("x", 10, 20)]
        assert decode(rows) == (element("a", (text("x"), text("y"))),)

    def test_overlap_rejected(self):
        with pytest.raises(EncodingError):
            decode([("a", 0, 10), ("b", 5, 15)])

    def test_degenerate_interval_rejected(self):
        with pytest.raises(EncodingError):
            decode([("a", 5, 5)])

    def test_empty(self):
        assert decode([]) == ()


class TestDecodeColumns:
    """An engine result is checked column-wise and leaves in preorder form."""

    @BOTH_INPUTS
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_relation_rejected_in_either_shape(self, shape, case):
        message, rows = MALFORMED[case]
        with pytest.raises(EncodingError, match=message):
            decode(shape(rows))

    @BOTH_INPUTS
    def test_empty_in_either_shape(self, shape):
        assert decode(shape([])) == ()

    def test_preorder_form(self):
        rel, _width = encode_columns(parse_forest("<a><b>x</b><c/></a>y"))
        result = decode(rel)
        assert isinstance(result, PreorderForest)
        assert result.labels == ["<a>", "<b>", "x", "<c>", "y"]
        assert result.depths == [0, 1, 2, 1, 0]
        assert len(result) == 2
        # Plain lists of plain values: an array (or a NumPy scalar, which
        # pickles with its dtype) would tie the result to its columns.
        assert type(result.labels) is type(result.depths) is list
        assert {type(value) for value in result.labels} == {str}
        assert {type(value) for value in result.depths} == {int}

    @settings(max_examples=200, deadline=None)
    @given(forests())
    def test_round_trip(self, trees):
        rel, _width = encode_columns(trees)
        result = decode(rel)
        assert (result.labels, result.depths) == preorder(trees)
        assert result == trees == decode(rel.tuples())

    @settings(max_examples=500, deadline=None)
    @given(st.integers(0, 6).flatmap(
        lambda n: st.permutations(range(2 * n))))
    def test_agrees_with_the_row_sweep_on_arbitrary_intervals(self, ends):
        # Distinct endpoints paired at random: degenerate (l > r),
        # partially overlapping, unsorted — and sometimes a forest.
        rows = [(f"n{i}", ends[2 * i], ends[2 * i + 1])
                for i in range(len(ends) // 2)]

        def outcome(encoded):
            try:
                return decode(encoded)
            except EncodingError:
                return EncodingError

        assert outcome(as_columns(rows)) == outcome(rows)

    def test_out_of_order_columns_rejected(self):
        # Tuple rows are sorted on the way in; columns promise document
        # order, and the serializer relies on it.
        rel = IntervalColumns.from_tuples([("b", 2, 3), ("a", 0, 1)])
        with pytest.raises(EncodingError, match="document order"):
            decode(rel)
        assert decode([("b", 2, 3), ("a", 0, 1)]) == (text("a"), text("b"))

    @pytest.mark.parametrize("row, depth", [(0, 1), (1, 0), (2, 1), (3, 2)])
    def test_tampered_depth_column_rejected(self, row, depth):
        rel, _width = encode_columns(parse_forest("<a><b>x</b><c/></a>"))
        tampered = rel.d.copy()
        assert tampered[row] != depth
        tampered[row] = depth
        with pytest.raises(EncodingError, match="depth"):
            decode(IntervalColumns(rel.l, rel.r, tampered, rel.c))


class TestValidate:
    def test_valid_encoding_passes(self, figure1_forest):
        encoded = encode(figure1_forest)
        validate_encoding(encoded.tuples, encoded.width)

    def test_l_ge_r_rejected(self):
        with pytest.raises(EncodingError):
            validate_encoding([("a", 3, 3)])

    def test_partial_overlap_rejected(self):
        with pytest.raises(EncodingError):
            validate_encoding([("a", 0, 10), ("b", 5, 15)])

    def test_duplicate_endpoint_rejected(self):
        with pytest.raises(EncodingError):
            validate_encoding([("a", 0, 3), ("b", 3, 5)])

    def test_width_too_small_rejected(self):
        with pytest.raises(EncodingError):
            validate_encoding([("a", 0, 5)], width=5)

    def test_loose_width_accepted(self):
        validate_encoding([("a", 0, 5)], width=1000)

    def test_disjoint_siblings_ok(self):
        validate_encoding([("a", 0, 1), ("b", 2, 3)])

    def test_strict_nesting_ok(self):
        validate_encoding([("a", 0, 9), ("b", 1, 4), ("c", 5, 8)])


class TestEncodedForest:
    def test_shifted(self):
        encoded = encode((text("x"),))
        shifted = encoded.shifted(100)
        assert shifted.tuples == [("x", 100, 101)]
        assert shifted.width == encoded.width

    def test_max_right(self):
        assert encode(parse_forest("<a/><b/>")).max_right() == 3
        assert EncodedForest([], 0).max_right() == -1

    def test_equality(self):
        left = encode((text("x"),))
        right = encode((text("x"),))
        assert left == right

    def test_decode_method(self, figure1_forest):
        assert encode(figure1_forest).decode() == figure1_forest

    def test_sort_on_construction(self):
        encoded = EncodedForest([("b", 2, 3), ("a", 0, 1)], 4)
        assert encoded.tuples == [("a", 0, 1), ("b", 2, 3)]

    def test_repr(self):
        assert "width=2" in repr(encode((text("x"),)))
