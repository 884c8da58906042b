"""Tests for DeepCompare (Algorithm 5.3) and canonical structural keys."""

import numpy as np

from repro.encoding.interval import encode
from repro.engine import kernels
from repro.engine.structural import (
    EQUAL,
    GREATER,
    LESS,
    canonical_key,
    deep_compare,
    forests_equal,
    tree_keys,
)
from repro.xml.forest import compare_forests
from repro.xml.text_parser import parse_forest


def enc(source: str):
    return list(encode(parse_forest(source)).tuples)


def sign(value: int) -> int:
    return (value > 0) - (value < 0)


class TestDeepCompare:
    def test_equal_forests(self):
        assert deep_compare(enc("<a><b/></a>"), enc("<a><b/></a>")) == EQUAL

    def test_label_order(self):
        assert deep_compare(enc("<a/>"), enc("<b/>")) == LESS
        assert deep_compare(enc("<b/>"), enc("<a/>")) == GREATER

    def test_prefix_is_less(self):
        assert deep_compare(enc("<a/>"), enc("<a/><b/>")) == LESS
        assert deep_compare(enc("<a/><b/>"), enc("<a/>")) == GREATER

    def test_empty_forest(self):
        assert deep_compare([], []) == EQUAL
        assert deep_compare([], enc("<a/>")) == LESS

    def test_missing_sibling_rule(self):
        # [a [b]] > [a, b]: the nested forest has an extra child inside <a>.
        assert deep_compare(enc("<a><b/></a>"), enc("<a/><b/>")) == GREATER
        assert deep_compare(enc("<a/><b/>"), enc("<a><b/></a>")) == LESS

    def test_depth_dominates_label(self):
        # [a [c]] vs [a, b]: depth difference decides before labels.
        assert deep_compare(enc("<a><c/></a>"), enc("<a/><b/>")) == GREATER

    def test_nontight_encodings_compare_equal(self):
        tight = enc("<a><b/></a>")
        loose = [("<a>", 0, 100), ("<b>", 10, 20)]
        assert deep_compare(tight, loose) == EQUAL

    def test_agrees_with_reference_order(self):
        sources = [
            "", "<a/>", "<b/>", "<a/><b/>", "<a><b/></a>",
            "<a><b/><c/></a>", "<a><b><c/></b></a>", "<a>text</a>",
            "<a/><a/>", "<b><a/></b>",
        ]
        forests = [parse_forest(s) for s in sources]
        encodings = [enc(s) for s in sources]
        for i, left in enumerate(forests):
            for j, right in enumerate(forests):
                expected = sign(compare_forests(left, right))
                assert deep_compare(encodings[i], encodings[j]) == expected, \
                    (sources[i], sources[j])


class TestCanonicalKey:
    def test_key_structure(self):
        key = canonical_key(enc("<a><b/></a><c/>"))
        assert key == ((0, "<a>"), (1, "<b>"), (0, "<c>"))

    def test_key_comparison_matches_deep_compare(self):
        sources = ["<a/>", "<a/><b/>", "<a><b/></a>", "<b/>", "",
                   "<a><b><c/></b></a>", "<a/><a/>"]
        for left in sources:
            for right in sources:
                key_cmp = sign((canonical_key(enc(left))
                                > canonical_key(enc(right)))
                               - (canonical_key(enc(left))
                                  < canonical_key(enc(right))))
                assert key_cmp == deep_compare(enc(left), enc(right))

    def test_keys_hashable_for_dedup(self):
        assert canonical_key(enc("<a/>")) == canonical_key(
            [("<a>", 5, 90)])
        assert hash(canonical_key(enc("<a/>")))

    def test_tree_keys_per_tree(self):
        keys = tree_keys(enc("<a><b/></a><c/>"))
        assert keys == [((0, "<a>"), (1, "<b>")), ((0, "<c>"),)]

    def test_forests_equal(self):
        assert forests_equal(enc("<a><b/></a>"), [("<a>", 0, 9), ("<b>", 3, 4)])
        assert not forests_equal(enc("<a/>"), enc("<b/>"))


def merge_matching_keys(left, right):
    """The merge join's integer matcher (``kernels.match_ids``) over
    ``(key, tag)`` lists: keys numbered by first sight, as span ids are."""
    numbers: dict = {}

    def ids(pairs):
        return np.array([numbers.setdefault(key, len(numbers))
                         for key, _tag in pairs], dtype=np.int64)

    at_left, at_right = kernels.match_ids(ids(left), ids(right))
    return [(left[i][1], right[j][1])
            for i, j in zip(at_left.tolist(), at_right.tolist())]


class TestMergeMatchingKeys:
    def test_basic_match(self):
        left = [(("k1",), 0), (("k2",), 1)]
        right = [(("k2",), 10), (("k3",), 11)]
        assert merge_matching_keys(sorted(left), sorted(right)) == [(1, 10)]

    def test_duplicate_keys_cross_product(self):
        left = [(("k",), 0), (("k",), 1)]
        right = [(("k",), 10), (("k",), 11)]
        pairs = merge_matching_keys(left, right)
        assert sorted(pairs) == [(0, 10), (0, 11), (1, 10), (1, 11)]

    def test_no_matches(self):
        assert merge_matching_keys([(("a",), 0)], [(("b",), 1)]) == []

    def test_empty_inputs(self):
        assert merge_matching_keys([], []) == []
        assert merge_matching_keys([(("a",), 0)], []) == []

    def test_linear_merge_agrees_with_bruteforce(self):
        import itertools
        left = sorted((((chr(97 + i % 3),),), i) for i in range(9))
        left = [(key[0], tag) for key, tag in left]
        right = sorted((((chr(97 + i % 4),),), 100 + i) for i in range(8))
        right = [(key[0], tag) for key, tag in right]
        expected = sorted(
            (lt, rt)
            for (lk, lt), (rk, rt) in itertools.product(left, right)
            if lk == rk
        )
        assert sorted(merge_matching_keys(left, right)) == expected
