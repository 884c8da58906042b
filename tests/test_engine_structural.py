"""Tests for structural comparison (Algorithm 5.3) as the kernels decide
it — collation-ranked byte keys for order, integer span ids for equality
— and the merge join on tree-valued keys (Section 6.2)."""

import random

import numpy as np

from repro.api import compile_xquery
from repro.compiler.plan import JoinStrategy
from repro.compiler.planner import compile_plan
from repro.encoding.interval import encode
from repro.engine import kernels
from repro.engine.columns import IntervalColumns
from repro.engine.evaluator import DIEngine
from repro.xml.forest import Node, compare_forests, element, text
from repro.xml.text_parser import parse_forest
from repro.xquery.interpreter import evaluate
from repro.xquery.lowering import document_forest

LESS, EQUAL, GREATER = -1, 0, 1


def enc(source: str):
    return list(encode(parse_forest(source)).tuples)


def sign(value: int) -> int:
    return (value > 0) - (value < 0)


def whole(*relations):
    """One ``(cols, starts, ends)`` side per row list, its whole forest
    one span."""
    return [(IntervalColumns.from_tuples(rows), np.array([0]),
             np.array([len(rows)])) for rows in relations]


def deep_compare(left, right) -> int:
    """Three-way structural order of two encoded forests, from their
    collation keys (``kernels.collation_keys``)."""
    one, other = (keys[0] for keys in kernels.collation_keys(
        *whole(left, right)))
    return sign((one > other) - (one < other))


def forests_equal(left, right) -> bool:
    """Structural equality from the span ids (``kernels.span_ids``)."""
    one, other = kernels.span_ids(*whole(left, right))
    return one[0] == other[0]


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
        """A key is the big-endian ``(depth, collation rank)`` DFS
        sequence."""
        ((key,),) = kernels.collation_keys(*whole(enc("<a><b/></a><c/>")))
        assert np.frombuffer(key, dtype=">u4").reshape(-1, 2).tolist() \
            == [[0, 0], [1, 1], [0, 2]]

    def test_key_comparison_matches_deep_compare(self):
        sources = ["<a/>", "<a/><b/>", "<a><b/></a>", "<b/>", "",
                   "<a><b><c/></b></a>", "<a/><a/>"]
        for left in sources:
            for right in sources:
                assert forests_equal(enc(left), enc(right)) \
                    == (deep_compare(enc(left), enc(right)) == EQUAL)

    def test_keys_hashable_for_dedup(self):
        assert forests_equal(enc("<a/>"), [("<a>", 5, 90)])

    def test_tree_keys_per_tree(self):
        rel = IntervalColumns.from_tuples(enc("<a><b/></a><c/><a><b/></a>"))
        starts, ends, _envs = kernels._trees(rel, 10)
        (ids,) = kernels.span_ids((rel, starts, ends))
        assert ids[0] == ids[2] != ids[1]

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


# -- Section 6.2: join keys that are trees ------------------------------------

KEY_JOIN_QUERY = """
for $l in document("db.xml")/db/left/rec
let $m := for $r in document("db.xml")/db/right/rec
          where deep-equal($l/key, $r/key)
          return $r/payload
where not(empty($m))
return <hit>{count($m)}</hit>
"""

KEY_RECORDS = 40


def _key_tree(rng: random.Random, depth: int, fanout: int,
              variant: int) -> Node:
    """A deterministic tree of the given shape, tagged by ``variant``."""
    if depth <= 1:
        return text(f"v{variant}")
    children = [_key_tree(rng, depth - 1, fanout, variant)
                for _ in range(fanout)]
    return element(f"n{variant % 3}", children)


def key_join_document(depth: int, fanout: int, seed: int = 7) -> Node:
    """Two record lists whose keys are trees with ~fanout^depth nodes."""
    rng = random.Random(seed)
    variants = 8  # distinct key values → selective but non-empty join

    def records(count: int) -> list[Node]:
        return [
            element("rec", (
                element("key", (_key_tree(rng, depth, fanout,
                                          rng.randrange(variants)),)),
                element("payload", (text(f"p{i}"),)),
            ))
            for i in range(count)
        ]

    return element("db", (
        element("left", records(KEY_RECORDS)),
        element("right", records(KEY_RECORDS)),
    ))


def run_key_join(document: Node):
    """:data:`KEY_JOIN_QUERY` on ``document`` through the MSJ plan."""
    compiled = compile_xquery(KEY_JOIN_QUERY)
    plan = compile_plan(compiled.core, JoinStrategy.MSJ,
                        base_vars=compiled.documents.values())
    bindings = {var: document_forest(document)
                for var in compiled.documents.values()}
    return DIEngine().run_plan(plan, bindings)


def test_key_join_correct_against_interpreter():
    """The deep-equal merge join on tree keys answers as Figure 3 does
    (its cost is ``tests/test_figures.py``)."""
    document = key_join_document(3, 2)
    compiled = compile_xquery(KEY_JOIN_QUERY)
    bindings = {var: document_forest(document)
                for var in compiled.documents.values()}
    result = run_key_join(document)
    assert result  # the join is selective but never empty
    assert result == evaluate(compiled.core, bindings)
