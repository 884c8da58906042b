"""Tests for per-document statistics (repro.encoding.stats)."""

from __future__ import annotations

from repro.encoding.interval import encode, encode_columns
from repro.encoding.stats import collect_stats
from repro.xml.text_parser import parse_forest

SAMPLE = (
    "<site><people>"
    "<person><name>ann</name></person>"
    "<person><name>bob</name></person>"
    "</people></site>"
)


def _both_representations(forest):
    encoded = encode(forest)
    width = max(encoded.width, 1)
    columns, col_width = encode_columns(forest)
    return [(list(encoded.tuples), width), (columns, max(col_width, 1))]


class TestCollectStats:
    def test_counts_and_labels(self):
        forest = parse_forest(SAMPLE)
        for rel, width in _both_representations(forest):
            stats = collect_stats(rel, width)
            assert stats.nodes == 8
            assert stats.roots == 1
            assert stats.width == width
            assert stats.label_counts["<person>"] == 2
            assert stats.label_counts["<name>"] == 2
            assert stats.label_counts["ann"] == 1

    def test_depth_histogram(self):
        forest = parse_forest(SAMPLE)
        rel, width = _both_representations(forest)[0]
        stats = collect_stats(rel, width)
        # site(0) people(1) person(2)x2 name(3)x2 text(4)x2
        assert stats.depth_histogram == (1, 1, 2, 2, 2)
        assert stats.max_depth == 4

    def test_representations_agree(self):
        forest = parse_forest(SAMPLE)
        (list_rel, w1), (col_rel, w2) = _both_representations(forest)
        assert collect_stats(list_rel, w1) == collect_stats(col_rel, w2)

    def test_empty_relation(self):
        stats = collect_stats([], 1)
        assert stats.nodes == 0
        assert stats.roots == 0
        assert stats.avg_subtree == 1.0
        assert stats.label_fraction("<a>") == 0.0

    def test_fanout_over_elements(self):
        forest = parse_forest("<a><b/><c/><d/></a>")
        rel, width = _both_representations(forest)[0]
        stats = collect_stats(rel, width)
        # Four element nodes, three edges: mean children per element.
        assert stats.fanout == 3 / 4

    def test_forest_of_roots(self):
        forest = parse_forest("<a/>") + parse_forest("<b/>")
        rel, width = _both_representations(forest)[0]
        stats = collect_stats(rel, width)
        assert stats.roots == 2
        assert stats.nodes == 2


class TestDerived:
    def test_avg_subtree(self):
        forest = parse_forest("<a><b><c/></b></a>")
        rel, width = _both_representations(forest)[0]
        stats = collect_stats(rel, width)
        # depths 0,1,2 → Σ(depth+1)/nodes = (1+2+3)/3
        assert stats.avg_subtree == 2.0

    def test_label_fraction(self):
        forest = parse_forest(SAMPLE)
        rel, width = _both_representations(forest)[0]
        stats = collect_stats(rel, width)
        assert stats.label_fraction("<person>") == 2 / 8
