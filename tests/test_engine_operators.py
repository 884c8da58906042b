"""The DI engine's kernels on hand-picked forests, under Definition 3.3.

Strategy: encode a forest (or a sequence of forests as environment
blocks), run the kernel, decode every environment block, and compare
against the Figure 2 operator (:mod:`repro.xml.operations`, through
``FUNCTIONS[fn].impl``) applied per environment — :mod:`tests.def33`.
"""

import pytest

from repro.encoding.interval import encode
from repro.engine import kernels
from repro.engine.columns import IntervalColumns
from repro.engine.validate import validate_value
from repro.xml.text_parser import parse_forest

from tests.def33 import check, encode_sequence, unary

FORESTS = {
    "single": "<a/>",
    "flat": "<a/><b/><c/>",
    "nested": "<a><b><c/></b><d/></a>",
    "mixed": "<a id='1'><n>x</n></a><b>y</b><a id='1'><n>x</n></a>",
    "texty": "<p>one</p>two<p>three</p>",
    "dups": "<a>1</a><a>1</a><b/><a>2</a>",
}

SEQUENCES = [
    ["<a/>", "<b/><c/>"],
    ["<a><b/></a>", "", "<c>t</c><d/>"],
    ["<x>1</x><x>1</x>", "<y/>"],
]


@pytest.fixture(params=sorted(FORESTS))
def single(request):
    """``(rows, width, index)`` of one forest in environment 0."""
    encoded = encode(parse_forest(FORESTS[request.param]))
    return list(encoded.tuples), encoded.width, [0]


@pytest.fixture(params=range(len(SEQUENCES)))
def sequence(request):
    """``(rows, width, index)`` of a sequence of forests, one per
    environment block."""
    forests = [parse_forest(s) for s in SEQUENCES[request.param]]
    index, rows, width = encode_sequence(forests)
    return rows, width, index


class TestSingleForestOperators:
    def test_roots(self, single):
        unary("roots", lambda cols, _w: kernels.roots(cols), *single)

    def test_children(self, single):
        unary("children", lambda cols, _w: kernels.children(cols), *single)

    def test_select(self, single):
        unary("select", lambda cols, _w: kernels.select_label(cols, "<a>"),
              *single, label="<a>")

    def test_textnodes(self, single):
        unary("textnodes", lambda cols, _w: kernels.textnode_trees(cols),
              *single)

    def test_head(self, single):
        unary("head", kernels.head, *single)

    def test_tail(self, single):
        unary("tail", kernels.tail, *single)

    def test_reverse(self, single):
        unary("reverse", kernels.reverse, *single)

    def test_subtrees_dfs(self, single):
        unary("subtrees_dfs", kernels.subtrees_dfs, *single)

    def test_data(self, single):
        unary("data", kernels.data, *single)

    def test_distinct(self, single):
        unary("distinct", kernels.distinct, *single)

    def test_sort(self, single):
        unary("sort", kernels.sort, *single)


class TestPerEnvironmentOperators:
    """Kernels applied to blocked relations act per environment."""

    def test_roots(self, sequence):
        unary("roots", lambda cols, _w: kernels.roots(cols), *sequence)

    def test_children(self, sequence):
        unary("children", lambda cols, _w: kernels.children(cols), *sequence)

    def test_head(self, sequence):
        unary("head", kernels.head, *sequence)

    def test_tail(self, sequence):
        unary("tail", kernels.tail, *sequence)

    def test_reverse(self, sequence):
        unary("reverse", kernels.reverse, *sequence)

    def test_data(self, sequence):
        unary("data", kernels.data, *sequence)

    def test_distinct(self, sequence):
        unary("distinct", kernels.distinct, *sequence)

    def test_subtrees(self, sequence):
        unary("subtrees_dfs", kernels.subtrees_dfs, *sequence)

    def test_sort(self, sequence):
        unary("sort", kernels.sort, *sequence)

    def test_concat(self, sequence):
        rows, width, index = sequence
        check("concat", lambda one, w1, other, w2, _envs:
              kernels.concat(one, w1, other, w2), [(rows, width)] * 2, index)

    def test_xnode(self, sequence):
        rows, width, index = sequence
        check("xnode", lambda cols, w, envs: kernels.xnode("<w>", cols, w,
                                                           envs),
              [(rows, width)], index, {"label": "<w>"})

    def test_xnode_emits_for_empty_envs(self):
        index, rows, width = encode_sequence([parse_forest("<a/>"), ()])
        check("xnode", lambda cols, w, envs: kernels.xnode("<w>", cols, w,
                                                           envs),
              [(rows, width)], index, {"label": "<w>"})

    def test_text_const(self, sequence):
        _rows, _width, index = sequence
        check("text_const", lambda envs: kernels.text_const("v", envs), [],
              index, {"value": "v"})

    def test_count(self, sequence):
        rows, width, index = sequence
        check("count", kernels.count_roots, [(rows, width)], index)


# Width-preserving kernels as ``(rel, width) -> (rel, width)``; a
# parameter's test id is its name.
def head(rel, width):
    return kernels.head(rel, width), width


def tail(rel, width):
    return kernels.tail(rel, width), width


def reverse(rel, width):
    return kernels.reverse(rel, width), width


def subtrees_dfs(rel, width):
    return kernels.subtrees_dfs(rel, width), width * width


def data(rel, width):
    return kernels.data(rel, width), width


def distinct(rel, width):
    return kernels.distinct(rel, width), width


class TestOutputsSorted:
    """Every kernel must preserve the document-order invariant (and the
    rest of what ``validate_value`` checks), at its output width."""

    @pytest.mark.parametrize("operator", [
        lambda rel, w: (kernels.roots(rel), w),
        lambda rel, w: (kernels.children(rel), w),
        lambda rel, w: (kernels.select_label(rel, "<a>"), w),
        head,
        tail,
        reverse,
        subtrees_dfs,
        data,
        distinct,
        lambda rel, w: kernels.sort(rel, w),
    ])
    def test_sorted_output(self, operator, sequence):
        rows, width, index = sequence
        result, out_width = operator(IntervalColumns.from_tuples(rows), width)
        validate_value(result, out_width, index)
        assert result.l.tolist() == sorted(result.l.tolist())
