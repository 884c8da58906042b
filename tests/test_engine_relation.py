"""Block arithmetic on engine relations (:class:`IntervalColumns`).

A relation of width ``w`` encodes a sequence of environments: the rows
with ``l // w == i`` form environment ``i``'s forest.  These pin the
block and tree bounds the kernels build on — ``block_bounds``,
``kernels._block_spans``, ``kernels._trees``, ``kernels._subtree_ends``
— and the document-order invariant ``validate_value`` holds every
kernel output to.
"""

import numpy as np
import pytest

from repro.encoding.interval import encode
from repro.engine import kernels
from repro.engine.columns import IntervalColumns
from repro.engine.validate import validate_value
from repro.errors import ExecutionError
from repro.xml.text_parser import parse_forest


def encoded(source: str) -> IntervalColumns:
    return IntervalColumns.from_tuples(encode(parse_forest(source)).tuples)


def cols(rows) -> IntervalColumns:
    return IntervalColumns.from_tuples(rows)


def groups(rel: IntervalColumns, width: int):
    """``(env, rows)`` of every non-empty block, from ``block_bounds``."""
    envs, starts, ends = rel.block_bounds(width)
    return [(env, rel[a:b].tuples()) for env, a, b
            in zip(envs.tolist(), starts.tolist(), ends.tolist())]


class TestBasics:
    def test_env_of(self):
        envs, _starts, _ends = cols([("a", 0, 1), ("b", 25, 26)]) \
            .block_bounds(10)
        assert envs.tolist() == [0, 2]

    def test_check_sorted_accepts(self):
        validate_value(encoded("<a><b/></a><c/>"), 6, [0])

    def test_check_sorted_rejects(self):
        rel = cols([("a", 0, 1), ("b", 5, 6)])
        backwards = IntervalColumns(rel.l[::-1], rel.r[::-1], rel.d, rel.c)
        with pytest.raises(ExecutionError, match="document order"):
            validate_value(backwards, 10, [0])

    def test_shift_block(self):
        moved = kernels.gather_blocks(cols([("a", 0, 1)]), 10, [0], [1])
        assert moved.tuples() == [("a", 10, 11)]

    def test_localize(self):
        moved = kernels.gather_blocks(cols([("a", 20, 21)]), 10, [2], [0])
        assert moved.tuples() == [("a", 0, 1)]


class TestGrouping:
    def test_group_by_env(self):
        rel = cols([("a", 0, 1), ("b", 10, 11), ("c", 12, 13)])
        assert groups(rel, 10) == [
            (0, [("a", 0, 1)]),
            (1, [("b", 10, 11), ("c", 12, 13)]),
        ]

    def test_group_skips_empty_blocks(self):
        rel = cols([("a", 0, 1), ("b", 30, 31)])
        assert [env for env, _ in groups(rel, 10)] == [0, 3]

    def test_group_zero_width(self):
        starts, ends, envs = kernels._block_spans(IntervalColumns.empty(), 0,
                                                  [])
        assert len(starts) == len(ends) == len(envs) == 0

    def test_env_blocks_dict(self):
        rel = cols([("a", 0, 1), ("b", 10, 11)])
        assert set(dict(groups(rel, 10))) == {0, 1}

    def test_env_slice_binary_search(self):
        rel = cols([("a", 0, 1), ("b", 10, 11), ("c", 20, 21)])
        starts, ends, _envs = kernels._block_spans(rel, 10, [0, 1, 2, 5])
        assert [rel[a:b].tuples() for a, b in zip(starts, ends)][1:] \
            == [[("b", 10, 11)], [("c", 20, 21)], []]

    def test_filter_by_index(self):
        rel = cols([("a", 0, 1), ("b", 10, 11), ("c", 20, 21),
                    ("d", 22, 23)])
        assert kernels.filter_by_index(rel, 10, [0, 2]).tuples() == [
            ("a", 0, 1), ("c", 20, 21), ("d", 22, 23),
        ]

    def test_filter_by_empty_index(self):
        assert kernels.filter_by_index(cols([("a", 0, 1)]), 10, []) \
            .tuples() == []


class TestTreeSlices:
    def test_splits_top_level(self):
        rel = encoded("<a><b/></a><c/>")
        starts, ends, _envs = kernels._trees(rel, 6)
        assert list(zip(starts.tolist(), ends.tolist())) == [(0, 2), (2, 3)]
        assert [rel[a][0] for a in starts.tolist()] == ["<a>", "<c>"]

    def test_subtree_stays_with_root(self):
        rel = encoded("<a><b><c/></b></a><d/>")
        starts, ends, _envs = kernels._trees(rel, 8)
        assert (ends - starts).tolist() == [3, 1]

    def test_empty_block(self):
        starts, _ends, envs = kernels._trees(IntervalColumns.empty(), 4)
        assert len(starts) == len(envs) == 0

    def test_subtree_range(self):
        rel = encoded("<a><b><c/></b><d/></a><e/>")
        ends = kernels._subtree_ends(rel, np.array([0, 1, 4]))
        assert ends.tolist() == [4, 3, 5]  # whole <a>, <b><c/></b>, <e>
