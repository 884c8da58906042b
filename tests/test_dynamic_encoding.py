"""Definition 3.3's reading of environment sequences (``tests/def33.py``).

The refusals of a relation that does not fit its index — a row outside
every indexed block, a row crossing a block boundary, rows at width 0 —
are :func:`~repro.engine.validate.validate_value`'s, tested in
``tests/test_engine_validate.py``.
"""

import pytest

from repro.encoding.interval import decode
from repro.xml.forest import text
from repro.xml.text_parser import parse_forest

from tests.def33 import encode_sequence, env_forests


def f(source: str):
    return parse_forest(source)


class TestEncodeSequence:
    def test_blocks_are_disjoint(self):
        index, rows, width = encode_sequence([f("<a/>"), f("<b/><c/>")])
        assert index == [0, 1]
        assert width == 4  # widest forest: two nodes
        assert rows == [("<a>", 0, 1), ("<b>", 4, 5), ("<c>", 6, 7)]

    def test_empty_forests_leave_empty_blocks(self):
        index, rows, _width = encode_sequence([(), f("<a/>"), ()])
        assert index == [0, 1, 2]
        assert rows == [("<a>", 2, 3)]

    def test_explicit_width(self):
        _, rows, width = encode_sequence([f("<a/>"), f("<b/>")], width=100)
        assert width == 100
        assert rows == [("<a>", 0, 1), ("<b>", 100, 101)]

    def test_width_too_small_rejected(self):
        with pytest.raises(AssertionError, match="exceeding block width"):
            encode_sequence([f("<a><b/></a>")], width=2)

    def test_empty_sequence(self):
        assert encode_sequence([]) == ([], [], 0)


class TestDecodeSequence:
    def test_roundtrip(self):
        forests = [f("<a/>"), (), f("<b><c/></b>")]
        index, rows, width = encode_sequence(forests)
        assert env_forests(rows, width, index) == forests

    def test_zero_width_empty_ok(self):
        assert env_forests([], 0, [0, 1]) == [(), ()]

    def test_sparse_index(self):
        # Environment indices need not be consecutive (the for-rule uses
        # root left endpoints as indices).
        rows = [("x", 20, 21), ("y", 52, 53)]
        assert env_forests(rows, 4, [5, 13]) == [(text("x"),), (text("y"),)]


class TestEnvironmentSequence:
    def test_dual_reading_as_single_forest(self):
        """A blocked relation read without the index is the concatenation:
        leaving a ``for`` loop costs nothing (Section 3)."""
        _, rows, _width = encode_sequence([f("<a/>"), f("<b/><c/>")])
        assert decode(rows) == f("<a/><b/><c/>")
