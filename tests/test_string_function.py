"""Tests for the string() builtin across representations."""

import pytest

from repro import run_xquery
from repro.encoding.interval import encode
from repro.engine import kernels
from repro.engine.columns import IntervalColumns
from repro.xml import operations as ref_ops
from repro.xml.forest import text
from repro.xml.text_parser import parse_forest


def f(source: str):
    return parse_forest(source)


class TestReference:
    def test_concatenates_in_document_order(self):
        trees = f("<a>He<b>llo</b> world</a>")
        assert ref_ops.string_fn(trees) == (text("Hello world"),)

    def test_empty_forest(self):
        assert ref_ops.string_fn(()) == (text(""),)

    def test_elements_only(self):
        assert ref_ops.string_fn(f("<a><b/></a>")) == (text(""),)

    def test_attributes_contribute(self):
        # Attribute values are text children — part of the string value
        # under the paper's encoding conventions.
        trees = f("<a id='x'>y</a>")
        assert ref_ops.string_fn(trees)[0].label == "xy"

    def test_multiple_trees(self):
        assert ref_ops.string_fn(f("<a>1</a><b>2</b>"))[0].label == "12"


class TestEngine:
    def test_matches_reference_per_env(self):
        trees = f("<a>He<b>llo</b></a><c>!</c>")
        encoded = encode(trees)
        result, width = kernels.string_fn(
            IntervalColumns.from_tuples(encoded.tuples), encoded.width, [0])
        assert width == 2
        assert result.tuples() == [("Hello!", 0, 1)]

    def test_empty_env_yields_empty_string(self):
        result, _w = kernels.string_fn(IntervalColumns.empty(), 10, [0, 1])
        assert result.tuples() == [("", 0, 1), ("", 2, 3)]


class TestAllBackends:
    QUERY = ('for $x in document("d")/r/a '
             'return <s>{string($x)}</s>')
    XML = "<r><a>one<b> two</b></a><a>three</a></r>"

    @pytest.mark.parametrize("backend,strategy", [
        ("interpreter", "msj"), ("engine", "nlj"),
        ("engine", "msj"), ("sqlite", "msj"),
    ])
    def test_agreement(self, backend, strategy):
        result = run_xquery(self.QUERY, {"d": self.XML},
                            backend=backend, strategy=strategy)
        assert result.to_xml() == "<s>one two</s><s>three</s>"

    def test_deeply_nested_text_order_on_sqlite(self):
        # Interleaved nesting exercises GROUP_CONCAT's input ordering.
        xml = "<r><a>1<b>2<c>3</c>4</b>5<b>6</b>7</a></r>"
        result = run_xquery('string(document("d")/r/a)', {"d": xml},
                            backend="sqlite")
        assert result.to_xml() == "1234567"

    def test_string_of_empty_result(self):
        result = run_xquery('string(document("d")/r/zzz)',
                            {"d": self.XML}, backend="sqlite")
        assert result.forest == (text(""),)

    def test_string_in_attribute(self):
        result = run_xquery(
            'for $x in document("d")/r/a return <v s="{string($x)}"/>',
            {"d": self.XML})
        assert result.to_xml() == '<v s="one two"/><v s="three"/>'
