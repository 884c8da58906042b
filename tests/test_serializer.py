"""Unit tests for XML serialization.

The compact serializer is one iterative emitter over a preorder
``(label, depth)`` stream; :func:`reference_xml` below — the recursive
node walk it replaced, escape tables included — is the reference it is
compared against (as ``engine/operators.py`` is for the kernels).
"""

import pytest
from hypothesis import given, settings

from repro import run_xquery
from repro.encoding.interval import decode, encode_columns
from repro.xml.forest import (
    Node,
    PreorderForest,
    attribute,
    element,
    preorder,
    text,
)
from repro.xml.serializer import escape_attribute, escape_text, forest_to_xml
from repro.xml.text_parser import parse_forest

from tests.strategies import LABELS, forests, xml_safe_forests

# -- the reference: the recursive compact walk over nodes -------------------------

TEXT_ESCAPES = {"&": "&amp;", "<": "&lt;", ">": "&gt;"}
ATTR_ESCAPES = {"&": "&amp;", "<": "&lt;", '"': "&quot;",
                "\t": "&#9;", "\n": "&#10;", "\r": "&#13;"}


def _escaped(value: str, table: dict[str, str]) -> str:
    for char, entity in table.items():
        value = value.replace(char, entity)
    return value


def _attribute_value(attr: Node) -> str:
    return "".join(child.label for child in attr.children if child.is_text())


def _reference_render(node: Node, parts: list[str]) -> None:
    if node.is_text():
        parts.append(_escaped(node.label, TEXT_ESCAPES))
        return
    if node.is_attribute():
        parts.append(f'[@{node.attribute_name}="{_attribute_value(node)}"]')
        return
    attributes = [child for child in node.children if child.is_attribute()]
    content = [child for child in node.children if not child.is_attribute()]
    attr_text = "".join(
        f' {attr.attribute_name}='
        f'"{_escaped(_attribute_value(attr), ATTR_ESCAPES)}"'
        for attr in attributes)
    if not content:
        parts.append(f"<{node.tag}{attr_text}/>")
        return
    parts.append(f"<{node.tag}{attr_text}>")
    for child in content:
        _reference_render(child, parts)
    parts.append(f"</{node.tag}>")


def reference_xml(trees) -> str:
    parts: list[str] = []
    for tree in trees:
        _reference_render(tree, parts)
    return "".join(parts)


def from_columns(trees) -> PreorderForest:
    """The forest as an engine result: encoded to columns, decoded back."""
    return decode(encode_columns(trees)[0])


#: Labels at the edge of the three label classes, and every character
#: either escape table names.
AWKWARD_LABELS = LABELS + ("<>", "@", "<", ">", "<a", "a>") + tuple(
    f"p{char}q" for char in {**TEXT_ESCAPES, **ATTR_ESCAPES})


class TestEscaping:
    def test_text_escapes(self):
        assert escape_text("a<b>&c") == "a&lt;b&gt;&amp;c"

    def test_attribute_escapes(self):
        assert escape_attribute('a"b<c&d') == "a&quot;b&lt;c&amp;d"

    def test_attribute_whitespace_becomes_character_references(self):
        assert escape_attribute("a\tb\nc\rd") == "a&#9;b&#10;c&#13;d"

    def test_text_whitespace_untouched(self):
        assert escape_text("a\tb\nc") == "a\tb\nc"

    def test_quote_untouched_in_text(self):
        assert escape_text('"quoted"') == '"quoted"'


class TestSerialization:
    def test_empty_element(self):
        assert forest_to_xml(element("a")) == "<a/>"

    def test_text_content(self):
        assert forest_to_xml(element("a", (text("x"),))) == "<a>x</a>"

    def test_attributes_inline(self):
        tree = element("a", (attribute("id", "x"), text("body")))
        assert forest_to_xml(tree) == '<a id="x">body</a>'

    def test_attribute_only_element(self):
        tree = element("a", (attribute("id", "x"),))
        assert forest_to_xml(tree) == '<a id="x"/>'

    def test_forest_concatenates(self):
        trees = (element("a"), element("b"))
        assert forest_to_xml(trees) == "<a/><b/>"

    def test_single_node_accepted(self):
        assert forest_to_xml(text("plain")) == "plain"

    def test_escaped_content(self):
        tree = element("a", (text("1 < 2 & 3"),))
        assert forest_to_xml(tree) == "<a>1 &lt; 2 &amp; 3</a>"

    def test_escaped_attribute_value(self):
        tree = element("a", (attribute("t", 'x"y'),))
        assert forest_to_xml(tree) == '<a t="x&quot;y"/>'

    def test_bare_attribute_rendered_debug_style(self):
        assert forest_to_xml((attribute("id", "x"),)) == '[@id="x"]'


class TestEmitterAgainstReference:
    """emitter(preorder form) == emitter(flattened nodes) == reference."""

    CASES = {
        "attribute after element and text siblings": element("a", (
            element("b"), text("t"), attribute("id", "1"), text("u"),
            attribute("k", "2"))),
        "attribute on an otherwise empty element, after nothing": element(
            "a", (attribute("id", "1"),)),
        "attribute with an element child": element("a", (
            Node("@id", (text("x"), element("b", (text("no"),)), text("y"))),
            element("c"))),
        "attribute with nested text only below an element": element("a", (
            Node("@id", (element("b", (text("deep"),)),)),)),
        "text row with children": element("a", (
            Node("t", (element("b"), text("u"), attribute("id", "1"))),
            element("c"))),
        "empty text child is content": element("a", (text(""),)),
        "depth-0 attribute": attribute("id", 'x"<&>y'),
        "depth-0 attribute with an element child": Node(
            "@id", (element("b", (text("no"),)), text("v"))),
        "depth-0 text with children": Node("t", (element("b"),)),
        "empty-name labels are text": element("a", (
            Node("<>", (text("skipped"),)), Node("@", (text("skipped"),)),
            text(""))),
        "escapes": element("a", (
            attribute("t", "&<>\"\t\n\r'"), text("&<>\"\t\n\r'"))),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_named_shapes(self, name):
        trees = (self.CASES[name],)
        expected = reference_xml(trees)
        assert forest_to_xml(trees) == expected
        assert forest_to_xml(trees[0]) == expected
        assert forest_to_xml(from_columns(trees)) == expected

    def test_hoisted_attribute_rendering(self):
        tree = self.CASES["attribute after element and text siblings"]
        assert forest_to_xml(tree) == '<a id="1" k="2"><b/>tu</a>'

    def test_empty_forest(self):
        assert forest_to_xml(()) == reference_xml(()) == ""
        assert forest_to_xml(from_columns(())) == ""

    def test_top_level_mix(self):
        trees = (attribute("id", "x"), text("a<b"), element("e"),
                 attribute("k", "y"))
        assert forest_to_xml(trees) == '[@id="x"]a&lt;b<e/>[@k="y"]'
        assert forest_to_xml(from_columns(trees)) == reference_xml(trees)

    @pytest.mark.parametrize("char", sorted({**TEXT_ESCAPES, **ATTR_ESCAPES}))
    def test_escape_functions_match_the_reference_tables(self, char):
        value = f"a{char}b{char}"
        assert escape_text(value) == _escaped(value, TEXT_ESCAPES)
        assert escape_attribute(value) == _escaped(value, ATTR_ESCAPES)

    @settings(max_examples=300, deadline=None)
    @given(forests(labels=AWKWARD_LABELS))
    def test_three_routes_agree(self, trees):
        expected = reference_xml(trees)
        assert forest_to_xml(trees) == expected
        result = from_columns(trees)
        assert (result.labels, result.depths) == preorder(trees)
        assert forest_to_xml(result) == expected
        # Pretty-printing walks the trees the preorder form builds.
        assert forest_to_xml(result, indent=2) == forest_to_xml(trees,
                                                                indent=2)

    @settings(max_examples=100, deadline=None)
    @given(xml_safe_forests())
    def test_parser_producible_forests_round_trip(self, trees):
        assert parse_forest(forest_to_xml(trees)) == trees
        assert parse_forest(forest_to_xml(from_columns(trees))) == trees


class TestDeepDocuments:
    """Document depth must not be limited by the recursion limit."""

    DEPTH = 5000

    def test_deep_chain_serializes_from_nodes(self):
        tree = text("leaf")
        for _ in range(self.DEPTH):
            tree = element("a", (tree,))
        rendered = forest_to_xml(tree)
        assert rendered == "<a>" * self.DEPTH + "leaf" + "</a>" * self.DEPTH

    def test_deep_chain_serializes_through_a_query(self):
        tree = element("a")
        for _ in range(self.DEPTH - 1):
            tree = element("a", (tree,))
        result = run_xquery('document("d.xml")/a', {"d.xml": tree})
        assert result.to_xml() == ("<a>" * (self.DEPTH - 1) + "<a/>"
                                   + "</a>" * (self.DEPTH - 1))


class TestPrettyPrinting:
    def test_indented_output(self):
        tree = element("a", (element("b", (text("x"),)), element("c")))
        rendered = forest_to_xml(tree, indent=2)
        assert rendered == "<a>\n  <b>x</b>\n  <c/>\n</a>"

    def test_text_only_elements_stay_inline(self):
        tree = element("a", (text("hello"),))
        assert forest_to_xml(tree, indent=2) == "<a>hello</a>"


class TestRoundTrip:
    def test_parse_serialize_parse(self, figure1_forest):
        rendered = forest_to_xml(figure1_forest)
        assert parse_forest(rendered) == figure1_forest

    def test_entities_roundtrip(self):
        source = "<a t=\"1 &lt; 2\">x &amp; y</a>"
        trees = parse_forest(source)
        assert parse_forest(forest_to_xml(trees)) == trees

    def test_xmark_roundtrip(self, xmark_tiny):
        rendered = forest_to_xml(xmark_tiny)
        assert parse_forest(rendered) == (xmark_tiny,)

    def test_attribute_whitespace_roundtrip(self):
        tree = element("a", (attribute("t", "x\ty\nz\rw"),))
        rendered = forest_to_xml(tree)
        assert rendered == '<a t="x&#9;y&#10;z&#13;w"/>'
        assert parse_forest(rendered) == (tree,)

    def test_raw_attribute_whitespace_normalized_to_spaces(self):
        # A conformant parser replaces raw literal tab/newline/CR in
        # attribute values with spaces; reference-derived ones survive.
        trees = parse_forest('<a t="x\ty" u="p&#9;q"/>')
        expected = element("a", (attribute("t", "x y"),
                                 attribute("u", "p\tq")))
        assert trees == (expected,)
