"""Unit tests for the XML text parser."""

import xml.etree.ElementTree as ElementTree

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import XMLParseError
from repro.xml.forest import element, text
from repro.xml.text_parser import parse_document, parse_forest


class TestBasicParsing:
    def test_empty_element(self):
        assert parse_forest("<a/>") == (element("a"),)

    def test_element_with_text(self):
        assert parse_forest("<a>hello</a>") == (element("a", (text("hello"),)),)

    def test_nested_elements(self):
        trees = parse_forest("<a><b/><c/></a>")
        assert [child.label for child in trees[0].children] == ["<b>", "<c>"]

    def test_multiple_top_level_trees(self):
        trees = parse_forest("<a/><b/>")
        assert [tree.label for tree in trees] == ["<a>", "<b>"]

    def test_empty_input(self):
        assert parse_forest("") == ()

    def test_whitespace_only(self):
        assert parse_forest("  \n\t ") == ()

    def test_mixed_content_preserved(self):
        trees = parse_forest("<a>x<b/>y</a>")
        labels = [child.label for child in trees[0].children]
        assert labels == ["x", "<b>", "y"]

    def test_whitespace_only_text_stripped_by_default(self):
        trees = parse_forest("<a> <b/> </a>")
        labels = [child.label for child in trees[0].children]
        assert labels == ["<b>"]

    def test_whitespace_preserved_on_request(self):
        trees = parse_forest("<a> <b/> </a>", strip_whitespace=False)
        labels = [child.label for child in trees[0].children]
        assert labels == [" ", "<b>", " "]

    def test_meaningful_whitespace_in_mixed_content_kept(self):
        trees = parse_forest("<a>x <b/></a>")
        labels = [child.label for child in trees[0].children]
        assert labels == ["x ", "<b>"]


class TestAttributes:
    def test_attribute_becomes_at_node(self):
        trees = parse_forest('<a id="x"/>')
        attr = trees[0].children[0]
        assert attr.label == "@id"
        assert attr.children[0].label == "x"

    def test_attributes_precede_content(self):
        trees = parse_forest('<a id="x">body</a>')
        labels = [child.label for child in trees[0].children]
        assert labels == ["@id", "body"]

    def test_single_quoted_attribute(self):
        trees = parse_forest("<a id='x'/>")
        assert trees[0].children[0].children[0].label == "x"

    def test_multiple_attributes_in_order(self):
        trees = parse_forest('<a x="1" y="2" z="3"/>')
        labels = [child.label for child in trees[0].children]
        assert labels == ["@x", "@y", "@z"]

    def test_duplicate_attribute_rejected(self):
        with pytest.raises(XMLParseError):
            parse_forest('<a id="1" id="2"/>')

    def test_unquoted_attribute_rejected(self):
        with pytest.raises(XMLParseError):
            parse_forest("<a id=x/>")

    def test_attribute_entity(self):
        # ("<&>" alone would read as an element label and is refused.)
        trees = parse_forest('<a t="&lt;&amp;&gt;!"/>')
        assert trees[0].children[0].children[0].label == "<&>!"


class TestEntitiesAndCData:
    @pytest.mark.parametrize("entity,expected", [
        ("&lt;", "<"), ("&gt;", ">"), ("&amp;", "&"),
        ("&apos;", "'"), ("&quot;", '"'),
        ("&#65;", "A"), ("&#x41;", "A"),
    ])
    def test_entities(self, entity, expected):
        trees = parse_forest(f"<a>{entity}</a>")
        assert trees[0].children[0].label == expected

    def test_unknown_entity_rejected(self):
        with pytest.raises(XMLParseError):
            parse_forest("<a>&nope;</a>")

    def test_cdata(self):
        trees = parse_forest("<a><![CDATA[<raw>&stuff;]]></a>")
        assert trees[0].children[0].label == "<raw>&stuff;"

    def test_comments_skipped(self):
        trees = parse_forest("<a><!-- comment -->x</a>")
        assert [child.label for child in trees[0].children] == ["x"]

    def test_processing_instruction_skipped(self):
        trees = parse_forest('<?xml version="1.0"?><a/>')
        assert trees[0].label == "<a>"

    def test_doctype_skipped(self):
        trees = parse_forest("<!DOCTYPE site SYSTEM 'x.dtd'><a/>")
        assert trees[0].label == "<a>"


class TestErrors:
    @pytest.mark.parametrize("source", [
        "<a>",                 # unclosed
        "<a></b>",             # mismatched close
        "<a><b></a></b>",      # crossed nesting
        "<a attr=></a>",       # missing value
        "<1a/>",               # bad name start
        "text only <",         # dangling <
        "<a>&unterminated",    # entity never closed
    ])
    def test_malformed_rejected(self, source):
        with pytest.raises(XMLParseError):
            parse_forest(source)

    def test_error_carries_position(self):
        with pytest.raises(XMLParseError) as excinfo:
            parse_forest("<a></b>")
        assert excinfo.value.position is not None


class TestTextThatReadsAsALabel:
    """Kind is inferred from the label, so ``<b>`` or ``@x`` as character
    data would come back as markup: ``document("d.xml")/r/a`` answered
    ``<a><b/></a><a x=""/>`` for the first two sources below, on every
    backend, ``/r/a/b`` found an element that was never there, and the
    attribute lost its value.  The parser refuses instead."""

    @pytest.mark.parametrize("source, offset", [
        ("<r><a>&lt;b&gt;</a><a>plain</a></r>", 6),
        ("<r><a>@x</a></r>", 6),
        ('<a k="&lt;b&gt;"/>', 5),
        ("<a k='@alice'/>", 5),
        ("<r><a><![CDATA[<b>]]></a></r>", 6),
        ("<r>x<a/>&#60;b<![CDATA[>]]></r>", 8),
    ])
    def test_refused_naming_the_offset(self, source, offset):
        with pytest.raises(XMLParseError, match="reads as a node label") \
                as excinfo:
            parse_forest(source)
        assert excinfo.value.position == offset

    def test_a_session_refuses_the_document(self):
        from repro import XQuerySession

        with XQuerySession() as session:
            with pytest.raises(XMLParseError):
                session.add_document(
                    "d.xml", "<r><a>&lt;b&gt;</a><a>@x</a><a>plain</a></r>")

    def test_what_only_begins_like_a_label_is_text(self):
        (root,) = parse_forest(
            "<r k='@'><a>&lt;</a><a>@</a><a>&lt;&gt;</a><a> @x</a>"
            "<a>&lt;b&gt; c</a><a>x&lt;b&gt;</a></r>")
        assert [node.label for node in root.iter_dfs() if node.is_text()] \
            == ["@", "<", "@", "<>", " @x", "<b> c", "x<b>"]


class TestCharacters:
    """Only XML 1.0's ``Char`` production (§2.2) may appear, raw or by
    reference, and ``xml.etree`` is the oracle — in text and in
    attribute values.  NUL and the other C0 controls used to load (and
    to serialize to text no parser reads back), and ``&#xD800;`` a lone
    surrogate that later failed to encode as UTF-8 on the process tier
    and in ``POST /query``."""

    #: The edges of the production.
    EDGES = (0x0, 0x1, 0x8, 0x9, 0xA, 0xB, 0xC, 0xD, 0xE, 0x1F, 0x20, 0x7F,
             0x85, 0xD7FF, 0xD800, 0xDBFF, 0xDC00, 0xDFFF, 0xE000, 0xFFFD,
             0xFFFE, 0xFFFF, 0x10000, 0x10FFFF)

    @staticmethod
    def sources(code):
        yield f"<a>&#x{code:X};</a>"
        yield f'<a k="&#{code};"/>'
        char = chr(code)
        if char not in "<&\"'":  # markup, not character data
            yield f"<a>{char}</a>"
            yield f'<a k="{char}"/>'

    @staticmethod
    def etree_reads(source):
        try:
            ElementTree.fromstring(source.encode("utf-8", "surrogatepass"))
        except ElementTree.ParseError:
            return False
        return True

    @staticmethod
    def parses(source):
        try:
            parse_forest(source)
        except XMLParseError:
            return False
        return True

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(EDGES) | st.integers(0, 0x10FFFF))
    def test_read_exactly_when_etree_reads_it(self, code):
        for source in self.sources(code):
            assert self.parses(source) == self.etree_reads(source), source

    @pytest.mark.parametrize("source, offset", [
        ("<a>\x00</a>", 3), ("<a>\x01</a>", 3), ('<a k="x\x1f"/>', 7)])
    def test_raw_character_refused_at_its_offset(self, source, offset):
        with pytest.raises(XMLParseError, match="not allowed") as excinfo:
            parse_forest(source)
        assert excinfo.value.position == offset

    @pytest.mark.parametrize("reference", [
        "&#xD800;", "&#0;", "&#xFFFE;", "&#x110000;", "&#x;", "&#-1;"])
    def test_reference_to_a_non_character_refused(self, reference):
        with pytest.raises(XMLParseError, match="invalid character reference"):
            parse_forest(f"<a>{reference}</a>")


class TestParseDocument:
    def test_single_root(self):
        root = parse_document("<a><b/></a>")
        assert root.label == "<a>"

    def test_zero_roots_rejected(self):
        with pytest.raises(XMLParseError):
            parse_document("   ")

    def test_two_roots_rejected(self):
        with pytest.raises(XMLParseError):
            parse_document("<a/><b/>")


class TestFigure1:
    def test_figure1_parses(self, figure1_doc):
        assert figure1_doc.label == "<site>"
        assert [c.label for c in figure1_doc.children] == [
            "<people>", "<closed_auctions>",
        ]

    def test_figure1_node_count(self, figure1_doc):
        # Figure 4's encoding covers 43 nodes — width 86 with the DFS
        # counter, exactly as printed in the paper.
        assert figure1_doc.size == 43

    def test_figure1_person_ids(self, figure1_doc):
        people = figure1_doc.children[0]
        ids = [
            person.children[0].children[0].label
            for person in people.children
        ]
        assert ids == ["person0", "person1"]
