"""Unit tests for XML serialization.

The compact serializer is one iterative emitter over a preorder
``(label, depth)`` stream; :func:`reference_xml` below — the recursive
node walk it replaced, escape tables included — is the reference it is
compared against.
"""

import threading
import uuid
import xml.etree.ElementTree as ElementTree

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import XQuerySession, run_xquery
from repro.encoding.interval import decode, encode_columns
from repro.errors import WidthOverflowError
from repro.xmark.queries import EXTRA_QUERIES, QUERIES
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

TEXT_ESCAPES = {"&": "&amp;", "<": "&lt;", ">": "&gt;", "\r": "&#13;"}
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


#: Every XMark text, and the one the SQL path refuses at sf 0.001 (its
#: static widths leave int64).
XMARK_TEXTS = {**QUERIES, **EXTRA_QUERIES}
SQL_REFUSES = {"Q19"}


@pytest.fixture(scope="module")
def xmark_session():
    with XQuerySession(record=False) as session:
        session.add_xmark_document("auction.xml", 0.001)
        yield session


class TestEmitterOnQueryResults:
    """Every input the emitter takes — an engine result's codes, the
    interpreter's nodes, a SQL result — gives the reference's bytes."""

    @pytest.mark.parametrize("backend", ["engine", "interpreter", "sqlite"])
    @pytest.mark.parametrize("name", sorted(XMARK_TEXTS))
    def test_every_xmark_text(self, xmark_session, name, backend):
        query = XMARK_TEXTS[name]
        if backend == "sqlite" and name in SQL_REFUSES:
            with pytest.raises(WidthOverflowError):
                xmark_session.run(query, backend=backend)
            return
        result = xmark_session.run(query, backend=backend)
        # Engine and SQL rows leave as columns; only the oracle has nodes.
        columns = backend != "interpreter"
        assert isinstance(result._forest,
                          PreorderForest if columns else tuple)
        expected = reference_xml(result.forest)
        assert result.to_xml() == expected
        if columns:
            assert forest_to_xml(result.forest) == expected

    def test_an_id_names_one_label_whatever_its_kind(self):
        """The piece tables are indexed by label id, so no two labels may
        share one: a foreign code whose id this process gave a label of
        another kind is remapped on adoption, and a foreign id adopted
        ahead of the counter is skipped when the counter reaches it."""
        from repro.xml import labels

        tag = uuid.uuid4().hex[:8]
        mine = labels.name_code(f"<e{tag}>")
        forest_to_xml(from_columns((element(f"e{tag}"),)))  # fills its id
        (theirs,) = labels.adopt_labels([f"t{tag}"],
                                        [mine & ~labels.KIND_MASK])
        assert theirs >> 2 != mine >> 2
        with labels._names_lock:
            ahead = next(labels._next_name) + 1
        assert labels.adopt_labels([f"u{tag}"], [ahead << 2]) == [ahead << 2]
        assert labels.name_code(f"<l{tag}>") >> 2 != ahead
        trees = (element(f"e{tag}", (text(f"t{tag}"), text(f"u{tag}"))),
                 element(f"l{tag}"))
        assert forest_to_xml(from_columns(trees)) == reference_xml(trees)

    def test_eight_threads_fill_the_piece_tables_at_once(self):
        """Results whose labels the tables have never seen — thousands,
        so the tables grow while they are read — serialized by eight
        threads at once, each in its own order."""
        tag = uuid.uuid4().hex[:8]
        batches = [tuple(element(f"e{tag}-{batch}-{at}", (
            attribute(f"a{at % 7}", f'v<{tag}"{batch}&{at}'),
            text(f"t>{tag}\r{batch}-{at}"), element(f"e{tag}-{at % 3}")))
            for at in range(40)) for batch in range(50)]
        results = [from_columns(trees) for trees in batches]
        expected = [reference_xml(trees) for trees in batches]
        start = threading.Barrier(8)
        outputs: list[list[tuple[int, str]]] = [[] for _ in range(8)]

        def serialize(worker: int) -> None:
            start.wait(timeout=30)
            for at in range(len(results)):
                at = (at * (worker + 1) + worker) % len(results)
                outputs[worker].append((at, forest_to_xml(results[at])))

        threads = [threading.Thread(target=serialize, args=(worker,))
                   for worker in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert all(len(done) == len(results) for done in outputs)
        assert all(xml == expected[at] for done in outputs for at, xml in done)


#: Character data with every whitespace and line-end character and the
#: characters the escape tables name (none that would read as a label).
LINE_END_TEXT = st.text(alphabet="ab \t\n\r&>\"'", min_size=1, max_size=8)


def from_etree(node: ElementTree.Element) -> Node:
    """A conformant parser's reading, as an XF tree (attributes first)."""
    children = [attribute(name, value) for name, value in node.attrib.items()]
    if node.text:
        children.append(text(node.text))
    for child in node:
        children.append(from_etree(child))
        if child.tail:
            children.append(text(child.tail))
    return element(node.tag, children)


@st.composite
def line_end_trees(draw) -> Node:
    """An element whose attribute values and text hold CRs, LFs and tabs
    (no two text nodes adjacent, so a reparse keeps them apart)."""
    names = draw(st.lists(st.sampled_from("xyz"), unique=True, max_size=3))
    children = [attribute(name, draw(LINE_END_TEXT)) for name in names]
    for value in draw(st.lists(LINE_END_TEXT, max_size=3)):
        children += [text(value), element("c", (text(draw(LINE_END_TEXT)),))]
    return element("r", children)


class TestLineEnds:
    """A CR survives a conformant parser (XML 1.0 §2.11 folds a raw CR
    and CR LF to LF), and raw line ends read the way such a parser reads
    them."""

    @settings(max_examples=200, deadline=None)
    @given(line_end_trees())
    @example(element("r", (attribute("x", "a\r\nb"), text("x\r\ny\rz"))))
    def test_serialized_line_ends_survive_a_conformant_parser(self, tree):
        xml = forest_to_xml(tree)
        ours = parse_forest(xml, strip_whitespace=False)
        assert ours == (tree,)
        assert (from_etree(ElementTree.fromstring(xml.encode("utf-8"))),) \
            == ours

    @settings(max_examples=200, deadline=None)
    @given(LINE_END_TEXT, LINE_END_TEXT)
    @example("a\r\nb", "x\r\ny\rz")
    def test_raw_line_ends_read_like_a_conformant_parser(self, value,
                                                         content):
        # Only what must be a reference is one: the line ends stay raw.
        quoted = value.replace("&", "&amp;").replace('"', "&quot;")
        source = f'<r x="{quoted}">{content.replace("&", "&amp;")}</r>'
        assert parse_forest(source, strip_whitespace=False) == (
            from_etree(ElementTree.fromstring(source.encode("utf-8"))),)


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
