"""The text reader: XML text straight into the wrapped snapshot.

``read_document(text)`` must give, column for column, what encoding the
parsed trees under the document node gives — on generated forests, in
both whitespace modes, and on every XMark scale the suite uses — and a
session loading text must build no :class:`Node` on the way to an
engine answer.
"""

import numpy as np
import pytest
from hypothesis import given, settings

from repro import XQuerySession
from repro.errors import XMLParseError
from repro.encoding.interval import encode, encode_columns
from repro.encoding.updates import UpdatableDocument
from repro.engine.columns import derive_depths
from repro.xmark.generator import cached_document
from repro.xmark.queries import EXTRA_QUERIES, FIGURE1_SAMPLE, QUERIES
from repro.xml.serializer import forest_to_xml
from repro.xml.text_parser import parse_forest, read_document
from repro.xquery.lowering import document_forest, document_variable

from tests.strategies import xml_safe_forests

#: The XMark scales the tier-1 suite generates documents at.
XMARK_SCALES = (0.0005, 0.001, 0.002, 0.003, 0.01, 0.05, 0.5)


def assert_same_columns(snapshot, expected):
    (columns, width), (want, want_width) = snapshot, expected
    assert width == want_width
    for name in ("l", "r", "d", "c"):
        got, wanted = getattr(columns, name), getattr(want, name)
        assert got.dtype == wanted.dtype, name
        assert np.array_equal(got, wanted), name


@settings(max_examples=200, deadline=None)
@given(xml_safe_forests())
def test_snapshot_equals_the_encoded_trees(trees):
    text = forest_to_xml(trees)
    wrapped = document_forest(trees)
    for strip in (True, False):
        snapshot = read_document(text, strip_whitespace=strip)
        assert_same_columns(snapshot, encode_columns(wrapped))
        # Against the tuple encoder's own DFS counter (Example 3.2) and
        # depths derived from the intervals, which share no code with
        # the columns builder.
        columns, width = snapshot
        rows = encode(wrapped)
        assert columns.tuples() == rows.tuples and width == rows.width
        assert np.array_equal(columns.d, derive_depths(
            columns.l.tolist(), columns.r.tolist()))


@pytest.mark.parametrize("scale", XMARK_SCALES)
def test_xmark_snapshot_equals_the_encoded_document(scale):
    document = cached_document(scale, seed=42)
    assert_same_columns(read_document(forest_to_xml((document,))),
                        encode_columns(document_forest(document)))


def test_snapshot_is_read_only_and_starts_with_the_document_row():
    columns, width = read_document(FIGURE1_SAMPLE)
    assert columns[0] == ("<#document>", 0, width - 1)
    assert len(columns) == 44 and width == 88  # Figure 4 plus one row
    with pytest.raises(ValueError):
        columns.l[1] = 5


def test_forest_view_is_built_from_the_same_stream():
    text = "<r a='1'>x<b/>&lt;y<!-- c --><![CDATA[z]]></r><s/>"
    assert forest_to_xml(parse_forest(text)) == \
        '<r a="1">x<b/>&lt;yz</r><s/>'
    assert forest_to_xml(parse_forest(" <r> </r> ", strip_whitespace=False)) \
        == "<r> </r>"


#: Malformed texts, the error each raises and its character offset (in
#: the text after line-end normalization) — what the hand-written parser
#: the reader replaced raised, construct by construct.
ERRORS = [
    ("<a>", "expected '</'", 3),
    ("<a></b>", "mismatched closing tag </b>, expected </a>", 6),
    ("<a><b></a></b>", "mismatched closing tag </a>, expected </b>", 9),
    ("<a attr=></a>", "attribute value must be quoted", 8),
    ("<1a/>", "invalid name start character '1'", 1),
    ("< a/>", "invalid name start character ' '", 1),
    # A tag name is read whole: never tag ``ab`` with attribute ``c``.
    ("<abc=\"1\"/>", "invalid name start character '='", 4),
    ("<a></ a>", "invalid name start character ' '", 5),
    ("text only <", "expected a name", 11),
    ("<a>&unterminated", "unterminated entity reference", 4),
    ("<a/></b>", "unexpected trailing content", 4),
    ("<a></a >x</b>", "unexpected trailing content", 9),
    ("<a x='1' x='2'/>", "duplicate attribute 'x'", 10),
    ("<a x='1' y>", "expected '='", 10),
    ("<a\r\n x='1' y></a>", "expected '='", 11),
    ("<a/ >", "expected '>'", 2),
    ("<a x='&#0;'/>", "invalid character reference &#0;", 10),
    ("<a>&nope;</a>", "unknown entity &nope;", 9),
    ("<a k='&x\" y=\";'/>", "unknown entity &x\" y=\";", 14),
    ("<a><!-- c</a>", "unterminated construct, expected '-->'", 3),
    ("<a><![CDATA[x</a>", "unterminated CDATA section", 12),
    ("<a><?pi</a>", "unterminated construct, expected '?>'", 3),
    ("<a><!DOCTYPE x></a>", "DOCTYPE inside element content", 3),
    ("<!DOCTYPE x [<!ENTITY y 'z'>", "unterminated construct, expected ']'",
     13),
    ("<a>&lt;b&gt;<b/></a>", "character data '<b>' reads as a node label",
     3),
]


@pytest.mark.parametrize("source, message, offset", ERRORS)
def test_errors_name_the_offset(source, message, offset):
    for read in (parse_forest, read_document):
        with pytest.raises(XMLParseError) as excinfo:
            read(source)
        assert str(excinfo.value).startswith(message)
        assert excinfo.value.position == offset


def test_updatable_from_a_snapshot_equals_from_its_trees():
    snapshot = read_document(FIGURE1_SAMPLE)
    built = UpdatableDocument.from_snapshot(*snapshot, stride=4)
    expected = UpdatableDocument.from_forest(parse_forest(FIGURE1_SAMPLE),
                                             stride=4)
    assert_same_columns((built.columns, built.width),
                        (expected.columns, expected.width))


def test_updatable_from_a_committed_snapshot():
    """A commit's snapshot is gappy; the document built from it keeps
    that numbering, spread, and encodes the same trees."""
    with XQuerySession() as session:
        session.add_document("a.xml", FIGURE1_SAMPLE)
        document = session.updatable("a.xml")
        person = next(row for row in document.encoded.tuples
                      if row[0] == "<person>")
        session.apply_update("a.xml", document.delete_subtree(person[1]))
        committed = session._documents["a.xml"]
        rebuilt = UpdatableDocument.from_snapshot(committed.columns(),
                                                  committed.width, stride=4)
        rebuilt.encoded.validate()
        assert rebuilt.to_forest() == session.document("a.xml")


@pytest.mark.parametrize("backend", ["engine", "procpool"])
def test_text_to_answer_builds_no_node(backend, nodes_built):
    """``add_document(text)`` then runs: the document is columns from its
    first byte, and neither it nor an answer is ever a tree here."""
    text = forest_to_xml((cached_document(0.0005, seed=42),))
    with XQuerySession() as session:
        session.add_document("auction.xml", text)
        for query in (EXTRA_QUERIES["Q1"], QUERIES["Q8"], QUERIES["Q13"]):
            session.run(query, backend=backend).to_xml()
    assert nodes_built() == 0


def test_sqlite_loads_text_without_a_tree(nodes_built):
    """SQLite shreds the session's snapshot (its answers are trees; its
    load is not)."""
    with XQuerySession(backend="sqlite") as session:
        session.add_document("a.xml", FIGURE1_SAMPLE)
        compiled = session.prepare('document("a.xml")//name')
        target = session.backend_instance("sqlite")
        target.prepare(session._prepare_bindings(compiled, target))
        assert nodes_built() == 0
        assert session.run(compiled.source).to_xml() == session.run(
            compiled.source, backend="interpreter").to_xml()


def test_session_keeps_one_snapshot_every_backend_binds():
    with XQuerySession() as session:
        session.add_document("a.xml", FIGURE1_SAMPLE)
        session.run('document("a.xml")//name', backend="engine")
        columns, _width = session._documents["a.xml"]
        bound, _ = session.backend_instance("engine")._encoded[
            document_variable("a.xml")]
        assert bound is columns
