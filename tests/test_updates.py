"""Tests for gap-based updates over interval encodings."""

import dataclasses

import numpy as np
import pytest

from repro.encoding import updates
from repro.encoding.interval import encode_columns
from repro.engine.columns import INT64_MAX, IntervalColumns, name_code
from repro.encoding.updates import (
    DEFAULT_STRIDE,
    DocumentUpdate,
    UpdatableDocument,
    UpdateDelta,
)
from repro.errors import EncodingError, WidthOverflowError
from repro.xml.serializer import forest_to_xml
from repro.xml.text_parser import parse_forest


def f(source: str):
    return parse_forest(source)


def doc(source: str, stride: int = DEFAULT_STRIDE) -> UpdatableDocument:
    return UpdatableDocument.from_forest(f(source), stride=stride)


def left_of(document: UpdatableDocument, label: str) -> int:
    return next(row[1] for row in document.encoded.tuples
                if row[0] == label)


class TestConstruction:
    def test_roundtrip(self):
        document = doc("<a><b/>text</a><c/>")
        assert document.to_forest() == f("<a><b/>text</a><c/>")

    def test_to_forest_is_a_document_input(self):
        """``to_forest`` hands back the preorder form; it loads like any
        other forest."""
        from repro import run_xquery

        document = doc("<a><b/>text</a><c/>")
        result = run_xquery('document("d.xml")/a/b',
                            {"d.xml": document.to_forest()})
        assert result.to_xml() == "<b/>"

    def test_encoding_has_slack(self):
        document = doc("<a/>", stride=10)
        (s, l, r), = document.encoded.tuples
        assert r - l > 1  # room to insert children without relabeling

    def test_encoding_valid(self):
        document = doc("<a><b><c/></b></a>")
        document.encoded.validate()

    def test_bad_stride(self):
        with pytest.raises(ValueError):
            UpdatableDocument.from_forest(f("<a/>"), stride=0)

    def test_find(self):
        document = doc("<a><b/></a>")
        root = document.encoded.tuples[0]
        assert document.find(root[1]) == root

    def test_find_missing(self):
        with pytest.raises(EncodingError):
            doc("<a/>").find(99999)


class TestDelete:
    def test_delete_leaf(self):
        document = doc("<a><b/><c/></a>")
        target = next(row for row in document.encoded.tuples
                      if row[0] == "<b>")
        updated = document.delete_subtree(target[1])
        assert updated.to_forest() == f("<a><c/></a>")
        assert updated.last_stats.deleted_nodes == 1

    def test_delete_subtree(self):
        document = doc("<a><b><x/><y/></b><c/></a>")
        target = next(row for row in document.encoded.tuples
                      if row[0] == "<b>")
        updated = document.delete_subtree(target[1])
        assert updated.to_forest() == f("<a><c/></a>")
        assert updated.last_stats.deleted_nodes == 3

    def test_delete_top_level_tree(self):
        document = doc("<a/><b/><c/>")
        target = next(row for row in document.encoded.tuples
                      if row[0] == "<b>")
        updated = document.delete_subtree(target[1])
        assert updated.to_forest() == f("<a/><c/>")

    def test_delete_never_relabels(self):
        document = doc("<a><b/></a>")
        target = document.encoded.tuples[1]
        updated = document.delete_subtree(target[1])
        assert updated.last_stats.relabeled is False
        updated.encoded.validate()

    def test_original_untouched(self):
        document = doc("<a><b/></a>")
        document.delete_subtree(document.encoded.tuples[1][1])
        assert document.to_forest() == f("<a><b/></a>")


class TestInsertChild:
    def test_insert_into_empty_element(self):
        document = doc("<a/>", stride=10)
        root = document.encoded.tuples[0]
        updated = document.insert_child(root[1], 0, f("<b/>"))
        assert updated.to_forest() == f("<a><b/></a>")
        assert updated.last_stats.inserted_nodes == 1

    def test_insert_before_first_child(self):
        document = doc("<a><z/></a>", stride=10)
        root = document.encoded.tuples[0]
        updated = document.insert_child(root[1], 0, f("<first/>"))
        assert updated.to_forest() == f("<a><first/><z/></a>")

    def test_insert_between_children(self):
        document = doc("<a><x/><z/></a>", stride=10)
        root = document.encoded.tuples[0]
        updated = document.insert_child(root[1], 1, f("<y/>"))
        assert updated.to_forest() == f("<a><x/><y/><z/></a>")

    def test_append_child(self):
        document = doc("<a><x/></a>", stride=10)
        root = document.encoded.tuples[0]
        updated = document.insert_child(root[1], 99, f("<last/>"))
        assert updated.to_forest() == f("<a><x/><last/></a>")

    def test_insert_whole_subtree(self):
        document = doc("<a/>", stride=20)
        root = document.encoded.tuples[0]
        updated = document.insert_child(root[1], 0, f("<b><c>t</c></b>"))
        assert updated.to_forest() == f("<a><b><c>t</c></b></a>")

    def test_insert_relabels_when_tight(self):
        # stride 1 leaves no slack: the insert must trigger a relabel.
        document = doc("<a><b/></a>", stride=1)
        root = document.encoded.tuples[0]
        updated = document.insert_child(root[1], 0, f("<new/>"))
        assert updated.to_forest() == f("<a><new/><b/></a>")
        assert updated.last_stats.relabeled is True

    def test_many_inserts_same_slot(self):
        document = doc("<a/>", stride=4)
        root_left = document.encoded.tuples[0][1]
        for number in range(12):
            root_left = next(
                row[1] for row in document.encoded.tuples
                if row[0] == "<a>")
            document = document.insert_child(root_left, 0,
                                             f(f"<n{number}/>"))
        forest = document.to_forest()
        labels = [child.label for child in forest[0].children]
        assert labels == [f"<n{number}>" for number in reversed(range(12))]


    @pytest.mark.parametrize("parent", ["x", "@k", "1"])
    def test_only_elements_take_children(self, parent):
        """A child under a text or attribute row used to be stored, counted
        by the statistics and found by ``//n`` — and dropped without a
        word by the serializer, which skips rows below one."""
        document = doc('<a k="1">x</a>')
        with pytest.raises(EncodingError, match="not an element"):
            document.insert_child(left_of(document, parent), 0, f("<n/>"))
        assert forest_to_xml(document.to_forest()) == '<a k="1">x</a>'

    @pytest.mark.parametrize("index", [-1, -2, -6])
    def test_negative_index_is_refused(self, index):
        """Not Python's negative indexing (-2 used to insert before the
        last child, -6 on four children was an IndexError)."""
        document = doc("<a><w/><x/><y/><z/></a>")
        with pytest.raises(ValueError, match="negative"):
            document.insert_child(left_of(document, "<a>"), index, f("<n/>"))
        with pytest.raises(ValueError, match="negative"):
            document.insert_tree(index, f("<n/>"))


class TestLocalValidityRule:
    """An insert checks Definition 3.1 around its gap only; these are the
    two ways the gap can be wrong."""

    def test_gap_with_a_row_inside_is_refused(self):
        document = doc("<a><b/><c/></a>")
        a, b, c = document.encoded.tuples
        new, _ = encode_columns(f("<n/>"))
        # (r of b, r of a) skips over c: not neighbouring slot bounds.
        with pytest.raises(EncodingError, match="open inside the gap"):
            document._insert_between(b[2], a[2], new, depth=1)
        assert document._insert_between(b[2], c[1], new, depth=1) \
            .to_forest() == f("<a><b/><n/><c/></a>")

    @pytest.mark.parametrize("shift", [-40, 40])
    def test_placement_outside_the_gap_is_refused(self, monkeypatch, shift):
        document = doc("<a><b/><c/></a>")
        _a, b, c = document.encoded.tuples
        place = updates._place_rows

        def shifted(*args):
            rows = place(*args)
            return IntervalColumns(rows.l + shift, rows.r + shift, rows.d,
                                   rows.c)

        monkeypatch.setattr(updates, "_place_rows", shifted)
        new, _ = encode_columns(f("<n/>"))
        with pytest.raises(EncodingError, match="outside the gap"):
            document._insert_between(b[2], c[1], new, depth=1)

    def test_rows_invalid_among_themselves_are_refused(self, monkeypatch):
        document = doc("<a/>")
        (_s, low, high), = document.encoded.tuples
        monkeypatch.setattr(
            updates, "_place_rows",
            lambda *args: IntervalColumns.from_tuples(
                [("<n>", low + 1, low + 3), ("<m>", low + 2, low + 4)]))
        new, _ = encode_columns(f("<n/><m/>"))
        with pytest.raises(EncodingError, match="overlaps"):
            document._insert_between(low, high, new, depth=1)


#: (step, width, stride, (inserted, deleted, relabeled), rows, delta fields)
#: of a fixed script, recorded at the commit before the document moved
#: from a row list to columns: the endpoint arithmetic is bit-identical.
GOLDEN = [
    ('from_forest', 75, 4, (0, 0, False),
     [('<r>', 3, 63), ('<a>', 7, 35), ('@k', 11, 23), ('1', 15, 19),
      ('x', 27, 31), ('<b>', 39, 59), ('<c>', 43, 47), ('y', 51, 55),
      ('<s>', 67, 71)],
     None),
    ('insert_child fits', 75, 4, (1, 0, False),
     [('<r>', 3, 63), ('<a>', 7, 35), ('@k', 11, 23), ('1', 15, 19),
      ('x', 27, 31), ('<b>', 39, 59), ('<c>', 43, 47), ('<n>', 48, 49),
      ('y', 51, 55), ('<s>', 67, 71)],
     ((('<n>', 48, 49),), (2,), (), 0, 75, 75, False)),
    ('delete_subtree', 75, 4, (0, 4, False),
     [('<r>', 3, 63), ('<b>', 39, 59), ('<c>', 43, 47), ('<n>', 48, 49),
      ('y', 51, 55), ('<s>', 67, 71)],
     ((), (), ((7, 35),), 4, 75, 75, False)),
    ('insert_tree append widens', 76, 4, (2, 0, False),
     [('<r>', 3, 63), ('<b>', 39, 59), ('<c>', 43, 47), ('<n>', 48, 49),
      ('y', 51, 55), ('<s>', 67, 71), ('<z>', 72, 75), ('t', 73, 74)],
     ((('<z>', 72, 75), ('t', 73, 74)), (0, 1), (), 0, 75, 76, False)),
    ('insert_tree middle fits', 76, 4, (1, 0, False),
     [('<r>', 3, 63), ('<b>', 39, 59), ('<c>', 43, 47), ('<n>', 48, 49),
      ('y', 51, 55), ('<m>', 64, 65), ('<s>', 67, 71), ('<z>', 72, 75),
      ('t', 73, 74)],
     ((('<m>', 64, 65),), (0,), (), 0, 76, 76, False)),
    ('insert_child spreads', 151, 8, (3, 0, True),
     [('<r>', 7, 79), ('<b>', 15, 71), ('<p>', 16, 21), ('<q>', 17, 20),
      ('u', 18, 19), ('<c>', 23, 31), ('<n>', 39, 47), ('y', 55, 63),
      ('<m>', 87, 95), ('<s>', 103, 111), ('<z>', 119, 143),
      ('t', 127, 135)],
     ((), (), (), 0, 76, 151, True)),
    ('insert_tree prepend', 151, 8, (1, 0, False),
     [('<h>', 1, 4), ('<r>', 7, 79), ('<b>', 15, 71), ('<p>', 16, 21),
      ('<q>', 17, 20), ('u', 18, 19), ('<c>', 23, 31), ('<n>', 39, 47),
      ('y', 55, 63), ('<m>', 87, 95), ('<s>', 103, 111), ('<z>', 119, 143),
      ('t', 127, 135)],
     ((('<h>', 1, 4),), (0,), (), 0, 151, 151, False)),
    ('relabel', 80, 8, (0, 0, True),
     [('<h>', 2, 5), ('<r>', 8, 53), ('<b>', 11, 50), ('<p>', 14, 29),
      ('<q>', 17, 26), ('u', 20, 23), ('<c>', 32, 35), ('<n>', 38, 41),
      ('y', 44, 47), ('<m>', 56, 59), ('<s>', 62, 65), ('<z>', 68, 77),
      ('t', 71, 74)],
     ((), (), (), 0, 151, 80, True)),
    ('delete last root', 80, 8, (0, 2, False),
     [('<h>', 2, 5), ('<r>', 8, 53), ('<b>', 11, 50), ('<p>', 14, 29),
      ('<q>', 17, 26), ('u', 20, 23), ('<c>', 32, 35), ('<n>', 38, 41),
      ('y', 44, 47), ('<m>', 56, 59), ('<s>', 62, 65)],
     ((), (), ((68, 77),), 2, 80, 80, False)),
]


def test_golden_endpoints():
    state = doc('<r><a k="1">x</a><b><c/>y</b></r><s/>', stride=4)
    script = [
        lambda d: d,
        lambda d: d.insert_child(left_of(d, "<b>"), 1, f("<n/>")),
        lambda d: d.delete_subtree(left_of(d, "<a>")),
        lambda d: d.insert_tree(99, f("<z>t</z>")),
        lambda d: d.insert_tree(1, f("<m/>")),
        lambda d: d.insert_child(left_of(d, "<b>"), 0, f("<p><q>u</q></p>")),
        lambda d: d.insert_tree(0, f("<h/>")),
        lambda d: d.relabel(3),
        lambda d: d.delete_subtree(left_of(d, "<z>")),
    ]
    for edit, (step, width, stride, stats, rows, delta) in zip(script, GOLDEN):
        state = edit(state)
        assert state.encoded.tuples == rows, step
        assert (state.width, state.stride) == (width, stride), step
        assert dataclasses.astuple(state.last_stats) == stats, step
        if delta is None:
            assert state.last_delta is None, step
            continue
        rows, depths, *fields = delta
        got = state.last_delta
        assert got.inserted.tuples() == list(rows), step
        assert got.inserted.d.tolist() == list(depths), step
        assert got == UpdateDelta(got.inserted, *fields), step


def test_deep_text_loads_edits_and_queries():
    """A 5,000-deep document goes text → session → query → edit → commit
    → query → text; nothing on the way recurses per level."""
    from repro.session import XQuerySession

    depth = 5000
    opening, closing = "<a>" * (depth - 1), "</a>" * (depth - 1)
    with XQuerySession() as session:
        session.add_document("d.xml", opening + "<leaf>x</leaf>" + closing)
        leaf = 'document("d.xml")//leaf'
        assert session.run(leaf).to_xml() == "<leaf>x</leaf>"
        document = session.updatable("d.xml")
        edited = document.insert_child(left_of(document, "<leaf>"), 1,
                                       f("<n>y</n>"))
        assert edited.last_delta.inserted.d.tolist() == [depth, depth + 1]
        session.apply_update("d.xml", edited)
        assert session.run(leaf).to_xml() == "<leaf>x<n>y</n></leaf>"
        assert session.run('document("d.xml")/a').to_xml() == \
            opening + "<leaf>x<n>y</n></leaf>" + closing
        assert forest_to_xml(session.document("d.xml")) == \
            opening + "<leaf>x<n>y</n></leaf>" + closing


@pytest.mark.parametrize("room", [1, 3, 4])
def test_an_endpoint_past_int64_is_refused(room):
    """An append whose endpoints (or their document-wrapped form) would
    leave int64 raises :class:`WidthOverflowError`; nothing wraps."""
    top = INT64_MAX - room
    document = UpdatableDocument(IntervalColumns(
        np.array([0]), np.array([top]), np.zeros(1, dtype=np.int32),
        np.array([name_code("<a>")], dtype=np.int32)), top + 1)
    if room < 4:
        with pytest.raises(WidthOverflowError):
            document.insert_tree(1, f("<n/>"))
        return
    edited = document.insert_tree(1, f("<n/>"))
    assert edited.columns.tuples()[-1] == ("<n>", top + 1, top + 2)
    wrapped = DocumentUpdate(edited.revision, None, (), edited).columns()
    assert wrapped.r.tolist() == [INT64_MAX, top + 1, top + 3]


def test_a_stride_past_int64_is_refused():
    """Spreading with slack checks the width before the int64 multiply:
    a stride whose spread would leave int64 raises
    :class:`WidthOverflowError` instead of wrapping to negative
    endpoints, from a forest and on relabel alike."""
    # Six tight endpoints: the width is 5·stride + (stride - 1) + stride.
    largest = (INT64_MAX - 1) // 7
    document = doc("<a><b/><c/></a>", stride=largest)
    assert document.width == 7 * largest - 1 <= INT64_MAX - 2
    assert (document.columns.l > 0).all()
    assert document.to_forest() == f("<a><b/><c/></a>")
    for stride in (largest + 1, 2 ** 62, 2 ** 64):
        with pytest.raises(WidthOverflowError):
            doc("<a><b/><c/></a>", stride=stride)
        with pytest.raises(WidthOverflowError):
            doc("<a><b/><c/></a>").relabel(stride)


class TestInsertTree:
    def test_prepend(self):
        document = doc("<b/>", stride=10)
        updated = document.insert_tree(0, f("<a/>"))
        assert updated.to_forest() == f("<a/><b/>")

    def test_append(self):
        document = doc("<a/>", stride=10)
        updated = document.insert_tree(99, f("<b/>"))
        assert updated.to_forest() == f("<a/><b/>")

    def test_middle(self):
        document = doc("<a/><c/>", stride=10)
        updated = document.insert_tree(1, f("<b/>"))
        assert updated.to_forest() == f("<a/><b/><c/>")

    def test_insert_empty_forest_is_noop(self):
        document = doc("<a/>")
        updated = document.insert_tree(0, ())
        assert updated.to_forest() == f("<a/>")


class TestRelabel:
    def test_relabel_preserves_forest(self):
        document = doc("<a><b>x</b><c/></a>")
        relabeled = document.relabel(stride=50)
        assert relabeled.to_forest() == document.to_forest()
        relabeled.encoded.validate()

    def test_queries_work_after_updates(self):
        """Updated encodings feed straight back into query evaluation."""
        from repro.encoding.interval import decode
        from repro.engine import kernels

        document = doc("<a><b>1</b></a>", stride=8)
        root = document.encoded.tuples[0]
        document = document.insert_child(root[1], 99, f("<b>2</b>"))
        selected = kernels.select_children(document.columns, "<b>")
        assert decode(selected.tuples()) == f("<b>1</b><b>2</b>")
