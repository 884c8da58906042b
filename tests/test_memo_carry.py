"""Memo entries carried over a commit.

A commit that is one incremental delta from the revision the engine has
bound links the new :class:`~repro.engine.memo.DocumentMemo` to the old
one, and a miss adopts the old entry when the delta cannot reach it:
some ``select`` label of its chain is on no row of the delta's spine
(the edit point's ancestors, plus the inserted or deleted rows).  What
these tests hold:

* **warm ≡ cold ≡ interpreter** after every commit of a random edit
  script on an XMark document — edits under a chain's own path, inserts
  between two back-to-back result runs, deleted result roots, multi-delta
  commits, spreads, width-changing top-level appends and commits from a
  stale ``UpdatableDocument`` — for the memo's chain and join queries;
* **what is carried** — the rule's verdict per entry, the first commit
  after a load, a foreign base revision, a view across the edit;
* **no pinned snapshot** — two commits on, an old snapshot's columns are
  freed.

That a tuple budget refuses alike after a commit, whether the memo
carried entries or not, is ``tests/test_document_memo.py``'s
``test_tuple_budget_refuses_cold_and_warm_alike``.
"""

from __future__ import annotations

import gc
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from repro import XQuerySession, run_xquery
from repro.backends.registry import create_backend
from repro.api import compile_xquery
from repro.encoding.updates import DocumentUpdate, UpdatableDocument
from repro.xmark.generator import generate_xml
from repro.xmark.queries import DOCUMENT, EXTRA_QUERIES, QUERIES
from repro.xml.forest import element, text
from repro.xml.text_parser import parse_forest, read_document
from repro.xquery.lowering import document_variable

SCALE = 0.001
VAR = document_variable(DOCUMENT)
_ALL = {**QUERIES, **EXTRA_QUERIES}

#: The memo's chain and join queries, and a ``//`` chain.
TEXTS = {name: _ALL[name] for name in ("Q1", "Q8", "Q9", "Q13", "Q17",
                                       "Q19")}
TEXTS["person-names"] = f'document("{DOCUMENT}")//person/name'
AUSTRALIA = f'document("{DOCUMENT}")/site/regions/australia/item'


@pytest.fixture(scope="module")
def xmark_xml() -> str:
    return generate_xml(SCALE)


def _session(xml: str) -> XQuerySession:
    """A session whose engine is bound at a commit revision (a no-op
    commit after the load), its memo filled by one run of every text."""
    session = XQuerySession()
    session.add_document(DOCUMENT, xml)
    for bound in (False, True):
        for query in TEXTS.values():
            session.run(query, backend="engine")
        if not bound:
            session.apply_update(DOCUMENT, session.updatable(DOCUMENT))
    return session


def _memo(session: XQuerySession):
    return session.backend_instance("engine").memo(VAR)


def _rows(doc: UpdatableDocument, label: str) -> list:
    return [row for row in doc.encoded.tuples if row[0] == f"<{label}>"]


def _child_count(doc: UpdatableDocument, parent) -> int:
    """How many children the row ``parent`` has."""
    l, r, d = doc.columns.l, doc.columns.r, doc.columns.d
    at = int(l.searchsorted(parent[1]))
    end = int(l.searchsorted(r[at]))
    return int((d[at + 1:end] == d[at] + 1).sum())


def _person(tag: str):
    return parse_forest(f'<person id="{tag}"><name>{tag}</name></person>')


def _item(tag: str):
    return element("item", [element("location", [text("Utopia")]),
                            element("name", [text(tag)])])


def _edit(doc: UpdatableDocument, edit: tuple, tag: str) -> UpdatableDocument:
    """Apply one drawn edit to ``doc``."""
    kind, pick = edit
    if kind == "person":
        (people,) = _rows(doc, "people")
        return doc.insert_child(people[1], pick, _person(tag))
    if kind in ("name", "homepage"):
        persons = _rows(doc, "person")
        person = persons[pick % len(persons)]
        return doc.insert_child(person[1], 0,
                                [element(kind, [text(tag)])])
    if kind in ("australia", "europe"):
        (region,) = _rows(doc, kind)
        return doc.insert_child(region[1], pick, [_item(tag)])
    if kind == "between":
        # Between two back-to-back items: the chain over them survives the
        # rule (no <item> on the spine) but its one view straddles.
        (region,) = _rows(doc, "australia")
        items = _child_count(doc, region)
        slot = 1 + pick % (items - 1) if items > 1 else 0
        return doc.insert_child(region[1], slot,
                                [element("mark", [text(tag)])])
    if kind == "delete":
        victims = [row for label in ("person", "item", "open_auction",
                                     "closed_auction")
                   for row in _rows(doc, label)]
        return doc.delete_subtree(victims[pick % len(victims)][1])
    if kind == "spread":
        return doc.relabel()
    if kind == "append":
        # More endpoints than the slack after the last root: it widens.
        return doc.insert_tree(10 ** 6, [element("appendix", [
            element("p", [text(f"{tag}.{index}")]) for index in range(8)])])
    raise AssertionError(kind)


def assert_warm_cold_interpreter(session: XQuerySession, step: object):
    forest = session.document(DOCUMENT)
    for name, query in TEXTS.items():
        warm = session.run(query, backend="engine").to_xml()
        cold = run_xquery(query, {DOCUMENT: forest}).to_xml()
        oracle = session.run(query, backend="interpreter").to_xml()
        assert warm == oracle, (name, step, "warm")
        assert cold == oracle, (name, step, "cold")


_EDITS = st.tuples(
    st.sampled_from(("person", "name", "homepage", "australia", "europe",
                     "between", "delete", "delete")),
    st.integers(0, 40))

#: One commit: ``("edit", e)``, ``("multi", e1, e2)``, ``("stale", e)``
#: (an edit of the state before the last commit), or a spread or a
#: width-changing append.
_COMMITS = st.one_of(
    st.tuples(st.just("edit"), _EDITS),
    st.tuples(st.just("multi"), _EDITS, _EDITS),
    st.tuples(st.just("stale"), _EDITS),
    st.tuples(st.sampled_from(("spread", "append")), st.integers(0, 0)),
)


class TestWarmColdInterpreter:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(_COMMITS, min_size=1, max_size=4))
    def test_after_every_commit_of_an_edit_script(self, xmark_xml, script):
        session = _session(xmark_xml)
        try:
            history = [session.updatable(DOCUMENT)]
            for step, commit in enumerate(script):
                kind, *edits = commit
                doc = history[-2] if kind == "stale" and len(history) > 1 \
                    else history[-1]
                if kind in ("spread", "append"):
                    doc = _edit(doc, (kind, 0), f"s{step}")
                else:
                    for index, edit in enumerate(edits):
                        doc = _edit(doc, edit, f"s{step}e{index}")
                session.apply_update(DOCUMENT, doc)
                history.append(doc)
                assert_warm_cold_interpreter(session, (step, commit))
        finally:
            session.close()


# -- what a commit carries ---------------------------------------------------

def _commit(session: XQuerySession, edit: tuple, tag: str = "x"):
    """Commit one edit, run every text warm, return the new memo."""
    doc = _edit(session.updatable(DOCUMENT), edit, tag)
    assert not doc.last_stats.relabeled
    session.apply_update(DOCUMENT, doc)
    assert_warm_cold_interpreter(session, edit)
    return _memo(session)


class TestWhatIsCarried:
    def test_an_edit_elsewhere_is_carried_and_its_own_chain_recomputed(
            self, xmark_xml):
        with _session(xmark_xml) as session:
            memo = _commit(session, ("person", 0))
            # Q13 and Q19 read australia's items (no <person> there), Q1
            # open auctions, and Q8's / Q9's join build sides and sources
            # closed auctions and europe's items.
            assert memo.carried >= 5
            # /site/people/person (Q8, Q9, Q17), the chains Q8, Q9 and Q17
            # lift out of it, /@id and /name/text() (an inserted person
            # has both), and //person/name: every select label on the
            # spine.  Q17's lifted /homepage/text() is carried.
            assert memo.recomputed == 4
            assert "carried" in repr(memo) and "recomputed" in repr(memo)
            # /healthz reports the same numbers.
            assert session.health()["documents"] == {DOCUMENT: memo.stats()}

    def test_the_spine_holds_the_edit_points_ancestors(self, xmark_xml):
        # A <name> inserted into a person: //person/name keeps no
        # <person> row among the inserted ones, only among the ancestors.
        with _session(xmark_xml) as session:
            before = session.run(TEXTS["person-names"]).to_xml()
            memo = _commit(session, ("name", 3), "added")
            after = session.run(TEXTS["person-names"]).to_xml()
            assert after.count("<name>") == before.count("<name>") + 1
            assert memo.carried > 0

    def test_a_view_across_the_edit_recomputes(self, xmark_xml):
        with _session(xmark_xml) as session:
            doc = session.updatable(DOCUMENT)
            (region,) = _rows(doc, "australia")
            assert _child_count(doc, region) >= 2
            session.run(AUSTRALIA)
            memo = _commit(session, ("between", 0))
            session.run(AUSTRALIA)
            # The rule spares the chain (the spine is the region's
            # ancestors and a <mark>), but its entry is one view over
            # back-to-back items with the new row between them.
            assert memo.recomputed >= 1
            assert session.run(AUSTRALIA).to_xml() == session.run(
                AUSTRALIA, backend="interpreter").to_xml()

    def test_first_commit_after_a_load_carries_nothing(self, xmark_xml):
        with XQuerySession() as session:
            session.add_document(DOCUMENT, xmark_xml)
            for query in TEXTS.values():
                session.run(query)
            old = _memo(session)
            assert len(old) > 0
            doc = _edit(session.updatable(DOCUMENT), ("person", 0), "x")
            session.apply_update(DOCUMENT, doc)
            assert_warm_cold_interpreter(session, "first")
            memo = _memo(session)
            assert (memo.carried, memo.recomputed) == (0, 0)

    @pytest.mark.parametrize("commit", [
        ("multi", ("person", 0), ("australia", 0)),
        ("spread",), ("append",), ("stale", ("person", 0))])
    def test_other_commits_carry_nothing(self, xmark_xml, commit):
        with _session(xmark_xml) as session:
            base = session.updatable(DOCUMENT)
            if commit[0] == "stale":
                session.apply_update(DOCUMENT, _edit(base, ("europe", 0), "y"))
                for query in TEXTS.values():
                    session.run(query)
                doc = _edit(base, commit[1], "x")
            elif commit[0] == "multi":
                doc = _edit(_edit(base, commit[1], "x"), commit[2], "y")
            else:
                doc = _edit(base, (commit[0], 0), "x")
                assert doc.last_stats.relabeled or doc.width != base.width
            session.apply_update(DOCUMENT, doc)
            assert_warm_cold_interpreter(session, commit)
            memo = _memo(session)
            assert (memo.carried, memo.recomputed) == (0, 0), commit

    def test_a_foreign_base_revision_carries_nothing(self):
        columns, width = read_document(generate_xml(SCALE))
        doc = UpdatableDocument.from_snapshot(columns, width)
        other = UpdatableDocument.from_snapshot(columns, width)
        (people,) = _rows(doc, "people")
        edited = other.insert_child(people[1], 0, _person("x"))
        compiled = compile_xquery(_ALL["Q1"])
        backend = create_backend("engine")
        try:
            backend.prepare({VAR: (columns, width)})
            backend.apply_update(VAR, DocumentUpdate(doc.revision, None, (),
                                                     doc))
            backend.execute(compiled)
            # One incremental delta, but from ``other``'s revision, not
            # the one bound: same rows, yet not this snapshot's history.
            backend.apply_update(VAR, DocumentUpdate(
                edited.revision, other.revision,
                (edited.last_delta.wrapped(),), edited))
            backend.execute(compiled)
            assert (backend.memo(VAR).carried,
                    backend.memo(VAR).recomputed) == (0, 0)
        finally:
            backend.close()


# -- no pinned snapshot ------------------------------------------------------

def test_two_commits_on_an_old_snapshot_is_freed(xmark_xml):
    with _session(xmark_xml) as session:
        engine = session.backend_instance("engine")
        _commit(session, ("australia", 0), "a")
        columns = engine._encoded[VAR][0]
        snapshot = [weakref.ref(array) for array in
                    (columns.l, columns.r, columns.d, columns.c)]
        del columns
        assert _commit(session, ("person", 0), "b").carried > 0
        assert _commit(session, ("europe", 0), "c").carried > 0
        gc.collect()
        assert all(ref() is None for ref in snapshot)
