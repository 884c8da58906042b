"""The Section 4 SQL at a size it could not reach before.

On ``(s, l, r)`` alone every template found roots with a self-anti-join
and guarded environments with ``l / w`` on both sides of a join — about
0.8 s per query at 3k nodes.  On carried ``e`` and ``d`` the same texts
answer a 5k-node document inside the tier-1 budget, and SQLite's own plan
says why: the inner side of every subtree join is an index search.
"""

from __future__ import annotations

import re

import pytest

from repro import XQuerySession
from repro.xmark.queries import EXTRA_QUERIES, QUERIES
from tests.test_sqlite_backend import held_rows

SCALE = 0.003  # ≈ 5k nodes
DOC = 'document("auction.xml")'


@pytest.fixture(scope="module")
def session():
    with XQuerySession() as session:
        session.add_xmark_document("auction.xml", SCALE)
        yield session


def q1_star(session) -> str:
    """Q1 for a seller the document has (stock Q1's may sell nothing)."""
    seller = session.run(
        f"{DOC}/site/open_auctions/open_auction/seller").to_xml()
    person = re.search(r'person="([^"]+)"', seller).group(1)
    return EXTRA_QUERIES["Q1"].replace('"person1"', f'"{person}"')


@pytest.mark.parametrize("tag", ["Q1", "Q13", "Q17"])
def test_sqlite_answers_five_thousand_nodes(session, tag):
    text = q1_star(session) if tag == "Q1" else {**QUERIES, **EXTRA_QUERIES}[tag]
    expected = session.run(text, backend="engine").to_xml()
    assert expected  # a non-empty answer times something
    answer = session.run(text, backend="sqlite")
    assert answer.backend == "sqlite"
    assert answer.to_xml() == expected


def test_subtree_joins_search_an_index(session):
    database = session.backend_instance("sqlite").database
    plan = database.explain(session.prepare(QUERIES["Q13"]).core)
    steps = [line.split(": ", 1) for line in plan.splitlines()]
    for kind in ("select", "for_var"):
        inner = [step for name, step in steps
                 if name.endswith(kind) and step.startswith("SEARCH")]
        assert inner and all(
            re.fullmatch(r"SEARCH u USING INDEX \w+ "
                         r"\(e=\? AND l>\? AND l<\?\)", step)
            for step in inner), (kind, inner)
        assert not [step for name, step in steps
                    if name.endswith(kind) and "CORRELATED" in step]
    # Planning ran nothing: no retained table holds a row.
    assert not any(held_rows(database.connection).values())
