"""``where A and B`` on the SQL path: emitted as written, answered right.

The translator emits a conjunction in source order and leaves its
evaluation order to SQLite (docs/PLANNER.md).  For every pair of six
conjunct kinds, on an XMark sf 0.001 document:

* ``where A and B`` and ``where B and A`` on ``backend="sqlite"`` each
  equal the Figure 3 interpreter byte for byte;
* the emitted predicate is ``((A) AND (B))``, with ``A``'s and ``B``'s
  SQL exactly what each conjunct translates to alone.

And one translation path: for the XMark texts the backend runs,
``SQLiteDatabase.translate`` emits what ``CompiledQuery.to_sql`` does.
"""

from __future__ import annotations

import hashlib
import itertools
import re

import pytest

from repro import XQuerySession, compile_xquery
from repro.errors import WidthOverflowError
from repro.sql.sqlite_backend import SQLITE_MAX_WIDTH, SQLiteDatabase
from repro.xmark import queries
from repro.xmark.generator import generate_document
from repro.xquery.lowering import document_forest

DOC = 'document("auction.xml")'

#: One conjunct per condition kind the lowering produces, each over the
#: iterated ``$a`` and true for some open auctions and false for others.
CONJUNCTS = {
    "attribute_eq": '$a/bidder/personref/@person = "person13"',
    "text_eq": '$a/type/text() = "Dutch"',
    "empty": "empty($a/bidder)",
    "not_empty": "not(empty($a/bidder))",
    # Two sequences (SomeEqual): sellers who bid on some open auction.
    "sequence_eq": (f"$a/seller/@person = "
                    f"{DOC}/site/open_auctions/open_auction/bidder/personref/@person"),
    "less": "$a/initial < $a/current",
}

PAIRS = list(itertools.combinations(CONJUNCTS, 2))


def flwr(condition: str) -> str:
    return (f"for $a in {DOC}/site/open_auctions/open_auction "
            f"where {condition} return $a/itemref")


@pytest.fixture(scope="module")
def auction():
    return generate_document(0.001, seed=42)


@pytest.fixture(scope="module")
def session(auction):
    with XQuerySession() as active:
        active.add_document("auction.xml", (auction,))
        yield active


@pytest.fixture(scope="module")
def database(auction):
    with SQLiteDatabase() as db:
        db.load_document("doc:auction.xml", document_forest((auction,)))
        yield db


def where_predicate(database: SQLiteDatabase, condition: str) -> str:
    """The ``where``'s SQL predicate with every CTE name replaced by a
    digest of what the CTE computes, so two translations compare equal
    exactly when they emit the same SQL, whatever their CTE numbering."""
    translation = database.translate(compile_xquery(flwr(condition)).core)
    definitions = dict(translation.ctes)
    names: dict[str, str] = {}

    def canonical(sql: str) -> str:
        return re.sub(r"\bc\d+_\w+", lambda match: name(match.group(0)), sql)

    def name(cte: str) -> str:
        if cte not in names:
            digest = hashlib.sha1(canonical(definitions[cte]).encode())
            names[cte] = f"{cte.split('_', 1)[1]}#{digest.hexdigest()[:12]}"
        return names[cte]

    (where,) = [cte for cte in definitions if cte.endswith("_where_idx")]
    return canonical(definitions[where].split("\n WHERE ", 1)[1])


@pytest.mark.parametrize("first, second", PAIRS,
                         ids=[f"{a}-{b}" for a, b in PAIRS])
class TestConjunctionPairs:
    def test_both_orders_match_the_interpreter(self, session, first, second):
        for left, right in ((first, second), (second, first)):
            query = flwr(f"{CONJUNCTS[left]} and {CONJUNCTS[right]}")
            expected = session.run(query, backend="interpreter").to_xml()
            assert session.run(query, backend="sqlite").to_xml() == expected

    def test_predicate_keeps_source_order(self, database, first, second):
        a, b = CONJUNCTS[first], CONJUNCTS[second]
        alone_a = where_predicate(database, a)
        alone_b = where_predicate(database, b)
        assert alone_a != alone_b
        assert where_predicate(database, f"{a} and {b}") == \
            f"(({alone_a}) AND ({alone_b}))"
        assert where_predicate(database, f"{b} and {a}") == \
            f"(({alone_b}) AND ({alone_a}))"


def test_conjuncts_are_selective(session):
    """Every conjunct keeps some open auctions and drops others, so the
    pairs above compare answers that are neither everything nor nothing."""
    every = len(session.run(f"{DOC}/site/open_auctions/open_auction/itemref",
                            backend="interpreter"))
    for name, condition in CONJUNCTS.items():
        kept = len(session.run(flwr(condition), backend="interpreter"))
        assert 0 < kept < every, name


XMARK_TEXTS = {**queries.QUERIES, **queries.EXTRA_QUERIES}


@pytest.mark.parametrize("name", sorted(XMARK_TEXTS))
def test_backend_translates_what_to_sql_emits(database, name):
    compiled = compile_xquery(XMARK_TEXTS[name])
    try:
        translated = database.translate(compiled.core)
    except WidthOverflowError:
        # Q19's order by outgrows the backend's 64-bit cap at this size;
        # to_sql refuses it under the same cap.
        with pytest.raises(WidthOverflowError):
            compiled.to_sql(database.documents, max_width=SQLITE_MAX_WIDTH)
        return
    assert compiled.to_sql(database.documents).sql == translated.sql
