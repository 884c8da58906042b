"""Compile-time widths (Section 4.3), as the SQL translator infers them.

The translator is the one width inference: ``TranslationResult.width`` is
the result's block width and ``.relations`` maps every relation CTE to
its own, each XFn's read from the registry (``FUNCTIONS[fn].width``).
"""

import pytest

from repro.api import compile_xquery
from repro.encoding.interval import encode
from repro.errors import (
    UnboundVariableError,
    UnknownFunctionError,
    WidthOverflowError,
)
from repro.sql.sqlite_backend import SQLITE_MAX_WIDTH
from repro.sql.translator import translate_query
from repro.xmark.generator import generate_document
from repro.xmark.queries import QUERIES
from repro.xquery.ast import Empty, FnApp, For, Let, Var, Where
from repro.xquery.lowering import document_forest, lower_query
from repro.xquery.parser import parse_xquery


def translate(expr, max_width: int | None = None, **widths):
    """Translate ``expr`` over base tables of the given widths (uncapped
    unless ``max_width`` is given)."""
    return translate_query(
        expr, {var: (f"doc_{i}", width)
               for i, (var, width) in enumerate(widths.items())},
        max_width=max_width)


def width_of(expr, **widths) -> int:
    return translate(expr, **widths).width


def relation_widths(translation) -> list[tuple[str, int]]:
    """``(template, width)`` per relation CTE, in emission order (a CTE
    is named ``<prefix><n>_<template>``)."""
    return [(name.split("_", 1)[1], width)
            for name, width in translation.relations.items()]


def compiled_width(text: str, doc_width: int,
                   max_width: int | None = None) -> int:
    compiled = compile_xquery(text)
    return translate(compiled.core, max_width, **{
        var: doc_width for var in compiled.documents.values()}).width


class TestInferWidth:
    def test_variable(self):
        assert width_of(Var("x"), x=86) == 86

    def test_unbound(self):
        with pytest.raises(UnboundVariableError):
            width_of(Var("x"))

    def test_function_composition(self):
        expr = FnApp("xnode", (FnApp("children", (Var("x"),)),),
                     (("label", "<w>"),))
        assert width_of(expr, x=86) == 88

    def test_let(self):
        expr = Let("y", FnApp("xnode", (Var("x"),), (("label", "<w>"),)),
                   Var("y"))
        assert width_of(expr, x=10) == 12

    def test_where_transparent(self):
        expr = Where(Empty(Var("x")), Var("x"))
        assert width_of(expr, x=10) == 10

    def test_for_multiplies(self):
        """w_for = w_source · w_body (Section 4.2.4)."""
        expr = For("t", Var("x"), FnApp("xnode", (Var("t"),),
                                        (("label", "<w>"),)))
        assert width_of(expr, x=86) == 86 * 88

    def test_nested_for_polynomial_degree(self):
        """Nesting depth d gives a degree-(d+1) polynomial in doc width."""
        width = 100
        inner = For("y", Var("d"), FnApp("concat", (Var("x"), Var("y"))))
        outer = For("x", Var("d"), inner)
        # inner body: w = 2·width; inner for: width · 2width = 2·width².
        # outer: width · 2·width² = 2·width³.
        assert width_of(outer, d=width) == 2 * width ** 3

    def test_bad_arity_rejected(self):
        with pytest.raises(UnknownFunctionError, match="expects 2 arguments"):
            width_of(FnApp("concat", (Var("x"),)), x=2)


class TestWidthReport:
    def test_report_entries(self):
        translation = translate(FnApp("children", (Var("x"),)), x=44)
        assert relation_widths(translation) == [("children", 44)]

    def test_max_width(self):
        expr = For("t", Var("x"), FnApp("subtrees_dfs", (Var("t"),)))
        translation = translate(expr, x=10)
        assert max(translation.relations.values()) == 10 * 100
        assert translation.width == 10 * 100

    def test_condition_expressions_counted(self):
        expr = Where(Empty(FnApp("children", (Var("x"),))), Var("x"))
        assert ("children", 10) in relation_widths(translate(expr, x=10))


class TestPaperWidths:
    def test_q8_widths_match_paper_arithmetic(self):
        """Example 4.1/4.2: the <item> constructor's width bookkeeping.

        With the Figure 4 document width 86, $p has width 86 and the
        constructed @person attribute has width 88; adding count (width 2)
        and the <item> wrapper gives 92 — the paper's number — and the
        loop over persons 86 · 92.
        """
        from repro.xmark.queries import Q8
        core, docs = lower_query(parse_xquery(Q8))
        translation = translate(core, **{var: 86 for var in docs.values()})
        # data(name/text()) ≤ 86 → @person 88, concat with count 2 → 90,
        # <item> → 92, then the outer for's exit.
        assert relation_widths(translation)[-5:] == [
            ("xnode", 88), ("count", 2), ("concat", 90), ("xnode", 92),
            ("for_exit", 86 * 92)]
        assert translation.width == 86 * 92

    def test_q8_full_inference_runs(self, figure1_doc):
        from repro.xmark.queries import Q8

        core, docs = lower_query(parse_xquery(Q8))
        doc_width = encode(document_forest((figure1_doc,))).width
        total = width_of(core, **{var: doc_width for var in docs.values()})
        # Outer for: persons-source width × item width — strictly positive
        # and polynomial (degree 2) in the document width.
        assert total > doc_width
        assert total < doc_width ** 3


def _nested_loops(levels: int):
    """for t1 in d do … for tN in d do concat(t1, tN)-ish nesting."""
    body = FnApp("children", (Var(f"t{levels}"),))
    expr = body
    source = Var("d")
    for level in range(levels, 0, -1):
        expr = For(f"t{level}", source, expr)
    return expr


class TestWidthGrowth:
    """Section 4.3: block widths are a polynomial in the document width
    whose degree is the nesting depth, so fixed-width integers overflow
    at some scale."""

    def test_width_degree_matches_nesting(self):
        """Width of an N-deep loop nest is doc_width^(N+…): degree =
        depth."""
        doc_width = 1000
        widths = [width_of(_nested_loops(levels), d=doc_width)
                  for levels in (1, 2, 3)]
        assert widths[0] == doc_width * doc_width
        assert widths[1] == doc_width * widths[0]
        assert widths[2] == doc_width * widths[1]

    def test_q9_width_fits_sqlite_at_bench_scales(self):
        """At the small benchmark scales Q9 stays under the 2^61 SQLite
        cap."""
        document = generate_document(0.001, seed=42)
        doc_width = encode(document_forest(document)).width
        assert compiled_width(QUERIES["Q9"], doc_width) < 2 ** 61
        assert compiled_width(QUERIES["Q9"], doc_width, SQLITE_MAX_WIDTH) \
            < 2 ** 61

    def test_q9_width_overflows_sqlite_at_paper_scales(self):
        """At the paper's sf=1 (111 MB) Q9's width exceeds 64-bit SQLite —
        the Section 4.3 trade-off of fixed-width machine integers."""
        paper_sf1_width = 2 * 2_000_000  # ~2M nodes at scale factor 1
        assert compiled_width(QUERIES["Q9"], paper_sf1_width) > 2 ** 61
        with pytest.raises(WidthOverflowError):
            compiled_width(QUERIES["Q9"], paper_sf1_width, SQLITE_MAX_WIDTH)
