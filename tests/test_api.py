"""Tests for the top-level public API."""

import pytest

from repro import CompiledQuery, QueryResult, ReproError, compile_xquery, run_xquery
from repro.xmark.queries import FIGURE1_SAMPLE
from repro.xml.forest import PreorderForest, element, preorder, text
from repro.xml.text_parser import parse_document

QUERY = 'document("a.xml")/site/people/person/name/text()'


class TestRunXQuery:
    def test_with_xml_text(self):
        result = run_xquery(QUERY, {"a.xml": FIGURE1_SAMPLE})
        assert result.to_xml() == "Jaak TempestiCong Rosca"

    def test_with_parsed_node(self):
        root = parse_document(FIGURE1_SAMPLE)
        result = run_xquery(QUERY, {"a.xml": root})
        assert len(result) == 2

    def test_with_forest(self):
        root = parse_document(FIGURE1_SAMPLE)
        result = run_xquery(QUERY, {"a.xml": (root,)})
        assert len(result) == 2

    @pytest.mark.parametrize("backend", ["engine", "interpreter", "sqlite"])
    def test_backends_agree(self, backend):
        result = run_xquery(QUERY, {"a.xml": FIGURE1_SAMPLE},
                            backend=backend)
        assert result.to_xml() == "Jaak TempestiCong Rosca"

    @pytest.mark.parametrize("strategy", ["nlj", "msj"])
    def test_strategies(self, strategy):
        result = run_xquery(QUERY, {"a.xml": FIGURE1_SAMPLE},
                            strategy=strategy)
        assert len(result) == 2

    def test_unknown_backend(self):
        with pytest.raises(ReproError):
            run_xquery(QUERY, {"a.xml": FIGURE1_SAMPLE}, backend="oracle")

    def test_unknown_strategy(self):
        with pytest.raises(ReproError):
            run_xquery(QUERY, {"a.xml": FIGURE1_SAMPLE}, strategy="hash")

    def test_missing_document(self):
        with pytest.raises(ReproError) as excinfo:
            run_xquery(QUERY, {})
        assert "a.xml" in str(excinfo.value)

    def test_bad_document_type(self):
        with pytest.raises(ReproError):
            run_xquery(QUERY, {"a.xml": 42})

    def test_stats_collection(self):
        from repro.engine.stats import EngineStats
        stats = EngineStats()
        run_xquery(QUERY, {"a.xml": FIGURE1_SAMPLE}, stats=stats)
        assert stats.total_seconds > 0

    def test_precompiled_query_reuse(self):
        compiled = compile_xquery(QUERY)
        first = run_xquery(compiled, {"a.xml": FIGURE1_SAMPLE})
        second = run_xquery(compiled, {"a.xml": "<site><people>"
                                                "<person><name>Z</name>"
                                                "</person></people></site>"})
        assert first.to_xml() != second.to_xml()


class TestCompiledQuery:
    def test_compile(self):
        compiled = compile_xquery(QUERY)
        assert isinstance(compiled, CompiledQuery)
        assert compiled.documents == {"a.xml": "doc:a.xml"}

    def test_plan_and_explain(self):
        compiled = compile_xquery(QUERY)
        assert "Fn:select" in compiled.explain()

    def test_explain_differs_by_strategy(self):
        from repro.xmark.queries import Q8
        compiled = compile_xquery(Q8)
        assert compiled.explain("nlj") != compiled.explain("msj")

    def test_to_sql(self):
        compiled = compile_xquery(QUERY)
        translation = compiled.to_sql({"doc:a.xml": ("doc_0", 88)})
        assert translation.sql.startswith("WITH ")


class TestQueryResult:
    def test_iteration_and_len(self):
        result = QueryResult((text("a"), text("b")))
        assert len(result) == 2
        assert [n.label for n in result] == ["a", "b"]

    def test_equality_with_forest(self):
        result = QueryResult((element("a"),))
        assert result == (element("a"),)
        assert result == QueryResult((element("a"),))

    def test_pretty_xml(self):
        result = QueryResult((element("a", (element("b"),)),))
        assert result.to_xml(indent=2) == "<a>\n  <b/>\n</a>"

    def test_forest_of_an_engine_result_is_built_on_first_access(
            self, nodes_built):
        trees = (element("a", (element("b"),)), text("c"))
        result = QueryResult(PreorderForest.from_lists(*preorder(trees)),
                             backend="engine")
        built = nodes_built()  # the expected trees above
        assert len(result) == 2
        assert result.to_xml() == "<a><b/></a>c"
        assert result == QueryResult(
            PreorderForest.from_lists(*preorder(trees)))
        assert "2 trees" in repr(result)
        assert nodes_built() == built
        forest = result.forest
        assert nodes_built() == built + 3
        assert isinstance(forest, tuple) and forest == trees
        assert result.forest is forest and list(result) == list(trees)
        assert result.to_xml(indent=2) == "<a>\n  <b/>\n</a>\nc"
        assert nodes_built() == built + 3

    def test_equality_is_by_content_across_representations(self):
        trees = (element("a"), text("b"))
        lazy = QueryResult(PreorderForest.from_lists(*preorder(trees)))
        eager = QueryResult(trees)
        assert lazy == eager and eager == lazy
        assert lazy == trees and trees == lazy.forest
        assert lazy != QueryResult(trees[:1]) and lazy != trees[:1]
        assert not lazy == "<a/>b"
        with pytest.raises(TypeError):
            hash(lazy)
