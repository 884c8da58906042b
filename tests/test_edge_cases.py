"""Edge cases across the stack: sparse environments, empty blocks,
degenerate queries, deep nesting, odd labels."""

import pytest

from repro import run_xquery
from repro.engine import kernels
from repro.engine.columns import IntervalColumns
from repro.engine.validate import validate_value
from repro.xml.text_parser import parse_forest

from tests.def33 import env_forests


def f(source: str):
    return parse_forest(source)


BACKENDS = [("interpreter", "msj"), ("engine", "nlj"),
            ("engine", "msj"), ("sqlite", "msj")]


def blocks(rel, width: int, index) -> list:
    """One forest per environment of ``index``, once ``rel`` is checked
    to lie inside the index's blocks."""
    validate_value(rel, width, index)
    return env_forests(rel, width, index)


def run_all(query: str, documents):
    outputs = {
        run_xquery(query, documents, backend=backend,
                   strategy=strategy).to_xml()
        for backend, strategy in BACKENDS
    }
    assert len(outputs) == 1, f"backends diverged: {outputs}"
    return outputs.pop()


class TestSparseEnvironments:
    """Operators over blocked relations with holes in the index."""

    # Environment blocks at sparse indices 3 and 17, width 10.
    REL = IntervalColumns.from_tuples([("<a>", 30, 35), ("<b>", 31, 32),
                                       ("x", 33, 34), ("<c>", 170, 171)])
    INDEX = [3, 9, 17]

    def test_count_covers_empty_envs(self):
        result, width = kernels.count_roots(self.REL, 10, self.INDEX)
        decoded = blocks(result, width, self.INDEX)
        assert [forest[0].label for forest in decoded] == ["1", "0", "1"]

    def test_xnode_emits_in_every_env(self):
        result, width = kernels.xnode("<w>", self.REL, 10, self.INDEX)
        decoded = blocks(result, width, self.INDEX)
        assert [len(forest) for forest in decoded] == [1, 1, 1]
        assert [len(forest[0].children) for forest in decoded] == [1, 0, 1]

    def test_concat_with_disjoint_envs(self):
        left = IntervalColumns.from_tuples([("<a>", 30, 31)])     # env 3
        right = IntervalColumns.from_tuples([("<b>", 170, 171)])  # env 17
        result = kernels.concat(left, 10, right, 10)
        decoded = blocks(result, 20, [3, 17])
        assert decoded[0] == f("<a/>")
        assert decoded[1] == f("<b/>")

    def test_string_fn_sparse(self):
        result, width = kernels.string_fn(self.REL, 10, self.INDEX)
        decoded = blocks(result, width, self.INDEX)
        assert [forest[0].label for forest in decoded] == ["x", "", ""]


class TestDegenerateQueries:
    DOC = {"d": "<r><a>1</a></r>"}

    def test_query_returning_nothing(self):
        assert run_all('document("d")/r/zzz', self.DOC) == ""

    def test_constant_query_without_documents(self):
        assert run_all("<fixed/>", {}) == "<fixed/>"

    def test_string_literal_query(self):
        assert run_all('"hello"', {}) == "hello"

    def test_empty_sequence_query(self):
        assert run_all("()", {}) == ""

    def test_for_over_single_tree(self):
        assert run_all('for $x in document("d")/r return count($x)',
                       self.DOC) == "1"

    def test_where_filtering_everything(self):
        assert run_all(
            'for $x in document("d")/r/a where empty($x) return $x',
            self.DOC) == ""

    def test_nested_constructors_only(self):
        assert run_all("<a><b><c>deep</c></b></a>", {}) == \
            "<a><b><c>deep</c></b></a>"

    def test_doubly_nested_empty_loops(self):
        assert run_all(
            'for $x in document("d")/r/zz '
            'return for $y in document("d")/r/zz return <never/>',
            self.DOC) == ""


class TestDeepNesting:
    def test_deep_flwr_nesting(self):
        # Three levels of self-composed for loops: widths square per
        # level (8 → 64 → 4096 → 16M), still inside SQLite's 64-bit cap.
        doc = {"d": "<r><a/></r>"}
        query = 'document("d")/r/a'
        for level in range(3):
            query = f'for $v{level} in {query} return $v{level}'
        assert run_all(query, doc) == "<a/>"

    def test_five_levels_on_bigint_engine(self):
        # The same shape two levels deeper overflows fixed-width backends
        # (Section 4.3) but runs fine on the arbitrary-precision engine.
        doc = {"d": "<r><a/></r>"}
        query = 'document("d")/r/a'
        for level in range(5):
            query = f'for $v{level} in {query} return $v{level}'
        for backend, strategy in (("interpreter", "msj"), ("engine", "msj")):
            result = run_xquery(query, doc, backend=backend,
                                strategy=strategy)
            assert result.to_xml() == "<a/>"
        from repro.errors import WidthOverflowError
        with pytest.raises(WidthOverflowError):
            run_xquery(query, doc, backend="sqlite")

    def test_deeply_nested_document(self):
        depth = 30
        xml = "<e>" * depth + "x" + "</e>" * depth
        result = run_all(f'document("d"){"/e" * depth}/text()', {"d": xml})
        assert result == "x"


class TestOddLabels:
    def test_unicode_content(self):
        doc = {"d": "<r><name>Özsu</name><name>Tōkyō</name></r>"}
        assert run_all('document("d")/r/name/text()', doc) == "ÖzsuTōkyō"

    def test_quotes_in_text(self):
        doc = {"d": "<r><t>it's \"quoted\"</t></r>"}
        assert run_all('document("d")/r/t/text()', doc) == \
            "it's \"quoted\""

    def test_label_looking_like_sql(self):
        doc = {"d": "<r><t>'; DROP TABLE doc_0; --</t></r>"}
        assert run_all('document("d")/r/t/text()', doc) == \
            "'; DROP TABLE doc_0; --"

    def test_comparison_against_injection_literal(self):
        doc = {"d": "<r><t>safe</t></r>"}
        assert run_all(
            "for $x in document(\"d\")/r/t "
            "where $x = \"'; DROP TABLE doc_0; --\" return $x",
            doc) == ""


class TestConditionCombinations:
    DOC = {"d": "<r><a k='1'/><a k='2'/><a k='3'/></r>"}

    def test_or_in_where_on_all_backends(self):
        assert run_all(
            'for $x in document("d")/r/a '
            'where $x/@k = "1" or $x/@k = "3" return $x/@k',
            self.DOC) == '[@k="1"][@k="3"]'

    def test_and_or_not_mix(self):
        assert run_all(
            'for $x in document("d")/r/a '
            'where not($x/@k = "2") and ($x/@k = "1" or $x/@k = "3") '
            'return $x/@k',
            self.DOC) == '[@k="1"][@k="3"]'

    def test_less_between_paths(self):
        assert run_all(
            'for $x in document("d")/r/a '
            'where $x/@k < "3" return $x/@k',
            self.DOC) == '[@k="1"][@k="2"]'

    def test_deep_equal_between_subtrees(self):
        doc = {"d": "<r><p><k>v</k></p><q><k>v</k></q><q><k>w</k></q></r>"}
        assert run_all(
            'for $q in document("d")/r/q '
            'where deep-equal($q/k, document("d")/r/p/k) '
            'return <same/>',
            doc) == "<same/>"
