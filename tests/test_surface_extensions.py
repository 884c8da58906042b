"""Tests for order by, positional predicates, and if/then/else.

All three lower into the paper's core algebra (Figure 2) with no new
constructs: ``order by`` becomes a structural sort of packed tuples,
``e[N]`` a head/tail chain, and ``if/then/else`` a concatenation of two
complementary ``where`` branches.  (The engine's optimized plans rank an
``order by``'s iterations instead of sorting the tuples; every backend
answers alike.)
"""

import pytest

from repro import run_xquery
from repro.errors import XQuerySyntaxError
from repro.xquery.ast import (
    SConditional,
    SFLWR,
    SPositional,
)
from repro.xquery.parser import parse_xquery

XML = """
<site><people>
 <person id="p2"><name>Cyd</name><age>31</age></person>
 <person id="p0"><name>Ada</name><age>36</age></person>
 <person id="p1"><name>Bob</name><age>36</age></person>
</people></site>
"""
DOCS = {"d": XML}

BACKENDS = [("interpreter", "msj"), ("engine", "nlj"),
            ("engine", "msj"), ("sqlite", "msj")]

#: Equal keys whose items are out of structural order in the document.
TIES = {"d.xml": "<site><i><loc>x</loc><n>zeta</n></i>"
                 "<i><loc>x</loc><n>alpha</n></i>"
                 "<i><loc>a</loc><n>mid</n></i></site>"}


def run_all_backends(query: str, documents=DOCS, backends=BACKENDS):
    outputs = {
        run_xquery(query, documents, backend=backend,
                   strategy=strategy).to_xml()
        for backend, strategy in backends
    }
    assert len(outputs) == 1, f"backends diverged: {outputs}"
    return outputs.pop()


class TestOrderByParsing:
    def test_order_by_parsed(self):
        body = parse_xquery(
            "for $x in $y order by $x/k return $x").body
        assert isinstance(body, SFLWR)
        assert body.order_by is not None
        assert body.order_by.descending is False

    def test_descending(self):
        body = parse_xquery(
            "for $x in $y order by $x/k descending return $x").body
        assert body.order_by.descending is True

    def test_ascending_explicit(self):
        body = parse_xquery(
            "for $x in $y order by $x/k ascending return $x").body
        assert body.order_by.descending is False

    def test_order_without_by_rejected(self):
        with pytest.raises(XQuerySyntaxError):
            parse_xquery("for $x in $y order $x/k return $x")

    def test_order_stays_usable_as_step_name(self):
        body = parse_xquery("$x/order/by").body
        assert [s.test for s in body.steps] == ["order", "by"]

    def test_where_then_order_by(self):
        body = parse_xquery(
            'for $x in $y where $x = "v" order by $x return $x').body
        assert body.where is not None
        assert body.order_by is not None


class TestOrderByEvaluation:
    def test_sorts_by_key(self):
        result = run_all_backends(
            'for $p in document("d")/site/people/person '
            'order by $p/name/text() return $p/name/text()')
        assert result == "AdaBobCyd"

    def test_descending(self):
        result = run_all_backends(
            'for $p in document("d")/site/people/person '
            'order by $p/name/text() descending return $p/name/text()')
        assert result == "CydBobAda"

    def test_stable_for_equal_keys(self):
        # Ada and Bob share age 36; $p breaks the tie (id p0 before p1),
        # which is their document order too.
        result = run_all_backends(
            'for $p in document("d")/site/people/person '
            'order by $p/age/text() return $p/name/text()')
        assert result == "CydAdaBob"

    @pytest.mark.parametrize("direction, expected", [
        ("", "<n>mid</n><n>alpha</n><n>zeta</n>"),
        (" descending", "<n>zeta</n><n>alpha</n><n>mid</n>")])
    def test_equal_keys_fall_to_the_bound_values(self, direction, expected):
        """Equal keys are ordered by the bound values' structural order
        — ``$b``'s, where ``<n>alpha</n>`` sorts before ``<n>zeta</n>`` —
        and document order breaks ties only after that; ``descending``
        reverses the whole order."""
        result = run_all_backends(
            'for $b in document("d.xml")/site/i let $k := $b/loc/text() '
            f'order by $k{direction} return $b/n', TIES,
            BACKENDS + [("naive", "msj")])
        assert result == expected

    def test_order_by_with_where(self):
        result = run_all_backends(
            'for $p in document("d")/site/people/person '
            'where $p/age/text() = "36" '
            'order by $p/name/text() descending '
            'return $p/name/text()')
        assert result == "BobAda"

    def test_order_by_with_let(self):
        result = run_all_backends(
            'for $p in document("d")/site/people/person '
            'let $n := $p/name/text() '
            'order by $n return <x>{$n}</x>')
        assert result == "<x>Ada</x><x>Bob</x><x>Cyd</x>"

    def test_construction_after_ordering(self):
        result = run_all_backends(
            'for $p in document("d")/site/people/person '
            'order by $p/name/text() '
            'return <p id="{$p/@id}"/>')
        assert result == '<p id="p0"/><p id="p1"/><p id="p2"/>'


class TestPositional:
    def test_parse(self):
        body = parse_xquery("$x/a[2]").body
        assert isinstance(body, SPositional)
        assert body.position == 2

    def test_zero_rejected(self):
        with pytest.raises(XQuerySyntaxError):
            parse_xquery("$x/a[0]")

    def test_first(self):
        assert run_all_backends(
            'document("d")/site/people/person[1]/name/text()') == "Cyd"

    def test_middle(self):
        assert run_all_backends(
            'document("d")/site/people/person[2]/name/text()') == "Ada"

    def test_out_of_range_is_empty(self):
        assert run_all_backends(
            'document("d")/site/people/person[7]') == ""

    def test_position_then_predicate(self):
        assert run_all_backends(
            'document("d")/site/people/person[./@id = "p0"][1]'
            '/name/text()') == "Ada"


class TestConditional:
    def test_parse(self):
        body = parse_xquery('if (empty($x)) then $a else $b').body
        assert isinstance(body, SConditional)

    def test_then_branch(self):
        result = run_all_backends(
            'for $p in document("d")/site/people/person '
            'return if ($p/@id = "p0") then <hit/> else <miss/>')
        assert result == "<miss/><hit/><miss/>"

    def test_nested_conditionals(self):
        result = run_all_backends(
            'for $p in document("d")/site/people/person '
            'return if ($p/@id = "p0") then <a/> '
            'else if ($p/@id = "p1") then <b/> else <c/>')
        assert result == "<c/><a/><b/>"

    def test_missing_then_rejected(self):
        with pytest.raises(XQuerySyntaxError):
            parse_xquery("if (empty($x)) $a else $b")

    def test_missing_else_rejected(self):
        with pytest.raises(XQuerySyntaxError):
            parse_xquery("if (empty($x)) then $a")

    def test_if_usable_as_element_name(self):
        result = run_xquery("<if>x</if>", {})
        assert result.to_xml() == "<if>x</if>"

    def test_conditional_in_content(self):
        result = run_all_backends(
            'for $p in document("d")/site/people/person[1] '
            'return <r>{if (empty($p/zz)) then "none" else "some"}</r>')
        assert result == "<r>none</r>"
