"""The DI engine must agree with the reference interpreter on everything.

Each test evaluates the same core expression through the Figure 3
interpreter and through both engine strategies (NLJ and MSJ), asserting
identical forests — the engine-level statement of Proposition 4.4.
"""

import pytest

from repro.compiler.plan import JoinStrategy
from repro.compiler.planner import compile_plan
from repro.engine.evaluator import DIEngine
from repro.engine.stats import EngineStats
from repro.xml.text_parser import parse_forest
from repro.xquery.interpreter import evaluate
from repro.xquery.lowering import document_forest, lower_query
from repro.xquery.parser import parse_xquery


def f(source: str):
    return parse_forest(source)


def check_query(source: str, documents: dict):
    """Run a surface query through interpreter + both engine strategies."""
    core, docs = lower_query(parse_xquery(source))
    bindings = {var: document_forest(documents[uri])
                for uri, var in docs.items()}
    expected = evaluate(core, bindings)
    for strategy in (JoinStrategy.NLJ, JoinStrategy.MSJ):
        plan = compile_plan(core, strategy, base_vars=docs.values())
        got = DIEngine().run_plan(plan, bindings)
        assert got == expected, f"{strategy} diverged"
    return expected


SAMPLE = """
<site>
 <people>
  <person id="p0"><name>Ada</name></person>
  <person id="p1"><name>Bob</name></person>
  <person id="p2"><name>Cyd</name></person>
 </people>
 <closed_auctions>
  <closed_auction><buyer person="p1"/><itemref item="i0"/></closed_auction>
  <closed_auction><buyer person="p2"/><itemref item="i1"/></closed_auction>
  <closed_auction><buyer person="p1"/><itemref item="i9"/></closed_auction>
 </closed_auctions>
 <regions><europe>
  <item id="i0"><name>clock</name></item>
  <item id="i1"><name>vase</name></item>
 </europe></regions>
</site>
"""


class TestSimpleQueries:
    def test_path(self):
        check_query('document("d")/site/people/person/name/text()',
                    {"d": f(SAMPLE)})

    def test_descendants(self):
        check_query('document("d")//name', {"d": f(SAMPLE)})

    def test_construction(self):
        check_query(
            'for $p in document("d")/site/people/person '
            'return <x name="{$p/name/text()}">{$p/@id}</x>',
            {"d": f(SAMPLE)})

    def test_let(self):
        check_query(
            'let $p := document("d")/site/people/person return count($p)',
            {"d": f(SAMPLE)})

    def test_where_filter(self):
        check_query(
            'for $p in document("d")/site/people/person '
            'where $p/@id = "p1" return $p/name',
            {"d": f(SAMPLE)})

    def test_predicate(self):
        check_query(
            'document("d")/site/people/person[./@id = "p2"]/name/text()',
            {"d": f(SAMPLE)})

    def test_sequence_construction(self):
        check_query(
            'for $p in document("d")/site/people/person '
            'return ($p/name/text(), $p/@id)',
            {"d": f(SAMPLE)})

    def test_sort_and_distinct(self):
        check_query('sort(document("d")//name)', {"d": f(SAMPLE)})
        check_query('distinct(document("d")//name)', {"d": f(SAMPLE)})

    def test_head_tail_reverse(self):
        check_query('head(document("d")/site/people/person)',
                    {"d": f(SAMPLE)})
        check_query('tail(document("d")/site/people/person)',
                    {"d": f(SAMPLE)})
        check_query('reverse(document("d")/site/people/person)',
                    {"d": f(SAMPLE)})


class TestJoins:
    def test_single_join(self):
        result = check_query(
            'for $p in document("d")/site/people/person '
            'let $a := for $t in document("d")/site/closed_auctions'
            '/closed_auction '
            '          where $t/buyer/@person = $p/@id return $t '
            'where not(empty($a)) '
            'return <hit person="{$p/@id}">{count($a)}</hit>',
            {"d": f(SAMPLE)})
        assert len(result) == 2  # p1 (twice) and p2

    def test_join_without_filter_is_outer(self):
        result = check_query(
            'for $p in document("d")/site/people/person '
            'let $a := for $t in document("d")/site/closed_auctions'
            '/closed_auction '
            '          where $t/buyer/@person = $p/@id return $t '
            'return <hit>{count($a)}</hit>',
            {"d": f(SAMPLE)})
        assert [n.children[-1].label for n in result] == ["0", "2", "1"]

    def test_three_level_join(self):
        check_query(
            'for $p in document("d")/site/people/person '
            'let $a := for $t in document("d")/site/closed_auctions'
            '/closed_auction '
            '          let $n := for $i in document("d")/site/regions'
            '/europe/item '
            '                    where $t/itemref/@item = $i/@id '
            '                    return $i '
            '          where $p/@id = $t/buyer/@person '
            '          return <item>{$n/name/text()}</item> '
            'where not(empty($a)) '
            'return <person name="{$p/name/text()}">{$a}</person>',
            {"d": f(SAMPLE)})

    def test_join_with_duplicate_keys(self):
        doc = f("""
        <r>
          <l><e k="a"/><e k="b"/><e k="a"/></l>
          <r2><e k="a"/><e k="c"/><e k="a"/></r2>
        </r>
        """)
        check_query(
            'for $x in document("d")/r/l/e '
            'let $m := for $y in document("d")/r/r2/e '
            '          where $y/@k = $x/@k return $y '
            'where not(empty($m)) return <m>{count($m)}</m>',
            {"d": doc})

    def test_document_order_of_join_result(self):
        """MSJ must restore document order after merging."""
        result = check_query(
            'for $p in document("d")/site/people/person '
            'let $a := for $t in document("d")/site/closed_auctions'
            '/closed_auction '
            '          where $t/buyer/@person = $p/@id return $t '
            'where not(empty($a)) return $p/@id',
            {"d": f(SAMPLE)})
        # p1 before p2 — document order of persons, not key order.
        values = [attr.children[0].label for attr in result]
        assert values == ["p1", "p2"]


class TestDeepNesting:
    """Four joins deep over ``//`` sources: every level multiplies the
    pair index by a squared document width, so on a document of a few
    hundred nodes the Section 4 numbering runs off int64 at the third
    level.  The engine must answer anyway — by compacting the index,
    never by raising — and answer what the interpreter answers."""

    DOC = "<r>" + "".join(
        f"<{tag}><k>{n % 3}</k><v>{tag}{n}</v><pad><x/><x/><x/></pad></{tag}>"
        for tag in "abceg" for n in range(7)) + "</r>"

    QUERY = (
        'for $a in document("d")//a return <a>{$a/v/text()}{'
        ' for $b in document("d")//b where $a/k = $b/k'
        ' return <b>{$b/v/text()}{'
        '  for $c in document("d")//c where $b/k = $c/k'
        '  return <c>{$c/v/text()}{'
        '   for $e in document("d")//e where $c/k = $e/k'
        '   return <e>{$e/v/text()}{'
        '    for $g in document("d")//g where $e/k = $g/k'
        '    return <g>{$a/v/text()}{$g//v}</g>'
        '   }</e>}</c>}</b>}</a>')

    def test_four_deep_join_does_not_overflow(self, shrink_int64):
        remedies = shrink_int64(63)
        core, docs = lower_query(parse_xquery(self.QUERY))
        plan = explain_plan(compile_plan(core, base_vars=docs.values()))
        assert plan.count("JoinFor") == 4  # nested, under the outermost For
        result = check_query(self.QUERY, {"d": f(self.DOC)})
        assert len(result) == 7
        assert remedies["compact"] > 0


    def test_width_past_int64_with_nothing_in_it(self):
        """No iterations, seven squarings: the body's width product runs
        off int64 over an empty relation, which must stay a non-event
        (it was a raw ``OverflowError`` from NumPy)."""
        assert check_query(
            'for $x in document("d")/r/none '
            'return count(($x//a//a//a//a//a//a//a)[1])',
            {"d": f("<r><a><a/></a></r>")}) == ()


class TestXMarkQueries:
    @pytest.mark.parametrize("name", ["Q8", "Q8_ORIGINAL", "Q9", "Q13"])
    def test_engine_matches_interpreter(self, name, xmark_tiny):
        from repro.xmark.queries import QUERIES
        check_query(QUERIES[name], {"auction.xml": (xmark_tiny,)})


class TestKeysAreIntegers:
    """Structural equality is integer equality, and order a compare of
    collation-ranked bytes — held by counts that repeat exactly, not by a
    timing."""

    @staticmethod
    def counted_run(monkeypatch, query, forest):
        """``(labels read, dict entries tried, codes sorted)`` of one
        engine run: every read of the label dictionary counts, the
        numbers ``span_ids`` draws — one per ``dict.setdefault`` it
        makes — are counted as they are drawn, and so are the distinct
        codes of every relation ``sort`` is handed."""
        import itertools

        import numpy as np

        from repro.engine import columns, kernels

        counts = {"read": 0, "setdefault": 0, "sorted": 0}
        dictionary = columns._label_of

        class Counted(dict):
            def __getitem__(self, code):
                counts["read"] += 1
                return dictionary[code]

        class Drawn:
            def __init__(self):
                self.numbers = itertools.count()

            def __iter__(self):
                return self

            def __next__(self):
                counts["setdefault"] += 1
                return next(self.numbers)

        sort = kernels.sort

        def counted_sort(cols, width):
            counts["sorted"] += len(np.unique(cols.c))
            return sort(cols, width)

        monkeypatch.setattr(kernels, "_counter", Drawn)
        monkeypatch.setattr(kernels, "sort", counted_sort)
        core, docs = lower_query(parse_xquery(query))
        plan = compile_plan(core, JoinStrategy.MSJ, base_vars=docs.values())
        value = DIEngine.prepare_document(document_forest(forest))
        monkeypatch.setattr(columns, "_label_of", Counted())
        rel, _width = DIEngine().run_plan_values(
            plan, {var: value for var in docs.values()})
        assert len(rel) > 0
        return counts["read"], counts["setdefault"], counts["sorted"]

    def test_flat_keys_touch_no_string_and_no_dict(self, monkeypatch,
                                                   xmark_tiny):
        """Q8's keys are single attribute values: the id of a key is its
        label code, the select on ``person`` is a mask compare, and no
        label is read."""
        from repro.xmark.queries import Q8, Q9
        for query in (Q8, Q9):
            assert self.counted_run(monkeypatch, query, (xmark_tiny,)) \
                == (0, 0, 0)

    def test_structured_keys_go_through_one_dict_of_bytes(self, monkeypatch):
        """A deep-equal join compares whole key forests: one entry tried
        per record — two on each side, the record without keys included
        — and still no label read."""
        query = ('for $a in document("d")/r/a for $b in document("d")/r/b '
                 'where deep-equal($a/k, $b/k) return $b')
        forest = f("<r><a><k>x</k><k><t>y</t></k></a><a><k>x</k></a>"
                   "<b><k>x</k></b><b/></r>")
        assert self.counted_run(monkeypatch, query, forest) == (0, 4, 0)

    def test_order_by_reads_each_sorted_label_once(self, monkeypatch,
                                                   xmark_tiny):
        """Q19's ``order by`` ranks the labels of the relation it sorts:
        one dictionary read per distinct code, and none anywhere else."""
        from repro.xmark.queries import Q19
        read, _drawn, sorted_codes = self.counted_run(
            monkeypatch, Q19, (xmark_tiny,))
        assert read == sorted_codes > 0


def _q8_stats(document) -> EngineStats:
    """Q8's Figure 10 split over ``document``: the spans of one traced
    run on the MSJ plan."""
    from repro.xmark.queries import Q8
    core, docs = lower_query(parse_xquery(Q8))
    bindings = {var: document_forest((document,)) for var in docs.values()}
    stats = EngineStats()
    plan = compile_plan(core, JoinStrategy.MSJ, base_vars=docs.values())
    DIEngine(tracer=stats.tracer).run_plan(plan, bindings)
    return stats


class TestStats:
    def test_breakdown_sums_to_total(self, xmark_tiny):
        stats = _q8_stats(xmark_tiny)
        fractions = stats.fractions()
        assert abs(sum(fractions.values()) - 1.0) < 1e-6
        assert fractions["paths"] > 0
        assert fractions["join"] > 0
        assert fractions["construction"] > 0

    def test_nlj_join_fraction_grows(self, xmark_tiny):
        """Figure 10's NLJ row: join share grows with document size."""
        from repro.xmark.generator import generate_document
        from repro.xmark.queries import Q8
        core, docs = lower_query(parse_xquery(Q8))
        plan = compile_plan(core, JoinStrategy.NLJ, base_vars=docs.values())
        shares = []
        for document in (xmark_tiny, generate_document(0.01, seed=42)):
            bindings = {var: document_forest((document,))
                        for var in docs.values()}
            stats = EngineStats()
            DIEngine(tracer=stats.tracer).run_plan(plan, bindings)
            shares.append(stats.fractions()["join"])
        # A 20× document: the quadratic pair comparison visibly gains on
        # the linear path extraction (it reaches dominance at the larger
        # sweep scales of EXPERIMENTS.md, like the paper's 98–99%).
        assert shares[1] > shares[0]

    def test_stats_reset(self, xmark_tiny):
        stats = _q8_stats(xmark_tiny)
        assert stats.total_seconds > 0 and stats.tuples
        stats.reset()
        assert stats.total_seconds == 0 and stats.tuples == {}

    def test_summary_renders(self, xmark_tiny):
        summary = _q8_stats(xmark_tiny).summary()
        assert "total=" in summary and "join=" in summary


class TestTick:
    def test_tick_invoked(self, xmark_tiny):
        """The engine's one tick is its guard's: a guard checking every
        step reads its clock once per evaluation step and kernel, not
        once per run."""
        from repro.resilience.guard import QueryGuard
        from repro.xmark.queries import Q13
        core, docs = lower_query(parse_xquery(Q13))
        bindings = {var: document_forest((xmark_tiny,))
                    for var in docs.values()}
        reads = []

        def clock() -> float:
            reads.append(None)
            return 0.0

        guard = QueryGuard(deadline=60.0, clock=clock, check_interval=1)
        plan = compile_plan(core, JoinStrategy.MSJ, base_vars=docs.values())
        DIEngine(guard=guard).run_plan(plan, bindings)
        assert len(reads) > 10


# -- the empty sequence, everywhere ---------------------------------------------------
#
# ``()`` evaluates to a width-0 relation, and inside the engine that is an
# ``IntervalColumns`` like any other.  Every XFn and every loop form must
# take it — at top level (one environment) and inside a two-iteration
# ``for`` (several) — without a NumPy warning (CI runs this file with
# ``-W error``: a stray ``l // 0`` would raise) and in agreement with the
# Figure 3 interpreter.

from repro.compiler.planner import explain_plan  # noqa: E402
from repro.engine.evaluator import _UNARY_OPERATORS  # noqa: E402
from repro.xquery.ast import (  # noqa: E402
    Empty, Equal, FnApp, For, Let, Not, SomeEqual, Var, Where)

_EMPTY = FnApp("empty_forest")
_TWO_CORE, _TWO_DOCS = lower_query(parse_xquery('document("d")/r/a'))
_TWO_BINDINGS = {var: document_forest(f("<r><a>1</a><a>2<b/></a></r>"))
                 for var in _TWO_DOCS.values()}


def _fn(name, *args, **params):
    return FnApp(name, args, tuple(params.items()))


_ON_EMPTY = {
    **{fn: _fn(fn, _EMPTY, **({"label": "<a>"} if fn == "select" else {}))
       for fn in sorted(_UNARY_OPERATORS)},
    "child_step": _fn("select", _fn("children", _EMPTY), label="<a>"),
    "descendant_step": _fn("select", _fn("subtrees_dfs", _EMPTY), label="<a>"),
    "concat": _fn("concat", _EMPTY, _EMPTY),
    "concat_left": Let("e", _EMPTY, _fn("concat", Var("e"), _TWO_CORE)),
    "concat_right": _fn("concat", _TWO_CORE, _EMPTY),
    "xnode": _fn("xnode", _EMPTY, label="<w>"),
    "count": _fn("count", _EMPTY),
    "string_fn": _fn("string_fn", _EMPTY),
    "for_source": For("y", _EMPTY, _fn("xnode", Var("y"), label="<w>")),
    "for_body": For("y", _TWO_CORE, _EMPTY),
    "where_true": Where(Empty(_EMPTY), _TWO_CORE),
    "where_false": Where(Not(Empty(_EMPTY)), _TWO_CORE),
    "where_equal": Where(Equal(_EMPTY, _EMPTY), _fn("count", _EMPTY)),
    "join_source": For("y", _EMPTY, Where(
        SomeEqual(Var("y"), _TWO_CORE), Var("y"))),
    "join_key": For("y", _TWO_CORE, Where(
        Equal(_fn("children", Var("y")), _EMPTY), Var("y"))),
    "join_body": For("y", _TWO_CORE, Where(
        SomeEqual(Var("y"), _TWO_CORE), _EMPTY)),
}


class TestEmptySequenceEverywhere:
    # 8 bits: barely room for the document itself, so whatever can
    # overflow does, with empty relations on one side or both.
    @pytest.mark.parametrize("bits", [63, 8])
    @pytest.mark.parametrize("nested", [False, True],
                             ids=["top_level", "in_for"])
    @pytest.mark.parametrize("name", sorted(_ON_EMPTY))
    def test_engine_matches_interpreter(self, name, nested, bits,
                                        shrink_int64):
        shrink_int64(bits)
        core = _ON_EMPTY[name]
        if nested:
            # An element around each iteration's answer keeps "which
            # iteration produced what" visible in the comparison.
            core = For("i", _TWO_CORE, _fn("xnode", core, label="<it>"))
        expected = evaluate(core, _TWO_BINDINGS)
        for strategy in (JoinStrategy.NLJ, JoinStrategy.MSJ):
            plan = compile_plan(core, strategy, base_vars=_TWO_DOCS.values())
            assert ("JoinFor" in explain_plan(plan)) \
                == name.startswith("join_")
            engine = DIEngine(validate=True)
            assert engine.run_plan(plan, _TWO_BINDINGS) == expected
