"""Byte-for-byte reproduction of the paper's worked examples.

* Figure 4 — the DFS-counter interval encoding of the Figure 1 sample;
* Figure 5 — ``I`` and ``T_person`` for the initial environment of
  ``document("auction.xml")/site/people/person``;
* Figure 7 — ``I'`` and ``T'_p`` after entering the ``for`` loop
  (Example 4.3), with width 86;
* Example 1.1 / Q8 — the running example's final answer.
"""

import numpy as np

from repro.api import compile_xquery, run_xquery
from repro.compiler.plan import JoinStrategy
from repro.compiler.planner import compile_plan
from repro.encoding.interval import encode
from repro.engine import kernels
from repro.engine.columns import IntervalColumns
from repro.engine.evaluator import DIEngine, EnvSeq
from repro.xmark.queries import FIGURE1_SAMPLE

PATH_QUERY = 'document("auction.xml")/site/people/person'


def _base_env(figure1_doc):
    from repro.xquery.lowering import document_forest
    encoded = encode(document_forest((figure1_doc,)))
    return encoded, EnvSeq(np.zeros(1, dtype=np.int64), {
        "doc:auction.xml": (IntervalColumns.from_tuples(encoded.tuples),
                            encoded.width)})


def _person_rel(encoded):
    """``T_person`` at the Figure 4 coordinates: three fused child steps
    over the raw encoding (no document wrapper)."""
    rel = kernels.select_label(IntervalColumns.from_tuples(encoded.tuples),
                               "<site>")
    for step in ("<people>", "<person>"):
        rel = kernels.select_children(rel, step)
    return rel


class TestFigure4:
    def test_exact_rows(self, figure1_doc):
        encoded = encode((figure1_doc,))
        expected_prefix = [
            ("<site>", 0, 85),
            ("<people>", 1, 46),
            ("<person>", 2, 23),
            ("@id", 3, 6),
            ("person0", 4, 5),
            ("<name>", 7, 10),
            ("Jaak Tempesti", 8, 9),
        ]
        assert encoded.tuples[:7] == expected_prefix

    def test_width_86(self, figure1_doc):
        assert encode((figure1_doc,)).width == 86

    def test_closed_auction_rows(self, figure1_doc):
        encoded = encode((figure1_doc,))
        by_label = {s: (l, r) for (s, l, r) in encoded.tuples}
        assert by_label["<closed_auctions>"] == (47, 84)
        assert by_label["<closed_auction>"] == (48, 83)


class TestFigure5:
    def test_person_table(self, figure1_doc):
        _, seq = _base_env(figure1_doc)
        compiled = compile_xquery(PATH_QUERY)
        plan = compile_plan(compiled.core, JoinStrategy.MSJ,
                            base_vars=compiled.documents.values())
        engine = DIEngine()
        engine._base = seq
        rel, width = engine.evaluate(plan, seq)
        engine._base = None
        # The document node wrapper shifts the whole Figure 4 encoding by
        # one position, so person0 spans [3, 24] in wrapper coordinates;
        # strip the shift to compare against the printed figure.
        local = [(s, l - 1, r - 1) for (s, l, r) in rel]
        assert local[0] == ("<person>", 2, 23)
        assert ("@id", 3, 6) in local
        assert ("person0", 4, 5) in local
        assert ("Jaak Tempesti", 8, 9) in local
        assert ("<person>", 24, 45) in local
        assert ("http://www.washington.edu/~Rosca", 42, 43) in local
        assert len(local) == 22  # 11 nodes per person


class TestFigure7:
    def test_for_expansion(self, figure1_doc):
        """Example 4.3: entering the for loop re-blocks each person."""
        # Build T_person at exactly the paper's coordinates (no document
        # wrapper — the figure works from the raw Figure 4 encoding).
        encoded = encode((figure1_doc,))
        person_rel = _person_rel(encoded)
        width = 86
        index = kernels.roots(person_rel).l.tolist()
        assert index == [2, 24]  # the paper's I' = {2, 24}
        expanded = kernels.expand_variable(person_rel, width, index)
        rows = {(s, l, r) for (s, l, r) in expanded}
        # Paper Figure 7, environment i = 2:
        assert ("<person>", 174, 195) in rows
        assert ("@id", 175, 178) in rows
        assert ("person0", 176, 177) in rows
        assert ("Jaak Tempesti", 180, 181) in rows
        # Paper Figure 7, environment i = 24:
        assert ("<person>", 2088, 2109) in rows
        assert ("Cong Rosca", 2094, 2095) in rows
        assert ("http://www.washington.edu/~Rosca", 2106, 2107) in rows

    def test_blocks_bracket_persons(self, figure1_doc):
        """Each new environment block [i·w, (i+1)·w) brackets its person."""
        encoded = encode((figure1_doc,))
        person_rel = _person_rel(encoded)
        index = kernels.roots(person_rel).l.tolist()
        expanded = kernels.expand_variable(person_rel, 86, index)
        for s, l, r in expanded:
            block = l // 86
            assert block in (2, 24)
            assert block * 86 <= l < r < (block + 1) * 86


class TestExample11:
    """The running example: Q8 on the Figure 1 data."""

    QUERY = """
    for $p in document("auction.xml")/site/people/person
    let $a := for $t in document("auction.xml")/site/closed_auctions/closed_auction
              where $t/buyer/@person = $p/@id
              return $t
    where not(empty($a))
    return <item person="{$p/name/text()}">{count($a)}</item>
    """

    def test_answer_on_figure1(self):
        result = run_xquery(self.QUERY, {"auction.xml": FIGURE1_SAMPLE})
        assert result.to_xml() == '<item person="Cong Rosca">1</item>'

    def test_all_backends_agree(self):
        outputs = set()
        for backend, strategy in (("interpreter", "msj"), ("engine", "nlj"),
                                  ("engine", "msj"), ("sqlite", "msj")):
            result = run_xquery(self.QUERY, {"auction.xml": FIGURE1_SAMPLE},
                                backend=backend, strategy=strategy)
            outputs.add(result.to_xml())
        assert outputs == {'<item person="Cong Rosca">1</item>'}
