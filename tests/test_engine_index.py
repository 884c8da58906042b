"""The environment index ``I`` never wraps.

NumPy wraps int64 silently in array arithmetic.  A join numbers its
matched pairs ``ix · w + iy`` (Section 4), so outer environment numbers
near 2**62 take those numbers out of int64 for any source width ``w``
above two.  The join must then number its pairs densely
(``DIEngine._compact``: ``env · fan + rank``).  It may refuse with
``WidthOverflowError`` only when that dense number itself cannot be
stored, and otherwise it must answer what the Figure 3 interpreter
answers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import compile_xquery
from repro.compiler.pipeline import optimize_stage, plan_stage
from repro.compiler.plan import JoinStrategy
from repro.encoding.interval import decode
from repro.engine.columns import INT64_MAX, IntervalColumns
from repro.engine.evaluator import DIEngine, EnvSeq
from repro.errors import WidthOverflowError
from repro.xml.text_parser import parse_forest
from repro.xquery.interpreter import evaluate
from repro.xquery.lowering import document_forest

#: ``$x`` is a single text node (width 2) and so is the body's answer per
#: match: outer environments this close to the top of int64 still fit,
#: and only the pair numbers ``ix · w + iy`` do not.
QUERY = ('for $x in document("d.xml")/r/a/text() '
         'for $y in document("d.xml")/r/b '
         'where $x = $y/c/text() return $y/v/text()')


def document(matches_of_p: int) -> str:
    """Three outer keys ``p``, ``q``, ``s``; ``p`` matches
    ``matches_of_p`` records, ``q`` one and ``s`` none."""
    records = ["<b><c>p</c><v>%d</v></b>" % k for k in range(matches_of_p)]
    return ("<r><a>p</a><a>q</a><a>s</a>" + "".join(records)
            + "<b><c>q</c><v>q</v></b><b><c>z</c><v>z</v></b></r>")


def join_at(first_env: int, text: str, strategy: JoinStrategy):
    """``(answer, expected, document width)``: the query's join evaluated
    with its outer environments numbered from ``first_env`` on, and the
    interpreter's answer to the whole query."""
    compiled = compile_xquery(QUERY)
    plan = optimize_stage(plan_stage(compiled.core, strategy,
                                     base_vars=compiled.documents.values()))
    forest = document_forest(parse_forest(text))
    bindings = {var: forest for var in compiled.documents.values()}
    expected = evaluate(compiled.core, bindings)

    engine = DIEngine(validate=True)
    keys, _width = engine.run_plan_encoded(plan.source, bindings)
    labels = keys.labels()[keys.d == 0].tolist()
    envs = first_env + np.arange(len(labels), dtype=np.int64)
    bound = IntervalColumns.from_tuples(
        [(label, 2 * env, 2 * env + 1)
         for label, env in zip(labels, envs.tolist())])
    values = {var: DIEngine.prepare_document(forest)
              for var in compiled.documents.values()}
    engine._base = EnvSeq(np.zeros(1, dtype=np.int64), values)
    try:
        seq = EnvSeq(envs, {plan.var: (bound, 2)})
        # The body reads the loop's lifted chains: bind them per
        # environment, as the chains over the expanded variable.
        seq.vars.update({lifted.name: engine.evaluate(lifted.chain, seq)
                         for lifted in plan.lifted})
        rel, _width = engine.evaluate(plan.body, seq)
    finally:
        engine._base = None
    (doc_width,) = {width for _rel, width in values.values()}
    return decode(rel), expected, doc_width


@pytest.mark.parametrize("strategy", list(JoinStrategy))
@pytest.mark.parametrize("first_env, matches_of_p", [
    (2 ** 62 - 8, 1),  # one pair per environment: fan 1
    (2 ** 60, 2),      # two pairs for p: fan 2, numbers near 2**61
])
def test_pair_numbers_compact_instead_of_wrapping(first_env, matches_of_p,
                                                  strategy, shrink_int64):
    remedies = shrink_int64(63)  # the real limit, remedies counted
    answer, expected, doc_width = join_at(first_env, document(matches_of_p),
                                          strategy)
    assert first_env * doc_width > INT64_MAX  # ix · w + iy leaves int64
    assert remedies["compact"] == 1
    assert answer == expected
    assert len(expected) == matches_of_p + 1


@pytest.mark.parametrize("strategy", list(JoinStrategy))
def test_refused_only_when_dense_numbers_leave_int64(strategy, shrink_int64):
    """Three pairs for ``p`` at 2**62 − 8: ``env · 3`` itself is past
    int64, and nothing smaller numbers three iterations apart."""
    shrink_int64(63)
    assert (2 ** 62 - 8) * 3 > INT64_MAX
    with pytest.raises(WidthOverflowError, match="even when dense"):
        join_at(2 ** 62 - 8, document(3), strategy)
