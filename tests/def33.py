"""Definition 3.3 read literally: the one reference for the kernels.

A sequence of environments is an index ``I`` plus, per variable, one
relation in which environment ``i``'s forest occupies the block ``[i·w,
(i+1)·w)``.  :func:`encode_sequence` builds such a relation from forests
and :func:`env_forests` reads it back block by block; read without ``I``,
the same relation is the concatenation of the blocks (Section 3's free
loop exit).

A relational operator implements an XFn when, for every environment of
the index, decoding its output block gives the Figure 2 operator —
``FUNCTIONS[fn].impl``, the function the interpreter runs — applied to
the decoded input blocks.  :func:`check` holds one kernel call to that,
with its output width equal to Section 4.3's rule (``FUNCTIONS[fn].width``)
and its output passing :func:`~repro.engine.validate.validate_value`,
near the origin, ``FAR_ENV`` environments out (where a 32-bit slip or a
wrapped product would show) and with the output's last block ending
just below 2⁶², where no environment number may be multiplied by
anything but the width.
"""

from __future__ import annotations

from repro.encoding.interval import decode, encode
from repro.engine.columns import IntervalColumns
from repro.engine.validate import validate_value
from repro.xquery.functions import FUNCTIONS

#: Env shift that keeps every coordinate inside int64 but far from zero.
FAR_ENV = 2 ** 40


def encode_sequence(forests, width: int | None = None):
    """``(index, rows, width)`` of ``forests`` as environments ``0 … n-1``;
    ``width`` defaults to the widest forest's encoding width (Def 3.3's
    ``w = max w_k``)."""
    encodings = [encode(forest) for forest in forests]
    if width is None:
        width = max((enc.width for enc in encodings), default=0)
    rows = []
    for i, enc in enumerate(encodings):
        assert enc.width <= width, (
            f"forest {i} needs width {enc.width}, exceeding block width {width}")
        rows += [(s, l + i * width, r + i * width) for s, l, r in enc.tuples]
    return list(range(len(forests))), rows, width


def env_forests(rel, width: int, index) -> list:
    """Decode the block of every environment of ``index`` (an
    environment without rows holds the empty forest)."""
    blocks: dict[int, list] = {}
    for row in (rel.tuples() if isinstance(rel, IntervalColumns) else rel):
        blocks.setdefault(row[1] // width, []).append(row)
    return [decode(blocks.get(env, [])) for env in index]


def placements(width: int, index) -> tuple[int, ...]:
    """Env shifts: none, ``FAR_ENV``, and blocks of ``width`` up to just
    below 2⁶²."""
    return 0, FAR_ENV, max(2 ** 62 // width - 8 - max(index, default=0), 0)


def check(fns, kernel, sides, index, params=None) -> None:
    """Def 3.3 for ``kernel(cols₁, w₁, …, index)`` against the XFn
    ``fns`` (a name, or a tuple of names applied innermost first, for a
    fused kernel).  ``sides`` holds ``(rows, width)`` per argument,
    ``index`` the ascending environments; a kernel returns its relation,
    or ``(relation, width)`` when it computes the width itself."""
    params = params or {}
    specs = [FUNCTIONS[fn] for fn in ((fns,) if isinstance(fns, str) else fns)]
    widths_in = widths = tuple(width for _rows, width in sides)
    for spec in specs:
        widths = (spec.width(widths, params),)
    (width,) = widths
    expected = []
    inputs = zip(*(env_forests(rows, w, index) for rows, w in sides)) \
        if sides else [()] * len(index)
    for forests in inputs:
        for spec in specs:
            forests = (spec.impl(forests, params),)
        expected.append(forests[0])
    for shift in placements(max((width, *widths_in)), index):
        envs = [env + shift for env in index]
        args = []
        for rows, w in sides:
            args += [IntervalColumns.from_tuples(
                [(s, l + shift * w, r + shift * w) for s, l, r in rows]), w]
        result = kernel(*args, envs)
        if isinstance(result, tuple):
            result, returned = result
            assert returned == width
        validate_value(result, width, envs, context=str(fns))
        assert env_forests(result, width, envs) == expected, fns


def unary(fns, kernel, rows, width: int, index, **params) -> None:
    """:func:`check` for a kernel called as ``kernel(cols, width)``."""
    check(fns, lambda cols, w, _envs: kernel(cols, w), [(rows, width)],
          index, params)
