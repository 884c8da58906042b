"""Per-operator SQL templates (Section 4.1, lifted over environments, 4.2.1).

Every relation of the SQL path is ``(e, s, l, r, d)``: the paper's
``(s, l, r)`` plus two columns that are *derived once, where a row is
produced, and carried after* — ``e`` the environment number (``l / w`` for
a relation of width ``w``; blocks are disjoint, Definition 3.3, so it is a
function of ``l`` and adds no information) and ``d`` the depth within that
environment's forest.  They turn the two things every template asks — "is
this a root", "same environment" — into ``d = 0`` and an equality on ``e``
that an index can serve.

Each XFn has a template builder producing the SQL for one CTE that computes
``T_XFn(e1,…,ek)`` from the argument CTEs, *already lifted* over the
sequence of environments: instead of extracting each environment's local
encoding, applying the single-forest template, and shifting back (the
paper's three-layer presentation), the builders fold the shift arithmetic
into the template — a tuple of environment ``e`` moves from input width to
output width by

    l_out  =  l_in + e · (w_out − w_in) + local_offset

in one expression.  Zero-width (provably empty) inputs are skipped.

Output widths are Section 4.3's, read from the XFn registry
(:func:`~repro.xquery.functions.width_of`) once per instantiation and
handed to the builder.  Builders return :class:`TemplateResult`: the SQL
text of the main CTE and any helper CTEs (e.g. DFS-sequence views for
``sort`` / ``distinct``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

from repro.errors import TranslationError
from repro.sql.labels import (
    is_element_predicate,
    is_text_predicate,
    sql_string,
)
from repro.sql.structural import (
    ROOT_SEQUENCE_KEY,
    ROOTS_ID_KEY,
    root_sequence_sql,
    roots_id_sql,
    subtree_of,
    tree_equal_predicate,
    tree_less_predicate,
)
from repro.xquery.functions import width_of

#: Allocate a fresh CTE name with the given hint.
Namer = Callable[[str], str]


@dataclass(frozen=True)
class Rel:
    """A translated expression: the CTE (or table) holding it plus its width."""

    table: str
    width: int


@dataclass
class TemplateResult:
    """Output of a template builder."""

    sql: str
    #: Helper CTEs as (name, sql, index key or None), to be emitted before
    #: the main CTE.
    helpers: list[tuple[str, str, str | None]] = field(default_factory=list)


EMPTY_SQL = ("SELECT NULL AS e, NULL AS s, NULL AS l, NULL AS r, NULL AS d "
             "WHERE 0")


def build_template(fn: str, params: Mapping[str, str], args: list[Rel],
                   index: str, namer: Namer) -> tuple[TemplateResult, int]:
    """Build the SQL template for ``fn`` over already-translated
    arguments; returns it with its output width, the registry's."""
    try:
        builder = _BUILDERS[fn]
    except KeyError:
        raise TranslationError(f"no SQL template for XFn {fn!r}") from None
    width = width_of(fn, tuple(arg.width for arg in args), params)
    return builder(params, args, width, index, namer), width


def _per_environment(index: str, label: str, width: int,
                     source: str = "") -> TemplateResult:
    """One childless node labelled ``label`` per environment of ``index``,
    in blocks of ``width``."""
    sql = (
        f"SELECT idx.i AS e, {label} AS s,\n"
        f"       idx.i * {width} AS l, idx.i * {width} + 1 AS r, 0 AS d\n"
        f"  FROM {index} idx{source}"
    )
    return TemplateResult(sql)


def _forest_to_forest(build: Callable[..., TemplateResult]):
    """Lift ``build(params, arg, width, namer)`` to a builder: an empty
    argument is an empty result, whatever the template."""
    def builder(params, args, width, index, namer) -> TemplateResult:
        (arg,) = args
        if arg.width == 0:
            return TemplateResult(EMPTY_SQL)
        return build(params, arg, width, namer)
    return builder


def _build_empty_forest(params, args, width, index, namer) -> TemplateResult:
    return TemplateResult(EMPTY_SQL)


def _build_text_const(params, args, width, index, namer) -> TemplateResult:
    return _per_environment(index, sql_string(params["value"]), width)


def _build_xnode(params, args, width, index, namer) -> TemplateResult:
    (arg,) = args
    label = sql_string(params["label"])
    root_branch = (
        f"SELECT idx.i AS e, {label} AS s, idx.i * {width} AS l,\n"
        f"       idx.i * {width} + {width - 1} AS r, 0 AS d\n"
        f"  FROM {index} idx"
    )
    if arg.width == 0:
        return TemplateResult(root_branch)
    delta = width - arg.width
    content_branch = (
        f"SELECT e, s, l + e * {delta} + 1 AS l, r + e * {delta} + 1 AS r, "
        f"d + 1 AS d\n"
        f"  FROM {arg.table}"
    )
    return TemplateResult(f"{root_branch}\nUNION ALL\n{content_branch}")


def _build_concat(params, args, width, index, namer) -> TemplateResult:
    left, right = args
    branches: list[str] = []
    if left.width > 0:
        delta = width - left.width
        branches.append(
            f"SELECT e, s, l + e * {delta} AS l, r + e * {delta} AS r, d\n"
            f"  FROM {left.table}"
        )
    if right.width > 0:
        delta = width - right.width
        branches.append(
            f"SELECT e, s, l + e * {delta} + {left.width} AS l,\n"
            f"       r + e * {delta} + {left.width} AS r, d\n"
            f"  FROM {right.table}"
        )
    if not branches:
        return TemplateResult(EMPTY_SQL)
    return TemplateResult("\nUNION ALL\n".join(branches))


@_forest_to_forest
def _build_roots(params, arg, width, namer) -> TemplateResult:
    return TemplateResult(f"SELECT e, s, l, r, d FROM {arg.table} WHERE d = 0")


@_forest_to_forest
def _build_children(params, arg, width, namer) -> TemplateResult:
    return TemplateResult(
        f"SELECT e, s, l, r, d - 1 AS d FROM {arg.table} WHERE d >= 1")


def _root_filter(arg: Rel, root_predicate: str, helpers=()) -> TemplateResult:
    """Keep whole trees whose root (alias ``rt``) satisfies ``root_predicate``:
    a range join from the ``d = 0`` rows to their subtrees."""
    sql = (
        f"SELECT u.e, u.s, u.l, u.r, u.d\n"
        f"  FROM {arg.table} rt\n"
        f"  JOIN {arg.table} u ON {subtree_of('rt')}\n"
        f" WHERE rt.d = 0 AND {root_predicate}"
    )
    return TemplateResult(sql, list(helpers))


@_forest_to_forest
def _build_select(params, arg, width, namer) -> TemplateResult:
    return _root_filter(arg, f"rt.s = {sql_string(params['label'])}")


@_forest_to_forest
def _build_textnodes(params, arg, width, namer) -> TemplateResult:
    return _root_filter(arg, is_text_predicate("rt.s"))


@_forest_to_forest
def _build_elementnodes(params, arg, width, namer) -> TemplateResult:
    return _root_filter(arg, is_element_predicate("rt.s"))


def _first_left(arg: Rel) -> str:
    """Left endpoint of ``rt``'s environment's first row — its first root."""
    return f"(SELECT MIN(fr.l) FROM {arg.table} fr WHERE fr.e = rt.e)"


@_forest_to_forest
def _build_head(params, arg, width, namer) -> TemplateResult:
    return _root_filter(arg, f"rt.l = {_first_left(arg)}")


@_forest_to_forest
def _build_tail(params, arg, width, namer) -> TemplateResult:
    return _root_filter(arg, f"rt.l > {_first_left(arg)}")


@_forest_to_forest
def _build_reverse(params, arg, width, namer) -> TemplateResult:
    # Local reversal: a root spanning local [a, b] moves to [w-1-b, w-1-a],
    # and its descendants shift with it; in global coordinates the shift is
    # (w - 1 - r.r - r.l + 2·e·w).
    shift = f"{width - 1} - rt.r - rt.l + 2 * u.e * {width}"
    sql = (
        f"SELECT u.e, u.s, u.l + {shift} AS l, u.r + {shift} AS r, u.d\n"
        f"  FROM {arg.table} rt\n"
        f"  JOIN {arg.table} u ON {subtree_of('rt')}\n"
        f" WHERE rt.d = 0"
    )
    return TemplateResult(sql)


@_forest_to_forest
def _build_subtrees_dfs(params, arg, wout, namer) -> TemplateResult:
    win = arg.width
    # The copy rooted at node v is placed at block offset (v.l mod w_in)·w_in
    # inside the e-th output block; nodes keep their offset — and their
    # depth — from v.
    base = f"u.e * {wout} + (v.l - u.e * {win}) * {win}"
    sql = (
        f"SELECT u.e, u.s, {base} + (u.l - v.l) AS l,\n"
        f"       {base} + (u.r - v.l) AS r, u.d - v.d AS d\n"
        f"  FROM {arg.table} v\n"
        f"  JOIN {arg.table} u ON {subtree_of('v')}"
    )
    return TemplateResult(sql)


def _build_count(params, args, width, index, namer) -> TemplateResult:
    (arg,) = args
    if arg.width == 0:
        return _per_environment(index, "'0'", width)
    return _per_environment(
        index, "CAST(COUNT(x.l) AS TEXT)", width,
        f"\n  LEFT JOIN {arg.table} x ON x.e = idx.i AND x.d = 0\n"
        f" GROUP BY idx.i")


@_forest_to_forest
def _build_data(params, arg, width, namer) -> TemplateResult:
    # Text roots, plus text children of non-text roots; descendants of kept
    # tuples are dropped, so results decode as childless text nodes.
    sql = (
        f"SELECT e, s, l, r, d FROM {arg.table}\n"
        f" WHERE d = 0 AND {is_text_predicate('s')}\n"
        f"UNION ALL\n"
        f"SELECT u.e, u.s, u.l, u.r, 0 AS d\n"
        f"  FROM {arg.table} rt\n"
        f"  JOIN {arg.table} u ON {subtree_of('rt')}\n"
        f" WHERE rt.d = 0 AND NOT {is_text_predicate('rt.s')}\n"
        f"   AND u.d = 1 AND {is_text_predicate('u.s')}"
    )
    return TemplateResult(sql)


def _build_string_fn(params, args, width, index, namer) -> TemplateResult:
    (arg,) = args
    if arg.width == 0:
        return _per_environment(index, "''", width)
    # The whole-partition frame gives every text row of an environment the
    # full concatenation in document order; DISTINCT keeps one.
    texts = (
        f"SELECT DISTINCT e, GROUP_CONCAT(s, '') OVER (\n"
        f"           PARTITION BY e ORDER BY l\n"
        f"           ROWS BETWEEN UNBOUNDED PRECEDING\n"
        f"                    AND UNBOUNDED FOLLOWING) AS s\n"
        f"          FROM {arg.table} WHERE {is_text_predicate('s')}"
    )
    return _per_environment(
        index, "COALESCE(x.s, '')", width,
        f"\n  LEFT JOIN ({texts}) x ON x.e = idx.i")


@_forest_to_forest
def _build_distinct(params, arg, width, namer) -> TemplateResult:
    seq = namer("rseq")
    equal_earlier = tree_equal_predicate(seq, seq, "eb.l", "rt.l")
    predicate = (
        f"NOT EXISTS (SELECT 1 FROM {arg.table} eb\n"
        f"             WHERE eb.e = rt.e AND eb.d = 0 AND eb.l < rt.l\n"
        f"               AND {equal_earlier})"
    )
    return _root_filter(
        arg, predicate,
        [(seq, root_sequence_sql(arg.table), ROOT_SEQUENCE_KEY)])


@_forest_to_forest
def _build_sort(params, arg, wout, namer) -> TemplateResult:
    win = arg.width
    seq = namer("rseq")
    roots = namer("rids")
    rank = namer("rank")
    less = tree_less_predicate(seq, seq, "b.root", "rt.root")
    equal = tree_equal_predicate(seq, seq, "b.root", "rt.root")
    rank_sql = (
        f"SELECT rt.e AS e, rt.l AS l, rt.r AS r,\n"
        f"       ((SELECT COUNT(*) FROM {roots} b\n"
        f"          WHERE b.e = rt.e AND {less})\n"
        f"        + (SELECT COUNT(*) FROM {roots} b\n"
        f"            WHERE b.e = rt.e AND b.root < rt.root AND {equal})\n"
        f"       ) AS rnk\n"
        f"  FROM {roots} rt"
    )
    helpers = [
        (seq, root_sequence_sql(arg.table), ROOT_SEQUENCE_KEY),
        (roots, roots_id_sql(arg.table), ROOTS_ID_KEY),
        (rank, rank_sql, None),
    ]
    # Tree ranked k in environment e lands at block offset k·w_in inside the
    # e-th output block of width w_in²; nodes keep their offset from the root.
    base = f"u.e * {wout} + rt.rnk * {win}"
    sql = (
        f"SELECT u.e, u.s, {base} + (u.l - rt.l) AS l,\n"
        f"       {base} + (u.r - rt.l) AS r, u.d\n"
        f"  FROM {rank} rt\n"
        f"  JOIN {arg.table} u ON {subtree_of('rt')}"
    )
    return TemplateResult(sql, helpers)


_BUILDERS: dict[str, Callable[..., TemplateResult]] = {
    "empty_forest": _build_empty_forest,
    "text_const": _build_text_const,
    "xnode": _build_xnode,
    "concat": _build_concat,
    "roots": _build_roots,
    "children": _build_children,
    "select": _build_select,
    "textnodes": _build_textnodes,
    "elementnodes": _build_elementnodes,
    "head": _build_head,
    "tail": _build_tail,
    "reverse": _build_reverse,
    "subtrees_dfs": _build_subtrees_dfs,
    "count": _build_count,
    "data": _build_data,
    "string_fn": _build_string_fn,
    "distinct": _build_distinct,
    "sort": _build_sort,
}
