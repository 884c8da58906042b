"""Compositional translation of core expressions to a single SQL statement.

This is the Section 4.2 construction.  The translation context carries

* an **index CTE** holding the current environment indices ``I``, and
* a mapping from variables to :class:`~repro.sql.templates.Rel` — the CTE
  holding ``T_x`` plus its width ``w_x``.

Every relation is ``(e, s, l, r, d)`` — the paper's triple plus the carried
environment number and depth (see :mod:`repro.sql.templates`).  Every core
construct appends CTEs:

``XFn``
    one CTE per operator template (Section 4.2.1), lifted over environments
    by re-blocking on ``e``.

``let x = e in e'``
    no new CTEs — the environment mapping is extended (Section 4.2.2).

``where φ return e``
    a new index CTE keeping the indices satisfying the translated
    condition, plus one restriction CTE per variable free in the body
    (Section 4.2.3).

``for x in e do e'``
    the new index ``I' = {root left endpoints}`` of ``T_e``'s ``d = 0``
    rows (these are exactly the paper's ``i·w_e + r.l`` in global
    coordinates), the re-blocked ``T'_x`` and ``T'_y`` CTEs, the body's
    CTEs, and the loop's "exit": the body's rows re-read at width
    ``w_e · w_e'`` keep ``l``, ``r`` and ``d``, and ``e`` — the one column
    that names the block — is divided back by ``w_e`` (Section 4.2.4).

The output is one statement::

    WITH c0_… AS (…), c1_… AS (…), … SELECT s, l, r FROM c…  ORDER BY l

Invariants maintained throughout: every emitted CTE only contains tuples
whose ``e`` belongs to the context's index CTE, so no template resurrects
a filtered-out environment; and in every relation of width ``w``,
``e = l / w`` and ``d`` counts the row's proper ancestors in its block
(``tests/test_sql_carried_columns.py`` recomputes both from ``(l, r)``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Mapping

from repro.errors import (
    TranslationError,
    UnboundVariableError,
    WidthOverflowError,
)
from repro.sql import structural
from repro.sql.templates import EMPTY_SQL, Rel, build_template
from repro.xquery.ast import (
    And,
    Condition,
    CoreExpr,
    Empty,
    Equal,
    FnApp,
    For,
    Less,
    Let,
    Not,
    Or,
    SomeEqual,
    Var,
    Where,
    free_variables,
)

#: Sentinel substituted with the environment index expression when a
#: condition predicate is placed inside an index-filter CTE.
ENV_SENTINEL = "__ENV__"

_EMPTY_SEQ_SQL = (
    "SELECT NULL AS e, NULL AS pos, NULL AS depth, NULL AS s WHERE 0"
)


@dataclass(frozen=True)
class _Ctx:
    """Translation context: the current index CTE and variable bindings."""

    index: str
    vars: Mapping[str, Rel]


@dataclass
class TranslationResult:
    """A complete translation: one SQL statement plus metadata.

    ``sql`` is the single-statement form (one ``WITH`` chain).  ``ctes``
    and ``final_select`` expose the same query in pieces: SQLite clones CTE
    parse trees once per reference, so deeply composed queries can exceed
    its 65535-references-per-table limit in single-statement form; the
    backend then materializes each CTE as a temp table instead — the same
    query, staged (see :mod:`repro.sql.sqlite_backend`).
    """

    sql: str
    width: int
    cte_count: int
    #: The name of the CTE holding the final encoded result.
    result_table: str
    #: The (name, sql) CTE chain in dependency order.
    ctes: list[tuple[str, str]] = field(default_factory=list)
    #: The final SELECT reading ``result_table``.
    final_select: str = ""
    #: CTE name → width, for the CTEs that hold an encoding
    #: ``(e, s, l, r, d)``; the rest are indices and comparison views.
    relations: dict[str, int] = field(default_factory=dict)
    #: CTE name → the columns a comparison view is looked up by.
    view_keys: dict[str, str] = field(default_factory=dict)

    def __str__(self) -> str:
        return self.sql


class SQLTranslator:
    """Translate core expressions into single SQL statements.

    ``max_width`` bounds the per-expression block width; exceeding it
    raises :class:`WidthOverflowError`.  SQLite stores 64-bit integers and
    coordinates can exceed the width by one environment-index factor, so
    the backend uses a conservative default of ``2**61``.
    """

    def __init__(self, max_width: int | None = None):
        self.max_width = max_width
        self._counter = itertools.count()
        self._ctes: list[tuple[str, str]] = []
        self._relations: dict[str, int] = {}
        self._view_keys: dict[str, str] = {}

    # -- public API ------------------------------------------------------------

    def translate(self, expr: CoreExpr,
                  documents: Mapping[str, tuple[str, int]]) -> TranslationResult:
        """Translate ``expr`` given base tables for its free variables.

        ``documents`` maps variable names to ``(table_name, width)`` pairs
        for relations already holding valid interval encodings in
        environment block 0.
        """
        self._counter = itertools.count()
        self._ctes = []
        self._relations = {}
        self._view_keys = {}
        index = self._add("init_idx", "SELECT 0 AS i")
        ctx = _Ctx(index, {name: Rel(table, width)
                           for name, (table, width) in documents.items()})
        result = self._translate(expr, ctx)
        body = ",\n".join(
            f"{name} AS MATERIALIZED (\n{sql}\n)" for name, sql in self._ctes
        )
        final_select = f"SELECT s, l, r FROM {result.table} ORDER BY l"
        sql = f"WITH {body}\n{final_select}"
        return TranslationResult(sql, result.width, len(self._ctes),
                                 result.table, list(self._ctes), final_select,
                                 self._relations, self._view_keys)

    # -- CTE plumbing ------------------------------------------------------------

    def _fresh(self, hint: str) -> str:
        return f"c{next(self._counter)}_{hint}"

    def _add(self, hint: str, sql: str, key: str | None = None) -> str:
        return self._emit(self._fresh(hint), sql, key)

    def _emit(self, name: str, sql: str, key: str | None) -> str:
        self._ctes.append((name, sql))
        if key is not None:
            self._view_keys[name] = key
        return name

    def _add_relation(self, hint: str, sql: str, width: int) -> Rel:
        """Append a CTE that holds an encoding of ``width``."""
        name = self._add(hint, sql)
        self._relations[name] = width
        return Rel(name, width)

    def _check_width(self, width: int, context: str) -> int:
        if self.max_width is not None and width > self.max_width:
            raise WidthOverflowError(
                f"inferred width {width} for {context} exceeds the backend "
                f"limit {self.max_width}; the width of nested for-blocks "
                f"grows as a polynomial whose degree is the nesting depth "
                f"(Section 4.3) — reduce document size or nesting"
            )
        return width

    # -- expression translation ----------------------------------------------------

    def _translate(self, expr: CoreExpr, ctx: _Ctx) -> Rel:
        if isinstance(expr, Var):
            try:
                return ctx.vars[expr.name]
            except KeyError:
                raise UnboundVariableError(expr.name) from None
        if isinstance(expr, FnApp):
            return self._translate_fnapp(expr, ctx)
        if isinstance(expr, Let):
            value = self._translate(expr.value, ctx)
            inner = dict(ctx.vars)
            inner[expr.var] = value
            return self._translate(expr.body, _Ctx(ctx.index, inner))
        if isinstance(expr, Where):
            return self._translate_where(expr, ctx)
        if isinstance(expr, For):
            return self._translate_for(expr, ctx)
        raise TranslationError(f"cannot translate {type(expr).__name__}")

    def _translate_fnapp(self, expr: FnApp, ctx: _Ctx) -> Rel:
        args = [self._translate(arg, ctx) for arg in expr.args]
        result = build_template(expr.fn, dict(expr.params), args,
                                ctx.index, self._fresh)
        for helper in result.helpers:
            self._emit(*helper)
        self._check_width(result.width, f"XFn {expr.fn}")
        return self._add_relation(expr.fn, result.sql, result.width)

    def _translate_where(self, expr: Where, ctx: _Ctx) -> Rel:
        predicate = self._translate_condition(expr.condition, ctx)
        filtered = self._add(
            "where_idx",
            f"SELECT idx.i AS i FROM {ctx.index} idx\n"
            f" WHERE {predicate.replace(ENV_SENTINEL, 'idx.i')}",
        )
        inner_vars = dict(ctx.vars)
        for name in sorted(free_variables(expr.body)):
            rel = ctx.vars.get(name)
            if rel is None or rel.width == 0:
                continue
            inner_vars[name] = self._add_relation(
                "restrict",
                f"SELECT t.e, t.s, t.l, t.r, t.d FROM {filtered} idx\n"
                f"  JOIN {rel.table} t ON t.e = idx.i",
                rel.width)
        return self._translate(expr.body, _Ctx(filtered, inner_vars))

    def _translate_for(self, expr: For, ctx: _Ctx) -> Rel:
        source = self._translate(expr.source, ctx)
        if source.width == 0:
            return self._add_relation("for_empty", EMPTY_SQL, 0)
        ws = source.width
        # I' — one environment per iterated tree; the global left endpoint of
        # a root is the paper's i·w_e + r.l in one number, and it is unique
        # and document-ordered across all environments.  The root's old
        # environment and right endpoint ride along for the two joins below.
        index = self._add(
            "for_idx",
            f"SELECT l AS i, e, r FROM {source.table} WHERE d = 0")
        bound = self._add_relation(
            "for_var",
            f"SELECT rt.i AS e, u.s, u.l + (rt.i - u.e) * {ws} AS l,\n"
            f"       u.r + (rt.i - u.e) * {ws} AS r, u.d\n"
            f"  FROM {index} rt\n"
            f"  JOIN {source.table} u\n"
            f"    ON u.e = rt.e AND u.l >= rt.i AND u.l <= rt.r",
            ws)
        inner_vars: dict[str, Rel] = {expr.var: bound}
        outer_needed = free_variables(expr.body) - {expr.var}
        for name in sorted(outer_needed):
            rel = ctx.vars.get(name)
            if rel is None:
                continue  # unbound — let the body translation raise
            if rel.width == 0:
                inner_vars[name] = rel
                continue
            wy = rel.width
            # Duplicate the outer binding once per new environment — this
            # cross product is exactly the data blow-up that makes naive
            # nested-loop evaluation quadratic.
            inner_vars[name] = self._add_relation(
                "for_outer",
                f"SELECT rt.i AS e, y.s, y.l + (rt.i - y.e) * {wy} AS l,\n"
                f"       y.r + (rt.i - y.e) * {wy} AS r, y.d\n"
                f"  FROM {index} rt\n"
                f"  JOIN {rel.table} y ON y.e = rt.e",
                wy)
        for name, rel in ctx.vars.items():
            inner_vars.setdefault(name, rel)
        body = self._translate(expr.body, _Ctx(index, inner_vars))
        if body.width == 0:
            return body
        width = self._check_width(ws * body.width, f"for ${expr.var}")
        # Exit: the rows stay where they are — block e of width w_body is
        # the (e mod w_e)-th slice of block e / w_e of width w_e · w_body.
        return self._add_relation(
            "for_exit",
            f"SELECT e / {ws} AS e, s, l, r, d FROM {body.table}",
            width)

    # -- condition translation --------------------------------------------------------

    def _translate_condition(self, condition: Condition, ctx: _Ctx) -> str:
        """Translate φ to a boolean SQL expression over ``__ENV__``.

        Conjunctions are emitted as written: evaluation order is left to
        SQLite's planner, as the statement's join order is.
        """
        if isinstance(condition, Empty):
            rel = self._translate(condition.expr, ctx)
            if rel.width == 0:
                return "(1 = 1)"
            return (f"NOT EXISTS (SELECT 1 FROM {rel.table}"
                    f" WHERE e = {ENV_SENTINEL})")
        if isinstance(condition, Equal):
            left = self._env_sequence(self._translate(condition.left, ctx))
            right = self._env_sequence(self._translate(condition.right, ctx))
            return structural.forest_equal_predicate(left, right, ENV_SENTINEL)
        if isinstance(condition, Less):
            left = self._env_sequence(self._translate(condition.left, ctx))
            right = self._env_sequence(self._translate(condition.right, ctx))
            return structural.forest_less_predicate(left, right, ENV_SENTINEL)
        if isinstance(condition, SomeEqual):
            return self._translate_some_equal(condition, ctx)
        if isinstance(condition, Not):
            return f"NOT ({self._translate_condition(condition.condition, ctx)})"
        if isinstance(condition, And):
            left = self._translate_condition(condition.left, ctx)
            right = self._translate_condition(condition.right, ctx)
            return f"(({left}) AND ({right}))"
        if isinstance(condition, Or):
            left = self._translate_condition(condition.left, ctx)
            right = self._translate_condition(condition.right, ctx)
            return f"(({left}) OR ({right}))"
        raise TranslationError(f"cannot translate {type(condition).__name__}")

    def _translate_some_equal(self, condition: SomeEqual, ctx: _Ctx) -> str:
        left = self._translate(condition.left, ctx)
        right = self._translate(condition.right, ctx)
        if left.width == 0 or right.width == 0:
            return "(1 = 0)"
        left_roots, right_roots = (
            self._add("se_roots", structural.roots_id_sql(rel.table),
                      structural.ROOTS_ID_KEY) for rel in (left, right))
        left_seq, right_seq = (
            self._add("se_seq", structural.root_sequence_sql(rel.table),
                      structural.ROOT_SEQUENCE_KEY) for rel in (left, right))
        equal = structural.tree_equal_predicate(left_seq, right_seq,
                                                "sa.root", "sb.root")
        return (
            f"EXISTS (SELECT 1 FROM {left_roots} sa\n"
            f"          JOIN {right_roots} sb ON sb.e = {ENV_SENTINEL}\n"
            f"         WHERE sa.e = {ENV_SENTINEL}\n"
            f"           AND {equal})"
        )

    def _env_sequence(self, rel: Rel) -> str:
        if rel.width == 0:
            return self._add("seq_empty", _EMPTY_SEQ_SQL)
        return self._add("seq", structural.env_sequence_sql(rel.table),
                         structural.ENV_SEQUENCE_KEY)


def translate_query(expr: CoreExpr,
                    documents: Mapping[str, tuple[str, int]],
                    max_width: int | None = None) -> TranslationResult:
    """Convenience wrapper around :class:`SQLTranslator`."""
    return SQLTranslator(max_width=max_width).translate(expr, documents)
