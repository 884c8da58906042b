"""SQL fragments for structural (deep) comparison of encoded forests.

The paper notes (Section 5) that deep comparison *can* be expressed in SQL
with counting, and introduces a physical operator because the SQL form is
slow.  This module is that SQL form: it is used by the SQLite backend — the
"stock relational engine" path — while the DI engine compares integer
span ids and collation-ranked byte keys (:mod:`repro.engine.kernels`).

The key observation: a forest is uniquely determined by its DFS sequence of
``(position, depth, label)`` triples, where ``position`` is the 1-based DFS
rank and ``depth`` the number of proper ancestors.  Two forests are equal
iff the sequences are identical, and structurally ordered by the first
differing position — *greater depth sorts greater* (a missing sibling makes
the shallower forest smaller), then label order, with a proper prefix
sorting smaller.  Interval encodings need not be tight, so comparisons must
use these rank-normalized sequences, never raw endpoints.

Every relation here is ``(e, s, l, r, d)`` (see :mod:`repro.sql.templates`):
the depth is the carried ``d`` and the rank a window ``ROW_NUMBER``, so a
sequence view is one pass over its relation.
"""

from __future__ import annotations


#: What a backend that materialises a view should index it on: the
#: predicates below look a sequence up by owner and position, roots by
#: environment.
ENV_SEQUENCE_KEY = "e, pos"
ROOT_SEQUENCE_KEY = "root, pos"
ROOTS_ID_KEY = "e"


def subtree_of(root: str, node: str = "u") -> str:
    """Join predicate: ``node`` lies in the subtree of ``root`` (self included).

    Blocks are disjoint, so the range alone implies the environment; the
    ``e`` equality is what lets an ``(e, l)`` index — or, with no index at
    all, an automatic one on ``e`` — serve the join.
    """
    return (f"{node}.e = {root}.e AND {node}.l >= {root}.l "
            f"AND {node}.l <= {root}.r")


def env_sequence_sql(table: str) -> str:
    """A per-environment DFS sequence view over an encoded relation.

    Columns: ``e`` (environment), ``pos`` (1-based DFS rank within the
    environment), ``depth`` (proper ancestors within the environment),
    ``s`` (label).
    """
    return (
        f"SELECT e, ROW_NUMBER() OVER (PARTITION BY e ORDER BY l) AS pos,\n"
        f"       d AS depth, s\n"
        f"  FROM {table}"
    )


def root_sequence_sql(table: str) -> str:
    """A per-tree DFS sequence view: one sequence per root of each env.

    Columns: ``e``, ``root`` (the root's left endpoint — a unique tree
    id), ``pos`` (1-based DFS rank within the tree), ``depth`` (ancestors
    within the tree), ``s``.
    """
    return (
        f"SELECT rt.e AS e, rt.l AS root, u.s AS s,\n"
        f"       ROW_NUMBER() OVER (PARTITION BY rt.l ORDER BY u.l) AS pos,\n"
        f"       u.d AS depth\n"
        f"  FROM {table} rt\n"
        f"  JOIN {table} u ON {subtree_of('rt')}\n"
        f" WHERE rt.d = 0"
    )


def roots_id_sql(table: str) -> str:
    """Just the roots of an encoded relation, ``root`` naming each tree."""
    return f"SELECT e, l AS root, s, l, r FROM {table} WHERE d = 0"


def forest_equal_predicate(seq_left: str, seq_right: str, env: str) -> str:
    """Boolean SQL: the env-``env`` forests of two sequence views are equal."""
    return (
        f"((SELECT COUNT(*) FROM {seq_left} WHERE e = {env}) =\n"
        f" (SELECT COUNT(*) FROM {seq_right} WHERE e = {env})\n"
        f" AND NOT EXISTS (SELECT 1 FROM {seq_left} xa\n"
        f"                  JOIN {seq_right} xb ON xb.pos = xa.pos AND xb.e = {env}\n"
        f"                 WHERE xa.e = {env}\n"
        f"                   AND (xa.depth <> xb.depth OR xa.s <> xb.s)))"
    )


def forest_less_predicate(seq_left: str, seq_right: str, env: str) -> str:
    """Boolean SQL: the env forest of ``seq_left`` is structurally smaller.

    Two cases: (a) a first differing position where the left side is
    missing, shallower, or label-smaller; positions are dense DFS ranks so
    a position present in both sides guarantees all earlier positions are
    present in both.  (b) the left sequence is a proper prefix.
    """
    diff = "(xa.depth <> xb.depth OR xa.s <> xb.s)"
    earlier_diff = (
        f"EXISTS (SELECT 1 FROM {seq_left} xa2\n"
        f"          JOIN {seq_right} xb2 ON xb2.pos = xa2.pos AND xb2.e = {env}\n"
        f"         WHERE xa2.e = {env} AND xa2.pos < xa.pos\n"
        f"           AND (xa2.depth <> xb2.depth OR xa2.s <> xb2.s))"
    )
    first_diff_smaller = (
        f"EXISTS (SELECT 1 FROM {seq_left} xa\n"
        f"          JOIN {seq_right} xb ON xb.pos = xa.pos AND xb.e = {env}\n"
        f"         WHERE xa.e = {env}\n"
        f"           AND (xa.depth < xb.depth\n"
        f"                OR (xa.depth = xb.depth AND xa.s < xb.s))\n"
        f"           AND NOT {earlier_diff})"
    )
    proper_prefix = (
        f"((SELECT COUNT(*) FROM {seq_left} WHERE e = {env}) <\n"
        f" (SELECT COUNT(*) FROM {seq_right} WHERE e = {env})\n"
        f" AND NOT EXISTS (SELECT 1 FROM {seq_left} xa\n"
        f"                  JOIN {seq_right} xb ON xb.pos = xa.pos AND xb.e = {env}\n"
        f"                 WHERE xa.e = {env} AND {diff}))"
    )
    return f"({first_diff_smaller}\n OR {proper_prefix})"


def tree_equal_predicate(seq_left: str, seq_right: str, root_left: str,
                         root_right: str) -> str:
    """Boolean SQL: tree ``root_left`` of one view equals tree ``root_right``.

    ``root_left`` / ``root_right`` are SQL expressions yielding the root
    ids (left endpoints) to compare; both sequence views must come from
    :func:`root_sequence_sql`.
    """
    return (
        f"((SELECT COUNT(*) FROM {seq_left} WHERE root = {root_left}) =\n"
        f" (SELECT COUNT(*) FROM {seq_right} WHERE root = {root_right})\n"
        f" AND NOT EXISTS (SELECT 1 FROM {seq_left} ta\n"
        f"                  JOIN {seq_right} tb\n"
        f"                    ON tb.pos = ta.pos AND tb.root = {root_right}\n"
        f"                 WHERE ta.root = {root_left}\n"
        f"                   AND (ta.depth <> tb.depth OR ta.s <> tb.s)))"
    )


def tree_less_predicate(seq_left: str, seq_right: str, root_left: str,
                        root_right: str) -> str:
    """Boolean SQL: tree ``root_left`` is structurally smaller than
    ``root_right`` (used for the ``sort`` template's rank computation)."""
    earlier_diff = (
        f"EXISTS (SELECT 1 FROM {seq_left} ta2\n"
        f"          JOIN {seq_right} tb2\n"
        f"            ON tb2.pos = ta2.pos AND tb2.root = {root_right}\n"
        f"         WHERE ta2.root = {root_left} AND ta2.pos < ta.pos\n"
        f"           AND (ta2.depth <> tb2.depth OR ta2.s <> tb2.s))"
    )
    first_diff_smaller = (
        f"EXISTS (SELECT 1 FROM {seq_left} ta\n"
        f"          JOIN {seq_right} tb ON tb.pos = ta.pos AND tb.root = {root_right}\n"
        f"         WHERE ta.root = {root_left}\n"
        f"           AND (ta.depth < tb.depth\n"
        f"                OR (ta.depth = tb.depth AND ta.s < tb.s))\n"
        f"           AND NOT {earlier_diff})"
    )
    proper_prefix = (
        f"((SELECT COUNT(*) FROM {seq_left} WHERE root = {root_left}) <\n"
        f" (SELECT COUNT(*) FROM {seq_right} WHERE root = {root_right})\n"
        f" AND NOT EXISTS (SELECT 1 FROM {seq_left} ta\n"
        f"                  JOIN {seq_right} tb\n"
        f"                    ON tb.pos = ta.pos AND tb.root = {root_right}\n"
        f"                 WHERE ta.root = {root_left}\n"
        f"                   AND (ta.depth <> tb.depth OR ta.s <> tb.s)))"
    )
    return f"({first_diff_smaller}\n OR {proper_prefix})"
