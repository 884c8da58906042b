"""Execute translated queries on SQLite.

This backend demonstrates the paper's claim end to end: an arbitrarily
nested FLWR expression becomes one SQL translation — a ``WITH`` statement
of CTEs, what ``--sql`` prints — evaluated by a stock relational engine,
with the result decoded back into an XML forest purely from its ``(s, l,
r, d)`` columns.  The backend runs the translation's *staged* form: one
temp table per CTE, filled in order, then the final ``SELECT``
(:meth:`SQLiteDatabase.run_translation`; ``mode="single"`` runs the one
statement as written).  Every relation carries ``e`` (environment) and
``d`` (depth), see :mod:`repro.sql.templates`; the shredded document
supplies the first ``d``.

SQLite integers are 64-bit; the translator is therefore capped at a width
of ``2**61`` by default (coordinates exceed the width by at most one
environment-index factor), raising :class:`WidthOverflowError` for
documents/nesting combinations that cannot be represented — the documented
Section 4.3 trade-off of fixed-size machine integers.
"""

from __future__ import annotations

import itertools
import sqlite3
from collections import OrderedDict
from contextlib import contextmanager, nullcontext, suppress
from typing import TYPE_CHECKING, Iterable, Mapping

from repro.encoding.interval import decode
from repro.engine.columns import IntervalColumns, dfs_numbering
from repro.errors import ExecutionError
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.xml.forest import Forest, Node, preorder
from repro.xquery.ast import CoreExpr
from repro.sql.translator import TranslationResult, translate_query

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

    from repro.resilience.guard import QueryGuard


def wrap_driver_error(error: BaseException, statement: str,
                      guard: "QueryGuard | None" = None) -> ExecutionError:
    """Convert a driver exception into the package's typed hierarchy.

    No ``sqlite3.OperationalError`` / ``sqlite3.DataError`` (or any other
    driver type) may escape the public API: callers get an
    :class:`ExecutionError` carrying the offending statement (truncated).
    Every database is a private connection, so no other writer can lock
    it: nothing here is transient.  When ``guard`` interrupted the
    statement through its progress handler, the guard's own typed error
    (timeout/budget) is returned instead of the driver's ``interrupted``.
    """
    if guard is not None and guard.pending_error is not None:
        pending = guard.take_pending()
        pending.__cause__ = error
        return pending
    wrapped = ExecutionError(f"SQL execution failed: {error}",
                             statement=statement)
    wrapped.__cause__ = error
    return wrapped


class _SQLObserver:
    """Per-statement spans and counters for one translated-query run."""

    BACKEND = "sqlite"  # the one relational adapter; labels both counters

    def __init__(self, tracer: Tracer | None, metrics: MetricsRegistry | None):
        self.tracer = tracer if tracer is not None and tracer.enabled else None
        self._statements = None
        self._rows = None
        if metrics is not None:
            self._statements = metrics.counter(
                "repro_sql_statements_total",
                "SQL statements executed by the relational backend",
                ("backend",))
            self._rows = metrics.counter(
                "repro_sql_rows_total",
                "rows fetched from the relational backend",
                ("backend",))

    def statement(self, name: str):
        """A span for one statement (a no-op context when untraced)."""
        if self._statements is not None:
            self._statements.inc(backend=self.BACKEND)
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span("sql.statement", cte=name)

    def rows_fetched(self, count: int) -> None:
        if self._rows is not None:
            self._rows.inc(count, backend=self.BACKEND)


@contextmanager
def _guarded_connection(connection: sqlite3.Connection,
                        guard: "QueryGuard | None"):
    """Install a guard's progress handler for the duration of a block.

    The handler interrupts long-running statements when the guard's
    deadline or budgets are violated (the violation is stored on the
    guard and re-raised typed by :func:`wrap_driver_error`).  Removed on
    exit so unguarded runs — and the staged path's cleanup — on the same
    connection are never interrupted.
    """
    if guard is None or not guard.enabled:
        yield
        return
    from repro.resilience.guard import DEFAULT_PROGRESS_OPCODES

    guard.start()
    connection.set_progress_handler(guard.as_progress_handler(),
                                    DEFAULT_PROGRESS_OPCODES)
    try:
        guard.check()
        yield
    finally:
        connection.set_progress_handler(None, 0)


def _rows(labels: Iterable[str], l: np.ndarray, r: np.ndarray,
          d: np.ndarray) -> Iterable[tuple[str, int, int, int]]:
    """``(s, l, r, d)`` rows for ``executemany``, from parallel columns."""
    return zip(labels, l.tolist(), r.tolist(), d.tolist())


#: Conservative width cap for 64-bit backends (see module docstring).
SQLITE_MAX_WIDTH = 2 ** 61

#: Staged translations whose temp tables one connection keeps; the least
#: recently run one past this has its tables dropped.
STAGED_CACHE_SIZE = 8


class SQLiteDatabase:
    """A SQLite store for interval-encoded documents plus query execution.

    Documents are shredded with the canonical DFS encoder into tables
    ``doc_<n>(e, s TEXT, l INTEGER PRIMARY KEY, r INTEGER, d INTEGER)``
    — a document is one environment, so ``e`` is the constant 0 — with an
    index on ``s`` to support label lookups.

    Staged runs keep their temp tables: :meth:`staged` translates each
    core expression once under a table prefix of its own, its tables are
    built on its first run, and every run refills them, reads the result
    and empties them again (:meth:`_run_staged`).

    An instance is not locked: it serves one caller at a time, and the
    owning :class:`~repro.backends.sqlite.SQLiteBackend` makes every
    call under its lock.  The connection is opened with
    ``check_same_thread=False`` so that whichever thread holds that lock
    may use it.
    """

    def __init__(self, path: str = ":memory:"):
        # Room to keep every retained translation's statements prepared:
        # an INSERT and a DELETE per CTE plus the final SELECT, and Q9,
        # the longest XMark translation, has 78 CTEs.
        self.connection = sqlite3.connect(
            path, check_same_thread=False,
            cached_statements=STAGED_CACHE_SIZE * 160)
        self.connection.execute("PRAGMA journal_mode = OFF")
        self.connection.execute("PRAGMA synchronous = OFF")
        self._documents: dict[str, tuple[str, int]] = {}
        self._doc_counter = 0
        #: ``staged`` keys (core expression, loaded ``(table, width)``
        #: map) → their translations, least recently used first.
        self._translations: OrderedDict[tuple, TranslationResult] = \
            OrderedDict()
        self._prefixes = itertools.count()
        #: Table prefix → the translation whose tables this connection
        #: holds, least recently run first.
        self._schemas: OrderedDict[str, TranslationResult] = OrderedDict()

    def close(self) -> None:
        self.connection.close()

    def __enter__(self) -> "SQLiteDatabase":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- document loading ---------------------------------------------------------

    def load_document(self, name: str, trees: Forest | Node) -> tuple[str, int]:
        """Shred ``trees`` into a relation; returns ``(table, width)``.

        Re-loading an existing ``name`` replaces its contents.  Labels and
        depths are the forest's preorder stream, endpoints its DFS
        numbering (:func:`~repro.engine.columns.dfs_numbering`, the one
        the text reader uses); no label is coded, so shredding leaves the
        process-wide label dictionary alone.
        """
        labels, depths = preorder((trees,) if isinstance(trees, Node)
                                  else trees)
        l, r, d = dfs_numbering(depths)
        return self._shred(name, _rows(labels, l, r, d), 2 * len(d))

    def load_encoded(self, name: str, columns: "IntervalColumns",
                     width: int) -> tuple[str, int]:
        """Shred an encoded relation; returns ``(table, width)``.

        The reload half of the delta-update protocol: a session-supplied
        :class:`~repro.encoding.updates.DocumentUpdate` snapshot is loaded
        without ever materializing (or re-encoding) a ``Forest``, and its
        carried ``d`` column is stored as is.
        """
        return self._shred(name, _rows(columns.labels(), columns.l,
                                       columns.r, columns.d), width)

    def _shred(self, name: str, rows: "Iterable[tuple[str, int, int, int]]",
               width: int) -> tuple[str, int]:
        """(Re)fill the table of ``name`` with ``(s, l, r, d)`` rows."""
        if name in self._documents:
            table, _ = self._documents[name]
            self.connection.execute(f"DELETE FROM {table}")
        else:
            table = f"doc_{self._doc_counter}"
            self._doc_counter += 1
            self.connection.execute(
                f"CREATE TABLE {table} (e INTEGER NOT NULL DEFAULT 0, "
                f"s TEXT NOT NULL, l INTEGER PRIMARY KEY, "
                f"r INTEGER NOT NULL, d INTEGER NOT NULL)"
            )
            self.connection.execute(
                f"CREATE INDEX {table}_s ON {table} (s, l)"
            )
        insert = f"INSERT INTO {table} (s, l, r, d) VALUES (?, ?, ?, ?)"
        try:
            self.connection.executemany(insert, rows)
            self.connection.commit()
        except sqlite3.Error as error:
            raise wrap_driver_error(error, insert) from error
        self._documents[name] = (table, int(width))
        return self._documents[name]

    def apply_delta(self, name: str, delta) -> tuple[str, int]:
        """Patch a loaded document in place from an incremental delta.

        O(affected subtree): one ranged ``DELETE`` per deleted subtree
        (the range predicate is exactly the delta's inclusive left-endpoint
        bounds, served by the ``l`` primary key) plus one batched
        ``INSERT`` for the contiguous run of new rows, which carries its
        depths.
        """
        if name not in self._documents:
            raise ExecutionError(f"document {name!r} is not loaded")
        table, _width = self._documents[name]
        statement = f"DELETE FROM {table} WHERE l >= ? AND l <= ?"
        try:
            for low, high in delta.deleted_ranges:
                self.connection.execute(statement, (low, high))
            new = delta.inserted
            if new:
                statement = (f"INSERT INTO {table} (s, l, r, d) "
                             f"VALUES (?, ?, ?, ?)")
                self.connection.executemany(
                    statement, _rows(new.labels(), new.l, new.r, new.d))
            self.connection.commit()
        except sqlite3.Error as error:
            raise wrap_driver_error(error, statement) from error
        self._documents[name] = (table, int(delta.new_width))
        return self._documents[name]

    @property
    def documents(self) -> dict[str, tuple[str, int]]:
        """Mapping of loaded variable names to ``(table, width)``."""
        return dict(self._documents)

    # -- execution ---------------------------------------------------------------

    def translate(self, expr: CoreExpr,
                  max_width: int | None = SQLITE_MAX_WIDTH) -> TranslationResult:
        """Translate ``expr`` against the loaded documents, under the
        default table prefix (what ``--sql`` prints); the backend runs
        :meth:`staged` translations instead."""
        return translate_query(expr, self._documents, max_width=max_width)

    def staged(self, expr: CoreExpr) -> TranslationResult:
        """The connection's retained translation of ``expr``.

        Translated on first sight against the loaded documents' ``(table,
        width)`` map, under a prefix of its own, so its temp tables live
        beside every other retained translation's; the
        :data:`STAGED_CACHE_SIZE` most recently used are kept.
        """
        key = (expr, tuple(sorted(self._documents.items())))
        translation = self._translations.get(key)
        if translation is None:
            translation = translate_query(
                expr, self._documents, max_width=SQLITE_MAX_WIDTH,
                prefix=f"q{next(self._prefixes)}_c")
            self._translations[key] = translation
            while len(self._translations) > STAGED_CACHE_SIZE:
                self._translations.popitem(last=False)
        else:
            self._translations.move_to_end(key)
        return translation

    def execute(self, expr: CoreExpr, mode: str = "staged") -> Forest:
        """Translate, run, and decode ``expr`` into an XF forest.

        ``mode`` selects execution strategy:

        * ``"staged"`` (default) — fill one temp table per CTE in
          dependency order, then run the final SELECT (see
          :meth:`run_translation`).  Semantically identical to the single
          statement, but immune to SQLite's per-table reference limit
          (SQLite clones CTE parse trees once per reference, so deeply
          composed single statements can exceed 65535 references).
        * ``"single"`` — run the one-statement ``WITH`` form verbatim, as
          written in the paper; suitable for small/shallow queries.
        """
        if mode == "staged":
            return self.run_translation(self.staged(expr))
        return self.run_translation(self.translate(expr), mode=mode)

    def run_translation(self, translation: TranslationResult,
                        mode: str = "staged",
                        tracer: Tracer | None = None,
                        metrics: MetricsRegistry | None = None,
                        guard: "QueryGuard | None" = None) -> Forest:
        """Run an already-translated query and decode the result.

        The final select's ``(s, l, r, d)`` rows become columns that leave
        through :func:`~repro.encoding.interval.decode`, checked (``d``
        included) like an engine result.  Their labels are document labels
        and query constants, which an engine run of the text interns too.

        ``tracer`` opens one ``sql.statement`` span per statement executed;
        ``metrics`` counts statements and fetched rows.  ``guard``
        installs a progress handler on the connection while the
        translation's statements run, so deadlines and budgets interrupt
        them mid-flight and surface as the guard's typed errors.
        """
        observer = _SQLObserver(tracer, metrics)
        if mode == "single":
            try:
                with _guarded_connection(self.connection, guard), \
                        observer.statement("single"):
                    rows = self.connection.execute(translation.sql).fetchall()
            except sqlite3.Error as error:
                raise wrap_driver_error(error, translation.sql,
                                        guard) from error
        elif mode == "staged":
            rows = self._run_staged(translation, observer, guard)
        else:
            raise ValueError(f"unknown execution mode {mode!r}")
        if guard is not None:
            guard.account(len(rows))
        observer.rows_fetched(len(rows))
        return decode(IntervalColumns.from_lists(*zip(*rows)) if rows
                      else IntervalColumns.empty())

    def _run_staged(self, translation: TranslationResult,
                    observer: _SQLObserver,
                    guard: "QueryGuard | None",
                    ) -> list[tuple[str, int, int, int]]:
        """Fill the translation's temp tables in order, run the final SELECT.

        The tables are the translation's retained schema (built by
        :meth:`_retain` on its first run); each CTE is one ``INSERT …
        SELECT``.  Every table is emptied again before returning, whatever
        happened — a deadline at a statement boundary, a failing
        statement — and the emptying is committed, so between runs the
        connection holds only empty tables and no open transaction.
        """
        self._retain(translation, guard)
        cursor = self.connection.cursor()
        statement = ""
        try:
            with _guarded_connection(self.connection, guard):
                for name, sql in translation.ctes:
                    if guard is not None:
                        guard.check()  # statement boundary
                    statement = f"INSERT INTO temp.{name} {sql}"
                    with observer.statement(name):
                        cursor.execute(statement)
                statement = translation.final_select
                with observer.statement("final_select"):
                    return cursor.execute(statement).fetchall()
        except sqlite3.Error as error:
            raise wrap_driver_error(error, statement, guard) from error
        finally:
            # Outside the guarded block: an expired guard's progress
            # handler must not interrupt the cleanup.
            self._empty(translation)

    def _retain(self, translation: TranslationResult,
                guard: "QueryGuard | None" = None) -> None:
        """Make sure the translation's (empty) temp tables exist.

        On the translation's first run each CTE becomes an empty table of
        its columns, plus an index where the translator named one: ``(e,
        l)`` on a relation — environment guards and subtree ranges both
        search it — and a comparison view's own key.  The build is one
        transaction, with ``guard`` checked between its statements (none
        reads a row): it commits whole or rolls back whole.  A
        translation that falls out of the :data:`STAGED_CACHE_SIZE` most
        recently run ones, or whose prefix another translation takes, has
        its tables dropped.
        """
        prefix = translation.prefix
        if self._schemas.get(prefix) is translation:
            self._schemas.move_to_end(prefix)
            return
        if prefix in self._schemas:
            self._drop(self._schemas.pop(prefix))
        while len(self._schemas) >= STAGED_CACHE_SIZE:
            self._drop(self._schemas.popitem(last=False)[1])
        cursor = self.connection.cursor()
        statement = "BEGIN"
        try:
            cursor.execute(statement)
            for name, sql in translation.ctes:
                if guard is not None:
                    guard.check()  # statement boundary
                statement = (f"CREATE TEMP TABLE {name} AS "
                             f"SELECT * FROM ({sql}) WHERE 0")
                cursor.execute(statement)
                key = ("e, l" if name in translation.relations
                       else translation.view_keys.get(name))
                if key is not None:
                    statement = (f"CREATE INDEX temp.{name}_key "
                                 f"ON {name} ({key})")
                    cursor.execute(statement)
            statement = "COMMIT"
            self.connection.commit()
        except BaseException as error:
            # A closed connection has no schema to leak.
            with suppress(sqlite3.Error):
                self.connection.rollback()
            if isinstance(error, sqlite3.Error):
                raise wrap_driver_error(error, statement, guard) from error
            raise
        self._schemas[prefix] = translation

    def _drop(self, translation: TranslationResult) -> None:
        # A connection that cannot drop (closed under the run) has no
        # schema to leak.
        with suppress(sqlite3.Error):
            for name, _ in translation.ctes:
                self.connection.execute(f"DROP TABLE IF EXISTS temp.{name}")

    def _empty(self, translation: TranslationResult) -> None:
        """Delete every row of a retained translation's tables and commit;
        a schema that cannot be emptied is dropped instead, so no later
        run adds to stale rows."""
        try:
            for name, _ in translation.ctes:
                self.connection.execute(f"DELETE FROM temp.{name}")
            self.connection.commit()
        except sqlite3.Error:
            self._schemas.pop(translation.prefix, None)
            with suppress(sqlite3.Error):
                self.connection.rollback()
            self._drop(translation)

    def explain(self, expr: CoreExpr) -> str:
        """SQLite's query plan for the staged form the backend runs
        (diagnostics): every CTE's ``INSERT`` planned against the
        retained schema, without running the query, as ``name: step``
        lines — what shows whether a join searches an index or scans.
        """
        translation = self.staged(expr)
        self._retain(translation)
        lines = []
        for name, sql in translation.ctes:
            statement = f"EXPLAIN QUERY PLAN INSERT INTO temp.{name} {sql}"
            try:
                rows = self.connection.execute(statement).fetchall()
            except sqlite3.Error as error:
                raise wrap_driver_error(error, statement) from error
            lines += [f"{name}: {row[3]}" for row in rows]
        return "\n".join(lines)


def run_core_on_sqlite(expr: CoreExpr, bindings: Mapping[str, Forest],
                       path: str = ":memory:") -> Forest:
    """One-shot helper: load ``bindings``, run ``expr``, return the forest."""
    with SQLiteDatabase(path) as database:
        for name, trees in bindings.items():
            database.load_document(name, trees)
        return database.execute(expr)
