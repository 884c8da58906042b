"""Execute translated queries on SQLite.

This backend demonstrates the paper's claim end to end: an arbitrarily
nested FLWR expression becomes **one SQL statement** evaluated by a stock
relational engine, with the result decoded back into an XML forest purely
from the ``(s, l, r)`` rows.  Inside the statement every relation also
carries ``e`` (environment) and ``d`` (depth), see
:mod:`repro.sql.templates`; the shredded document supplies the first ``d``.

SQLite integers are 64-bit; the translator is therefore capped at a width
of ``2**61`` by default (coordinates exceed the width by at most one
environment-index factor), raising :class:`WidthOverflowError` for
documents/nesting combinations that cannot be represented — the documented
Section 4.3 trade-off of fixed-size machine integers.
"""

from __future__ import annotations

import sqlite3
from contextlib import contextmanager, nullcontext, suppress
from typing import TYPE_CHECKING, Mapping

from repro.encoding.interval import IntervalTuple, decode, encode
from repro.engine.columns import derive_depths
from repro.errors import ExecutionError, TransientBackendError
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.xml.forest import Forest, Node
from repro.xquery.ast import CoreExpr
from repro.sql.translator import TranslationResult, translate_query

if TYPE_CHECKING:  # pragma: no cover
    from repro.resilience.guard import QueryGuard

#: Driver messages indicating a condition worth retrying (another writer
#: holds the file lock, the schema changed under a prepared statement).
_TRANSIENT_MARKERS = ("database is locked", "database is busy",
                      "database schema has changed")


def wrap_driver_error(error: BaseException, statement: str,
                      guard: "QueryGuard | None" = None) -> ExecutionError:
    """Convert a driver exception into the package's typed hierarchy.

    No ``sqlite3.OperationalError`` / ``sqlite3.DataError`` (or any other
    driver type) may escape the public API: callers get an
    :class:`ExecutionError` carrying the offending statement (truncated),
    or a :class:`TransientBackendError` for retry-worthy lock/busy
    conditions.  When ``guard`` interrupted the statement through its
    progress handler, the guard's own typed error (timeout/budget) is
    returned instead of the driver's ``interrupted``.
    """
    if guard is not None and guard.pending_error is not None:
        pending = guard.take_pending()
        pending.__cause__ = error
        return pending
    message = str(error)
    if any(marker in message for marker in _TRANSIENT_MARKERS):
        wrapped: ExecutionError = TransientBackendError(
            f"transient SQL failure: {message}", statement=statement)
    else:
        wrapped = ExecutionError(f"SQL execution failed: {message}",
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


#: Conservative width cap for 64-bit backends (see module docstring).
SQLITE_MAX_WIDTH = 2 ** 61


class SQLiteDatabase:
    """A SQLite store for interval-encoded documents plus query execution.

    Documents are shredded with the canonical DFS encoder into tables
    ``doc_<n>(e, s TEXT, l INTEGER PRIMARY KEY, r INTEGER, d INTEGER)``
    — a document is one environment, so ``e`` is the constant 0 — with an
    index on ``s`` to support label lookups.

    Instances are single-threaded: one ``SQLiteDatabase`` serves one
    thread at a time.  The connection is opened with
    ``check_same_thread=False`` only so the owning backend can close
    every per-thread database from whichever thread calls ``close()``
    (see :class:`repro.concurrency.ThreadLocalPool`).
    """

    def __init__(self, path: str = ":memory:"):
        self.connection = sqlite3.connect(path, check_same_thread=False)
        self.connection.execute("PRAGMA journal_mode = OFF")
        self.connection.execute("PRAGMA synchronous = OFF")
        self._documents: dict[str, tuple[str, int]] = {}
        self._doc_counter = 0

    def close(self) -> None:
        self.connection.close()

    def __enter__(self) -> "SQLiteDatabase":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- document loading ---------------------------------------------------------

    def load_document(self, name: str, trees: Forest | Node) -> tuple[str, int]:
        """Shred ``trees`` into a relation; returns ``(table, width)``.

        Re-loading an existing ``name`` replaces its contents.
        """
        if isinstance(trees, Node):
            trees = (trees,)
        encoded = encode(trees)
        return self.load_encoded(name, list(encoded.tuples), encoded.width)

    def load_encoded(self, name: str, rows: list[IntervalTuple],
                     width: int) -> tuple[str, int]:
        """Shred pre-encoded ``(s, l, r)`` rows; returns ``(table, width)``.

        The rebase half of the delta-update protocol: a session-supplied
        :class:`~repro.encoding.updates.DocumentUpdate` snapshot is loaded
        without ever materializing (or re-encoding) a ``Forest``.  ``d`` is
        derived here, in one interval stack pass; no label is coded, so
        shredding leaves the process-wide label dictionary alone.
        """
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
        depths = derive_depths([row[1] for row in rows],
                               [row[2] for row in rows]).tolist()
        insert = f"INSERT INTO {table} (s, l, r, d) VALUES (?, ?, ?, ?)"
        try:
            self.connection.executemany(
                insert, ((*row, d) for row, d in zip(rows, depths)))
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
        ``INSERT`` for the contiguous run of new rows, whose depths the
        delta carries.
        """
        if name not in self._documents:
            raise ExecutionError(f"document {name!r} is not loaded")
        table, _width = self._documents[name]
        statement = f"DELETE FROM {table} WHERE l >= ? AND l <= ?"
        try:
            for low, high in delta.deleted_ranges:
                self.connection.execute(statement, (low, high))
            if delta.inserted:
                statement = (f"INSERT INTO {table} (s, l, r, d) "
                             f"VALUES (?, ?, ?, ?)")
                self.connection.executemany(
                    statement, ((*row, d) for row, d in
                                zip(delta.inserted, delta.inserted_depths)))
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
        """Translate ``expr`` against the loaded documents."""
        return translate_query(expr, self._documents, max_width=max_width)

    def execute(self, expr: CoreExpr, mode: str = "staged") -> Forest:
        """Translate, run, and decode ``expr`` into an XF forest.

        ``mode`` selects execution strategy:

        * ``"staged"`` (default) — materialize each CTE as a temp table in
          dependency order, then run the final SELECT.  Semantically
          identical to the single statement, but immune to SQLite's
          per-table reference limit (SQLite clones CTE parse trees once
          per reference, so deeply composed single statements can exceed
          65535 references).
        * ``"single"`` — run the one-statement ``WITH`` form verbatim, as
          written in the paper; suitable for small/shallow queries.
        """
        translation = self.translate(expr)
        return self.run_translation(translation, mode=mode)

    def run_translation(self, translation: TranslationResult,
                        mode: str = "staged",
                        tracer: Tracer | None = None,
                        metrics: MetricsRegistry | None = None,
                        guard: "QueryGuard | None" = None) -> Forest:
        """Run an already-translated query and decode the result.

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
            guard.account(tuples=len(rows))
        observer.rows_fetched(len(rows))
        return decode([(s, l, r) for (s, l, r) in rows])

    def _run_staged(self, translation: TranslationResult,
                    observer: _SQLObserver,
                    guard: "QueryGuard | None",
                    plans: "list[tuple[str, list]] | None" = None,
                    ) -> list[tuple[str, int, int]]:
        """Stage the translation's CTEs as temp tables, run the final SELECT.

        Each CTE becomes ``CREATE TEMP TABLE … AS`` in dependency order,
        plus an index where the translator named one: ``(e, l)`` on a
        relation — environment guards and subtree ranges both search it —
        and a comparison view's own key.  Every table is dropped again
        before returning, whatever happened — a deadline at a statement
        boundary, a failing statement — so the connection holds no temp
        schema between runs and nothing to invalidate when a document
        changes.  ``plans`` collects ``(name, EXPLAIN QUERY PLAN rows)`` of
        each CTE against the tables staged before it.
        """
        cursor = self.connection.cursor()
        staged: list[str] = []
        statement = ""
        try:
            with _guarded_connection(self.connection, guard):
                for name, sql in translation.ctes:
                    if guard is not None:
                        guard.check()  # statement boundary
                    if plans is not None:
                        statement = f"EXPLAIN QUERY PLAN {sql}"
                        plans.append((name, cursor.execute(statement).fetchall()))
                    statement = f"CREATE TEMP TABLE {name} AS {sql}"
                    staged.append(name)
                    with observer.statement(name):
                        cursor.execute(statement)
                    key = ("e, l" if name in translation.relations
                           else translation.view_keys.get(name))
                    if key is not None:
                        statement = (f"CREATE INDEX temp.{name}_key "
                                     f"ON {name} ({key})")
                        cursor.execute(statement)
                statement = translation.final_select
                with observer.statement("final_select"):
                    return cursor.execute(statement).fetchall()
        except sqlite3.Error as error:
            raise wrap_driver_error(error, statement, guard) from error
        finally:
            # Outside the guarded block: an expired guard's progress
            # handler must not interrupt the cleanup.  A connection that
            # cannot drop (closed under the run) has no schema to leak.
            with suppress(sqlite3.Error):
                for name in staged:
                    self.connection.execute(
                        f"DROP TABLE IF EXISTS temp.{name}")

    def explain(self, expr: CoreExpr, mode: str = "single") -> str:
        """SQLite's query plan for the translated query (diagnostics).

        ``"single"`` plans the one statement; ``"staged"`` runs the staged
        form and reports every CTE's plan as ``name: step`` lines — what
        shows whether a join searches an index or scans.
        """
        translation = self.translate(expr)
        if mode == "staged":
            plans: list[tuple[str, list]] = []
            self._run_staged(translation, _SQLObserver(None, None), None, plans)
            return "\n".join(f"{name}: {row[3]}"
                             for name, rows in plans for row in rows)
        statement = f"EXPLAIN QUERY PLAN {translation.sql}"
        try:
            rows = self.connection.execute(statement).fetchall()
        except sqlite3.Error as error:
            raise wrap_driver_error(error, statement) from error
        return "\n".join(str(row) for row in rows)


def run_core_on_sqlite(expr: CoreExpr, bindings: Mapping[str, Forest],
                       path: str = ":memory:") -> Forest:
    """One-shot helper: load ``bindings``, run ``expr``, return the forest."""
    with SQLiteDatabase(path) as database:
        for name, trees in bindings.items():
            database.load_document(name, trees)
        return database.execute(expr)
