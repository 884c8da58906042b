"""A generic PEP 249 (DB-API 2.0) execution backend.

The Section 4 translation targets *any* relational engine: the compiled
artifact is one SQL statement over ``(s, l, r)`` tables.  This adapter
demonstrates that retargetability concretely — it drives an arbitrary
DB-API connection with nothing engine-specific beyond the parameter
placeholder style:

    import sqlite3
    from repro.backends import register_backend
    from repro.backends.dbapi import DBAPIBackend

    register_backend(
        lambda: DBAPIBackend(sqlite3.connect, paramstyle="qmark"),
        name="my-dbapi",
    )

No core module needs to change for the new name to work everywhere
(``run_xquery``, sessions, the CLI's ``--backend``).

The adapter runs the translation in its verbatim single-statement ``WITH``
form; engines with CTE-reference limits (SQLite's 65535-branch cap) should
prefer the specialized :mod:`repro.backends.sqlite` adapter, which stages
CTEs as temp tables.

Concurrency comes in two connection disciplines (see
``docs/CONCURRENCY.md``):

* ``isolated=False`` (default) — every connection from ``connect`` sees
  the *same* server-side state (a networked engine, a file database).
  The adapter keeps one connection per worker thread and loads each
  document once, on whichever thread prepares it.
* ``isolated=True`` — each connection has private state (stdlib
  ``sqlite3`` ``:memory:`` databases).  Every worker thread must
  materialize the documents into its own connection; a per-document
  generation pair (:class:`~repro.backends.deltalog.DeltaLog`) tells each
  thread exactly what it is missing.

DB-API drivers are in general not safe for concurrent statements on one
connection, so each connection is only ever driven by its owning thread;
:meth:`~Backend.close` closes all of them from whatever thread calls it.

:class:`SQLiteDBAPIBackend` below is the adapter driving the stdlib
``sqlite3`` module purely through the generic DB-API surface; it ships
registered as ``"dbapi"`` and doubles as the registered exemplar of the
recipe above.
"""

from __future__ import annotations

import sqlite3
from typing import TYPE_CHECKING, Callable

from repro.backends.base import Backend, BackendCapabilities, ExecutionOptions
from repro.backends.deltalog import DeltaLog
from repro.backends.registry import register_backend
from repro.concurrency import ThreadLocalPool
from repro.encoding.interval import IntervalTuple, decode, encode
from repro.encoding.updates import UpdateDelta
from repro.errors import ExecutionError
from repro.sql.sqlite_backend import (
    SQLITE_MAX_WIDTH,
    _SQLObserver,
    wrap_driver_error,
)
from repro.sql.translator import translate_query
from repro.xml.forest import Forest

if TYPE_CHECKING:  # pragma: no cover
    from repro.api import CompiledQuery
    from repro.encoding.updates import DocumentUpdate

_PLACEHOLDERS = {"qmark": "?", "format": "%s"}


class _ThreadConnection:
    """One worker thread's connection plus what it has materialized."""

    __slots__ = ("connection", "loaded", "created")

    def __init__(self, connection):
        self.connection = connection
        #: document name → (major, minor) generation pair materialized
        #: into this connection.
        self.loaded: dict[str, tuple[object, int]] = {}
        #: table names CREATEd on this connection.
        self.created: set[str] = set()

    def close(self) -> None:
        self.connection.close()


class DBAPIBackend(Backend):
    """Execute translated queries over any DB-API 2.0 connection.

    ``connect`` is a zero-argument callable returning a fresh connection
    (one is opened lazily per worker thread, all closed by
    :meth:`~Backend.close`); ``paramstyle`` is the driver's placeholder
    style (``"qmark"`` or ``"format"``); ``max_width`` caps inferred
    interval widths for engines with fixed-size integers (Section 4.3);
    ``isolated`` declares whether each connection sees private state
    (see the module docstring).
    """

    name = "dbapi"
    capabilities = BackendCapabilities(
        prepared_documents=True,
        updates=True,
        delta_updates=True,
        max_width=None,
        strategies=(),
        description="generic DB-API 2.0 relational engine",
    )

    def __init__(self, connect: Callable[[], object],
                 paramstyle: str = "qmark",
                 max_width: int | None = None,
                 isolated: bool = False) -> None:
        super().__init__()
        if paramstyle not in _PLACEHOLDERS:
            raise ExecutionError(
                f"unsupported paramstyle {paramstyle!r}; "
                f"use one of {sorted(_PLACEHOLDERS)}"
            )
        self._connect = connect
        self._placeholder = _PLACEHOLDERS[paramstyle]
        self._max_width = max_width
        self._isolated = isolated
        #: name → (table, width); table names are stable per document so
        #: every thread's connection agrees with the shared translation.
        self._tables: dict[str, tuple[str, int]] = {}
        #: name → shared document state; what _sync replays.
        self._generations: dict[str, DeltaLog] = {}
        #: Tables CREATEd in shared (non-isolated) engines, where table
        #: existence is global across connections; mutated only while the
        #: backend lock is held (prepare path).
        self._shared_created: set[str] = set()
        self._pool: ThreadLocalPool[_ThreadConnection] = ThreadLocalPool(
            lambda: _ThreadConnection(self._connect()))

    @property
    def connection(self):
        """The calling thread's connection, synced to current documents."""
        return self._thread_connection().connection

    # -- per-thread connection management ---------------------------------------

    def _thread_connection(self) -> _ThreadConnection:
        state = self._pool.get()
        self._sync(state)
        return state

    def _sync(self, state: _ThreadConnection) -> None:
        """Materialize every document ``state`` has not seen yet.

        Per document, :meth:`DeltaLog.pending_for` picks a delta-tail
        replay (ranged ``DELETE`` + batched ``INSERT``) or a wholesale
        re-materialization.  For shared (non-isolated) engines only the
        preparing or updating thread runs SQL — other connections already
        see the shared tables, so they merely record the generation pair.
        """
        pending: list[tuple] = []
        with self._lock:
            for name, doc in self._generations.items():
                have = state.loaded.get(name)
                if have != doc.current:
                    pending.append((name, doc.current,
                                    doc.pending_for(have), doc.rows))
        for name, current, tail, rows in pending:
            if self._isolated:
                if tail is not None:
                    for delta in tail:
                        self._apply_delta(state, name, delta)
                else:
                    self._materialize(state, name, rows)
            state.loaded[name] = current

    def _load(self, name: str, forest: Forest) -> None:
        # Called under the backend lock (base.prepare).
        encoded = encode(forest)
        if name not in self._tables:
            table = f"doc_{len(self._tables)}"
        else:
            table = self._tables[name][0]
        self._tables[name] = (table, encoded.width)
        doc = DeltaLog(list(encoded.tuples), encoded.width)
        self._generations[name] = doc
        # Materialize eagerly for the calling thread — prepare is the
        # untimed phase.  Shared engines are now fully loaded; isolated
        # ones replay on each other thread via _sync.
        state = self._pool.get()
        self._materialize(state, name, doc.rows)
        state.loaded[name] = doc.current

    def apply_update(self, name: str, update: "DocumentUpdate") -> bool:
        """Delta-patch the shared tables (see repro.backends.sqlite).

        :meth:`DeltaLog.absorb` appends the deltas or rebases; the
        calling thread's connection then runs the ranged ``DELETE`` +
        batched ``INSERT`` (once for shared engines; isolated peers
        replay the tail from the log on their next sync) or, after a
        rebase, re-materializes from the new rows.
        """
        with self._lock:
            self._check_open()
            doc = self._generations.get(name)
            if doc is None or name not in self._prepared:
                return False
            new_deltas = doc.absorb(update)
            self._tables[name] = (self._tables[name][0], doc.width)
            self._prepared[name] = ()
            current = doc.current
            rows = doc.rows
        # Apply eagerly on the calling thread (the untimed phase); for
        # shared engines this is the one application every connection sees.
        state = self._pool.get()
        if new_deltas:
            for delta in new_deltas:
                self._apply_delta(state, name, delta)
        else:
            self._materialize(state, name, rows)
        state.loaded[name] = current
        return True

    def _unload(self, name: str) -> None:
        # Keep the table-name assignment (stable names); drop the
        # generation so a future prepare re-materializes everywhere.
        self._generations.pop(name, None)

    def _materialize(self, state: _ThreadConnection, name: str,
                     rows: list[IntervalTuple]) -> None:
        table, _width = self._tables[name]
        created = state.created if self._isolated else self._shared_created
        cursor = state.connection.cursor()
        statement = ""
        try:
            if table in created:
                statement = f"DELETE FROM {table}"
                cursor.execute(statement)
            else:
                statement = (
                    f"CREATE TABLE {table} (s TEXT NOT NULL, "
                    f"l INTEGER PRIMARY KEY, r INTEGER NOT NULL)"
                )
                cursor.execute(statement)
                created.add(table)
            statement = (
                f"INSERT INTO {table} (s, l, r) VALUES "
                f"({self._placeholder}, {self._placeholder}, "
                f"{self._placeholder})"
            )
            cursor.executemany(statement, rows)
            state.connection.commit()
        except ExecutionError:
            raise
        except Exception as error:  # driver-specific exception types
            raise wrap_driver_error(error, statement) from error

    def _apply_delta(self, state: _ThreadConnection, name: str,
                     delta: UpdateDelta) -> None:
        """One delta as SQL: ranged ``DELETE`` + batched ``INSERT``.

        The delete predicate is the delta's inclusive left-endpoint
        bounds, served by the ``l`` primary key — O(affected subtree),
        not O(document).
        """
        table, _width = self._tables[name]
        cursor = state.connection.cursor()
        marker = self._placeholder
        statement = f"DELETE FROM {table} WHERE l >= {marker} AND l <= {marker}"
        try:
            for low, high in delta.deleted_ranges:
                cursor.execute(statement, (low, high))
            if delta.inserted:
                statement = (
                    f"INSERT INTO {table} (s, l, r) VALUES "
                    f"({marker}, {marker}, {marker})"
                )
                cursor.executemany(statement, delta.inserted)
            state.connection.commit()
        except ExecutionError:
            raise
        except Exception as error:  # driver-specific exception types
            raise wrap_driver_error(error, statement) from error

    def _close(self) -> None:
        self._tables.clear()
        self._generations.clear()
        self._pool.close_all()

    # -- execution --------------------------------------------------------------

    def _runner(self, compiled: "CompiledQuery",
                options: ExecutionOptions) -> Callable[[], Forest]:
        self._bindings(compiled)  # uniform missing-document error
        with self._lock:
            tables = dict(self._tables)
        translation = translate_query(compiled.core, tables,
                                      max_width=self._max_width)
        connection = self._thread_connection().connection

        guard = options.guard
        if guard is not None and not guard.enabled:
            guard = None

        def run() -> Forest:
            observer = _SQLObserver(self._tracer, options.metrics, self.name)
            cursor = connection.cursor()
            # Drivers exposing SQLite's progress-handler hook get in-flight
            # enforcement; the rest are still checked at call boundaries.
            set_handler = getattr(connection, "set_progress_handler", None)
            if guard is not None:
                guard.start().check()
                if set_handler is not None:
                    from repro.resilience.guard import DEFAULT_PROGRESS_OPCODES

                    set_handler(guard.as_progress_handler(),
                                DEFAULT_PROGRESS_OPCODES)
            try:
                with observer.statement("single"):
                    cursor.execute(translation.sql)
                    rows = cursor.fetchall()
            except Exception as error:  # driver-specific exception types
                raise wrap_driver_error(error, translation.sql,
                                        guard) from error
            finally:
                if guard is not None and set_handler is not None:
                    set_handler(None, 0)
            if guard is not None:
                guard.account(tuples=len(rows))
            observer.rows_fetched(len(rows))
            return decode([(s, l, r) for (s, l, r) in rows])

        return run


@register_backend
class SQLiteDBAPIBackend(DBAPIBackend):
    """The generic adapter bound to the stdlib ``sqlite3`` driver.

    Registered as ``"dbapi"``: same engine as the ``"sqlite"`` backend but
    driven entirely through the portable DB-API path (verbatim
    single-statement ``WITH`` form, ``qmark`` placeholders), exercising
    the code every third-party driver would go through.  ``:memory:``
    databases are per connection, hence ``isolated=True``;
    ``check_same_thread=False`` only so close-all works cross-thread —
    each connection is still driven by its owning thread only.
    """

    name = "dbapi"
    capabilities = BackendCapabilities(
        prepared_documents=True,
        updates=True,
        delta_updates=True,
        max_width=SQLITE_MAX_WIDTH,
        strategies=(),
        description="generic DB-API 2.0 path on the stdlib sqlite3 driver",
    )

    def __init__(self) -> None:
        super().__init__(
            lambda: sqlite3.connect(":memory:", check_same_thread=False),
            paramstyle="qmark",
            max_width=SQLITE_MAX_WIDTH,
            isolated=True,
        )
