"""Backend adapter for the Section 4 translation executed on SQLite."""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.backends.base import Backend, BackendCapabilities, ExecutionOptions
from repro.backends.deltalog import DeltaLog
from repro.backends.registry import register_backend
from repro.concurrency import ThreadLocalPool
from repro.sql.sqlite_backend import SQLITE_MAX_WIDTH, SQLiteDatabase
from repro.xml.forest import Forest

if TYPE_CHECKING:  # pragma: no cover
    from repro.api import CompiledQuery
    from repro.encoding.updates import DocumentUpdate
    from repro.engine.evaluator import Value


class _ThreadDatabase:
    """One worker thread's database plus what it has materialized.

    ``loaded`` maps document name → the ``(major, minor)`` generation
    pair shredded into this database; comparing it against the backend's
    current generation map tells a thread exactly which documents it must
    (re)load — and whether a delta-tail replay suffices.
    """

    __slots__ = ("database", "loaded")

    def __init__(self, database: SQLiteDatabase):
        self.database = database
        self.loaded: dict[str, tuple[object, int]] = {}

    def close(self) -> None:
        self.database.close()


@register_backend
class SQLiteBackend(Backend):
    """Run the Section 4 SQL translation, staged, on a stock SQLite
    engine: one temporary table per CTE of the translation, filled in
    order (``run_translation``'s default ``mode="staged"``;
    docs/PERFORMANCE.md says why not the single statement).  Each
    connection keeps its recently run translations and their tables
    (:meth:`~repro.sql.sqlite_backend.SQLiteDatabase.staged`), so a warm
    run neither translates nor issues DDL.

    The shredded tables live in ``:memory:`` databases, which SQLite
    keeps **per connection**, so the backend keeps one
    :class:`~repro.sql.sqlite_backend.SQLiteDatabase` per worker thread
    (lazily, via :class:`~repro.concurrency.ThreadLocalPool`).  Every
    ``prepare``/``invalidate`` moves the document's generation (see
    :class:`~repro.backends.deltalog.DeltaLog`); each thread re-shreds
    exactly the documents whose generation it has not materialized
    yet — or replays the delta tail — so all threads observe a
    consistent snapshot without sharing a connection.

    :meth:`~Backend.close` closes every thread's connection in one
    idempotent sweep, from whatever thread calls it.
    """

    name = "sqlite"
    capabilities = BackendCapabilities(
        max_width=SQLITE_MAX_WIDTH,  # 64-bit integers, Section 4.3
        strategies=(),  # join choice belongs to SQLite's own planner
        description="Section 4 SQL translation on SQLite, staged",
    )

    def __init__(self) -> None:
        super().__init__()
        #: name → shared document state, what ``_sync`` compares against.
        self._generations: dict[str, DeltaLog] = {}
        self._pool: ThreadLocalPool[_ThreadDatabase] = ThreadLocalPool(
            lambda: _ThreadDatabase(SQLiteDatabase()))

    # -- per-thread database management ----------------------------------------

    @property
    def database(self) -> SQLiteDatabase:
        """The calling thread's database, synced to the current documents."""
        return self._thread_database().database

    def _thread_database(self) -> _ThreadDatabase:
        state = self._pool.get()
        self._sync(state)
        return state

    def _sync(self, state: _ThreadDatabase) -> None:
        """Bring ``state`` current: delta-tail replay or full (re)shred.

        The tail is the same ranged ``DELETE`` + batched ``INSERT`` the
        updating thread ran; a full load shreds the latest update's
        wrapped snapshot or, before any update, the prepared one.
        """
        pending: list[tuple] = []
        with self._lock:
            for name, doc in self._generations.items():
                have = state.loaded.get(name)
                if have != doc.current:
                    pending.append((name, doc.current, doc.pending_for(have),
                                    doc.update, self._prepared.get(name)))
        for name, current, tail, update, prepared in pending:
            if tail is not None:
                for delta in tail:
                    state.database.apply_delta(name, delta)
            elif update is not None:
                state.database.load_encoded(name, update.columns(),
                                            update.width)
            else:
                state.database.load_encoded(name, *prepared)
            state.loaded[name] = current

    def _load(self, name: str, value: "Value") -> None:
        # Called under the backend lock (base.prepare).  A fresh log is a
        # new major generation; shred eagerly for the calling thread so
        # prepare stays the untimed phase (benchmark methodology).  The
        # sync reads the load source from the prepared map, which
        # base.prepare fills only once this returns.
        self._generations[name] = DeltaLog()
        self._prepared[name] = value
        self._thread_database()

    def apply_update(self, name: str, update: "DocumentUpdate") -> bool:
        """Absorb an update as a delta-log append (or a snapshot rebase).

        :meth:`DeltaLog.absorb` decides which; either way every
        per-thread connection catches up on its next sync — replaying the
        deltas or re-shredding from the update's snapshot columns —
        without a ``Forest`` ever being materialized.
        """
        with self._lock:
            self._check_open()
            doc = self._generations.get(name)
            if doc is None or name not in self._prepared:
                return False
            doc.absorb(update)
            # The prepared snapshot is stale: the log reloads from the
            # update, and the empty-tuple sentinel marks the name prepared
            # without building the update's columns here.
            self._prepared[name] = ()
        # Shred eagerly for the calling thread (outside the backend lock;
        # prepare/update is the untimed phase).
        self._thread_database()
        return True

    def _unload(self, name: str) -> None:
        # Dropping the generation is enough: per-thread tables for the
        # old contents are replaced wholesale by the next load's sync.
        self._generations.pop(name, None)

    def _close(self) -> None:
        self._pool.close_all()

    # -- execution --------------------------------------------------------------

    def _runner(self, compiled: "CompiledQuery",
                options: ExecutionOptions) -> Callable[[], Forest]:
        self._bindings(compiled)  # uniform missing-document error
        database = self.database
        translation = database.staged(compiled.core)
        # self._tracer is read at call time, not build time, so a runner
        # built once can be driven both traced and untraced.
        return lambda: database.run_translation(
            translation, tracer=self._tracer, metrics=options.metrics,
            guard=options.guard)
