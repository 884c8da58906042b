"""Backend adapter for the Section 4 translation executed on SQLite."""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.backends.base import Backend, BackendCapabilities, ExecutionOptions
from repro.backends.registry import register_backend
from repro.encoding.updates import snapshot_revision
from repro.sql.sqlite_backend import SQLITE_MAX_WIDTH, SQLiteDatabase
from repro.xml.forest import Forest

if TYPE_CHECKING:  # pragma: no cover
    from repro.api import CompiledQuery
    from repro.encoding.updates import DocumentUpdate
    from repro.engine.evaluator import Value


@register_backend
class SQLiteBackend(Backend):
    """Run the Section 4 SQL translation, staged, on a stock SQLite
    engine: one temporary table per CTE of the translation, filled in
    order (``run_translation``'s default ``mode="staged"``;
    docs/PERFORMANCE.md says why not the single statement).  The
    connection keeps its recently run translations and their tables
    (:meth:`~repro.sql.sqlite_backend.SQLiteDatabase.staged`), so a warm
    run neither translates nor issues DDL.

    One :class:`~repro.sql.sqlite_backend.SQLiteDatabase` — one
    ``:memory:`` connection — holds every prepared document for all
    threads, and every use of it holds the backend lock: a load's shred,
    a commit, each run's statements, and :meth:`~Backend.close`.  Runs
    on one backend therefore take turns, and a commit is applied once.
    A run queued on the lock past its deadline, or whose token is
    cancelled meanwhile, stops at the guard check its first statement
    makes.
    """

    name = "sqlite"
    capabilities = BackendCapabilities(
        max_width=SQLITE_MAX_WIDTH,  # 64-bit integers, Section 4.3
        strategies=(),  # join choice belongs to SQLite's own planner
        description="Section 4 SQL translation on SQLite, staged",
    )

    def __init__(self) -> None:
        super().__init__()
        self.database = SQLiteDatabase()
        #: name → the commit revision its table holds (``None``: the
        #: document as loaded).
        self._held: dict[str, int | None] = {}

    # -- documents ----------------------------------------------------------------

    def _load(self, name: str, value: "Value") -> None:
        # Under the backend lock (base.prepare); shredding here keeps
        # prepare the untimed phase (benchmark methodology).
        self.database.load_encoded(name, *value)
        self._held[name] = snapshot_revision(value)

    def apply_update(self, name: str, update: "DocumentUpdate") -> bool:
        """Bring the table of ``name`` to ``update.revision``.

        Committing the revision already held changes nothing.  When the
        held revision is the update's base, its deltas are replayed — a
        ranged ``DELETE`` plus one batched ``INSERT`` each.  Any other
        update (the first after a load, a relabel or width change in the
        chain) reshreds the table from the update's wrapped snapshot,
        without a ``Forest`` ever being materialized.
        """
        with self._lock:
            self._check_open()
            if name not in self._prepared:
                return False
            held = self._held[name]
            if held != update.revision:
                if update.deltas and held == update.base_revision:
                    for delta in update.deltas:
                        self.database.apply_delta(name, delta)
                else:
                    self.database.load_encoded(name, update.columns(),
                                               update.width)
                self._held[name] = update.revision
            # The prepared snapshot is stale; the empty-tuple sentinel
            # marks the name prepared without building the update's
            # columns here.
            self._prepared[name] = ()
        return True

    def _unload(self, name: str) -> None:
        # The table stays; the next load of the name refills it.
        self._held.pop(name, None)

    def _close(self) -> None:
        with self._lock:
            self.database.close()

    # -- execution --------------------------------------------------------------

    def _runner(self, compiled: "CompiledQuery",
                options: ExecutionOptions) -> Callable[[], Forest]:
        database = self.database
        with self._lock:
            self._bindings(compiled)  # uniform missing-document error
            database.staged(compiled.core)  # translate in the untimed phase

        def run() -> Forest:
            with self._lock:
                self._check_open()
                # Staged again under the lock: a commit since the runner
                # was built may have changed a document's width.  The
                # tracer is read at call time, so a runner built once can
                # be driven both traced and untraced.
                return database.run_translation(
                    database.staged(compiled.core), tracer=self._tracer,
                    metrics=options.metrics, guard=options.guard)

        return run
