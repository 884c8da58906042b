"""Backend adapter for the process-parallel execution tier.

Each prepared document is the session's wrapped snapshot, exported once
to a persistent :class:`~repro.concurrency.procpool.ProcessQueryPool`
through shared memory (zero-copy attach in every worker); nothing is
encoded here.  ``execute`` fans one query to one warm worker.

The adapter deliberately reuses the whole :class:`Backend` contract:
sessions prepare/invalidate/close it exactly like the in-process engine
backend, a worker crash is absorbed by the pool (one respawn and
resubmit) and a second one in a row surfaces as the transient
:class:`~repro.errors.WorkerDiedError`, which a session's fallback chain
moves on from, and closing the backend unlinks every shared-memory
segment.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Callable

from repro.backends.base import Backend, BackendCapabilities, ExecutionOptions
from repro.backends.registry import register_backend
from repro.compiler.plan import JoinStrategy
from repro.concurrency.procpool import ProcessQueryPool
from repro.engine.evaluator import Value
from repro.xml.forest import Forest

if TYPE_CHECKING:  # pragma: no cover
    from repro.api import CompiledQuery
    from repro.encoding.updates import DocumentUpdate


@register_backend
class ProcPoolBackend(Backend):
    """Execute queries on a pool of engine workers in separate processes.

    The pool is created lazily on the first :meth:`prepare`, sized to
    ``REPRO_POOL_WORKERS`` or the CPU count, and lives until
    :meth:`close`.  Workers compile query text themselves (each keeps a
    compiled-query cache) and run it on the shared document encodings,
    so per-query traffic over the pipe is the query string in and the
    result in preorder form out (its distinct-label table and int32 row
    positions, depths and subtree ends: no tree is built in the worker,
    on the pipe, or here).

    Limitations relative to the in-process ``engine`` backend: runs are
    not traced span-by-span across the process boundary (the flight
    recorder attributes the run to its worker instead), ``stats`` is
    not forwarded, and queries are compiled with default settings in
    the worker.
    """

    name = "procpool"
    capabilities = BackendCapabilities(
        max_width=None,
        strategies=(JoinStrategy.MSJ, JoinStrategy.NLJ),
        description="process-parallel DI engine over shared-memory columns",
    )

    def __init__(self, workers: int | None = None,
                 start_method: str | None = None):
        super().__init__()
        if workers is None:
            env = os.environ.get("REPRO_POOL_WORKERS")
            workers = int(env) if env else None
        self._workers = workers
        self._start_method = start_method
        self._pool: ProcessQueryPool | None = None

    @property
    def pool(self) -> ProcessQueryPool | None:
        """The live pool, or ``None`` before the first prepare (tests)."""
        return self._pool

    def _ensure_pool(self) -> ProcessQueryPool:
        if self._pool is None:
            self._pool = ProcessQueryPool(workers=self._workers,
                                          start_method=self._start_method)
        return self._pool

    # -- document lifecycle ---------------------------------------------------

    def _load(self, name: str, value: Value) -> None:
        self._ensure_pool().register_document(name, value)

    def apply_update(self, name: str, update: "DocumentUpdate") -> bool:
        """Publish the commit's wrapped snapshot to every worker.

        The snapshot is exported as one fresh segment and the old one is
        unlinked once every worker has adopted it — no ``Forest``
        materialization, and the parent keeps no columns of its own.
        """
        with self._lock:
            self._check_open()
            if name not in self._prepared or self._pool is None:
                return False
            value = (update.columns(), update.width)
            self._pool.register_document(name, value)
            self._prepared[name] = value
        return True

    def _unload(self, name: str) -> None:
        if self._pool is not None:
            self._pool.unregister_document(name)

    def _close(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def warmup(self, queries: "tuple[str, ...] | list[str]") -> None:
        """Pre-compile query texts on every worker (serving cold-start)."""
        self._check_open()
        self._ensure_pool().warmup(queries)

    @property
    def segment_names(self) -> tuple[str, ...]:
        """Live shared-memory segment names (shm-leak checks)."""
        return self._pool.segment_names if self._pool is not None else ()

    # -- execution ------------------------------------------------------------

    def _runner(self, compiled: "CompiledQuery",
                options: ExecutionOptions) -> Callable[[], Forest]:
        self._bindings(compiled)  # uniform missing-document error
        pool = self._ensure_pool()
        query = compiled.source

        def run() -> Forest:
            forest, worker = pool.execute(query, strategy=options.strategy,
                                          guard=options.guard)
            options.extra["worker"] = worker
            return forest

        return run
