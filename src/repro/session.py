"""A stateful query session: documents + prepared queries + updates.

:func:`repro.run_xquery` is one-shot: it re-binds documents on every call.
:class:`XQuerySession` is the repository-style API a downstream
application would use:

* documents are registered once (from text, files, nodes, or generated
  XMark data) as one read-only snapshot of interval columns each — text
  is read straight into it — and every backend binds that snapshot;
* compiled queries are cached per query text; backends keep their
  loaded state (shredded SQLite tables, bound snapshots, physical plans)
  between queries;
* backends are resolved through :mod:`repro.backends` — any registered
  name works, and each instance lives for the session and is closed
  uniformly by :meth:`XQuerySession.close`;
* documents can be *updated in place* (insert/delete subtrees via the
  gap-based relabeling of :mod:`repro.encoding.updates`), invalidating
  exactly the affected backend state.
"""

from __future__ import annotations

import functools
import logging
import os
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Mapping

from repro.api import (
    CompiledQuery,
    DocumentInput,
    QueryResult,
    as_snapshot,
    compile_xquery,
)
from repro.backends.base import Backend, ExecutionOptions, coerce_strategy
from repro.backends.engine import EngineBackend
from repro.backends.registry import create_backend
from repro.compiler.cache import CompiledCache
from repro.compiler.plan import JoinStrategy
from repro.concurrency import RWLock
from repro.encoding.interval import decode
from repro.encoding.updates import DocumentUpdate, Snapshot, UpdatableDocument
from repro.engine.columns import label_dictionary_entries
from repro.engine.stats import EngineStats
from repro.errors import (
    DocumentNotFoundError,
    OverloadError,
    QueryCancelledError,
    QueryTimeoutError,
)
from repro.obs.flight import SLO, AttemptRecord, FlightRecorder, QueryRecord
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, Tracer, get_tracer
from repro.resilience.admission import (
    BATCH,
    INTERACTIVE,
    AdmissionConfig,
    AdmissionController,
    check_priority,
)
from repro.resilience.fallback import Degradation, build_chain, is_degradable
from repro.resilience.guard import CancellationToken, QueryGuard, ResourceBudget
from repro.xml.forest import Forest
from repro.xquery.lowering import document_variable

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.evaluator import Value

logger = logging.getLogger("repro.session")


class XQuerySession:
    """Documents and prepared queries with pluggable backends.

    The session owns a :class:`~repro.obs.metrics.MetricsRegistry`
    (:attr:`metrics`) counting queries run, documents loaded, and cache
    invalidations; traced runs additionally feed engine/SQL instruments
    into it.  Export with :func:`repro.obs.render_prometheus`.

    **Always-on telemetry.**  Unless constructed with ``record=False``
    the session also owns a :class:`~repro.obs.flight.FlightRecorder`
    (:attr:`recorder`): every :meth:`run` / :meth:`run_many` call —
    no flags required — lands in its ring buffer with wall/phase
    timings, outcome, plan-cache facts, and per-attempt latencies;
    anomalous runs (slow, errored — a timeout or a refused budget
    included — or degraded) keep their full span tree and emit one
    structured slow-query log line.
    :meth:`serve_telemetry` exposes ``/metrics`` + ``/healthz`` +
    ``/debug/queries`` over HTTP.  See ``docs/OBSERVABILITY.md``.

    **Thread safety.**  One session serves many threads: any number of
    :meth:`run` calls proceed concurrently (they share the read side of a
    readers–writer lock), while :meth:`add_document`,
    :meth:`apply_update`, and :meth:`close` take the write side and so
    observe — and are observed by — a quiesced session.  A query
    therefore sees a document either entirely before or entirely after an
    update, never a mix.  :meth:`run_many` runs a batch of queries on the
    session's persistent worker pool.  The full contract is documented in
    ``docs/CONCURRENCY.md``.
    """

    def __init__(self, backend: str = "engine",
                 strategy: str | JoinStrategy = JoinStrategy.MSJ,
                 record: bool = True,
                 recorder: FlightRecorder | None = None,
                 slow_seconds: float | None = None,
                 slos: "Iterable[SLO] | None" = None,
                 admission: "AdmissionConfig | bool | None" = None):
        self.backend = backend
        self.strategy = coerce_strategy(strategy)
        #: uri → the document's one read-only snapshot: ``(columns,
        #: width)`` as loaded, or the last commit's :class:`DocumentUpdate`
        #: (its columns built once, on first read).
        self._documents: dict[str, "Value | DocumentUpdate"] = {}
        #: uri → the document's trees, decoded from the snapshot on demand.
        self._forests: dict[str, Forest] = {}
        self._updatable: dict[str, UpdatableDocument] = {}
        self._compiled = CompiledCache()
        self._backends: dict[str, Backend] = {}
        #: Queries hold the read side; document mutations and close hold
        #: the write side (writer-preferring, so updates are not starved).
        self._state_lock = RWLock()
        self._backend_lock = threading.Lock()
        self._executor_lock = threading.Lock()
        self._executor: ThreadPoolExecutor | None = None
        self._executor_workers = 0
        #: Pools replaced by a larger one, still finishing their work.
        self._retired: list[ThreadPoolExecutor] = []
        self.metrics = MetricsRegistry()
        self._m_queries = self.metrics.counter(
            "repro_session_queries_total", "queries run", ("backend",))
        self._m_documents = self.metrics.counter(
            "repro_session_documents_total", "documents registered")
        self._m_invalidations = self.metrics.counter(
            "repro_session_invalidations_total",
            "backend cache invalidations after document changes")
        self._m_updates_applied = self.metrics.counter(
            "repro_session_updates_applied_total",
            "document updates absorbed by backends without a reload",
            ("backend",))
        self._m_fallbacks = self.metrics.counter(
            "repro_resilience_fallbacks_total",
            "queries answered by a fallback backend", ("source", "target"))
        self._m_timeouts = self.metrics.counter(
            "repro_resilience_timeouts_total",
            "queries cancelled at their deadline", ("backend",))
        self._m_batches = self.metrics.counter(
            "repro_session_batches_total", "query batches run via run_many")
        self._g_pool_workers = self.metrics.gauge(
            "repro_session_pool_workers",
            "worker threads in the session's batch pool")
        self._g_pool_active = self.metrics.gauge(
            "repro_session_pool_active",
            "batch queries currently executing on a worker")
        self._g_pool_queued = self.metrics.gauge(
            "repro_session_pool_queued",
            "batch queries submitted but not yet started")
        self.metrics.gauge(
            "repro_label_dictionary_entries",
            "distinct labels (names and text values) in the process-wide, "
            "append-only label dictionary").read_from(label_dictionary_entries)
        #: The always-on flight recorder (``record=False`` opts out; pass
        #: ``recorder`` to share one across sessions).  Every ``run`` /
        #: ``run_many`` call reports into it — see ``docs/OBSERVABILITY.md``.
        if recorder is not None:
            self.recorder: FlightRecorder | None = recorder
        elif record:
            kwargs: dict = {"metrics": self.metrics, "slos": slos}
            if slow_seconds is not None:
                kwargs["slow_seconds"] = slow_seconds
            self.recorder = FlightRecorder(**kwargs)
        else:
            self.recorder = None
        #: Admission control (see ``docs/ROBUSTNESS.md``): on by default
        #: with generous limits, so an unloaded session behaves exactly
        #: as before.  Pass an :class:`AdmissionConfig` to size it, or
        #: ``False`` to opt out.
        if admission is False:
            self.admission: AdmissionController | None = None
        else:
            config = admission if isinstance(admission, AdmissionConfig) \
                else None
            self.admission = AdmissionController(
                config, metrics=self.metrics, recorder=self.recorder)
        self._telemetry_lock = threading.Lock()
        self._telemetry: "object | None" = None
        self._phase_tls = threading.local()

    # -- document management ---------------------------------------------------

    def add_document(self, uri: str, source: DocumentInput) -> None:
        """Register (or replace) the document bound to ``document(uri)``.

        XML text is read straight into the document's snapshot (no tree
        is built); a node or forest is encoded once.
        """
        snapshot = as_snapshot(source)  # read before excluding readers
        with self._state_lock.write_locked():
            self._documents[uri] = snapshot
            self._forests.pop(uri, None)
            self._updatable.pop(uri, None)
            self._invalidate(uri)
        self._m_documents.inc()
        logger.debug("registered document %r (%d nodes)",
                     uri, len(snapshot[0]) - 1)

    def add_document_file(self, uri: str, path: str | Path) -> None:
        """Register a document from an XML file."""
        self.add_document(uri, Path(path).read_text())

    def add_xmark_document(self, uri: str, scale: float,
                           seed: int = 42) -> None:
        """Register a generated XMark document."""
        from repro.xmark.generator import generate_document

        self.add_document(uri, generate_document(scale, seed=seed))

    @property
    def documents(self) -> list[str]:
        with self._state_lock.read_locked():
            return sorted(self._documents)

    def document(self, uri: str) -> Forest:
        """The document's trees, decoded from its snapshot on first
        demand and cached (concurrent first readers may each decode once
        — the assignments agree, so the race is benign)."""
        with self._state_lock.read_locked():
            forest = self._forests.get(uri)
            if forest is None:
                columns, _width = self._snapshot(uri)
                forest = self._forests[uri] = decode(columns[1:])
            return forest

    def _snapshot(self, uri: str) -> "Value":
        """The document's snapshot as ``(columns, width)`` — after a
        commit a :class:`Snapshot` carrying its revision (callers hold
        the state lock)."""
        try:
            snapshot = self._documents[uri]
        except KeyError:
            raise DocumentNotFoundError(uri, sorted(self._documents)) from None
        if isinstance(snapshot, DocumentUpdate):
            return Snapshot(snapshot.columns(), snapshot.width,
                            snapshot.revision)
        return snapshot

    # -- updates --------------------------------------------------------------------

    def updatable(self, uri: str) -> UpdatableDocument:
        """The updatable encoding of a document (created on first use)."""
        with self._state_lock.read_locked():
            existing = self._updatable.get(uri)
            if existing is None:
                snapshot = self._snapshot(uri)
        if existing is not None:
            return existing
        # Built outside any lock (readers keep running) from the snapshot
        # itself, no decode and no re-encode; setdefault makes concurrent
        # builders agree on one winner, mirroring prepare().
        built = UpdatableDocument.from_snapshot(*snapshot)
        with self._state_lock.write_locked():
            return self._updatable.setdefault(uri, built)

    def apply_update(self, uri: str, updated: UpdatableDocument, *,
                     incremental: bool = True) -> None:
        """Commit an updated encoding back as the document's new state.

        Takes the session write lock: in-flight queries finish against
        the old state, queries started afterwards see the new one — a
        concurrent reader never observes half an update.

        By default the commit is *incremental*: every live backend gets
        one :class:`DocumentUpdate` through ``Backend.apply_update`` —
        the engine tiers adopt its wrapped snapshot, the relational
        adapter replays the deltas recorded since the previously
        committed revision — and the session keeps that update as the
        document's snapshot (its ``Forest`` view is re-decoded lazily on
        the next :meth:`document` call).  A backend whose
        ``apply_update`` returns ``False`` (the default) or raises is
        invalidated instead.  Setting ``incremental=False`` forces a full
        decode and re-encode, and a reload on every backend — the oracle
        the property tests compare against.
        """
        started = time.perf_counter()
        if not incremental:
            # Decode and encode afresh outside the write lock.
            forest = updated.to_forest()
            snapshot = as_snapshot(forest)
            lock_started = time.perf_counter()
            with self._state_lock.write_locked():
                self._documents[uri] = snapshot
                self._forests[uri] = forest
                self._updatable[uri] = updated
                with self._backend_lock:
                    invalidated = len(self._backends)
                self._invalidate(uri)
            self._record_update(uri, update=None, applied=0,
                                invalidated=invalidated,
                                lock_started=lock_started, started=started)
            return
        # Build the document-coordinate update outside every lock: the
        # delta chain since the committed base when unbroken (what the
        # relational adapter replays), otherwise an empty chain, plus the
        # lazily-built wrapped snapshot every other backend adopts and
        # the session keeps — no Forest is materialized.
        with self._state_lock.read_locked():
            base = self._updatable.get(uri)
        deltas = updated.deltas_since(base) if base is not None else None
        update = DocumentUpdate(
            updated.revision,
            base.revision if base is not None and deltas else None,
            tuple(delta.wrapped() for delta in (deltas or ())),
            updated)
        var = document_variable(uri)
        applied = 0
        invalidated = 0
        lock_started = time.perf_counter()
        with self._state_lock.write_locked():
            self._documents[uri] = update
            self._forests.pop(uri, None)  # re-decoded lazily by document()
            self._updatable[uri] = updated
            with self._backend_lock:
                items = list(self._backends.items())
            for name, target in items:
                try:
                    ok = target.apply_update(var, update)
                except Exception:
                    # Readers are excluded and the document has already
                    # moved on: a backend that failed half-way must not
                    # keep serving its old state, so it reloads instead.
                    logger.exception("apply_update failed on backend %r; "
                                     "invalidating %r", name, uri)
                    ok = False
                if ok:
                    applied += 1
                    self._m_updates_applied.inc(backend=name)
                    logger.debug("updated %r in place on backend %r",
                                 uri, name)
                else:
                    target.invalidate(var)
                    invalidated += 1
                    self._m_invalidations.inc()
        updated.release_base()
        self._record_update(uri, update=update, applied=applied,
                            invalidated=invalidated,
                            lock_started=lock_started, started=started,
                            relabeled=deltas is None)

    def _record_update(self, uri: str, update: "DocumentUpdate | None",
                       applied: int, invalidated: int,
                       lock_started: float, started: float,
                       relabeled: bool = False) -> None:
        recorder = self.recorder
        if recorder is None:
            return
        now = time.perf_counter()
        try:
            recorder.record_update(
                uri=uri,
                incremental=update is not None,
                deltas=len(update.deltas) if update is not None else 0,
                delta_rows=(sum(delta.size for delta in update.deltas)
                            if update is not None else 0),
                relabeled=relabeled,
                backends_applied=applied,
                backends_invalidated=invalidated,
                lock_hold_seconds=now - lock_started,
                wall_seconds=now - started)
        except Exception:  # pragma: no cover - telemetry must not break commits
            logger.exception("flight recorder rejected update record")

    # -- querying ----------------------------------------------------------------------

    def prepare(self, query: str) -> CompiledQuery:
        """Compile (and cache) a query."""
        compiled = self._compiled.get(query)
        if compiled is None:
            # Compile outside any lock (it can be slow); put() makes
            # concurrent compilers of the same text agree on one winner.
            compiled = self._compiled.put(query, compile_xquery(query))
        return compiled

    def run(self, query: str, backend: str | None = None,
            strategy: str | JoinStrategy | None = None,
            stats: EngineStats | None = None,
            trace: bool = False,
            tracer: Tracer | None = None,
            deadline: float | None = None,
            budget: "int | ResourceBudget | None" = None,
            guard: QueryGuard | None = None,
            fallback: "tuple[str, ...] | list[str]" = (),
            priority: str = INTERACTIVE,
            token: CancellationToken | None = None) -> QueryResult:
        """Run a query against the registered documents.

        ``trace=True`` collects the full lifecycle — compile passes,
        document preparation, backend execution (engine operators / SQL
        statements) — as a span tree on the returned
        :attr:`QueryResult.trace`.  ``tracer`` shares an existing tracer
        instead; with neither, the process-wide default tracer applies
        (a no-op unless :func:`repro.obs.set_tracer` installed one).
        ``stats`` (an :class:`~repro.engine.stats.EngineStats`) collects
        the Figure 10 split of the run; any backend but ``engine`` raises
        ``ValueError`` before admission.

        Resilience (see ``docs/ROBUSTNESS.md``): ``deadline`` (seconds)
        and ``budget`` (max tuples, or a
        :class:`~repro.resilience.ResourceBudget`) build a
        :class:`~repro.resilience.QueryGuard` enforced inside every
        backend; pass ``guard`` to share one across calls instead.
        ``fallback`` names backends tried once each, in order, when the
        primary fails degradably (execution failure, width overflow) —
        the result records what was given up on in
        :attr:`QueryResult.degradations`.  Deadline and budget violations
        are request-level and never fall back.

        Overload protection (on by default): the run first passes the
        session's :class:`~repro.resilience.AdmissionController` —
        ``priority`` (``"interactive"`` or ``"batch"``) orders admission
        under contention, and a shed arrival raises
        :class:`~repro.errors.OverloadError` with a retry-after hint
        instead of queueing past the request's ``deadline``.  ``token``
        is a :class:`~repro.resilience.CancellationToken` observed at
        every guard checkpoint, so cancelling it stops this run whether
        it is still queued or already executing.
        """
        return self._run(query, backend or self.backend,
                         self._effective_tracer(trace, tracer),
                         strategy=strategy, stats=stats, deadline=deadline,
                         budget=budget, guard=guard, fallback=fallback,
                         priority=priority, token=token)

    #: Backends the process tier can substitute for: the ``procpool``
    #: workers run the DI engine, so only engine-family primaries are
    #: eligible for transparent promotion.
    _PROCESS_CAPABLE = ("engine", "procpool")

    def run_many(self, queries: "Iterable[str]", *,
                 max_workers: int | None = None,
                 tier: str = "auto",
                 backend: str | None = None,
                 strategy: str | JoinStrategy | None = None,
                 trace: bool = False,
                 tracer: Tracer | None = None,
                 deadline: float | None = None,
                 budget: "int | ResourceBudget | None" = None,
                 fallback: "tuple[str, ...] | list[str]" = (),
                 return_errors: bool = False,
                 priority: str = BATCH,
                 token: CancellationToken | None = None,
                 ) -> "list[QueryResult | BaseException]":
        """Run a batch of queries concurrently on the session's worker pool.

        Each query goes through :meth:`run` on a pool thread, so the full
        per-query machinery composes unchanged: ``deadline``/``budget``
        build a fresh :class:`~repro.resilience.QueryGuard` per query
        (guards are stateful and never shared), and ``fallback`` applies
        to each query independently.  Results come back **in input
        order** regardless of completion order.

        The pool is persistent: repeated batches reuse the same worker
        threads.  A ``max_workers`` *larger* than the current pool grows
        it (one rebuild); a smaller request reuses the pool unchanged.
        ``max_workers`` must be a positive integer — ``0`` or a negative
        value raises :class:`ValueError` instead of silently falling back
        to the default size.

        ``tier`` picks the execution substrate for engine-family
        batches:  ``"thread"`` is the thread pool above (one interpreter:
        only the NumPy kernels can overlap), ``"process"`` routes
        every query to the ``procpool`` backend — a pool of worker
        processes attached zero-copy to shared-memory document encodings
        — and ``"auto"`` (default) promotes engine batches to the
        process tier on multi-core hosts when the batch is big enough to
        amortize the dispatch.  Non-engine backends always run on the
        thread tier; ``tier="process"`` with an incompatible explicit
        backend raises :class:`ValueError`.  See docs/CONCURRENCY.md
        "Process-parallel serving".

        ``trace=True`` collects one span tree per query (rooted at
        ``batch.query``, tagged with the input index and worker thread)
        on a tracer shared by the whole batch; each
        :attr:`QueryResult.trace` points at its own query's tree.

        Errors are collected, not fire-and-forget: by default the first
        failing query **by input order** is re-raised after every query
        has finished; with ``return_errors=True`` the exception object
        takes the failed query's slot in the returned list instead.

        Batch queries admit at ``priority="batch"`` by default, so a
        flood of background work never starves interactive callers.
        ``token`` cancels the whole batch — queued queries shed at
        admission, running ones stop at the next guard checkpoint — and
        surfaces as :class:`~repro.errors.QueryCancelledError` in the
        results; ``deadline`` bounds each query on its own.
        """
        check_priority(priority)
        batch = list(queries)
        if max_workers is not None and (
                not isinstance(max_workers, int)
                or isinstance(max_workers, bool)
                or max_workers < 1):
            raise ValueError(
                f"max_workers must be a positive integer, got {max_workers!r}")
        if not batch:
            return []
        backend = self._tier_backend(tier, backend, len(batch))
        workers = max_workers if max_workers is not None \
            else max(1, min(len(batch), os.cpu_count() or 4))
        active = self._effective_tracer(trace, tracer)
        self._m_batches.inc()
        self._g_pool_queued.inc(len(batch))

        def work(index: int, query: str) -> QueryResult:
            # Queued→active hand-off and the active decrement both live in
            # ``finally`` blocks, so a raising worker can never strand a
            # gauge.  No future is cancelled before a worker picks it up:
            # a cancelled batch token sheds each query at admission.
            self._g_pool_queued.dec()
            try:
                self._g_pool_active.inc()
                tr = active if active is not None else NULL_TRACER
                with tr.span("batch.query", index=index,
                             worker=threading.current_thread().name):
                    return self.run(query, backend=backend, strategy=strategy,
                                    tracer=active, deadline=deadline,
                                    budget=budget, fallback=fallback,
                                    priority=priority, token=token)
            finally:
                self._g_pool_active.dec()

        futures: "list[Future[QueryResult]]" = self._submit(workers, [
            functools.partial(work, index, query)
            for index, query in enumerate(batch)])
        results: "list[QueryResult | BaseException]" = []
        first_error: BaseException | None = None
        for future in futures:
            try:
                results.append(future.result())
            except BaseException as error:  # collected, re-raised below
                results.append(error)
                if first_error is None:
                    first_error = error
        if first_error is not None and not return_errors:
            raise first_error
        return results

    async def run_async(self, query: str, **kwargs) -> QueryResult:
        """Run one query without blocking the calling event loop.

        The asyncio front of the serving stack: the query executes via
        :meth:`run` (every keyword argument passes through — backend,
        strategy, deadline/budget/guard, fallback, priority, token)
        on the session's persistent worker pool while the event
        loop stays free, so one process can hold thousands of in-flight
        requests.  Pair with ``backend="procpool"`` to push the actual
        evaluation into worker processes: the pool thread then only
        waits on a pipe (releasing the GIL), and throughput scales with
        cores instead of threads.  See docs/CONCURRENCY.md.
        """
        import asyncio

        future, = self._submit(max(2, min(32, (os.cpu_count() or 4) * 2)),
                               [functools.partial(self.run, query, **kwargs)])
        return await asyncio.wrap_future(future)

    def _tier_backend(self, tier: str, backend: str | None,
                      batch_size: int) -> str | None:
        """Resolve the ``run_many`` execution tier to a backend name.

        ``"thread"`` leaves the caller's backend alone; ``"process"``
        substitutes ``procpool`` (refusing incompatible explicit
        backends); ``"auto"`` promotes engine-family batches to the
        process tier when the host has more than one core and the batch
        is large enough (≥ 4 queries) to amortize dispatch overhead.
        """
        if tier not in ("auto", "thread", "process"):
            raise ValueError(
                f"tier must be 'auto', 'thread', or 'process', got {tier!r}")
        if tier == "thread":
            return backend
        name = backend or self.backend
        if tier == "process":
            if name not in self._PROCESS_CAPABLE:
                raise ValueError(
                    f"tier='process' runs the DI engine in pool workers; "
                    f"backend {name!r} cannot be promoted (use "
                    f"tier='thread' or an engine-family backend)")
            return "procpool"
        if (name in self._PROCESS_CAPABLE and batch_size >= 4
                and (os.cpu_count() or 1) > 1):
            return "procpool"
        return backend

    def _submit(self, workers: int,
                calls: "list[Callable[[], QueryResult]]",
                ) -> "list[Future[QueryResult]]":
        """Submit ``calls`` to the persistent pool, grown (never shrunk)
        to ``workers``.

        Growing replaces the pool once; a smaller request reuses the
        existing pool — idle threads are cheap, and replacing the pool
        to shrink it would only start threads again.  Replacing the pool
        and submitting to it happen under one lock, so no call reaches a
        pool that is shut down; a replaced pool finishes what it holds
        (:meth:`close` waits for it).
        """
        with self._executor_lock:
            executor = self._executor
            if executor is None or workers > self._executor_workers:
                if executor is not None:
                    executor.shutdown(wait=False)
                    self._retired.append(executor)
                workers = max(workers, self._executor_workers)
                executor = self._executor = ThreadPoolExecutor(
                    max_workers=workers, thread_name_prefix="repro-worker")
                self._executor_workers = workers
                self._g_pool_workers.set(workers)
            return [executor.submit(call) for call in calls]

    def _run(self, query: str, name: str, active: Tracer | None, *,
             strategy: str | JoinStrategy | None,
             stats: EngineStats | None,
             deadline: float | None,
             budget: "int | ResourceBudget | None",
             guard: QueryGuard | None,
             fallback: "tuple[str, ...] | list[str]",
             priority: str,
             token: CancellationToken | None) -> QueryResult:
        """The one run path: resolve → admit → compile → attempt → record.

        Every entry point lands here — :meth:`run`, and through it
        :meth:`run_many` and :meth:`run_async`.  ``active`` is the
        caller's tracer or ``None``; only a caller's tracer instruments
        backends, fills engine/SQL metrics and surfaces on
        :attr:`QueryResult.trace`.
        """
        check_priority(priority)
        admission = self.admission
        if admission is not None:
            level = admission.brownout.level
            if level.force_backend is not None:
                name = level.force_backend
        EngineStats.check_backend(stats, name)
        if guard is None and (deadline is not None or budget is not None
                              or token is not None):
            guard = QueryGuard(deadline=deadline, budget=budget, token=token)
        elif guard is not None and token is not None and guard.token is None:
            guard.token = token
        if guard is not None and not guard.enabled:
            guard = None
        ticket = None
        if admission is not None:
            try:
                # ``remaining`` on a not-yet-started guard is the full
                # deadline, read without touching the guard's clock; the
                # controller bounds queue wait on its *own* clock.
                ticket = admission.try_acquire(
                    priority,
                    deadline=guard.remaining if guard is not None else None,
                    token=token)
            except (OverloadError, QueryCancelledError) as error:
                # Refused before execution: a zero wall time and no
                # attempt, so the latency histograms never see it.
                self._record(query, name, error=error, wall_seconds=0.0)
                raise
        self._m_queries.inc(backend=name)
        full = active is not None
        if full:
            tr = active
        elif self.recorder is not None:
            tr = self._phase_tracer()
        else:
            tr = NULL_TRACER
        options = ExecutionOptions(
            strategy=self._strategy(strategy), stats=stats,
            metrics=self.metrics if full else None, guard=guard)
        try:
            with self._state_lock.read_locked():
                return self._run_chain(
                    query, build_chain(name, tuple(fallback)), options, tr,
                    full)
        finally:
            if ticket is not None:
                admission.release(ticket)

    def _run_chain(self, query: str, chain: list[str],
                   options: ExecutionOptions, tr: Tracer,
                   full: bool) -> QueryResult:
        """Compile, try each backend of ``chain`` once, record the run.

        The span tree is the same for every run: ``query`` → ``compile``,
        then one ``attempt`` (→ ``prepare``, ``execute``) per backend
        tried.  The flight record is written in the ``finally`` —
        success, degradation and raised errors all land in the ring
        buffer, each with one :class:`AttemptRecord` per backend tried,
        failures included.
        """
        name = chain[0]
        guard = options.guard
        attempts: list[AttemptRecord] = []
        degradations: list[Degradation] = []
        result: QueryResult | None = None
        error: BaseException | None = None
        if full:
            logger.debug("traced run on backend %r: %.60s", name, query)
        start = time.perf_counter()
        try:
            with tr.span("query", backend=name) as root:
                with tr.span("compile") as compile_span:
                    compiled = self.prepare(query)
                for backend in chain:
                    if guard is not None:
                        guard.backend = backend
                        guard.start().check()  # never start an attempt past limit
                    try:
                        forest = self._attempt(compiled, backend, options, tr,
                                               full, attempts)
                        break
                    except Exception as raised:
                        if isinstance(raised, QueryTimeoutError):
                            self._m_timeouts.inc(backend=backend)
                        # Deadline, budget and cancellation are verdicts on
                        # the request: no other backend changes them.  The
                        # last backend (the chain has no duplicates) has
                        # none to degrade to.
                        if not is_degradable(raised) or backend == chain[-1]:
                            raise
                        logger.debug("degrading from backend %r: %s",
                                     backend, raised)
                        degradations.append(
                            Degradation.from_error(backend, raised))
                if degradations:
                    self._m_fallbacks.inc(source=name, target=backend)
                root.set(backend=backend, degraded=bool(degradations))
                # Compilation passes run (and are cached) outside this
                # trace — parse/lower at the first compile of the text,
                # decorrelate/plan/isolate when the engine built the plan
                # this run used.  A caller's trace gets them grafted under
                # the compile span, cached or not; the recorder's
                # phase-level tree skips them (they are the most
                # expensive allocations on this path).
                if full:
                    for record in (compiled.passes
                                   + options.extra.get("plan_passes", ())):
                        span = tr.record_span(f"pass.{record.name}",
                                              record.seconds,
                                              parent=compile_span,
                                              compiler_pass=record.name)
                        if record.detail:
                            span.set(detail=record.detail)
            result = QueryResult(forest,
                                 trace=root if full else None,
                                 tracer=tr if full else None,
                                 backend=backend,
                                 degradations=tuple(degradations))
            return result
        except BaseException as raised:
            error = raised
            raise
        finally:
            record = self._record(query, name, result=result, error=error,
                                  wall_seconds=time.perf_counter() - start,
                                  root=root, attempts=tuple(attempts),
                                  guard=guard, extra=options.extra)
            if result is not None:
                result._record = record  # to_xml adds the serialize phase

    def _attempt(self, compiled: CompiledQuery, name: str,
                 options: ExecutionOptions, tr: Tracer, full: bool,
                 attempts: list[AttemptRecord]) -> Forest:
        """One backend's prepare + execute, recorded as one attempt."""
        target = self.backend_instance(name)
        begin = time.perf_counter()
        failure: str | None = None
        try:
            with tr.span("attempt", backend=name):
                with tr.span("prepare") as prepare_span:
                    target.prepare(self._prepare_bindings(compiled, target))
                    prepare_span.set(documents=len(compiled.documents))
                if full:
                    target.instrument(tr)
                try:
                    with tr.span("execute") as execute_span:
                        forest = target.execute(compiled, options)
                        execute_span.set(trees=len(forest))
                finally:
                    if full:
                        target.instrument(None)
            return forest
        except BaseException as error:
            failure = type(error).__name__
            raise
        finally:
            attempts.append(AttemptRecord(
                name, time.perf_counter() - begin, failure))

    def _record(self, query: str, name: str,
                **fields: object) -> "QueryRecord | None":
        """Flight-record one run (executed or refused at admission)."""
        recorder = self.recorder
        if recorder is None:
            return None
        try:
            return recorder.record_run(query=query, backend=name, **fields)
        except Exception:  # never let telemetry sink a query result
            logger.exception("flight recorder failed for %.60s", query)
            return None

    def _phase_tracer(self) -> Tracer:
        """The calling thread's reusable phase-level tracer.

        Untraced recorded runs need a real tracer for the handful of
        phase spans the flight recorder reads, but allocating a
        :class:`Tracer` (and its ``threading.local``) per run is
        measurable on sub-millisecond queries.  One tracer per thread,
        roots cleared per run, keeps the hot path allocation-light;
        retained (tail-sampled) span trees stay valid because clearing
        ``roots`` never mutates the spans themselves.
        """
        tracer = getattr(self._phase_tls, "tracer", None)
        if tracer is None:
            tracer = Tracer()
            self._phase_tls.tracer = tracer
        else:
            tracer.roots.clear()
        return tracer

    def _effective_tracer(self, trace: bool = False,
                          tracer: Tracer | None = None) -> Tracer | None:
        """The tracer a run should use, or None for the untraced path."""
        if tracer is not None:
            return tracer if tracer.enabled else None
        if trace:
            return Tracer()
        ambient = get_tracer()
        return ambient if ambient.enabled else None

    # -- telemetry -------------------------------------------------------------------

    def serve_telemetry(self, port: int = 0, host: str = "127.0.0.1"):
        """Start this session's HTTP server on a background thread.

        The same :class:`~repro.serving.QueryServer` that ``python -m
        repro serve`` runs, every route included: ``/metrics``,
        ``/healthz``, ``/debug/queries`` and ``POST /query`` (see
        :mod:`repro.serving`).  ``port=0`` picks a free port; read it
        back from the returned :class:`~repro.serving.ServerThread`'s
        ``.port``.  Idempotent — a second call returns the running
        server.  :meth:`close` shuts it down.
        """
        from repro.serving import QueryServer, ServerThread

        with self._telemetry_lock:
            if self._telemetry is None:
                self._telemetry = ServerThread(
                    QueryServer(self, host=host, port=port)).start()
            return self._telemetry

    def health(self) -> dict[str, object]:
        """The liveness snapshot behind ``/healthz``.

        ``status`` is graded for load balancers: ``"ok"``, or
        ``"shedding"`` while admission control is refusing work
        (draining, queue at bound, or within the post-shed hold window).
        The HTTP endpoint maps ``"shedding"`` to 503 so a shedding
        instance rotates out — see
        :mod:`repro.serving`.  ``documents``
        maps each document to the engine's numbers for it (entries,
        bytes, bound, refused — entries not kept because the first-fit
        bound was full — carried, recomputed:
        :meth:`~repro.backends.engine.EngineBackend.document_stats`), or
        to ``None`` where the engine has not bound it.
        """
        shedding = self.admission is not None and self.admission.shedding
        payload: dict[str, object] = {
            "status": "shedding" if shedding else "ok",
            "backend": self.backend,
            "documents": self._document_health(),
            "active_backends": self.active_backends,
            "pool": {
                "workers": int(self._g_pool_workers.value()),
                "active": int(self._g_pool_active.value()),
                "queued": int(self._g_pool_queued.value()),
            },
        }
        if self.admission is not None:
            payload["admission"] = self.admission.snapshot()
        if self.recorder is not None:
            payload["flight"] = self.recorder.stats()
            payload["slos"] = self.recorder.slo_status()
        return payload

    def _document_health(self) -> dict[str, dict[str, int] | None]:
        engine = self._backends.get("engine")
        bound = engine.document_stats() \
            if isinstance(engine, EngineBackend) else {}
        return {uri: bound.get(document_variable(uri))
                for uri in self.documents}

    def explain(self, query: str,
                strategy: str | JoinStrategy | None = None,
                verbose: bool = False, analyze: bool = False) -> str:
        """The physical plan the engine backend runs for ``query``.

        ``analyze=True`` (EXPLAIN ANALYZE) runs the engine's cached plan
        once and shows, on every node it evaluated, ``obs N tuples,
        w=W, E envs, X.X ms`` (and ``k×`` past one call), then the run's
        total; the plan cache is left as it was found.  ``verbose=True``
        prepends the compilation pass table
        (:meth:`~repro.api.CompiledQuery.pipeline`).
        """
        compiled = self.prepare(query)
        if not analyze:
            return compiled.explain(self._strategy(strategy), verbose=verbose)
        target = self.backend_instance("engine")
        options = ExecutionOptions(strategy=self._strategy(strategy))
        with self._state_lock.read_locked():
            target.prepare(self._prepare_bindings(compiled, target))
            rendered = target.analyze(compiled, options)
        if not verbose:
            return rendered
        report, _plan = compiled.pipeline(options.strategy)
        return f"{report}\n\nphysical plan:\n{rendered}"

    # -- backends --------------------------------------------------------------------

    def backend_instance(self, name: str) -> Backend:
        """The session's live backend for ``name`` (created on first use).

        Resolution goes through the backend registry, so any backend
        registered via :func:`repro.backends.register_backend` — including
        third-party ones — is available here and in :meth:`run`.
        Creation is double-checked so concurrent workers share one
        instance per name.
        """
        target = self._backends.get(name)
        if target is None:
            with self._backend_lock:
                target = self._backends.get(name)
                if target is None:
                    target = create_backend(name)
                    self._backends[name] = target
        return target

    @property
    def active_backends(self) -> list[str]:
        """Names of backends this session has instantiated."""
        return sorted(self._backends)

    def close(self, drain_timeout: float | None = None) -> None:
        """Close every live backend; the session can keep being used.

        Shutdown is a graceful drain: admission stops accepting (queued
        waiters shed with :class:`~repro.errors.OverloadError`, new
        arrivals refuse with reason ``draining``), in-flight queries get
        ``drain_timeout`` seconds to finish (``None`` = wait for all of
        them), and whatever is still running past the timeout has its
        cancellation token tripped so it stops at the next guard
        checkpoint.  The worker pool is drained *before* the write lock
        is taken (workers hold the read side while running, so shutting
        down under the write lock would deadlock); backends are then
        closed with the session quiesced, and admission reopens at the
        end — a closed session stays usable, exactly as before.
        """
        with self._telemetry_lock:
            server, self._telemetry = self._telemetry, None
        if server is not None:
            server.stop()
        admission = self.admission
        if admission is not None:
            admission.begin_drain()
            if not admission.wait_idle(drain_timeout):
                cancelled = admission.cancel_in_flight("session close")
                logger.warning(
                    "drain timed out after %.3fs; cancelled %d in-flight "
                    "quer%s", drain_timeout, cancelled,
                    "y" if cancelled == 1 else "ies")
        with self._executor_lock:
            executor, self._executor = self._executor, None
            self._executor_workers = 0
            pools, self._retired = self._retired, []
        if executor is not None:
            pools.append(executor)
            self._g_pool_workers.set(0)
        for pool in pools:
            pool.shutdown(wait=True)
        with self._state_lock.write_locked():
            with self._backend_lock:
                backends = list(self._backends.values())
                self._backends.clear()
            for target in backends:
                target.close()
        if admission is not None:
            admission.end_drain()

    def __enter__(self) -> "XQuerySession":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- internals -------------------------------------------------------------------------

    def _strategy(self, strategy: str | JoinStrategy | None) -> JoinStrategy:
        if strategy is None:
            return self.strategy
        return coerce_strategy(strategy)

    def _prepare_bindings(self, compiled: CompiledQuery,
                          target: Backend) -> "dict[str, Value]":
        """Bindings for ``target.prepare``: var → the document's snapshot,
        for the documents ``target`` has not prepared yet.

        A prepared name is left out, so a backend that absorbed a commit
        as deltas never makes the commit build its wrapped snapshot
        (:meth:`DocumentUpdate.columns` is O(document)).  Missing
        documents fail here, before any backend is touched.
        """
        prepared = target.prepared
        with self._state_lock.read_locked():
            return {var: self._snapshot(uri)
                    for uri, var in compiled.documents.items()
                    if var not in prepared}

    def _invalidate(self, uri: str) -> None:
        """Drop every backend's state for one document after it changed.

        Callers hold the session write lock, so no query is mid-flight
        while backend state is dropped; each live backend is counted
        exactly once in ``repro_session_invalidations_total``.
        """
        var = document_variable(uri)
        with self._backend_lock:
            items = list(self._backends.items())
        for name, target in items:
            target.invalidate(var)
            self._m_invalidations.inc()
            logger.debug("invalidated %r on backend %r", uri, name)
