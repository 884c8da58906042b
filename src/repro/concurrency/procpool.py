"""Process-parallel query execution over shared-memory columnar encodings.

Threads of :meth:`XQuerySession.run_many` share one interpreter: the DI
engine's NumPy kernels may release the GIL, the Python between them
(plan walking, decode, serialization) runs one thread at a time.  This
module adds the process tier behind the ``procpool`` backend — whole
queries fanned out to warm workers, one query per worker at a time:

* **Shared documents, not copied documents.**  The immutable columnar
  encoding (:class:`~repro.engine.columns.IntervalColumns`) is exported
  once into a ``multiprocessing.shared_memory`` segment
  (:func:`~repro.engine.columns.export_columns`); every worker attaches
  it zero-copy.  Every relation can be laid out in a segment — the
  empty one, and labels of any characters — so there is no second way
  for a document to reach a worker.
* **Start-method-agnostic workers.**  The worker entry point is a
  top-level function and all state crosses the pipe explicitly, so the
  pool runs identically under ``fork``, ``spawn``, and ``forkserver``
  (``fork`` is preferred when available for its cheap startup; override
  with ``start_method=`` or ``REPRO_START_METHOD``).
* **Crash → respawn and resubmit, once.**  A worker dying mid-request
  is respawned (with its documents) and the query is resubmitted once to
  the fresh process, unless the query's guard expired or was cancelled
  meanwhile; the caller sees nothing.  A second death in a row surfaces
  as :class:`~repro.errors.WorkerDiedError` (a
  :class:`~repro.errors.TransientBackendError`, so a session's fallback
  chain moves on), with the worker respawned again for the next caller.
* **Cancellation and deadlines cross the boundary.**  The parent polls
  the caller's :class:`~repro.resilience.CancellationToken` while
  waiting on the pipe and kills the worker on a trip
  (:class:`~repro.errors.QueryCancelledError`); deadlines are enforced
  cooperatively by the worker's own :class:`QueryGuard` with a
  parent-side kill after ``grace_seconds`` as the hung-worker backstop.

All segments are unlinked by the exporting process on
``unregister_document``/``close`` — after ``session.close()`` no
``/dev/shm/repro_cols_*`` entry survives (CI asserts this).
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import signal
import threading
import time
import traceback
from typing import TYPE_CHECKING, Iterable, Mapping

from repro.compiler.cache import CompiledCache
from repro.engine.columns import export_columns
from repro.errors import (
    ExecutionError,
    QueryCancelledError,
    QueryTimeoutError,
    ReproError,
    ResourceBudgetError,
    WorkerDiedError,
)

if TYPE_CHECKING:  # pragma: no cover
    from multiprocessing.shared_memory import SharedMemory

    from repro.compiler.plan import JoinStrategy
    from repro.resilience.guard import CancellationToken, QueryGuard
    from repro.xml.forest import PreorderForest

logger = logging.getLogger("repro.procpool")

#: Parent-side pipe poll stride: the cancellation-token reaction time.
POLL_SECONDS = 0.05

#: Extra seconds past a query's deadline before the parent declares the
#: worker hung and kills it (the worker normally times itself out first).
DEFAULT_GRACE_SECONDS = 5.0


def default_start_method() -> str:
    """``fork`` when the platform offers it, else ``spawn``."""
    override = os.environ.get("REPRO_START_METHOD")
    if override:
        return override
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


# -- worker process ------------------------------------------------------------

def _worker_main(conn, documents: "Mapping[str, tuple]") -> None:
    """One pool worker: adopt the shipped documents, answer requests.

    Top level (not a closure, not a lambda) so every start method can
    import it; all state arrives via ``documents`` and the pipe.  Replies
    are strictly one per request, so the parent's send/recv pairing is a
    protocol invariant, not a convention.
    """
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # parent owns Ctrl-C
        # A forked worker inherits the parent's SIGTERM handler; one that
        # raises (the CLI's, a benchmark runner's) would unwind the
        # worker mid-teardown, past the detach of its attached segments.
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    state = _WorkerState()
    try:
        for var, payload in documents.items():
            state.adopt(var, payload)
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            try:
                reply = state.handle(message)
            except Exception as error:  # noqa: BLE001 - shipped to parent
                reply = ("err", _describe_error(error))
            if reply is None:  # stop
                try:
                    conn.send(("ok", None))
                except OSError:  # pragma: no cover
                    pass
                break
            try:
                conn.send(reply)
            except (BrokenPipeError, OSError):
                break
    finally:
        state.close()
        try:
            conn.close()
        except OSError:  # pragma: no cover
            pass


class _WorkerState:
    """Worker-side documents, engine backend, and compiled-query cache."""

    def __init__(self) -> None:
        from repro.backends.registry import create_backend

        self._backend = create_backend("engine")
        self._attached: dict[str, object] = {}
        self._compiled = CompiledCache()

    def adopt(self, var: str, payload: tuple) -> None:
        descriptor, width = payload
        attachment = descriptor.attach()
        self._backend.invalidate(var)
        try:
            self._backend.adopt_encoded(var, (attachment.columns, width))
        except BaseException:
            attachment.detach()  # never orphan a mapped segment
            raise
        old = self._attached.get(var)
        self._attached[var] = attachment
        if old is not None:
            old.detach()

    def drop(self, var: str) -> None:
        self._backend.invalidate(var)
        attachment = self._attached.pop(var, None)
        if attachment is not None:
            attachment.detach()

    def handle(self, message: tuple) -> "tuple | None":
        kind = message[0]
        if kind == "query":
            return self._query(message[1])
        if kind == "doc":
            _kind, var, payload = message
            self.adopt(var, payload)
            return ("ok", None)
        if kind == "drop":
            self.drop(message[1])
            return ("ok", None)
        if kind == "warm":
            self._compile(message[1])
            return ("ok", None)
        if kind == "ping":
            return ("ok", "pong")
        if kind == "sleep":  # test hook: an unresponsive worker
            time.sleep(float(message[1]))
            return ("ok", None)
        if kind == "exit":  # test hook: a hard crash
            os._exit(int(message[1]))
        if kind == "stop":
            return None
        return ("err", {"kind": "ExecutionError",
                        "message": f"unknown pool message {kind!r}"})

    def _query(self, spec: Mapping[str, object]) -> tuple:
        from repro.backends.base import ExecutionOptions
        from repro.compiler.plan import JoinStrategy
        from repro.resilience.guard import QueryGuard, ResourceBudget

        compiled = self._compile(spec["query"])
        budget = ResourceBudget(max_tuples=spec.get("max_tuples"),
                                max_envs=spec.get("max_envs"),
                                max_width=spec.get("max_width"))
        deadline = spec.get("deadline")
        guard = (QueryGuard(deadline=deadline, budget=budget)
                 if deadline is not None or budget else None)
        options = ExecutionOptions(strategy=JoinStrategy(spec["strategy"]),
                                   guard=guard)
        return ("ok", self._backend.execute(compiled, options))

    def _compile(self, query: str):
        compiled = self._compiled.get(query)
        if compiled is None:
            from repro.api import compile_xquery

            compiled = self._compiled.put(query, compile_xquery(query))
        return compiled

    def close(self) -> None:
        try:
            self._backend.close()
        except Exception:  # pragma: no cover - exit path
            pass
        for attachment in self._attached.values():
            attachment.detach()
        self._attached.clear()


def _describe_error(error: BaseException) -> dict[str, object]:
    """A picklable, reconstructable description of a worker-side failure."""
    data: dict[str, object] = {"kind": type(error).__name__,
                               "message": str(error)}
    for attr in ("deadline", "elapsed", "backend", "resource", "limit",
                 "used", "reason"):
        value = getattr(error, attr, None)
        if value is not None:
            data[attr] = value
    if not isinstance(error, ReproError):
        data["message"] = f"{data['message']}\n{traceback.format_exc()}"
    return data


def _rebuild_error(data: Mapping[str, object]) -> ExecutionError:
    """The parent-side typed exception for a worker error description."""
    kind = data.get("kind")
    message = str(data.get("message", ""))
    if kind == "QueryTimeoutError" and "deadline" in data:
        return QueryTimeoutError(float(data["deadline"]),  # type: ignore[arg-type]
                                 float(data.get("elapsed", 0.0)),  # type: ignore[arg-type]
                                 backend=str(data.get("backend") or "procpool"))
    if kind == "ResourceBudgetError" and "resource" in data:
        return ResourceBudgetError(str(data["resource"]),
                                   int(data["limit"]),  # type: ignore[arg-type]
                                   int(data["used"]))  # type: ignore[arg-type]
    if kind == "QueryCancelledError":
        return QueryCancelledError(str(data.get("reason") or "cancelled"))
    if kind == "ExecutionError":
        return ExecutionError(message)
    return ExecutionError(f"{kind}: {message}")


# -- parent side ---------------------------------------------------------------

class _Worker:
    """One live worker process and its request pipe (slot held by caller)."""

    def __init__(self, context, index: int,
                 documents: "Mapping[str, tuple]"):
        self.index = index
        self.name = f"procpool-{index}"
        parent_conn, child_conn = context.Pipe()
        self.process = context.Process(
            target=_worker_main, args=(child_conn, dict(documents)),
            name=f"repro-{self.name}", daemon=True)
        self.process.start()
        child_conn.close()
        self.conn = parent_conn
        self.alive = True

    def send(self, message: tuple) -> None:
        if not self.alive:
            raise WorkerDiedError(self.name, "worker is not running")
        try:
            self.conn.send(message)
        except (BrokenPipeError, ConnectionResetError, OSError) as error:
            self.mark_dead()
            raise WorkerDiedError(
                self.name, f"worker pipe failed on send: {error}") from error

    def wait(self, token: "CancellationToken | None" = None,
             deadline_at: float | None = None,
             deadline: float | None = None) -> tuple:
        """Block for the next reply, honoring cancellation and the grace cap.

        ``conn.poll`` releases the GIL, so any number of session threads
        can wait on their workers concurrently — that is where the
        process tier's parallelism comes from.
        """
        started = time.monotonic()
        try:
            while True:
                if self.conn.poll(POLL_SECONDS):
                    return self.conn.recv()
                if token is not None and token.cancelled:
                    reason = token.reason or "cancelled"
                    self.kill()
                    raise QueryCancelledError(reason)
                now = time.monotonic()
                if deadline_at is not None and now >= deadline_at:
                    # The worker should have timed itself out; it did not
                    # answer within the grace window, so treat it as hung.
                    self.kill()
                    raise QueryTimeoutError(deadline or 0.0,
                                            now - started,
                                            backend="procpool")
                if not self.process.is_alive() and not self.conn.poll(0):
                    self.mark_dead()
                    raise WorkerDiedError(
                        self.name,
                        f"worker exited with code {self.process.exitcode} "
                        f"mid-request")
        except (EOFError, BrokenPipeError, ConnectionResetError) as error:
            self.mark_dead()
            raise WorkerDiedError(
                self.name, f"worker pipe failed: {error!r}") from error

    def request(self, message: tuple, **wait_kwargs) -> tuple:
        self.send(message)
        return self.wait(**wait_kwargs)

    def mark_dead(self) -> None:
        self.alive = False

    def kill(self) -> None:
        """Hard-stop a worker whose in-flight request is being abandoned."""
        self.mark_dead()
        if self.process.is_alive():
            self.process.kill()
        self.process.join(timeout=2.0)
        try:
            self.conn.close()
        except OSError:  # pragma: no cover
            pass

    def stop(self, timeout: float = 1.0) -> None:
        """Graceful stop, escalating terminate → kill.

        The stop ack arrives *before* the worker tears down (closes its
        backends, detaches its segments), so an acknowledged stop is
        joined first and the process is signalled only if it is still
        alive after that.
        """
        acknowledged = False
        if self.alive:
            try:
                self.conn.send(("stop",))
                acknowledged = self.conn.poll(timeout)
            except (BrokenPipeError, ConnectionResetError, OSError):
                pass
        self.mark_dead()
        if acknowledged:
            self.process.join(timeout=2.0)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=2.0)
            if self.process.is_alive():  # pragma: no cover - stuck in C code
                self.process.kill()
                self.process.join()
        try:
            self.conn.close()
        except OSError:  # pragma: no cover
            pass


class ProcessQueryPool:
    """A persistent pool of engine workers over shared-memory documents.

    Workers are spawned eagerly (warm pool) and live until :meth:`close`.
    Each worker serves one request at a time; callers take a worker slot,
    exchange exactly one message pair, and release it — the slot
    discipline is what lets document broadcasts and crash respawns
    interleave safely with query traffic.
    """

    def __init__(self, workers: int | None = None,
                 start_method: str | None = None,
                 grace_seconds: float = DEFAULT_GRACE_SECONDS):
        if workers is not None and workers < 1:
            raise ValueError(
                f"workers must be a positive integer, got {workers!r}")
        self.size = workers if workers is not None \
            else max(1, os.cpu_count() or 1)
        self.start_method = start_method or default_start_method()
        self.grace_seconds = grace_seconds
        self._context = multiprocessing.get_context(self.start_method)
        # Start the shared-memory resource tracker *before* the workers
        # exist.  Children inherit the running tracker (fork: by fd,
        # spawn: via the preparation data), so their attach-time
        # registrations land in the same tracker set as the parent's
        # create-time one and the parent's unlink clears all of them.
        # Forking first would leave each worker to lazily start its own
        # tracker, which then warns about "leaked" segments it never saw
        # unlinked.
        from multiprocessing import resource_tracker

        resource_tracker.ensure_running()
        self._cv = threading.Condition()
        self._free = [False] * self.size
        self._workers: "list[_Worker | None]" = [None] * self.size
        self._rotation = 0
        self._closed = False
        #: var → payload shipped to workers / live segment.
        self._documents: dict[str, tuple] = {}
        self._segments: "dict[str, SharedMemory]" = {}
        try:
            for index in range(self.size):
                self._spawn(index)
                self._free[index] = True
        except BaseException:
            self.close()
            raise

    # -- documents ------------------------------------------------------------

    def register_document(self, var: str, value: tuple) -> None:
        """Register (or replace) a document on every worker.

        ``value`` is the engine encoding ``(IntervalColumns, width)``; it
        is exported into one shared-memory segment.  Replacing a document
        unlinks the old segment once every worker has adopted the new
        payload.
        """
        columns, width = value
        self._check_open()
        descriptor, segment = export_columns(columns)
        payload = (descriptor, width)
        old = self._segments.get(var)
        self._documents[var] = payload
        self._segments[var] = segment
        for index in range(self.size):
            self._request_worker(index, ("doc", var, payload))
        if old is not None:
            self._unlink(old)

    def unregister_document(self, var: str) -> None:
        """Drop a document everywhere and unlink its segment."""
        self._documents.pop(var, None)
        segment = self._segments.pop(var, None)
        if not self._closed:
            for index in range(self.size):
                self._request_worker(index, ("drop", var))
        if segment is not None:
            self._unlink(segment)

    @property
    def documents(self) -> tuple[str, ...]:
        return tuple(sorted(self._documents))

    @property
    def segment_names(self) -> tuple[str, ...]:
        """Names of every live segment (the shm-leak check reads this)."""
        return tuple(sorted(shm.name for shm in self._segments.values()))

    def warmup(self, queries: "Iterable[str]") -> None:
        """Compile (and cache) query texts on every worker ahead of load."""
        for query in queries:
            for index in range(self.size):
                self._request_worker(index, ("warm", str(query)))

    # -- execution ------------------------------------------------------------

    def execute(self, query: str, *, strategy: "JoinStrategy | str" = "msj",
                guard: "QueryGuard | None" = None
                ) -> "tuple[PreorderForest, str]":
        """Run one query on one worker; returns ``(forest, worker name)``.

        A worker that dies mid-request is respawned and the query
        resubmitted once to the fresh process — after ``guard`` is
        checked, so a deadline that passed or a cancel that came in the
        meantime wins.  A second death in a row raises
        :class:`~repro.errors.WorkerDiedError`.

        The reply carries the result in preorder form: its distinct
        labels with the worker's codes, then each row's position among
        them, depth and subtree end as int32 bytes
        (``PreorderForest.__reduce__``).  Nothing recursive crosses the
        pipe; the parent adopts the labels into its own dictionary once
        per distinct label, when it first serializes the answer, and
        builds no tree.
        """
        index = self._acquire_any()
        try:
            try:
                reply, name = self._query(index, query, strategy, guard)
            except WorkerDiedError as died:
                if guard is not None:
                    guard.check()
                logger.warning("%s; resubmitting to a fresh worker", died)
                reply, name = self._query(index, query, strategy, guard)
        finally:
            self._release(index)
        return self._unwrap(reply), name

    # -- lifecycle ------------------------------------------------------------

    def close(self, timeout: float | None = 5.0) -> None:
        """Drain briefly, stop every worker, unlink every segment."""
        with self._cv:
            already = self._closed
            self._closed = True
            if not already and timeout is not None:
                deadline_at = time.monotonic() + timeout
                while (not all(self._free)
                       and time.monotonic() < deadline_at):
                    self._cv.wait(0.1)
            self._cv.notify_all()
        for index, worker in enumerate(self._workers):
            if worker is not None:
                worker.stop()
            self._workers[index] = None
        for shm in self._segments.values():
            self._unlink(shm)
        self._segments.clear()
        self._documents.clear()

    def __enter__(self) -> "ProcessQueryPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- internals ------------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise ExecutionError("process pool is closed")

    @staticmethod
    def _unlink(shm: "SharedMemory") -> None:
        try:
            shm.close()
        except OSError:  # pragma: no cover
            pass
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass

    def _spec(self, query: str, strategy: "JoinStrategy | str",
              guard: "QueryGuard | None") -> dict[str, object]:
        spec: dict[str, object] = {
            "query": str(query),
            "strategy": getattr(strategy, "value", str(strategy)),
        }
        if guard is not None:
            remaining = guard.remaining
            if remaining is not None:
                spec["deadline"] = max(remaining, 1e-3)
            budget = guard.budget
            if budget:
                spec["max_tuples"] = budget.max_tuples
                spec["max_envs"] = budget.max_envs
                spec["max_width"] = budget.max_width
        return spec

    def _limits(self, spec: Mapping[str, object],
                guard: "QueryGuard | None"):
        token = guard.token if guard is not None else None
        deadline = spec.get("deadline")
        deadline_at = (time.monotonic() + deadline + self.grace_seconds
                       if deadline is not None else None)
        return token, deadline, deadline_at

    @staticmethod
    def _unwrap(reply: tuple):
        kind, payload = reply
        if kind == "ok":
            return payload
        raise _rebuild_error(payload)

    def _spawn(self, index: int) -> "_Worker":
        worker = _Worker(self._context, index, self._documents)
        self._workers[index] = worker
        return worker

    def _ensure(self, index: int) -> "_Worker":
        worker = self._workers[index]
        if worker is None or not worker.alive:
            worker = self._spawn(index)
        return worker

    def _respawn(self, index: int) -> None:
        worker = self._workers[index]
        self._workers[index] = None
        if worker is not None:
            try:
                worker.stop(timeout=0.0)
            except Exception:  # pragma: no cover - already dead
                pass
        try:
            self._spawn(index)
        except Exception:  # pragma: no cover - respawned lazily by _ensure
            logger.exception("failed to respawn pool worker %d", index)

    def _query(self, index: int, query: str,
               strategy: "JoinStrategy | str",
               guard: "QueryGuard | None") -> "tuple[tuple, str]":
        """One query message pair on worker ``index`` (slot held).

        A worker that died (crash) or was killed (cancel, hung) is
        respawned before the error surfaces, so a resubmit — or the next
        caller — lands on a fresh process.  The spec is built per call:
        a resubmit ships the deadline that is left.
        """
        spec = self._spec(query, strategy, guard)
        token, deadline, deadline_at = self._limits(spec, guard)
        worker = self._ensure(index)
        try:
            reply = worker.request(("query", spec), token=token,
                                   deadline_at=deadline_at,
                                   deadline=deadline)
        except (WorkerDiedError, QueryCancelledError, QueryTimeoutError):
            self._respawn(index)
            raise
        return reply, worker.name

    def _request_worker(self, index: int, message: tuple) -> "tuple | None":
        """One targeted message pair (document broadcasts, warmup).

        A dead worker is respawned instead of failing the broadcast: the
        pool's document maps were updated before the send, so the fresh
        worker adopts the new state at startup.
        """
        self._acquire(index)
        try:
            worker = self._ensure(index)
            try:
                reply = worker.request(message)
            except WorkerDiedError:
                self._respawn(index)
                return None
        finally:
            self._release(index)
        # A worker that could not act on the message (could not bind the
        # document, say) must not look like one that did.
        self._unwrap(reply)
        return reply

    def _acquire_any(self) -> int:
        with self._cv:
            while True:
                self._check_open()
                for offset in range(self.size):
                    index = (self._rotation + offset) % self.size
                    if self._free[index]:
                        self._free[index] = False
                        self._rotation = (index + 1) % self.size
                        return index
                self._cv.wait(0.1)

    def _acquire(self, index: int) -> None:
        with self._cv:
            while not self._free[index]:
                self._check_open()
                self._cv.wait(0.1)
            self._free[index] = False

    def _release(self, index: int) -> None:
        with self._cv:
            self._free[index] = True
            self._cv.notify_all()
