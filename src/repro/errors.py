"""Exception hierarchy for the dynamic-interval XQuery reproduction.

Every error raised by this package derives from :class:`ReproError` so that
callers can catch library failures without masking programming errors such
as ``TypeError`` raised by misuse of the Python API itself.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class XMLParseError(ReproError):
    """Raised when XML text cannot be parsed into a forest."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)


class EncodingError(ReproError):
    """Raised when an interval encoding is malformed or inconsistent."""


class WidthOverflowError(EncodingError):
    """Raised when inferred interval widths exceed the backend's integer range.

    Section 4.3 of the paper notes that interval endpoints are bounded by a
    polynomial whose degree equals the nesting depth of the query; a backend
    with fixed-width integers (e.g. SQLite's 64-bit ints) may overflow for
    deeply nested queries over large documents.
    """


class XQuerySyntaxError(ReproError):
    """Raised when XQuery surface text cannot be tokenized or parsed."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class LoweringError(ReproError):
    """Raised when a surface AST cannot be lowered to the core language."""


class UnknownFunctionError(ReproError):
    """Raised when a core expression references an unregistered XFn."""


class UnboundVariableError(ReproError):
    """Raised when evaluation encounters a variable absent from the environment."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unbound variable: ${name}")


class TranslationError(ReproError):
    """Raised when a core expression cannot be translated to SQL."""


class DocumentNotFoundError(ReproError):
    """Raised when a session query references an unregistered document URI.

    The message always lists the URIs that *are* registered (mirroring
    :class:`UnknownBackendError`), so a typo'd ``document(...)`` call is
    diagnosable from the error text alone.
    """

    def __init__(self, uri: str, registered: "tuple[str, ...] | list[str]" = ()):
        self.uri = uri
        self.registered = tuple(registered)
        known = ", ".join(repr(u) for u in self.registered) or "<none>"
        super().__init__(
            f"no document registered for {uri!r}; registered documents: {known}")


class UnknownBackendError(ReproError):
    """Raised when a backend name is not present in the backend registry.

    The message always lists the names that *are* registered, sourced from
    the registry at raise time, so the same error text is produced whether
    the lookup came from :func:`repro.run_xquery`, an
    :class:`~repro.session.XQuerySession`, or the CLI.
    """

    def __init__(self, name: str, registered: "tuple[str, ...] | list[str]" = ()):
        self.name = name
        self.registered = tuple(registered)
        known = ", ".join(repr(n) for n in self.registered) or "<none>"
        super().__init__(f"unknown backend {name!r}; registered backends: {known}")


class PlanError(ReproError):
    """Raised when a core expression cannot be compiled to a physical plan."""


def _truncate_statement(statement: str, limit: int = 200) -> str:
    flattened = " ".join(statement.split())
    if len(flattened) <= limit:
        return flattened
    return flattened[: limit - 1] + "…"


class ExecutionError(ReproError):
    """Raised when a physical plan fails during execution.

    ``statement`` optionally attaches the offending SQL text (truncated in
    the message) so driver failures surfacing through the public API carry
    enough context to reproduce without leaking driver exception types.
    """

    def __init__(self, message: str, *, statement: str | None = None):
        self.statement = statement
        if statement is not None:
            message = f"{message} [statement: {_truncate_statement(statement)}]"
        super().__init__(message)


class TransientBackendError(ExecutionError):
    """A backend failure that a second try might not repeat.

    Raised for driver-level conditions such as a locked/busy database,
    and for a dead process-pool worker (:class:`WorkerDiedError`).  No
    session-wide policy retries it: a run tries each backend of its
    fallback chain once, and this error, like any
    :class:`ExecutionError`, moves the run on to the next one.
    """


class WorkerDiedError(TransientBackendError):
    """Raised when a process-pool worker died twice serving one request.

    The pool absorbs one death itself: it respawns the worker and
    resubmits the query once to the fresh process, unless the query's
    guard has expired or been cancelled meanwhile.  A second death in a
    row is not a fluke of one process, so it surfaces as this error (see
    :mod:`repro.concurrency.procpool`).
    """

    def __init__(self, worker: str, message: str = "worker process died"):
        self.worker = worker
        super().__init__(f"{message} [{worker}]")


class QueryTimeoutError(ExecutionError):
    """Raised when a query runs past its configured deadline.

    Enforced cooperatively: the DI engine checks the deadline in its
    operator loop, the SQL backend via its connection's progress handler, and
    the interpreter/naive evaluators via their step callbacks — the
    in-process analogue of the paper's two-hour benchmark cutoff.
    """

    def __init__(self, deadline: float, elapsed: float, *,
                 backend: str | None = None):
        self.deadline = deadline
        self.elapsed = elapsed
        self.backend = backend
        where = f" on backend {backend!r}" if backend else ""
        super().__init__(
            f"query exceeded its {deadline:.3f}s deadline{where} "
            f"(elapsed {elapsed:.3f}s)")


class ResourceBudgetError(ExecutionError):
    """Raised when a query exhausts a configured resource budget.

    ``resource`` names the budget dimension (``tuples``, ``envs``,
    ``width``), mirroring the Koch-style polynomial blow-up the guard is
    designed to cap (see PAPERS.md).
    """

    def __init__(self, resource: str, limit: int, used: int):
        self.resource = resource
        self.limit = limit
        self.used = used
        super().__init__(
            f"query exceeded its {resource} budget: used {used}, limit {limit}")


class QueryCancelledError(ExecutionError):
    """Raised when a query's cancellation token was triggered.

    Cancellation is cooperative: the token is observed at the same cheap
    checkpoints as deadlines (engine tick strides, SQL progress
    handlers, statement boundaries), so queued *and* running work stops
    promptly without threads or signals.  Cancellation is caller- or
    operator-initiated, so it never falls back, is never resubmitted,
    and never burns SLO error budget.
    """

    def __init__(self, reason: str = "cancelled"):
        self.reason = reason
        super().__init__(f"query cancelled: {reason}")


class OverloadError(ExecutionError):
    """Raised when admission control refuses a query instead of queueing it.

    The session is protecting itself: the admission queue is at its
    bound, the estimated queue wait would already blow the request's
    deadline, the brownout controller is shedding this priority class,
    or the session is draining for shutdown.  ``retry_after`` is the
    load shedder's hint (seconds) for when capacity is expected back —
    clients and load balancers should back off at least that long.
    """

    def __init__(self, reason: str, *, retry_after: float | None = None,
                 queue_depth: int | None = None,
                 priority: str | None = None):
        self.reason = reason
        self.retry_after = retry_after
        self.queue_depth = queue_depth
        self.priority = priority
        hint = (f"; retry after {retry_after:.3f}s"
                if retry_after is not None else "")
        super().__init__(f"query shed by admission control: {reason}{hint}")


class BenchmarkTimeout(ReproError):
    """Raised internally by the benchmark harness when a cell exceeds its budget."""
