"""The benchmark's own span recorder and the patch table that feeds it.

The program is traced from the outside: for the duration of a traced
pass each public function in :data:`BOUNDARIES` is replaced, wherever a
``repro`` module binds it, by a wrapper that records one span per call.
A span knows its name, layer (= module name), start, end, parent and the
operation it belongs to; spans stay in memory until the pass ends and
are then written as Chrome-trace JSON.

A span's *self time* is its duration minus the part of that interval its
child spans cover (their union, so concurrent children are not counted
twice).  Self times of one sequential operation therefore sum to the
operation's own duration — every millisecond lands in exactly one layer.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

LAYERS = ("xml", "xquery", "compiler", "encoding", "engine", "sql",
          "backends", "session", "resilience", "obs", "concurrency",
          "serving")


@dataclass(eq=False)
class Span:
    name: str
    layer: str
    start: float = 0.0
    end: float = 0.0
    parent: "Span | None" = None
    #: Identifier shared by every span of one operation.
    op: str = ""
    children: list["Span"] = field(default_factory=list)
    args: dict[str, object] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def self_seconds(self) -> float:
        covered = 0.0
        cursor = self.start
        for start, end in sorted((max(c.start, self.start),
                                  min(c.end, self.end))
                                 for c in self.children):
            if end > cursor:
                covered += end - max(start, cursor)
                cursor = end
        return self.seconds - covered

    def walk(self) -> Iterator["Span"]:
        yield self
        for child in self.children:
            yield from child.walk()


class SpanRecorder:
    """In-memory span trees, one active stack per thread.

    A span opened on a thread with an empty stack attaches to the
    *current operation* (set by :meth:`operation`) when there is one:
    the program hops threads (``run_many``, ``run_async``), and the
    traced passes keep a single operation in flight, so the hop's work
    still lands under the operation that caused it.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.enabled = True
        self.roots: list[Span] = []
        self._local = threading.local()
        self._operation: Span | None = None

    def _stack(self) -> list[Span]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    @contextmanager
    def span(self, name: str, layer: str, **args: object) -> Iterator[Span]:
        stack = self._stack()
        parent = stack[-1] if stack else self._operation
        span = Span(name, layer, parent=parent, args=args,
                    op=parent.op if parent is not None else "")
        if parent is not None:
            parent.children.append(span)
        else:
            self.roots.append(span)
        stack.append(span)
        span.start = self.clock()
        try:
            yield span
        finally:
            span.end = self.clock()
            stack.pop()

    @contextmanager
    def operation(self, op: str, name: str, layer: str) -> Iterator[Span]:
        """The root span of one benchmark operation."""
        with self.span(name, layer) as root:
            root.op = op
            self._operation = root
            try:
                yield root
            finally:
                self._operation = None

    def wrap(self, function: Callable, name: str, layer: str,
             probe: "Callable[[Span, tuple, dict, object], None] | None" = None,
             before: "Callable[[dict], None] | None" = None) -> Callable:
        """``function`` with one span per call.

        ``probe`` reads counts off the finished call (arguments, result)
        into ``span.args`` after the clock stops; ``before`` may adjust
        keyword arguments (used once, to hand ``run_translation`` a
        bench-owned statement tracer).
        """
        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not self.enabled:
                return function(*args, **kwargs)
            if before is not None:
                before(kwargs)
            with self.span(name, layer) as span:
                result = function(*args, **kwargs)
            if probe is not None:
                probe(span, args, kwargs, result)
            return result
        return traced


# -- where the spans come from ----------------------------------------------------

def tree_size(node: object) -> int:
    """Nodes in a dataclass tree (core expressions, physical plans)."""
    if dataclasses.is_dataclass(node):
        return 1 + sum(tree_size(getattr(node, item.name))
                       for item in dataclasses.fields(node))
    if isinstance(node, (list, tuple)):
        return sum(tree_size(item) for item in node)
    return 0


def _statement_tracer(kwargs: dict) -> None:
    """Give ``run_translation`` a bench-owned tracer for its statements."""
    from repro.obs.trace import Tracer

    if kwargs.get("tracer") is None:
        kwargs["tracer"] = Tracer()


def _statements(span: "Span", args: tuple, kwargs: dict, result) -> None:
    seconds = [statement.seconds
               for root in kwargs["tracer"].roots
               for statement in root.walk()
               if statement.name == "sql.statement"]
    span.args["statements"] = len(seconds)
    span.args["slowest_statement_ms"] = max(seconds, default=0.0) * 1e3


def _count(key: str, measure: Callable[[tuple, object], int]):
    def probe(span: "Span", args: tuple, kwargs: dict, result) -> None:
        span.args[key] = measure(args, result)
    return probe


@dataclass(frozen=True)
class Boundary:
    """One traced public call.

    A one-part ``path`` is a module-level function, rebound in every
    ``repro`` module that imported it by name; a two-part path is a
    method, patched on its class.
    """

    layer: str
    name: str
    module: str
    path: str
    probe: Callable | None = None
    before: Callable | None = None


BOUNDARIES: tuple[Boundary, ...] = (
    Boundary("xml", "xml.parse", "repro.xml.text_parser", "parse_forest",
             _count("bytes", lambda args, result: len(args[0]))),
    Boundary("xml", "xml.serialize", "repro.xml.serializer", "forest_to_xml",
             _count("bytes", lambda args, result: len(result))),
    Boundary("xquery", "xquery.compile", "repro.api", "compile_xquery"),
    Boundary("xquery", "xquery.parse", "repro.xquery.parser", "parse_xquery"),
    Boundary("xquery", "xquery.lower", "repro.xquery.lowering", "lower_query",
             _count("core_nodes", lambda args, result: tree_size(result[0]))),
    Boundary("compiler", "compiler.plan", "repro.compiler.pipeline",
             "plan_stage",
             _count("plan_nodes", lambda args, result: tree_size(result))),
    Boundary("compiler", "compiler.optimize", "repro.compiler.pipeline",
             "optimize_stage"),
    Boundary("compiler", "compiler.optimized_for", "repro.backends.engine",
             "EngineBackend.optimized_for"),
    Boundary("encoding", "encoding.encode", "repro.encoding.interval",
             "encode", _count("nodes", lambda args, result: len(result))),
    Boundary("encoding", "encoding.encode", "repro.encoding.interval",
             "encode_columns",
             _count("nodes", lambda args, result: len(result[0]))),
    Boundary("encoding", "encoding.stats", "repro.encoding.stats",
             "collect_stats"),
    Boundary("encoding", "encoding.decode", "repro.encoding.interval",
             "decode", _count("tuples", lambda args, result: len(args[0]))),
    Boundary("encoding", "encoding.edit_build", "repro.encoding.updates",
             "UpdatableDocument.insert_child"),
    Boundary("encoding", "encoding.edit_build", "repro.encoding.updates",
             "UpdatableDocument.delete_subtree"),
    Boundary("encoding", "encoding.from_forest", "repro.encoding.updates",
             "UpdatableDocument.from_forest"),
    Boundary("engine", "engine.prepare_document", "repro.engine.evaluator",
             "DIEngine.prepare_document"),
    Boundary("engine", "engine.execute", "repro.engine.evaluator",
             "DIEngine.run_plan_values",
             _count("tuples", lambda args, result: len(result[0]))),
    Boundary("engine", "engine.splice", "repro.engine.columns",
             "splice_columns",
             # Three columns of eight-byte words are copied per splice.
             _count("bytes", lambda args, result: 3 * 8 * len(result))),
    Boundary("sql", "sql.translate", "repro.sql.sqlite_backend",
             "SQLiteDatabase.translate",
             _count("sql_bytes", lambda args, result: len(result.sql))),
    Boundary("sql", "sql.run", "repro.sql.sqlite_backend",
             "SQLiteDatabase.run_translation", _statements,
             _statement_tracer),
    Boundary("sql", "sql.load", "repro.sql.sqlite_backend",
             "SQLiteDatabase.load_document"),
    Boundary("backends", "backends.prepare", "repro.backends.base",
             "Backend.prepare"),
    Boundary("backends", "backends.execute", "repro.backends.base",
             "Backend.execute"),
    Boundary("backends", "backends.apply_update", "repro.backends.engine",
             "EngineBackend.apply_update"),
    Boundary("backends", "backends.apply_update", "repro.backends.sqlite",
             "SQLiteBackend.apply_update"),
    Boundary("backends", "backends.apply_update", "repro.backends.procpool",
             "ProcPoolBackend.apply_update"),
    Boundary("session", "session.add_document", "repro.session",
             "XQuerySession.add_document"),
    Boundary("session", "session.run", "repro.session", "XQuerySession.run"),
    Boundary("session", "session.run_many", "repro.session",
             "XQuerySession.run_many"),
    Boundary("session", "session.updatable", "repro.session",
             "XQuerySession.updatable"),
    Boundary("session", "session.apply_update", "repro.session",
             "XQuerySession.apply_update"),
    Boundary("resilience", "resilience.try_acquire",
             "repro.resilience.admission", "AdmissionController.try_acquire"),
    Boundary("resilience", "resilience.release",
             "repro.resilience.admission", "AdmissionController.release"),
    Boundary("obs", "obs.record_run", "repro.obs.flight",
             "FlightRecorder.record_run"),
    Boundary("obs", "obs.record_update", "repro.obs.flight",
             "FlightRecorder.record_update"),
    Boundary("concurrency", "concurrency.execute",
             "repro.concurrency.procpool", "ProcessQueryPool.execute"),
    Boundary("concurrency", "concurrency.register_document",
             "repro.concurrency.procpool",
             "ProcessQueryPool.register_document"),
    Boundary("concurrency", "concurrency.shm_export", "repro.engine.columns",
             "export_columns"),
)


@contextmanager
def patched(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Install every :data:`BOUNDARIES` wrapper; restore on exit."""
    undo: list[tuple[object, str, object]] = []

    def replace(owner: object, attribute: str, value: object) -> None:
        undo.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    try:
        for boundary in BOUNDARIES:
            module = importlib.import_module(boundary.module)
            owner_name, _, attribute = boundary.path.rpartition(".")

            def wrap(function: Callable) -> Callable:
                return recorder.wrap(function, boundary.name, boundary.layer,
                                     boundary.probe, boundary.before)

            if owner_name:
                owner = getattr(module, owner_name)
                raw = owner.__dict__[attribute]
                if isinstance(raw, (staticmethod, classmethod)):
                    replace(owner, attribute, type(raw)(wrap(raw.__func__)))
                else:
                    replace(owner, attribute, wrap(raw))
                continue
            original = getattr(module, attribute)
            traced = wrap(original)
            for bound in list(sys.modules.values()):
                if (getattr(bound, "__name__", "").split(".")[0] == "repro"
                        and bound.__dict__.get(attribute) is original):
                    replace(bound, attribute, traced)
        yield recorder
    finally:
        for owner, attribute, value in reversed(undo):
            setattr(owner, attribute, value)
        # A module first imported while the patches were in place bound a
        # wrapper by name; switching the recorder off makes it inert.
        recorder.enabled = False


# -- reading the spans back --------------------------------------------------------

def layer_self_seconds(roots: list[Span],
                       slowness: dict[str, float]) -> dict[str, float]:
    """Summed self time per layer over whole span trees, each operation's
    spans divided by the host slowness ``slowness[op]`` it ran under."""
    totals = {layer: 0.0 for layer in LAYERS}
    for root in roots:
        for span in root.walk():
            totals[span.layer] = totals.get(span.layer, 0.0) \
                + span.self_seconds() / slowness[span.op]
    return totals


def write_chrome_trace(roots: list[Span], path: Path,
                       metadata: dict[str, object]) -> None:
    """Trace Event Format, the shape ``repro.obs.export.chrome_trace`` emits."""
    events = []
    identifiers: dict[int, int] = {}
    for root in roots:
        for span in root.walk():
            identifiers[id(span)] = len(identifiers) + 1
            events.append({
                "name": span.name, "cat": span.layer, "ph": "X",
                "ts": span.start * 1e6,
                "dur": max(span.seconds, 0.0) * 1e6,
                "pid": 1, "tid": 1,
                "args": {**span.args, "op": span.op,
                         "id": identifiers[id(span)],
                         "parent": identifiers.get(id(span.parent), 0),
                         "self_us": span.self_seconds() * 1e6},
            })
    events.sort(key=lambda event: event["ts"])
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({"traceEvents": events,
                                "displayTimeUnit": "ms",
                                "otherData": metadata}))
