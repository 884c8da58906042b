"""High-level public API: run XQuery text against XML documents.

Typical use::

    from repro import run_xquery

    result = run_xquery(
        'for $p in document("auction.xml")/site/people/person '
        'return $p/name/text()',
        documents={"auction.xml": xml_text},
    )
    print(result.to_xml())

Execution backends are resolved through the registry in
:mod:`repro.backends` — every registered name is accepted here, in
:class:`~repro.session.XQuerySession`, in the benchmark harness, and on
the CLI.  Ships with:

* ``"engine"`` — the DI prototype (Section 5) with merge-join (``msj``,
  default) or nested-loop (``nlj``) iteration strategy;
* ``"sqlite"`` — the Section 4 translation executed as SQL on SQLite;
* ``"interpreter"`` — the Figure 3 reference semantics (the oracle);
* ``"naive"`` — the materializing nested-loop competitor baseline.

Compilation is the fixed chain of :mod:`repro.compiler.pipeline`;
``compile_xquery(q).explain(verbose=True)`` shows each pass with its
timing, the core text and the plan before and after isolation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, TypeAlias

from repro.backends.base import ExecutionOptions, coerce_strategy
from repro.backends.registry import create_backend
from repro.compiler.pipeline import (
    PassRecord,
    frontend_stage,
    optimize_stage,
    plan_stage,
    render_passes,
)
from repro.compiler.plan import JoinStrategy, PlanNode
from repro.compiler.planner import explain_plan
from repro.engine.evaluator import DIEngine, Value
from repro.engine.stats import EngineStats
from repro.errors import ReproError
from repro.obs.trace import Span, Tracer
from repro.sql.translator import TranslationResult, translate_query
from repro.xml.forest import Forest, Node, PreorderForest
from repro.xml.serializer import forest_to_xml
from repro.xml.text_parser import parse_forest, read_document
from repro.xquery.ast import CoreExpr, core_to_str
from repro.xquery.lowering import document_forest

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.flight import QueryRecord

#: Document inputs accepted by the API: XML text, a node, or a forest
#: (in either form: ``UpdatableDocument.to_forest()`` gives the preorder one).
DocumentInput: TypeAlias = str | Node | Forest | PreorderForest


class QueryResult:
    """The forest produced by a query, with convenience accessors.

    A backend hands over either a tuple of :class:`Node` trees or — the
    DI engine and its process tier — a
    :class:`~repro.xml.forest.PreorderForest`, the result's labels and
    depths with no tree built.  :meth:`to_xml` and ``len`` read that form
    directly; :attr:`forest`, iteration and comparison against a tuple
    build the trees, once, on first use.

    When the query ran traced (``session.run(…, trace=True)``), ``trace``
    is the root ``query`` span covering compile → prepare → execute, and
    :meth:`to_xml` appends a ``serialize`` span under it, completing the
    lifecycle; export with :func:`repro.obs.write_chrome_trace`.  When
    the run was flight-recorded, the first :meth:`to_xml` adds its time
    to the record as the ``serialize`` phase.
    """

    def __init__(self, forest: "Forest | PreorderForest",
                 trace: Span | None = None, tracer: Tracer | None = None,
                 backend: str | None = None, degradations: tuple = ()):
        self._forest = forest
        #: The run's flight record, until the first serialization adds
        #: its phase (set by the session).
        self._record: "QueryRecord | None" = None
        #: Root span of the traced run (None when tracing was off).
        self.trace = trace
        #: The tracer that produced :attr:`trace` (for follow-up spans).
        self.tracer = tracer
        #: Name of the backend that actually produced the forest.
        self.backend = backend
        #: Backends given up on before :attr:`backend` answered (resilient
        #: runs only; see :mod:`repro.resilience.fallback`).
        self.degradations = degradations

    @property
    def forest(self) -> Forest:
        """The result as a tuple of :class:`Node` trees."""
        forest = self._forest
        return forest if isinstance(forest, tuple) else forest.trees()

    @property
    def degraded(self) -> bool:
        """Whether a fallback backend answered instead of the primary."""
        return bool(self.degradations)

    def to_xml(self, indent: int | None = None) -> str:
        """Serialize the result as XML text."""
        record, self._record = self._record, None
        start = time.perf_counter()
        if self.tracer is None or self.trace is None:
            text = forest_to_xml(self._forest, indent=indent)
        else:
            # The root span is closed by now; parent= grafts the
            # serialize span under it regardless of the tracer's active
            # stack.
            with self.tracer.span("serialize", parent=self.trace) as span:
                text = forest_to_xml(self._forest, indent=indent)
                span.set(bytes=len(text), trees=len(self._forest))
        if record is not None:
            # A new dict, not an update: /debug/queries readers snapshot
            # the record from other threads.
            record.phases = {**record.phases,
                             "serialize": time.perf_counter() - start}
        return text

    def __iter__(self):
        return iter(self._forest)

    def __len__(self) -> int:
        return len(self._forest)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QueryResult):
            return self._forest == other._forest
        if isinstance(other, tuple):
            return self._forest == other
        return NotImplemented

    def __repr__(self) -> str:
        return (f"QueryResult(forest={self._forest!r}, "
                f"backend={self.backend!r}, "
                f"degradations={self.degradations!r})")


@dataclass
class CompiledQuery:
    """A parsed and lowered query, reusable across documents and backends."""

    source: str
    core: CoreExpr
    #: URI → core-language variable name for each document() reference.
    documents: dict[str, str]
    #: The ``parse`` and ``lower`` pass records.
    passes: tuple[PassRecord, ...] = field(default=(), compare=False)

    def plan(self, strategy: str | JoinStrategy = "msj",
             decorrelate: bool = True,
             records: list[PassRecord] | None = None) -> PlanNode:
        """Compile to the syntactic DI-engine plan (before isolation).

        ``records`` collects the ``decorrelate`` and ``plan`` passes.
        """
        return plan_stage(self.core, coerce_strategy(strategy),
                          base_vars=self.documents.values(),
                          decorrelate=decorrelate, records=records)

    def explain(self, strategy: str | JoinStrategy = "msj",
                verbose: bool = False) -> str:
        """Human-readable physical plan — the one the engine runs.

        ``verbose=True`` prepends :meth:`pipeline`.
        """
        if not verbose:
            return explain_plan(optimize_stage(self.plan(strategy)))
        report, plan = self.pipeline(strategy)
        return f"{report}\n\nphysical plan:\n{explain_plan(plan)}"

    def pipeline(self, strategy: str | JoinStrategy = "msj"
                 ) -> tuple[str, PlanNode]:
        """Plan afresh, recording every pass: the pass table and the plan
        it ends in.

        The table lists ``parse``, ``lower``, ``decorrelate``, ``plan``
        and ``isolate`` once each, with timings and details, the core
        text after ``lower`` and the plan before isolation after
        ``plan``; the returned plan is the one after isolation.
        """
        records = list(self.passes)
        plan = self.plan(strategy, records=records)
        optimized = optimize_stage(plan, records=records)
        snapshots = {"lower": core_to_str(self.core),
                     "plan": explain_plan(plan)}
        return render_passes(records, snapshots), optimized

    def to_sql(self, documents: Mapping[str, tuple[str, int]],
               max_width: int | None = None) -> TranslationResult:
        """The single-statement SQL form over the given base tables."""
        return translate_query(self.core, documents, max_width=max_width)


def compile_xquery(query: str) -> CompiledQuery:
    """Parse and lower XQuery text to the core language."""
    core, documents, passes = frontend_stage(query)
    return CompiledQuery(query, core, documents, passes)


def run_xquery(query: str | CompiledQuery,
               documents: Mapping[str, DocumentInput] | None = None,
               backend: str = "engine",
               strategy: str | JoinStrategy = "msj",
               stats: EngineStats | None = None) -> QueryResult:
    """Run a query against documents and return the result forest.

    ``documents`` maps the URIs used in ``document(...)`` calls to XML
    text, a parsed :class:`Node`, or a forest.  ``backend`` is any name in
    the backend registry (``repro.backends.registered_backends()``);
    ``strategy`` selects nested-loop vs merge join for the engine backend.
    ``stats`` collects the Figure 10 time breakdown; it needs the engine
    backend (``ValueError`` otherwise).
    """
    EngineStats.check_backend(stats, backend)
    compiled = query if isinstance(query, CompiledQuery) else compile_xquery(query)
    bindings = _bind_documents(compiled, documents or {})
    options = ExecutionOptions(strategy=coerce_strategy(strategy), stats=stats)
    with create_backend(backend) as target:
        target.prepare(bindings)
        return QueryResult(target.execute(compiled, options))


def _bind_documents(compiled: CompiledQuery,
                    documents: Mapping[str, DocumentInput],
                    ) -> dict[str, Value]:
    bindings = {}
    for uri, var in compiled.documents.items():
        if uri not in documents:
            raise ReproError(f"query references document({uri!r}) but no "
                             f"such document was supplied")
        bindings[var] = as_snapshot(documents[uri])
    return bindings


def as_snapshot(value: DocumentInput) -> Value:
    """The wrapped read-only snapshot a backend binds for a
    :data:`DocumentInput`: text is read straight into columns
    (:func:`~repro.xml.text_parser.read_document`, no tree built); a node
    or forest is encoded under the document node."""
    if isinstance(value, str):
        return read_document(value)
    return DIEngine.prepare_document(document_forest(as_forest(value)))


def as_forest(value: DocumentInput) -> Forest:
    """Coerce a :data:`DocumentInput` (text / node / forest) to a forest."""
    if isinstance(value, str):
        return parse_forest(value)
    if isinstance(value, Node):
        return (value,)
    if isinstance(value, (tuple, PreorderForest)):
        return value
    raise ReproError(
        f"cannot interpret {type(value).__name__} as a document; "
        f"pass XML text, a Node, or a forest"
    )
