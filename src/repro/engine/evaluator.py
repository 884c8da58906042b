"""Plan evaluation over dynamic-interval environment sequences.

The evaluator executes physical plans (:mod:`repro.compiler.plan`) against
an :class:`EnvSeq` — the in-engine form of Definition 3.3: a sorted index
of environment ids plus one document-ordered interval relation (and width)
per variable.  Every rule mirrors the SQL translation of Section 4, but
runs the linear whole-column kernels of :mod:`repro.engine.kernels`
instead of joins, and executes decorrelated loops with the structural
merge join of Section 5.  Every relation the evaluator reads or writes
is an :class:`~repro.engine.columns.IntervalColumns` — the empty
relation included — with int64 endpoints.

Widths multiply per nesting level (``w_for = w_e · w_e'``, and ``sort``
and ``//`` square them) while the rows stay few, so wherever a width
grows the evaluator first tests the kernels' own bound,
:func:`repro.engine.kernels.overflows`, against the environment index it
is working under.  When it trips, :meth:`DIEngine._fit` rank-compresses
the relation (``kernels.renormalise`` — legal anywhere, Definition 3.1
fixes only relative order and nesting), and when an iteration's
environment *numbers* are what no longer fit, ``For``/``JoinFor``
number their iterations densely instead (:meth:`DIEngine._compact`).
What fits neither way raises :class:`~repro.errors.WidthOverflowError`
from the kernel; nothing wraps and nothing switches representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.resilience.guard import QueryGuard

from repro.compiler.plan import (
    AndCond,
    CondPlan,
    EmptyCond,
    EqualCond,
    FnNode,
    ForNode,
    JoinForNode,
    JoinStrategy,
    LessCond,
    LetNode,
    NotCond,
    OrCond,
    PlanNode,
    SomeEqualCond,
    VarNode,
    WhereNode,
)
from repro.compiler.planner import cond_free
from repro.encoding.interval import decode, encode_columns
from repro.engine import kernels
from repro.engine.columns import IntervalColumns
from repro.engine.stats import (
    EngineStats,
    FUNCTION_CATEGORIES,
    JOIN,
    OTHER,
)
from repro.errors import ExecutionError, PlanError, UnboundVariableError
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.xml.forest import Forest

#: The result of evaluating a plan node: (relation, width).
Value = tuple[IntervalColumns, int]

#: Unary XFns with an engine operator (dispatched in _apply_fn).
_UNARY_OPERATORS = frozenset({
    "roots", "children", "select", "textnodes", "elementnodes", "head",
    "tail", "reverse", "subtrees_dfs", "data", "distinct", "sort",
})

#: Inner XFns that ``select`` fuses with into one kernel (the child and
#: descendant path steps; see ``DIEngine._eval_fused_select``).
_FUSED_SELECTS = frozenset({"children", "subtrees_dfs"})

#: Latency buckets for the per-kernel histogram (seconds, exponential).
_KERNEL_SECONDS_BUCKETS = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0,
)


@dataclass
class NodeObservation:
    """What one plan node did in a run (EXPLAIN ANALYZE): its last
    output's tuples, width and environments, and its summed inclusive
    seconds over ``calls`` evaluations."""

    tuples: int = 0
    width: int = 0
    envs: int = 0
    seconds: float = 0.0
    calls: int = 0


class EnvSeq:
    """A dynamic-interval environment sequence inside the engine."""

    __slots__ = ("index", "vars")

    def __init__(self, index: list[int], vars: dict[str, Value]):
        self.index = index
        self.vars = vars

    def __repr__(self) -> str:
        return f"EnvSeq({len(self.index)} envs, vars={sorted(self.vars)})"


class DIEngine:
    """The dynamic-interval query engine.

    ``stats`` — optional :class:`EngineStats` collecting the Figure 10
    breakdown.  ``tick`` — optional callback invoked per evaluation step
    (cooperative cancellation / work accounting for the bench harness).
    ``tracer`` — optional :class:`~repro.obs.trace.Tracer`; when enabled,
    every plan-node evaluation becomes a span carrying the node kind, its
    Figure 10 category, and output tuples/width/environment counts.
    ``metrics`` — optional :class:`~repro.obs.metrics.MetricsRegistry`
    observing tuples produced per operator, environment-sequence sizes,
    and interval widths.  ``guard`` — optional
    :class:`~repro.resilience.guard.QueryGuard`; its deadline rides the
    ``tick`` hook (checked at every evaluation step and inside the
    quadratic copy/NLJ loops) and its tuple/env/width budgets are charged
    per node result.

    A disabled tracer is normalized to ``None`` at construction so the
    hot loop pays a single attribute test and allocates nothing per node
    when tracing is off; a guard that enforces nothing is likewise
    dropped, keeping the unguarded fast path identical.
    """

    def __init__(self, stats: EngineStats | None = None,
                 tick: Callable[[], None] | None = None,
                 validate: bool = False,
                 tracer: Tracer | None = None,
                 metrics: MetricsRegistry | None = None,
                 guard: "QueryGuard | None" = None,
                 observed: "dict[int, NodeObservation] | None" = None):
        self.stats = stats
        self._validate = validate
        #: When a dict is supplied, every evaluated plan node records a
        #: :class:`NodeObservation` under ``id(node)`` — what EXPLAIN
        #: ANALYZE renders (``explain_plan(annotations=…)``).
        self._observed = observed
        self._base: EnvSeq | None = None
        if tracer is not None and not tracer.enabled:
            tracer = None
        self._tracer = tracer
        self._metrics = metrics
        if guard is not None and not guard.enabled:
            guard = None
        self._guard = guard
        if guard is not None:
            guard.start()
            tick = _chain_ticks(tick, guard.tick)
        self._tick = tick
        if metrics is not None:
            self._m_tuples = metrics.counter(
                "repro_engine_tuples_total",
                "tuples produced per engine operator", ("operator",))
            self._m_envs = metrics.histogram(
                "repro_engine_envseq_size",
                "environment-sequence sizes seen per node evaluation")
            self._m_width = metrics.histogram(
                "repro_engine_interval_width",
                "interval widths of node results")
            self._m_kernel = metrics.histogram(
                "repro_engine_kernel_seconds",
                "wall seconds per engine kernel invocation", ("kernel",),
                buckets=_KERNEL_SECONDS_BUCKETS)
        else:
            self._m_kernel = None

    # -- public API --------------------------------------------------------------

    def run_plan(self, plan: PlanNode, bindings: Mapping[str, Forest]) -> Forest:
        """Evaluate ``plan`` against document bindings; decode the result.

        The forest comes back in preorder form
        (:class:`~repro.xml.forest.PreorderForest`): it reads like the
        tuple of trees, which are built only if a caller touches them.
        """
        rel, _width = self.run_plan_encoded(plan, bindings)
        return decode(rel)

    def run_plan_encoded(self, plan: PlanNode,
                         bindings: Mapping[str, Forest]) -> Value:
        """Like :meth:`run_plan` but returning the raw encoded relation."""
        vars = {name: self.prepare_document(forest)
                for name, forest in bindings.items()}
        return self.run_plan_values(plan, vars)

    @staticmethod
    def prepare_document(forest: Forest) -> Value:
        """Encode a document binding once, for reuse across plans.

        The returned ``(relation, width)`` value is what
        :meth:`run_plan_values` expects; backends that keep documents
        loaded between queries cache these instead of re-shredding the
        forest per run.
        """
        columns, width = encode_columns(forest)
        return (columns, max(width, 1))

    def run_plan_values(self, plan: PlanNode,
                        values: Mapping[str, Value]) -> Value:
        """Evaluate ``plan`` over already-encoded document values.

        A value given as a tuple list is turned into columns here, once;
        columns pass through untouched.
        """
        self._base = EnvSeq([0], {
            name: (IntervalColumns.from_tuples(rel), width)
            for name, (rel, width) in values.items()})
        try:
            return self.evaluate(plan, self._base)
        finally:
            self._base = None

    # -- expression evaluation ------------------------------------------------------

    def evaluate(self, node: PlanNode, seq: EnvSeq) -> Value:
        if self._tick is not None:
            self._tick()
        if self._tracer is None and self._metrics is None \
                and self._guard is None and self._observed is None:
            return self._dispatch(node, seq)  # the no-observability fast path
        return self._evaluate_observed(node, seq)

    def _evaluate_observed(self, node: PlanNode, seq: EnvSeq) -> Value:
        tracer = self._tracer
        observed = self._observed
        started = perf_counter() if observed is not None else 0.0
        if tracer is None:
            result = self._dispatch(node, seq)
        else:
            with tracer.span(_span_name(node), kind=type(node).__name__,
                             category=_span_category(node)) as span:
                result = self._dispatch(node, seq)
                span.set(tuples=len(result[0]), width=result[1],
                         envs=len(seq.index))
        if observed is not None:
            seen = observed.setdefault(id(node), NodeObservation())
            seen.seconds += perf_counter() - started
            seen.calls += 1
            seen.tuples = len(result[0])
            seen.width = result[1]
            seen.envs = len(seq.index)
        if self._guard is not None:
            self._guard.account(tuples=len(result[0]), width=result[1],
                                envs=len(seq.index))
        if self._metrics is not None:
            self._m_envs.observe(len(seq.index))
            self._m_width.observe(result[1])
            if isinstance(node, FnNode):
                self._m_tuples.inc(len(result[0]), operator=node.fn)
        return result

    def _dispatch(self, node: PlanNode, seq: EnvSeq) -> Value:
        if isinstance(node, VarNode):
            try:
                result = seq.vars[node.name]
            except KeyError:
                raise UnboundVariableError(node.name) from None
        elif isinstance(node, FnNode):
            result = self._eval_fn(node, seq)
        elif isinstance(node, LetNode):
            value = self.evaluate(node.value, seq)
            inner = dict(seq.vars)
            inner[node.var] = value
            result = self.evaluate(node.body, EnvSeq(seq.index, inner))
        elif isinstance(node, WhereNode):
            result = self._eval_where(node, seq)
        elif isinstance(node, ForNode):
            result = self._eval_for(node, seq)
        elif isinstance(node, JoinForNode):
            result = self._eval_join_for(node, seq)
        else:
            raise PlanError(f"cannot evaluate {type(node).__name__}")
        if self._validate:
            # Every node's result — including For/JoinFor, whose output
            # width re-blocks per *enclosing* environment — must fall in
            # blocks of the current sequence's index.
            from repro.engine.validate import validate_value
            validate_value(result[0], result[1], seq.index,
                           context=type(node).__name__)
        return result

    # -- operators -------------------------------------------------------------------

    def _kernel(self, name: str, fn: Callable, *args):
        """Run one operator kernel under per-kernel observability.

        With tracing/metrics disabled this is a plain call — no span, no
        timestamp, no allocation (the counting-tracer overhead test pins
        this).  Otherwise the invocation becomes an ``engine.kernel.*``
        span and one ``repro_engine_kernel_seconds`` observation.
        """
        if self._tick is not None:
            self._tick()
        tracer = self._tracer
        histogram = self._m_kernel
        if tracer is None and histogram is None:
            return fn(*args)
        started = perf_counter()
        if tracer is not None:
            # Tagged with ``kernel=`` (not ``category=``) so the Figure 10
            # accounting passes through and charges the enclosing op span.
            with tracer.span("engine.kernel." + name, kernel=name):
                result = fn(*args)
        else:
            result = fn(*args)
        if histogram is not None:
            histogram.observe(perf_counter() - started, kernel=name)
        return result

    def _fit(self, value: Value, envs: Sequence[int],
             out_width: int) -> Value:
        """``value``, renormalised if what is about to be made of it —
        blocks of ``out_width``, as far out as the last of ``envs`` —
        would leave int64.  The trigger is the bound the kernels test,
        nothing else; a relation that does not fit even at its tightest
        makes the kernel raise ``WidthOverflowError``."""
        if kernels.overflows(envs, out_width):
            return self._kernel("renormalise", kernels.renormalise, *value)
        return value

    def _eval_fn(self, node: FnNode, seq: EnvSeq) -> Value:
        if node.fn == "select" and len(node.args) == 1 \
                and isinstance(node.args[0], FnNode) \
                and node.args[0].fn in _FUSED_SELECTS \
                and len(node.args[0].args) == 1:
            return self._eval_fused_select(node, seq)
        args = [self.evaluate(arg, seq) for arg in node.args]
        if self.stats is None:  # the hot path allocates no closure
            return self._apply_fn(node, args, seq)
        return self._charged(node, lambda: self._apply_fn(node, args, seq))

    def _charged(self, node: FnNode, apply: Callable[[], Value]) -> Value:
        """Run one XFn application under its Figure 10 category."""
        if self.stats is None:
            return apply()
        category = FUNCTION_CATEGORIES.get(node.fn, OTHER)
        with self.stats.measure(category):
            result = apply()
            self.stats.add_tuples(category, len(result[0]))
            return result

    def _eval_fused_select(self, node: FnNode, seq: EnvSeq) -> Value:
        """The two path-step idioms, each as one kernel.

        ``select(children(X), label)`` — the child step — finds the
        matching depth-1 trees directly, skipping the document-sized
        intermediate a ``children`` copy would materialize;
        ``select(subtrees_dfs(X), label)`` — what ``//name`` lowers to —
        emits only the matching subtrees, at ``subtrees_dfs``'s exact
        output coordinates (width squares), instead of a copy of every
        subtree of ``X``.
        """
        inner = node.args[0]
        value = self.evaluate(inner.args[0], seq)
        label = node.param("label")

        def apply() -> Value:
            rel, width = value
            if width == 0:
                return IntervalColumns.empty(), 0
            if inner.fn == "children":
                return self._kernel("select_children",
                                    kernels.select_children,
                                    rel, label), width
            rel, width = self._fit(value, seq.index, width * width)
            return self._kernel("select_descendants",
                                kernels.select_descendants,
                                rel, width, label), width * width

        return self._charged(node, apply)

    def _apply_fn(self, node: FnNode, args: list[Value], seq: EnvSeq) -> Value:
        fn = node.fn
        if fn == "empty_forest":
            return IntervalColumns.empty(), 0
        if fn == "text_const":
            return self._kernel("text_const", kernels.text_const,
                                node.param("value"), seq.index)
        if fn == "concat":
            left, right = args
            left = self._fit(left, seq.index, left[1] + right[1])
            right = self._fit(right, seq.index, left[1] + right[1])
            (left, lw), (right, rw) = left, right
            if lw == 0:
                return right, rw
            if rw == 0:
                return left, lw
            return self._kernel("concat", kernels.concat,
                                left, lw, right, rw), lw + rw
        if fn == "xnode":
            content, width = self._fit(args[0], seq.index, args[0][1] + 2)
            return self._kernel("xnode", kernels.xnode, node.param("label"),
                                content, width, seq.index)
        if fn == "count":
            (rel, width), = args
            return self._kernel("count", kernels.count_roots,
                                rel, width, seq.index)
        if fn == "string_fn":
            (rel, width), = args
            if width == 0:
                return kernels.text_const("", seq.index)
            return self._kernel("string_fn", kernels.string_fn,
                                rel, width, seq.index)
        if fn not in _UNARY_OPERATORS:
            raise PlanError(f"no engine operator for XFn {fn!r}")
        # Remaining operators yield the empty relation for width-0 input.
        (rel, width), = args
        if width == 0:
            return IntervalColumns.empty(), 0
        if fn == "roots":
            return self._kernel("roots", kernels.roots, rel), width
        if fn == "children":
            return self._kernel("children", kernels.children, rel), width
        if fn == "select":
            return self._kernel("select", kernels.select_label,
                                rel, node.param("label")), width
        if fn == "textnodes":
            return self._kernel("textnodes", kernels.textnode_trees, rel), width
        if fn == "elementnodes":
            return self._kernel("elementnodes", kernels.elementnode_trees,
                                rel), width
        if fn == "head":
            return self._kernel("head", kernels.head, rel, width), width
        if fn == "tail":
            return self._kernel("tail", kernels.tail, rel, width), width
        if fn == "reverse":
            return self._kernel("reverse", kernels.reverse, rel, width), width
        if fn == "subtrees_dfs":
            rel, width = self._fit(args[0], seq.index, width * width)
            return self._kernel("subtrees_dfs", kernels.subtrees_dfs,
                                rel, width), width * width
        if fn == "data":
            return self._kernel("data", kernels.data, rel, width), width
        if fn == "distinct":
            return self._kernel("distinct", kernels.distinct, rel, width), width
        if fn == "sort":
            rel, width = self._fit(args[0], seq.index, width * width)
            return self._kernel("sort", kernels.sort, rel, width)
        raise PlanError(f"no engine operator for XFn {fn!r}")

    # -- where ------------------------------------------------------------------------

    def _eval_where(self, node: WhereNode, seq: EnvSeq) -> Value:
        satisfied = self._eval_condition(node.condition, seq)
        if self.stats is not None:
            context = self.stats.measure(JOIN)
        else:
            context = _NullContext()
        with context:
            surviving = [i for i in seq.index if i in satisfied]
            inner_vars: dict[str, Value] = {}
            for name in node.body_free:
                value = seq.vars.get(name)
                if value is None:
                    continue
                rel, width = value
                if width == 0 or len(surviving) == len(seq.index):
                    inner_vars[name] = value
                else:
                    inner_vars[name] = (
                        self._kernel("filter_by_index",
                                     kernels.filter_by_index,
                                     rel, width, surviving),
                        width,
                    )
        return self.evaluate(node.body, EnvSeq(surviving, inner_vars))

    # -- conditions -------------------------------------------------------------------

    def _eval_condition(self, condition: CondPlan, seq: EnvSeq) -> set[int]:
        """The set of environment indices satisfying the condition."""
        if isinstance(condition, EmptyCond):
            rel, width = self.evaluate(condition.expr, seq)
            # A width-0 relation has no blocks: every environment is empty.
            return set(seq.index).difference(rel.envs_present(width))
        if isinstance(condition, (EqualCond, SomeEqualCond)):
            left = self.evaluate(condition.left, seq)
            right = self.evaluate(condition.right, seq)
            return set(self._kernel(
                "equal_envs", kernels.equal_envs,
                isinstance(condition, SomeEqualCond),
                (*left, seq.index), (*right, seq.index)).tolist())
        if isinstance(condition, LessCond):
            left_keys = self._forest_keys(condition.left, seq)
            right_keys = self._forest_keys(condition.right, seq)
            return {i for i in seq.index
                    if left_keys.get(i, ()) < right_keys.get(i, ())}
        if isinstance(condition, NotCond):
            return set(seq.index) - self._eval_condition(condition.condition, seq)
        if isinstance(condition, AndCond):
            # Short-circuit: an empty left set makes the intersection
            # empty.  Conjuncts keep their source order (plans are
            # syntax-directed), so "left" is the one written first.
            left = self._eval_condition(condition.left, seq)
            if not left:
                return left
            return left & self._eval_condition(condition.right, seq)
        if isinstance(condition, OrCond):
            return (self._eval_condition(condition.left, seq)
                    | self._eval_condition(condition.right, seq))
        raise PlanError(f"cannot evaluate condition {type(condition).__name__}")

    def _forest_keys(self, node: PlanNode, seq: EnvSeq) -> dict[int, tuple]:
        rel, width = self.evaluate(node, seq)
        if width == 0:
            return {}
        return self._kernel("forest_keys", kernels.block_keys, rel, width)

    # -- iteration ---------------------------------------------------------------------

    def _eval_for(self, node: ForNode, seq: EnvSeq) -> Value:
        source = self.evaluate(node.source, seq)
        if source[1] == 0:
            return IntervalColumns.empty(), 0
        if self.stats is not None:
            context = self.stats.measure(JOIN)
        else:
            context = _NullContext()
        with context:
            # Iterations are numbered by root left endpoint (< one block
            # past the last environment) and get a block of the source's
            # width each: the width squares.
            source_rel, source_width = self._fit(
                source, seq.index, source[1] * source[1])
            roots = self._kernel("roots", kernels.roots, source_rel)
            outer = {name: seq.vars[name]
                     for name in sorted(node.required_outer)
                     if name in seq.vars}
            lefts = roots.l.tolist()
            index, fan = self._compact(lefts, source_width, outer.values())
            bound = self._kernel("expand_variable", kernels.expand_variable,
                                 source_rel, source_width, index)
            inner_vars: dict[str, Value] = {node.var: (bound, source_width)}
            if outer:
                # Copying the outer bindings into every iteration is the
                # quadratic cost of nested-loop evaluation:
                # |roots| × |binding blocks| tuples.
                moves = [(left // source_width, env)
                         for left, env in zip(lefts, index)]
                for name, value in outer.items():
                    inner_vars[name] = self._gather(value, moves)
        body_rel, body_width = self.evaluate(
            node.body, EnvSeq(index, inner_vars))
        width = fan * body_width
        return self._fit((body_rel, width), seq.index, width)

    def _compact(self, index: list[int], width: int,
                 outer: Iterable[Value]) -> tuple[list[int], int]:
        """The iteration numbers a ``For``/``JoinFor`` body runs under.

        Returns ``(numbers, fan)``: ``fan`` consecutive numbers belong to
        each enclosing environment, so a body result of width ``w`` is,
        read at width ``fan · w``, already laid out for the enclosing
        sequence.  Section 4 numbers iterations ``env · width + offset``
        (root left endpoints, or ``ix · width + iy`` pairs), which is
        ``index`` as given, ``fan = width``.  Only when a block of a
        binding at the last of those numbers would leave int64 — the
        source's own width, or an ``outer`` binding's — are they replaced
        by ``env · fan + rank``, ``fan`` the most iterations any one
        environment has: the same order, with nothing skipped.
        """
        widest = max([width] + [value[1] for value in outer])
        if not kernels.overflows(index, widest):
            return index, width
        envs = [number // width for number in index]
        first: dict[int, int] = {}
        for position, env in enumerate(envs):
            first.setdefault(env, position)
        ranks = [position - first[env] for position, env in enumerate(envs)]
        fan = max(ranks) + 1
        return [env * fan + rank for env, rank in zip(envs, ranks)], fan

    def _gather(self, value: Value, moves: list[tuple[int, int]]) -> Value:
        """Copy environment blocks ``(origin, target)``, targets ascending."""
        if value[1] == 0:
            return value
        last_target = [moves[-1][1]] if moves else []
        rel, width = self._fit(value, last_target, value[1])
        return self._kernel("gather_blocks", kernels.gather_blocks,
                            rel, width, moves), width

    def _eval_join_for(self, node: JoinForNode, seq: EnvSeq) -> Value:
        if self._base is None:
            raise ExecutionError("JoinForNode requires a base environment")
        source = self.evaluate(node.source, self._base)
        if source[1] == 0:
            return IntervalColumns.empty(), 0
        # Expand the source once, against the base environment.
        source_rel, source_width = self._fit(
            source, self._base.index, source[1] * source[1])
        roots = self._kernel("roots", kernels.roots, source_rel)
        inner_index = roots.l.tolist()
        bound = self._kernel("expand_variable", kernels.expand_variable,
                             source_rel, source_width, inner_index)
        inner_seq = EnvSeq(inner_index, {node.var: (bound, source_width)})
        inner_rel, inner_width = self.evaluate(node.key_inner, inner_seq)
        outer_rel, outer_width = self.evaluate(node.key_outer, seq)

        if self.stats is not None:
            context = self.stats.measure(JOIN)
        else:
            context = _NullContext()
        with context:
            pairs = self._match_pairs(
                outer_rel, outer_width, seq.index,
                inner_rel, inner_width, inner_index,
                existential=node.existential,
                strategy=node.strategy,
            )
            outer = {name: seq.vars[name]
                     for name in sorted(node.required_outer)
                     if name in seq.vars}
            pair_index, fan = self._compact(
                [ix * source_width + iy for ix, iy in pairs], source_width,
                outer.values())
            # Under isolation the body never reads the pair sequence, so
            # the join variable is only copied if the residual needs it.
            need_var = not node.isolate or (
                node.residual is not None
                and node.var in cond_free(node.residual))
            pair_vars: dict[str, Value] = {}
            if need_var:
                pair_vars[node.var] = self._gather(
                    (bound, source_width),
                    [(iy, env) for (_ix, iy), env in zip(pairs, pair_index)])
            if outer:
                moves = [(ix, env)
                         for (ix, _iy), env in zip(pairs, pair_index)]
                for name, value in outer.items():
                    pair_vars[name] = self._gather(value, moves)
        pair_seq = EnvSeq(pair_index, pair_vars)
        if node.residual is not None:
            satisfied = self._eval_condition(node.residual, pair_seq)
            surviving = [i for i in pair_index if i in satisfied]
            filtered_vars = {
                name: (self._kernel("filter_by_index",
                                    kernels.filter_by_index,
                                    rel, width, surviving), width)
                for name, (rel, width) in pair_vars.items()
            }
            pair_seq = EnvSeq(surviving, filtered_vars)
        if node.isolate:
            # Join-graph isolation: the body depends on the join variable
            # alone, so evaluate it once per *inner* environment — the
            # small index space — then gather the finished blocks into
            # the surviving pairs.  Duplicate origins are fine (one inner
            # environment may match many outer environments).
            body = self.evaluate(node.body, inner_seq)
            surviving_set = set(pair_seq.index)
            body_rel, body_width = self._gather(
                body, [(iy, env) for (_ix, iy), env in zip(pairs, pair_index)
                       if env in surviving_set])
        else:
            body_rel, body_width = self.evaluate(node.body, pair_seq)
        width = fan * body_width
        return self._fit((body_rel, width), seq.index, width)

    def _match_pairs(self, outer_rel: IntervalColumns, outer_width: int,
                     outer_index: list[int], inner_rel: IntervalColumns,
                     inner_width: int, inner_index: list[int],
                     existential: bool = True,
                     strategy: JoinStrategy = JoinStrategy.MSJ,
                     ) -> list[tuple[int, int]]:
        """Join key forests into matching (ix, iy) environment pairs.

        Keys are integers (``kernels.key_ids``) — one per tree for an
        existential (SomeEqual) join, one per whole forest, the empty
        one included, for a deep-Equal join.  The pair-matching operator
        is then either

        * **MSJ**: sort the inner ids and merge the outer ids into them
          (Section 5: sort by structural order, merge on equality), or
        * **NLJ**: compare every (outer, inner) key pair — the quadratic
          operator the paper's DI-NLJ plan uses.
        """
        if outer_width == 0 or inner_width == 0:
            return []
        (outer_envs, outer_ids), (inner_envs, inner_ids) = self._kernel(
            "key_ids", kernels.key_ids, existential,
            (outer_rel, outer_width, outer_index),
            (inner_rel, inner_width, inner_index))
        if strategy is JoinStrategy.NLJ:
            inner_keys = list(zip(inner_ids.tolist(), inner_envs.tolist()))
            pairs = set()
            for outer_key, outer_env in zip(outer_ids.tolist(),
                                            outer_envs.tolist()):
                for inner_key, inner_env in inner_keys:
                    if self._tick is not None:
                        self._tick()
                    # One comparison per pair, not hashing: this is the
                    # honest quadratic nested-loop comparison operator.
                    if outer_key == inner_key:
                        pairs.add((outer_env, inner_env))
            return sorted(pairs)
        left, right = self._kernel("match_ids", kernels.match_ids,
                                   outer_ids, inner_ids)
        return sorted(set(zip(outer_envs[left].tolist(),
                              inner_envs[right].tolist())))


def _chain_ticks(first: Callable[[], None] | None,
                 second: Callable[[], None]) -> Callable[[], None]:
    """Compose an existing tick callback with a guard tick."""
    if first is None:
        return second

    def tick() -> None:
        first()
        second()

    return tick


def _span_name(node: PlanNode) -> str:
    """Trace span name for one plan node (``op.<fn>`` for XFns)."""
    if isinstance(node, FnNode):
        return f"op.{node.fn}"
    return "op." + type(node).__name__.removesuffix("Node").lower()


def _span_category(node: PlanNode) -> str:
    """Figure 10 category carried as a span attribute (see stats.py)."""
    if isinstance(node, FnNode):
        return FUNCTION_CATEGORIES.get(node.fn, OTHER)
    if isinstance(node, (ForNode, JoinForNode, WhereNode)):
        return JOIN
    return OTHER


class _NullContext:
    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: object) -> None:
        return None
