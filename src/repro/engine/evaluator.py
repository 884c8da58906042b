"""Plan evaluation over dynamic-interval environment sequences.

The evaluator executes physical plans (:mod:`repro.compiler.plan`) against
an :class:`EnvSeq` — the in-engine form of Definition 3.3: the index
relation ``I`` as a strictly ascending int64 array of environment ids,
plus one document-ordered interval relation (and width) per variable.
Conditions are boolean masks over that array and a join's matched pairs
are two arrays, so no step walks the environments in Python (the
nested-loop join's per-pair comparison excepted: it is the quadratic
control arm).  Every rule mirrors the SQL translation of Section 4, but
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

from typing import TYPE_CHECKING, Callable, Iterable, Mapping

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.memo import Charge, DocumentMemo
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
from repro.engine.stats import FUNCTION_CATEGORIES, PATHS, span_category
from repro.errors import (
    ExecutionError,
    PlanError,
    UnboundVariableError,
    WidthOverflowError,
)
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

#: The XFns Figure 10 charges to paths: a unary run of them over one
#: document variable, at the base environment, is a memoizable chain.
_PATH_FNS = frozenset(fn for fn, category in FUNCTION_CATEGORIES.items()
                      if category == PATHS)

#: The index of the base environment sequence: environment 0 alone.
_BASE_INDEX = np.zeros(1, dtype=np.int64)

_NO_ENVS = np.empty(0, dtype=np.int64)


class EnvSeq:
    """A dynamic-interval environment sequence inside the engine:
    ``index`` is a strictly ascending int64 array (never written in
    place), ``vars`` one ``(relation, width)`` value per variable."""

    __slots__ = ("index", "vars")

    def __init__(self, index: np.ndarray, vars: dict[str, Value]):
        self.index = index
        self.vars = vars

    def __repr__(self) -> str:
        return f"EnvSeq({len(self.index)} envs, vars={sorted(self.vars)})"


class DIEngine:
    """The dynamic-interval query engine.

    ``validate`` checks every node's result against Definition 3.3
    (:mod:`repro.engine.validate`).  ``tracer`` — optional
    :class:`~repro.obs.trace.Tracer`; when enabled, every plan-node
    evaluation becomes an ``op.*`` span carrying the node kind, its
    Figure 10 category, ``node=id(node)`` and its output
    tuples/width/environment counts, and every kernel invocation an
    ``engine.kernel.*`` span.  That is the engine's one record of a run:
    the Figure 10 split, EXPLAIN ANALYZE and the engine metrics are all
    read from it afterwards (:mod:`repro.engine.stats`).  ``guard`` —
    optional :class:`~repro.resilience.guard.QueryGuard`; its deadline is
    checked by :meth:`QueryGuard.tick` at every evaluation step, kernel
    and nested-loop comparison, and its tuple/env/width budgets are
    charged per node result.

    Document memos are per run, not per engine: a backend passes the
    :class:`~repro.engine.memo.DocumentMemo` of each bound document to
    :meth:`run_plan_values`, and without them every node is computed.

    A disabled tracer is normalized to ``None`` at construction so the
    hot loop pays a single attribute test and allocates nothing per node
    when tracing is off; a guard that enforces nothing is likewise
    dropped, keeping the unguarded fast path identical.
    """

    def __init__(self, validate: bool = False,
                 tracer: Tracer | None = None,
                 guard: "QueryGuard | None" = None):
        self._validate = validate
        self._base: EnvSeq | None = None
        # The running plan's document memos, and — while a memoizable
        # value is being computed — the guard charges it makes.  Memos
        # are read only outside such a computation, so an entry is a
        # maximal chain and never contains another.
        self._memos: "Mapping[str, DocumentMemo] | None" = None
        self._log: "list[Charge] | None" = None
        if tracer is not None and not tracer.enabled:
            tracer = None
        self._tracer = tracer
        if guard is not None and not guard.enabled:
            guard = None
        self._guard = guard
        self._tick: Callable[[], None] | None = None
        if guard is not None:
            self._tick = guard.start().tick

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
        """Encode a document binding (a forest, already wrapped) once,
        for reuse across plans: the read-only ``(relation, width)`` value
        :meth:`run_plan_values` expects.  A session's documents arrive
        already in this form (:func:`repro.xml.text_parser.read_document`);
        this is the adapter for a forest in hand.
        """
        columns, width = encode_columns(forest)
        return (columns.read_only(), max(width, 1))

    def run_plan_values(self, plan: PlanNode,
                        values: Mapping[str, Value],
                        memos: "Mapping[str, DocumentMemo] | None" = None,
                        ) -> Value:
        """Evaluate ``plan`` over already-encoded document values.

        A value given as a tuple list is turned into columns here, once;
        columns pass through untouched.  ``memos`` — a
        :class:`~repro.engine.memo.DocumentMemo` per document variable,
        kept by a backend beside each bound document — serves the path
        chains evaluated at the base environment and every join's build
        side from earlier runs on the same snapshot.  A served node
        still opens its op span (tagged ``memo="hit"``), is charged to
        the guard exactly as when computed, and is validated.  Without
        memos every node is computed.
        """
        self._base = EnvSeq(_BASE_INDEX, {
            name: (IntervalColumns.from_tuples(rel), width)
            for name, (rel, width) in values.items()})
        self._memos = memos or None
        try:
            return self.evaluate(plan, self._base)
        finally:
            self._base = None
            self._memos = None
            self._log = None

    # -- expression evaluation ------------------------------------------------------

    def evaluate(self, node: PlanNode, seq: EnvSeq) -> Value:
        if self._tick is not None:
            self._tick()
        if self._memos is not None and self._log is None \
                and seq.index is _BASE_INDEX:
            memo = self._chain_memo(node, seq)
            if memo is not None:
                return self._memoized(node, seq, memo)
        return self._compute(node, seq)

    def _compute(self, node: PlanNode, seq: EnvSeq) -> Value:
        if self._tracer is None and self._guard is None:
            result = self._dispatch(node, seq)  # the no-observability path
            if self._log is not None:
                self._log.append((len(result[0]), result[1], len(seq.index)))
            return result
        return self._evaluate_observed(node, seq)

    # -- the document memo -------------------------------------------------------

    def _chain_memo(self, node: PlanNode,
                    seq: EnvSeq) -> "DocumentMemo | None":
        """The memo serving ``node`` at the base environment: ``node``
        must be a path chain whose variable is still bound to its memo's
        own document (no ``let`` has rebound it)."""
        var = _chain_var(node)
        memo = self._memos.get(var) if var is not None else None
        if memo is None or not memo.binds(seq.vars.get(var, (None, 0))):
            return None
        return memo

    def _memoized(self, node: PlanNode, seq: EnvSeq,
                  memo: "DocumentMemo") -> Value:
        """A path chain at the base environment, from ``memo`` or
        computed and then kept there."""
        entry = memo.get(node)
        if entry is not None:
            return self._serve(node, seq, entry.value, entry.charges)
        value, charges = self._with_charges(self._compute, node, seq)
        memo.put(node, value, charges)
        return value

    def _with_charges(self, compute: Callable, *args):
        """``compute(*args)`` and the guard charges it made, in order;
        the charges also reach whatever value encloses this one."""
        outer, self._log = self._log, []
        try:
            value = compute(*args)
            charges = tuple(self._log)
        finally:
            self._log = outer
        if outer is not None:
            outer.extend(charges)
        return value, charges

    def _serve(self, node: PlanNode, seq: EnvSeq, value: Value,
               charges: "tuple[Charge, ...]") -> Value:
        """Answer ``node`` with a memoized ``value`` as if computed:
        its op span (tagged ``memo="hit"``), the guard charges computing
        it made, and validation."""
        tracer = self._tracer
        if tracer is not None:
            with tracer.span(_span_name(node), kind=type(node).__name__,
                             category=span_category(node), node=id(node),
                             memo="hit") as span:
                span.set(tuples=len(value[0]), width=value[1],
                         envs=len(seq.index))
        if self._guard is not None:
            for tuples, width, envs in charges:
                self._guard.account(tuples=tuples, width=width, envs=envs)
        if self._log is not None:
            self._log.extend(charges)
        if self._validate:
            self._check(node, seq, value)
        return value

    def _evaluate_observed(self, node: PlanNode, seq: EnvSeq) -> Value:
        tracer = self._tracer
        if tracer is None:
            result = self._dispatch(node, seq)
        else:
            with tracer.span(_span_name(node), kind=type(node).__name__,
                             category=span_category(node),
                             node=id(node)) as span:
                result = self._dispatch(node, seq)
                span.set(tuples=len(result[0]), width=result[1],
                         envs=len(seq.index))
        if self._guard is not None:
            self._guard.account(tuples=len(result[0]), width=result[1],
                                envs=len(seq.index))
        if self._log is not None:
            self._log.append((len(result[0]), result[1], len(seq.index)))
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
            self._check(node, seq, result)
        return result

    @staticmethod
    def _check(node: PlanNode, seq: EnvSeq, result: Value) -> None:
        # The index evaluated under must be a strictly ascending int64
        # array, and every node's result — including For/JoinFor, whose
        # output width re-blocks per *enclosing* environment — must fall
        # in blocks of it.
        from repro.engine.validate import validate_index, validate_value
        context = type(node).__name__
        validate_index(seq.index, context=context)
        validate_value(result[0], result[1], seq.index, context=context)

    # -- operators -------------------------------------------------------------------

    def _kernel(self, name: str, fn: Callable, *args):
        """Run one operator kernel, as an ``engine.kernel.*`` span when
        tracing.

        With tracing disabled this is a plain call — no span, no
        timestamp, no allocation (the counting-tracer overhead test pins
        this).
        """
        if self._tick is not None:
            self._tick()
        tracer = self._tracer
        if tracer is None:
            return fn(*args)
        # Tagged with ``kernel=`` (not ``category=``) so the Figure 10
        # accounting passes through and charges the enclosing op span.
        with tracer.span("engine.kernel." + name, kernel=name):
            return fn(*args)

    def _fit(self, value: Value, envs: np.ndarray, out_width: int) -> Value:
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
        return self._apply_fn(node, args, seq)

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
        rel, width = value
        if width == 0:
            return IntervalColumns.empty(), 0
        if inner.fn == "children":
            return self._kernel("select_children", kernels.select_children,
                                rel, label), width
        rel, width = self._fit(value, seq.index, width * width)
        return self._kernel("select_descendants", kernels.select_descendants,
                            rel, width, label), width * width

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
        everyone = satisfied.all()
        surviving = seq.index if everyone else seq.index[satisfied]
        inner_vars: dict[str, Value] = {}
        for name in node.body_free:
            value = seq.vars.get(name)
            if value is None:
                continue
            rel, width = value
            if width == 0 or everyone:
                inner_vars[name] = value
            else:
                inner_vars[name] = (
                    self._kernel("filter_by_index", kernels.filter_by_index,
                                 rel, width, surviving),
                    width,
                )
        return self.evaluate(node.body, EnvSeq(surviving, inner_vars))

    # -- conditions -------------------------------------------------------------------

    def _eval_condition(self, condition: CondPlan,
                        seq: EnvSeq) -> np.ndarray:
        """A boolean mask over ``seq.index``: the environments that
        satisfy the condition."""
        if isinstance(condition, EmptyCond):
            rel, width = self.evaluate(condition.expr, seq)
            # A width-0 relation has no blocks: every environment is empty.
            if width == 0:
                return np.ones(len(seq.index), dtype=np.bool_)
            return ~_members(seq.index, rel.block_bounds(width)[0])
        if isinstance(condition, (EqualCond, SomeEqualCond)):
            left = self.evaluate(condition.left, seq)
            right = self.evaluate(condition.right, seq)
            return _members(seq.index, self._kernel(
                "equal_envs", kernels.equal_envs,
                isinstance(condition, SomeEqualCond),
                (*left, seq.index), (*right, seq.index)))
        if isinstance(condition, LessCond):
            left = self.evaluate(condition.left, seq)
            right = self.evaluate(condition.right, seq)
            return self._kernel("less_envs", kernels.less_envs,
                                (*left, seq.index), (*right, seq.index))
        if isinstance(condition, NotCond):
            return ~self._eval_condition(condition.condition, seq)
        if isinstance(condition, AndCond):
            # Short-circuit: an empty left side makes the conjunction
            # empty.  Conjuncts keep their source order (plans are
            # syntax-directed), so "left" is the one written first.
            left = self._eval_condition(condition.left, seq)
            if not left.any():
                return left
            return left & self._eval_condition(condition.right, seq)
        if isinstance(condition, OrCond):
            return (self._eval_condition(condition.left, seq)
                    | self._eval_condition(condition.right, seq))
        raise PlanError(f"cannot evaluate condition {type(condition).__name__}")

    # -- iteration ---------------------------------------------------------------------

    def _eval_for(self, node: ForNode, seq: EnvSeq) -> Value:
        source = self.evaluate(node.source, seq)
        if source[1] == 0:
            return IntervalColumns.empty(), 0
        # Iterations are numbered by root left endpoint (< one block past
        # the last environment) and get a block of the source's width
        # each: the width squares.
        source_rel, source_width = self._fit(
            source, seq.index, source[1] * source[1])
        roots = self._kernel("roots", kernels.roots, source_rel)
        outer = {name: seq.vars[name]
                 for name in sorted(node.required_outer)
                 if name in seq.vars}
        envs, offsets = np.divmod(roots.l, source_width)
        index, fan = self._compact(envs, offsets, source_width,
                                   outer.values())
        bound = self._kernel("expand_variable", kernels.expand_variable,
                             source_rel, source_width, index)
        inner_vars: dict[str, Value] = {node.var: (bound, source_width)}
        # Copying the outer bindings into every iteration is the quadratic
        # cost of nested-loop evaluation: |roots| × |binding blocks| tuples.
        for name, value in outer.items():
            inner_vars[name] = self._gather(value, envs, index)
        body_rel, body_width = self.evaluate(
            node.body, EnvSeq(index, inner_vars))
        width = fan * body_width
        return self._fit((body_rel, width), seq.index, width)

    def _compact(self, envs: np.ndarray, offsets: np.ndarray, width: int,
                 outer: Iterable[Value]) -> tuple[np.ndarray, int]:
        """The iteration numbers a ``For``/``JoinFor`` body runs under.

        Iteration ``k`` belongs to enclosing environment ``envs[k]`` and
        sits at ``offsets[k] < width`` in its block, ``(envs, offsets)``
        strictly ascending.  Returns ``(numbers, fan)``: ``fan``
        consecutive numbers belong to each enclosing environment, so a
        body result of width ``w`` is, read at width ``fan · w``, already
        laid out for the enclosing sequence.  Section 4 numbers
        iterations ``env · width + offset`` (root left endpoints, or
        ``ix · width + iy`` pairs), ``fan = width``.  Only when a block
        of a binding at the last of those numbers would leave int64 — the
        source's own width, or an ``outer`` binding's — are they replaced
        by ``env · fan + rank``, ``fan`` the most iterations any one
        environment has: the same order, with nothing skipped.  Both
        bounds are tested on the last number in Python integers, before
        any array product that could wrap.
        """
        if len(envs) == 0:
            return envs, width
        widest = max([width] + [value[1] for value in outer])
        last = int(envs[-1]) * width + int(offsets[-1])
        if not kernels.overflows((last,), widest):
            return envs * width + offsets, width
        ranks = np.arange(len(envs)) - np.searchsorted(envs, envs)
        fan = int(ranks.max()) + 1
        if int(envs[-1]) * fan + int(ranks[-1]) > kernels.INT64_MAX:
            raise WidthOverflowError(
                f"iteration numbers leave int64 even when dense: "
                f"{fan} iterations in environment {int(envs[-1])}")
        return envs * fan + ranks, fan

    def _gather(self, value: Value, origins: np.ndarray,
                targets: np.ndarray) -> Value:
        """Copy the block of environment ``origins[k]`` to ``targets[k]``,
        targets ascending."""
        if value[1] == 0:
            return value
        rel, width = self._fit(value, targets[-1:], value[1])
        return self._kernel("gather_blocks", kernels.gather_blocks,
                            rel, width, origins, targets), width

    def _eval_join_for(self, node: JoinForNode, seq: EnvSeq) -> Value:
        if self._base is None:
            raise ExecutionError("JoinForNode requires a base environment")
        source = self.evaluate(node.source, self._base)
        if source[1] == 0:
            return IntervalColumns.empty(), 0
        # The build side depends on the document alone: with a memo for
        # the source's document it is computed once per snapshot.
        memo = None
        if self._memos is not None and self._log is None:
            memo = self._chain_memo(node.source, self._base)
        key = (node.source, node.var, node.key_inner)
        entry = memo.get(key) if memo is not None else None
        if entry is not None:
            source_width, inner_index, bound, inner_key = entry.value
            inner_seq = EnvSeq(inner_index, {node.var: (bound, source_width)})
            self._serve(node.key_inner, inner_seq, inner_key, entry.charges)
        else:
            if memo is None:
                build = self._build_side(node, source)
            else:
                build, charges = self._with_charges(self._build_side,
                                                    node, source)
                memo.put(key, build, charges)
            source_width, inner_index, bound, inner_key = build
            inner_seq = EnvSeq(inner_index, {node.var: (bound, source_width)})
        inner_rel, inner_width = inner_key
        outer_rel, outer_width = self.evaluate(node.key_outer, seq)

        ix, iy = self._match_pairs(
            outer_rel, outer_width, seq.index,
            inner_rel, inner_width, inner_index,
            existential=node.existential,
            strategy=node.strategy,
        )
        outer = {name: seq.vars[name]
                 for name in sorted(node.required_outer)
                 if name in seq.vars}
        pair_index, fan = self._compact(ix, iy, source_width, outer.values())
        # Under isolation the body never reads the pair sequence, so the
        # join variable is only copied if the residual needs it.
        need_var = not node.isolate or (
            node.residual is not None
            and node.var in cond_free(node.residual))
        pair_vars: dict[str, Value] = {}
        if need_var:
            pair_vars[node.var] = self._gather(
                (bound, source_width), iy, pair_index)
        for name, value in outer.items():
            pair_vars[name] = self._gather(value, ix, pair_index)
        pair_seq = EnvSeq(pair_index, pair_vars)
        if node.residual is not None:
            satisfied = self._eval_condition(node.residual, pair_seq)
            iy, surviving = iy[satisfied], pair_index[satisfied]
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
            body_rel, body_width = self._gather(body, iy, pair_seq.index)
        else:
            body_rel, body_width = self.evaluate(node.body, pair_seq)
        width = fan * body_width
        return self._fit((body_rel, width), seq.index, width)

    def _build_side(self, node: JoinForNode, source: Value,
                    ) -> tuple[int, np.ndarray, IntervalColumns, Value]:
        """Expand the source once, against the base environment, and
        evaluate the inner key under it: ``(source width, inner index,
        the bound join variable, the inner key)``."""
        source_rel, source_width = self._fit(
            source, self._base.index, source[1] * source[1])
        roots = self._kernel("roots", kernels.roots, source_rel)
        inner_index = roots.l
        bound = self._kernel("expand_variable", kernels.expand_variable,
                             source_rel, source_width, inner_index)
        inner_key = self.evaluate(
            node.key_inner,
            EnvSeq(inner_index, {node.var: (bound, source_width)}))
        return source_width, inner_index, bound, inner_key

    def _match_pairs(self, outer_rel: IntervalColumns, outer_width: int,
                     outer_index: np.ndarray, inner_rel: IntervalColumns,
                     inner_width: int, inner_index: np.ndarray,
                     existential: bool = True,
                     strategy: JoinStrategy = JoinStrategy.MSJ,
                     ) -> tuple[np.ndarray, np.ndarray]:
        """Join key forests into the matching environment pairs: two
        int64 arrays ``(ix, iy)``, sorted by ``ix`` then ``iy``, each
        pair once.

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
            return _NO_ENVS, _NO_ENVS
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
            ix, iy = np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2).T
            return ix, iy
        left, right = self._kernel("match_ids", kernels.match_ids,
                                   outer_ids, inner_ids)
        return _distinct_pairs(outer_envs[left], inner_envs[right])


def _members(index: np.ndarray, envs: np.ndarray) -> np.ndarray:
    """A mask over the ascending ``index``: which of its environments
    the ascending ``envs`` holds — one ``searchsorted``."""
    if len(envs) == 0:
        return np.zeros(len(index), dtype=np.bool_)
    at = np.searchsorted(envs, index)
    return envs[np.minimum(at, len(envs) - 1)] == index


def _distinct_pairs(ix: np.ndarray,
                    iy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(ix, iy)`` sorted by ``ix`` then ``iy``, each pair once: one
    ``lexsort`` and a neighbour compare."""
    order = np.lexsort((iy, ix))
    ix, iy = ix[order], iy[order]
    fresh = np.ones(len(ix), dtype=np.bool_)
    fresh[1:] = (ix[1:] != ix[:-1]) | (iy[1:] != iy[:-1])
    return ix[fresh], iy[fresh]


def _chain_var(node: PlanNode) -> str | None:
    """The variable a path chain reads — a unary run of path XFns
    down to a :class:`VarNode` — or ``None`` when ``node`` is no chain."""
    while isinstance(node, FnNode) and node.fn in _PATH_FNS \
            and len(node.args) == 1:
        node = node.args[0]
        if isinstance(node, VarNode):
            return node.name
    return None


def _span_name(node: PlanNode) -> str:
    """Trace span name for one plan node (``op.<fn>`` for XFns)."""
    if isinstance(node, FnNode):
        return f"op.{node.fn}"
    return "op." + type(node).__name__.removesuffix("Node").lower()
