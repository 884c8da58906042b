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
    from repro.engine.memo import DocumentMemo
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
    Lifted,
    NotCond,
    OrCond,
    PlanNode,
    SomeEqualCond,
    VarNode,
    WhereNode,
    chain_var,
    clause_chain,
)
from repro.compiler.planner import cond_free
from repro.encoding.interval import decode, encode_columns
from repro.engine import kernels
from repro.engine.columns import IntervalColumns
from repro.engine.stats import span_category
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
    and nested-loop comparison, and its tuple budget is charged per node
    result.

    Document memos are per run, not per engine: a backend passes the
    :class:`~repro.engine.memo.DocumentMemo` of each bound document to
    :meth:`run_plan_values`, and without them every node is computed.
    An engine whose guard carries a resource budget neither reads nor
    fills a memo, so every charge is the node's own.

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
        # The running plan's document memos.  ``_filling`` is set while a
        # memo entry is being computed: memos are not read then, so an
        # entry is a maximal chain and never contains another.
        self._memos: "Mapping[str, DocumentMemo] | None" = None
        self._filling = False
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
        side from earlier runs on the same snapshot, or on the one before
        a commit whose delta cannot have changed them.  A served node
        still opens its op span (tagged ``memo="hit"``) and is validated,
        but charges the guard nothing: under a guard with a resource
        budget the memos are neither read nor filled.  Without memos, or
        under such a guard, every node is computed.
        """
        self._base = EnvSeq(_BASE_INDEX, {
            name: (IntervalColumns.from_tuples(rel), width)
            for name, (rel, width) in values.items()})
        budgeted = self._guard is not None and self._guard.budget is not None
        self._memos = None if budgeted else memos or None
        try:
            return self.evaluate(plan, self._base)
        finally:
            self._base = None
            self._memos = None

    # -- expression evaluation ------------------------------------------------------

    def evaluate(self, node: PlanNode, seq: EnvSeq) -> Value:
        if self._tick is not None:
            self._tick()
        if self._memos is None or self._filling \
                or seq.index is not _BASE_INDEX:  # the hot path: no memo
            return self._compute(node, seq)
        memo = self._chain_memo(node, seq)
        if memo is None:
            return self._compute(node, seq)
        value, hit = self._memoized(memo, node, self._compute, node, seq)
        if hit:
            self._serve(node, seq, value)
        return value

    def _compute(self, node: PlanNode, seq: EnvSeq) -> Value:
        if self._tracer is None and self._guard is None:
            return self._dispatch(node, seq)  # the no-observability path
        return self._evaluate_observed(node, seq)

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
        self._charge(result)
        return result

    def _charge(self, result: Value) -> None:
        """Account one node result to the guard."""
        if self._guard is not None:
            self._guard.account(len(result[0]))

    # -- the document memo -------------------------------------------------------

    def _chain_memo(self, node: PlanNode,
                    seq: EnvSeq) -> "DocumentMemo | None":
        """The memo that serves and keeps ``node``, if any: ``node`` must
        be a path chain at the base environment whose variable is still
        bound to its memo's own document (no ``let`` has rebound it), and
        no memo entry may be being computed."""
        if self._memos is None or self._filling \
                or seq.index is not _BASE_INDEX:
            return None
        var = chain_var(node)
        memo = self._memos.get(var) if var is not None else None
        if memo is None or not memo.binds(seq.vars.get(var, (None, 0))):
            return None
        return memo

    def _memoized(self, memo: "DocumentMemo | None", key: object,
                  compute: Callable, *args) -> tuple[object, bool]:
        """``(value, hit)``: the value ``memo`` keeps under ``key``, or
        else ``compute(*args)`` — reading no memo meanwhile — kept there.
        Without a memo the value is computed."""
        if memo is None:
            return compute(*args), False
        entry = memo.get(key)
        if entry is not None:
            return entry.value, True
        filling, self._filling = self._filling, True
        try:
            value = compute(*args)
        finally:
            self._filling = filling
        memo.put(key, value)
        return value, False

    def _serve(self, node: PlanNode, seq: EnvSeq, value: Value) -> None:
        """Answer ``node`` with a memoized ``value`` as if computed: its
        op span (tagged ``memo="hit"``) and validation."""
        tracer = self._tracer
        if tracer is not None:
            with tracer.span(_span_name(node), kind=type(node).__name__,
                             category=span_category(node), node=id(node),
                             memo="hit") as span:
                span.set(tuples=len(value[0]), width=value[1],
                         envs=len(seq.index))
        if self._validate:
            self._check(node, seq, value)

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
        return self.evaluate(node.body, self._where_seq(node, seq))

    def _where_seq(self, node: WhereNode, seq: EnvSeq) -> EnvSeq:
        """The environments of ``seq`` that satisfy ``node``'s condition,
        with the variables its body reads."""
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
        return EnvSeq(surviving, inner_vars)

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
        # A lifted chain is re-blocked from the source's own coordinates:
        # when the source had to be renormalised (its width squared
        # leaves int64 even at the base), the chains run per iteration.
        lifting = source_rel is source[0]
        inner_vars: dict[str, Value] = {}
        if node.reads_var or not lifting:
            bound = self._kernel("expand_variable", kernels.expand_variable,
                                 source_rel, source_width, index)
            inner_vars[node.var] = (bound, source_width)
        if node.lifted and lifting:
            memo = self._chain_memo(node.source, seq)
            chain_seq = EnvSeq(seq.index, {node.var: source})
            for lifted in node.lifted:
                inner_vars[lifted.name] = self._eval_lifted(
                    lifted, chain_seq, memo, roots.l, index)
        elif node.lifted:
            chain_seq = EnvSeq(index, {node.var: inner_vars[node.var]})
            for lifted in node.lifted:
                inner_vars[lifted.name] = self.evaluate(lifted.chain,
                                                        chain_seq)
        # Copying the outer bindings into every iteration is the quadratic
        # cost of nested-loop evaluation: |roots| × |binding blocks| tuples.
        for name, value in outer.items():
            inner_vars[name] = self._gather(value, envs, index)
        body_seq = EnvSeq(index, inner_vars)
        if node.order is None:
            body_rel, body_width = self.evaluate(node.body, body_seq)
        else:
            body_rel, body_width = self._eval_ordered(node, body_seq, fan)
        width = fan * body_width
        return self._fit((body_rel, width), seq.index, width)

    def _eval_ordered(self, node: ForNode, seq: EnvSeq, fan: int) -> Value:
        """An ordered ``for``'s body over its iterations ``seq`` (``fan``
        to each enclosing environment, :meth:`_compact`), laid out in
        ``order by`` order.  The clause chain runs once; where it ends,
        the return expression and the key are evaluated, and the
        surviving iterations of each enclosing environment are ranked by
        the key, then the ties' values, then iteration order — as the
        lowering's packed ``<#tuple>`` trees sort — and each one's block
        of the return moves to the slot of its rank: one gather."""
        order = node.order
        lets, where, tail = clause_chain(node.body)
        for let in lets:
            seq = EnvSeq(seq.index, {**seq.vars,
                                     let.var: self.evaluate(let.value, seq)})
        if where is not None:
            seq = self._where_seq(where, seq)
        value = self.evaluate(tail, seq)
        if len(seq.index) < 2 or value[1] == 0:
            return value  # nothing to move
        keys = [self.evaluate(order.key, seq)]
        keys += [seq.vars[name] for name in order.ties]
        origins, targets = self._kernel(
            "order_iterations", kernels.order_iterations, keys, seq.index,
            fan, order.descending)
        return self._gather(value, origins, targets)

    def _eval_lifted(self, lifted: Lifted, chain_seq: EnvSeq,
                     memo: "DocumentMemo | None", root_lefts: np.ndarray,
                     index: np.ndarray) -> Value:
        """One lifted chain's value per iteration: the chain over the
        ``for``'s source (``chain_seq`` binds the loop variable to it) —
        served from ``memo``, or computed from the source without walking
        from the document root and kept there, under its document-rooted
        key, which a text evaluating the rooted chain directly shares —
        re-blocked into ``index``, all under the chain's own op span."""
        if self._tick is not None:
            self._tick()
        chain = lifted.chain
        tracer = self._tracer
        if tracer is None:
            return self._reblock(lifted, chain_seq, memo, root_lefts,
                                 index)[0]
        with tracer.span(_span_name(chain), kind=type(chain).__name__,
                         category=span_category(chain),
                         node=id(chain)) as span:
            result, hit = self._reblock(lifted, chain_seq, memo, root_lefts,
                                        index)
            if hit:
                span.set(memo="hit")
            span.set(tuples=len(result[0]), width=result[1],
                     envs=len(index))
        return result

    def _reblock(self, lifted: Lifted, chain_seq: EnvSeq,
                 memo: "DocumentMemo | None", root_lefts: np.ndarray,
                 index: np.ndarray) -> tuple[Value, bool]:
        """The work of :meth:`_eval_lifted`, inside its span, and whether
        the memo served the chain."""
        chain = lifted.chain
        value, hit = self._memoized(memo, lifted.rooted,
                                    self._dispatch_and_charge, chain,
                                    chain_seq)
        if hit and self._validate:
            self._check(chain, chain_seq, value)
        (_source, source_width), = chain_seq.vars.values()
        result = self._kernel("reblock", kernels.reblock, *value,
                              root_lefts, source_width, index)
        if self._validate:
            self._check(chain, EnvSeq(index, {}), result)
        return result, hit

    def _dispatch_and_charge(self, node: PlanNode, seq: EnvSeq) -> Value:
        """``node`` computed and charged, under no op span of its own."""
        result = self._dispatch(node, seq)
        self._charge(result)
        return result

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
            if node.counts:
                return self._kernel("count_pairs", kernels.count_pairs,
                                    _NO_ENVS, seq.index)
            return IntervalColumns.empty(), 0
        # The build side depends on the document alone: with a memo for
        # the source's document it is computed once per snapshot.
        build, hit = self._memoized(
            self._chain_memo(node.source, self._base),
            (node.source, node.var, node.key_inner),
            self._build_side, node, source)
        source_width, inner_index, bound, inner_key = build
        inner_seq = EnvSeq(inner_index, {node.var: (bound, source_width)})
        if hit:
            self._serve(node.key_inner, inner_seq, inner_key)
        inner_rel, inner_width = inner_key
        outer_rel, outer_width = self.evaluate(node.key_outer, seq)

        ix, iy = self._match_pairs(
            outer_rel, outer_width, seq.index,
            inner_rel, inner_width, inner_index,
            existential=node.existential,
            strategy=node.strategy,
        )
        if node.counts:
            if node.residual is not None:
                pair_seq, _fan = self._pair_seq(node, ix, iy, bound,
                                                source_width, seq)
                satisfied = self._eval_condition(node.residual, pair_seq)
                ix, iy = ix[satisfied], iy[satisfied]
            return self._count_pairs(node, ix, iy, inner_seq, seq.index)
        pair_seq, fan = self._pair_seq(node, ix, iy, bound, source_width,
                                       seq)
        if node.residual is not None:
            satisfied = self._eval_condition(node.residual, pair_seq)
            iy, surviving = iy[satisfied], pair_seq.index[satisfied]
            filtered_vars = {
                name: (self._kernel("filter_by_index",
                                    kernels.filter_by_index,
                                    rel, width, surviving), width)
                for name, (rel, width) in pair_seq.vars.items()
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

    def _pair_seq(self, node: JoinForNode, ix: np.ndarray, iy: np.ndarray,
                  bound: IntervalColumns, source_width: int,
                  seq: EnvSeq) -> tuple[EnvSeq, int]:
        """The matched pairs as an environment sequence, and its ``fan``
        (:meth:`_compact`): each pair numbered, with the outer bindings
        the join needs and — unless the body is isolated and the
        residual does not read it — the join variable copied in."""
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
        return EnvSeq(pair_index, pair_vars), fan

    def _count_pairs(self, node: JoinForNode, ix: np.ndarray,
                     iy: np.ndarray, inner_seq: EnvSeq,
                     index: np.ndarray) -> Value:
        """A counted join's answer (Section 6.2's join + group): per
        environment of ``index``, the trees the body yields summed over
        its matched pairs ``(ix, iy)``.  The isolated body runs once per
        inner environment and is counted there; a body that is the join
        variable holds one tree per pair and is not evaluated at all."""
        weights = None
        if node.body != VarNode(node.var):
            per_inner = self._kernel("root_counts", kernels.root_counts,
                                     *self.evaluate(node.body, inner_seq),
                                     inner_seq.index)
            weights = per_inner[np.searchsorted(inner_seq.index, iy)]
        return self._kernel("count_pairs", kernels.count_pairs, ix, index,
                            weights)

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


def _span_name(node: PlanNode) -> str:
    """Trace span name for one plan node (``op.<fn>`` for XFns)."""
    if isinstance(node, FnNode):
        return f"op.{node.fn}"
    return "op." + type(node).__name__.removesuffix("Node").lower()
