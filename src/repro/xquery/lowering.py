"""Lowering from the surface XQuery AST to the core language.

The lowering mirrors how the paper reduces full XQuery to the Minimal
XQuery of Definition 2.2:

* XPath steps become chains of ``children`` / ``select`` / ``subtrees_dfs``
  applications;
* direct element constructors become ``XNode`` over concatenations, with
  attributes lowered to ``@name`` nodes placed before element content;
* FLWR clauses fold into nested ``for`` / ``let`` with the ``where``
  condition innermost;
* predicates ``e[cond]`` become a ``for`` over ``e`` filtering with the
  condition evaluated against the context item;
* general comparisons atomize their operands (``data``) and use the
  existential ``SomeEqual`` condition; ``!=`` is lowered as ``not(=)``,
  which matches XQuery only for single-valued operands (documented
  deviation).

``document("uri")`` references lower to reserved variables named
``doc:uri`` that the initial environment must bind.
"""

from __future__ import annotations

from repro.errors import LoweringError
from repro.xml.forest import Forest, Node
from repro.xml.labels import DOCUMENT_LABEL
from repro.xquery.ast import (
    And,
    Condition,
    CoreExpr,
    Empty,
    Equal,
    FnApp,
    For,
    Less,
    Let,
    Not,
    Or,
    SAttributeConstructor,
    SBooleanOp,
    SComparison,
    SConditional,
    SContextItem,
    SDocument,
    SElementConstructor,
    SFLWR,
    SForClause,
    SFunctionCall,
    SLetClause,
    SomeEqual,
    SOrderBy,
    SPath,
    SPositional,
    SPredicate,
    SQuantified,
    SQuery,
    SSequence,
    SStep,
    SStringLiteral,
    SurfaceExpr,
    SVarRef,
    Var,
    Where,
)


def document_forest(trees: Forest | Node) -> Forest:
    """Wrap parsed document content in a document node for binding.

    The initial environment must bind every ``doc:uri`` variable to the
    result of this function, not to the raw root element.
    """
    if isinstance(trees, Node):
        trees = (trees,)
    return (Node(DOCUMENT_LABEL, trees),)


#: Surface function names that lower directly to a same-shaped XFn.
_DIRECT_FUNCTIONS = {
    "count": "count",
    "data": "data",
    "string": "string_fn",
    "distinct": "distinct",
    "head": "head",
    "tail": "tail",
    "reverse": "reverse",
    "sort": "sort",
    "subtrees": "subtrees_dfs",
}

_BOOLEAN_FUNCTIONS = frozenset({"empty", "not", "deep-equal", "deep-less"})


def document_variable(uri: str) -> str:
    """The reserved core-language variable bound to ``document(uri)``."""
    return f"doc:{uri}"


def lower_query(query: SQuery) -> tuple[CoreExpr, dict[str, str]]:
    """Lower a parsed query.

    Returns ``(core_expression, documents)`` where ``documents`` maps each
    referenced URI to the variable name the initial environment must bind.
    """
    lowerer = _Lowerer()
    core = lowerer.lower(query.body)
    documents = {uri: document_variable(uri) for uri in query.documents}
    return core, documents


class _Lowerer:
    def __init__(self) -> None:
        self._fresh_counter = 0

    def _fresh(self, hint: str) -> str:
        self._fresh_counter += 1
        return f"#{hint}{self._fresh_counter}"

    # -- expressions ---------------------------------------------------------

    def lower(self, expr: SurfaceExpr) -> CoreExpr:
        if isinstance(expr, SVarRef):
            return Var(expr.name)
        if isinstance(expr, SDocument):
            return Var(document_variable(expr.uri))
        if isinstance(expr, SStringLiteral):
            return FnApp("text_const", (), (("value", expr.value),))
        if isinstance(expr, SContextItem):
            raise LoweringError("the context item '.' is only valid inside a predicate")
        if isinstance(expr, SSequence):
            return self._lower_sequence(expr.items)
        if isinstance(expr, SPath):
            return self._lower_path(expr)
        if isinstance(expr, SPredicate):
            return self._lower_predicate(expr)
        if isinstance(expr, SElementConstructor):
            return self._lower_constructor(expr)
        if isinstance(expr, SFunctionCall):
            return self._lower_function_call(expr)
        if isinstance(expr, SFLWR):
            return self._lower_flwr(expr)
        if isinstance(expr, SConditional):
            return self._lower_conditional(expr)
        if isinstance(expr, SPositional):
            return self._lower_positional(expr)
        if isinstance(expr, (SComparison, SBooleanOp, SQuantified)):
            raise LoweringError(
                "comparisons and quantifiers are boolean-valued; use them "
                "in a where clause or a predicate"
            )
        raise LoweringError(f"cannot lower {type(expr).__name__}")

    def _lower_sequence(self, items: tuple[SurfaceExpr, ...]) -> CoreExpr:
        if not items:
            return FnApp("empty_forest")
        result = self.lower(items[0])
        for item in items[1:]:
            result = FnApp("concat", (result, self.lower(item)))
        return result

    # -- paths ----------------------------------------------------------------

    def _lower_path(self, path: SPath) -> CoreExpr:
        expr = self.lower(path.base)
        for step in path.steps:
            expr = self._lower_step(expr, step)
        return expr

    def _lower_step(self, base: CoreExpr, step: SStep) -> CoreExpr:
        if step.axis == "attribute":
            return FnApp("select", (FnApp("children", (base,)),),
                         (("label", f"@{step.test}"),))
        if step.axis == "child":
            scope: CoreExpr = FnApp("children", (base,))
        elif step.axis == "descendant":
            # e//t  ==  strict descendants named t:
            # select over all subtrees of the children.
            scope = FnApp("subtrees_dfs", (FnApp("children", (base,)),))
        else:
            raise LoweringError(f"unsupported axis {step.axis!r}")
        if step.test == "text()":
            return FnApp("textnodes", (scope,))
        if step.test == "*":
            return FnApp("elementnodes", (scope,))
        return FnApp("select", (scope,), (("label", f"<{step.test}>"),))

    def _lower_predicate(self, predicate: SPredicate) -> CoreExpr:
        context = self._fresh("ctx")
        base = self.lower(predicate.base)
        condition = self.lower_condition(predicate.condition, context_var=context)
        return For(context, base, Where(condition, Var(context)))

    # -- constructors ------------------------------------------------------------

    def _lower_constructor(self, constructor: SElementConstructor) -> CoreExpr:
        pieces: list[CoreExpr] = []
        for attr in constructor.attributes:
            pieces.append(self._lower_attribute(attr))
        for item in constructor.content:
            pieces.append(self.lower(item))
        if not pieces:
            content: CoreExpr = FnApp("empty_forest")
        else:
            content = pieces[0]
            for piece in pieces[1:]:
                content = FnApp("concat", (content, piece))
        return FnApp("xnode", (content,), (("label", f"<{constructor.tag}>"),))

    def _lower_attribute(self, attr: SAttributeConstructor) -> CoreExpr:
        parts: list[CoreExpr] = []
        for part in attr.parts:
            if isinstance(part, SStringLiteral):
                parts.append(FnApp("text_const", (), (("value", part.value),)))
            else:
                # Atomize embedded expressions: attribute values hold text.
                parts.append(FnApp("data", (self.lower(part),)))
        if not parts:
            value: CoreExpr = FnApp("empty_forest")
        else:
            value = parts[0]
            for part in parts[1:]:
                value = FnApp("concat", (value, part))
        return FnApp("xnode", (value,), (("label", f"@{attr.name}"),))

    # -- function calls -------------------------------------------------------------

    def _lower_function_call(self, call: SFunctionCall) -> CoreExpr:
        if call.name in _DIRECT_FUNCTIONS:
            args = tuple(self.lower(arg) for arg in call.args)
            return FnApp(_DIRECT_FUNCTIONS[call.name], args)
        if call.name in _BOOLEAN_FUNCTIONS:
            raise LoweringError(
                f"{call.name}() is boolean-valued; use it in a where clause "
                "or a predicate"
            )
        raise LoweringError(f"unknown function {call.name!r}")

    # -- conditionals and positions ---------------------------------------------------

    def _lower_conditional(self, expr: SConditional) -> CoreExpr:
        """``if (c) then a else b`` = (where c return a) @ (where ¬c return b).

        Exactly one branch is non-empty, so the concatenation is the chosen
        branch — a purely algebraic conditional, no new core construct.
        """
        condition = self.lower_condition(expr.condition)
        return FnApp("concat", (
            Where(condition, self.lower(expr.consequent)),
            Where(Not(condition), self.lower(expr.alternative)),
        ))

    def _lower_positional(self, expr: SPositional) -> CoreExpr:
        """``e[N]`` = head(tail^(N-1)(e)) over the whole base sequence.

        Note this is the XQuery semantics of ``(expr)[N]``; the per-step
        context positions of full XPath are not modelled (documented
        deviation).
        """
        lowered = self.lower(expr.base)
        for _ in range(expr.position - 1):
            lowered = FnApp("tail", (lowered,))
        return FnApp("head", (lowered,))

    # -- FLWR -------------------------------------------------------------------------

    def _lower_flwr(self, flwr: SFLWR) -> CoreExpr:
        if flwr.order_by is not None:
            return self._lower_ordered_flwr(flwr)
        body: CoreExpr = self.lower(flwr.returns)
        if flwr.where is not None:
            body = Where(self.lower_condition(flwr.where), body)
        return self._fold_clauses(flwr.clauses, body)

    def _fold_clauses(self, clauses, body: CoreExpr) -> CoreExpr:
        for clause in reversed(clauses):
            if isinstance(clause, SForClause):
                body = For(clause.var, self.lower(clause.source), body)
            elif isinstance(clause, SLetClause):
                body = Let(clause.var, self.lower(clause.value), body)
            else:
                raise LoweringError(f"unknown clause {type(clause).__name__}")
        return body

    def _lower_ordered_flwr(self, flwr: SFLWR) -> CoreExpr:
        """``order by`` via structural sort (paper feature 5, Figure 2 sort).

        The clause tuple is packed into a ``<#tuple>`` tree whose first
        child holds the atomized key; structural tree order then sorts by
        the key first (labels are all equal).  Equal keys are ordered by
        the packed values' structural order, clause variable by clause
        variable, and the stable ``sort`` keeps document order only among
        tuples equal throughout — a deviation from XQuery, whose stable
        order keeps document order among equal keys.  After sorting, the
        bindings are unpacked and the return expression runs per tuple:

            for #o in sort(for … return <#tuple><#key>k</#key>
                                         <#v_x>{$x}</#v_x>…</#tuple>)
            do let x = children(select <#v_x> (children(#o))) … in return

        The engine's optimized plans rank the stream's iterations in the
        same order instead and build no tuple (``optimize_plan``'s order
        rule, docs/PLANNER.md).
        """
        order_by: SOrderBy = flwr.order_by
        variables = [clause.var for clause in flwr.clauses]

        key_core = FnApp("data", (self.lower(order_by.key),))
        pieces: list[CoreExpr] = [
            FnApp("xnode", (key_core,), (("label", "<#key>"),))
        ]
        for name in variables:
            pieces.append(FnApp("xnode", (Var(name),),
                                (("label", f"<#v_{name}>"),)))
        packed = pieces[0]
        for piece in pieces[1:]:
            packed = FnApp("concat", (packed, piece))
        tuple_expr: CoreExpr = FnApp("xnode", (packed,),
                                     (("label", "<#tuple>"),))
        if flwr.where is not None:
            tuple_expr = Where(self.lower_condition(flwr.where), tuple_expr)
        stream = self._fold_clauses(flwr.clauses, tuple_expr)
        ordered: CoreExpr = FnApp("sort", (stream,))
        if order_by.descending:
            # Reversal also reverses equal-key runs; documented deviation
            # from XQuery's stable descending order.
            ordered = FnApp("reverse", (ordered,))

        carrier = self._fresh("ord")
        body = self.lower(flwr.returns)
        for name in reversed(variables):
            unpack = FnApp("children", (
                FnApp("select", (FnApp("children", (Var(carrier),)),),
                      (("label", f"<#v_{name}>"),)),
            ))
            body = Let(name, unpack, body)
        return For(carrier, ordered, body)

    # -- conditions --------------------------------------------------------------------

    def lower_condition(self, expr: SurfaceExpr, context_var: str | None = None) -> Condition:
        """Lower a boolean-context surface expression to a core condition."""
        lower = lambda e: self._lower_with_context(e, context_var)  # noqa: E731
        if isinstance(expr, SBooleanOp):
            left = self.lower_condition(expr.left, context_var)
            right = self.lower_condition(expr.right, context_var)
            return And(left, right) if expr.op == "and" else Or(left, right)
        if isinstance(expr, SComparison):
            left = FnApp("data", (lower(expr.left),))
            right = FnApp("data", (lower(expr.right),))
            if expr.op == "=":
                return SomeEqual(left, right)
            if expr.op == "!=":
                return Not(SomeEqual(left, right))
            if expr.op == "<":
                return Less(left, right)
            if expr.op == ">":
                return Less(right, left)
            if expr.op == "<=":
                return Not(Less(right, left))
            if expr.op == ">=":
                return Not(Less(left, right))
            raise LoweringError(f"unknown comparison operator {expr.op!r}")
        if isinstance(expr, SFunctionCall):
            if expr.name == "empty":
                return Empty(lower(expr.args[0]))
            if expr.name == "not":
                return Not(self.lower_condition(expr.args[0], context_var))
            if expr.name == "deep-equal":
                return Equal(lower(expr.args[0]), lower(expr.args[1]))
            if expr.name == "deep-less":
                return Less(lower(expr.args[0]), lower(expr.args[1]))
        if isinstance(expr, SQuantified):
            return self._lower_quantified(expr, context_var)
        # Effective boolean value: non-empty means true.
        return Not(Empty(lower(expr)))

    def _lower_quantified(self, expr: SQuantified,
                          context_var: str | None) -> Condition:
        """Quantifiers via iteration (the Figure 3 semantics directly):

            some  $v in e satisfies c  ≡  ¬empty(for v in e do
                                              where c return <marker>)
            every $v in e satisfies c  ≡   empty(for v in e do
                                              where ¬c return <marker>)
        """
        source = self._lower_with_context(expr.source, context_var)
        inner = self.lower_condition(expr.condition, context_var)
        marker: CoreExpr = FnApp("text_const", (), (("value", "1"),))
        if expr.quantifier == "some":
            witness = For(expr.var, source, Where(inner, marker))
            return Not(Empty(witness))
        counterexample = For(expr.var, source, Where(Not(inner), marker))
        return Empty(counterexample)

    def _lower_with_context(self, expr: SurfaceExpr, context_var: str | None) -> CoreExpr:
        if context_var is None:
            return self.lower(expr)
        return self._substitute_context(expr, context_var)

    def _substitute_context(self, expr: SurfaceExpr, context_var: str) -> CoreExpr:
        """Lower ``expr`` treating the context item as ``Var(context_var)``."""
        if isinstance(expr, SContextItem):
            return Var(context_var)
        if isinstance(expr, SPath):
            lowered = self._substitute_context(expr.base, context_var)
            for step in expr.steps:
                lowered = self._lower_step(lowered, step)
            return lowered
        if isinstance(expr, SPredicate):
            context = self._fresh("ctx")
            base = self._substitute_context(expr.base, context_var)
            condition = self.lower_condition(expr.condition, context_var=context)
            return For(context, base, Where(condition, Var(context)))
        if isinstance(expr, SSequence):
            items = tuple(
                self._substitute_context(item, context_var) for item in expr.items
            )
            if not items:
                return FnApp("empty_forest")
            result = items[0]
            for item in items[1:]:
                result = FnApp("concat", (result, item))
            return result
        if isinstance(expr, SFunctionCall) and expr.name in _DIRECT_FUNCTIONS:
            args = tuple(
                self._substitute_context(arg, context_var) for arg in expr.args
            )
            return FnApp(_DIRECT_FUNCTIONS[expr.name], args)
        return self.lower(expr)
