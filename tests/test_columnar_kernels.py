"""Property suite: every columnar kernel against Definition 3.3.

Each whole-column kernel of :mod:`repro.engine.kernels` is held to the
XFn it implements, read literally (:mod:`tests.def33`): on randomized
blocked relations, decoding every environment block of its output gives
the Figure 2 operator the interpreter runs applied to the decoded input
block, at Section 4.3's width, with the output passing
``validate_value`` — near the origin, 2**40 environments out and just
below 2**62.  The environment-index kernels (``filter_by_index``,
``expand_variable``, ``gather_blocks``) move decoded forests between
environments, and the structural-key kernels number and order decoded
trees as the Figure 2 ``equal`` / ``less`` / ``sort`` do.  After every
kernel the carried depth and name-code columns must equal what
``from_tuples`` derives from the triples alone.  Edge cases: empty
relations, minimal widths, and outputs that would leave int64 — there
the kernel must raise, ``renormalise`` must make it fit, and the answer
must still be Figure 2's forest for forest (``TestOverflow``).
"""

from __future__ import annotations

import itertools
import pickle
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.plan import JoinStrategy
from repro.encoding.interval import decode, encode
from repro.engine import kernels
from repro.engine.columns import (
    INT64_MAX,
    IntervalColumns,
    label_codes,
    name_code,
)
from repro.engine.evaluator import DIEngine
from repro.engine.validate import validate_value
from repro.errors import WidthOverflowError
from repro.xml import operations as fig2
from repro.xml.forest import Node, compare_forests
from repro.xquery.functions import FUNCTIONS

from tests.def33 import check, env_forests, placements, unary
from tests.strategies import LABELS, forests


def placed(rows, width, shift):
    """The same blocks ``shift`` environments further out."""
    return [(s, l + shift * width, r + shift * width) for s, l, r in rows]


def assert_derived(rel: IntervalColumns) -> None:
    """The invariant: ``d`` is a function of the triples, and ``c`` codes
    the labels — names and text values alike."""
    fresh = IntervalColumns.from_tuples(rel.tuples())
    labels = rel.labels().tolist()
    assert rel.d.tolist() == fresh.d.tolist()
    assert rel.c.tolist() == fresh.c.tolist() \
        == label_codes(labels).tolist() \
        == [name_code(label, intern=False) for label in labels]
    assert len(set(rel.c.tolist())) == len(set(labels))
    assert len(rel.l) == len(rel.r) == len(rel.d) == len(rel.c)


@st.composite
def blocked(draw, max_envs: int = 4, max_depth: int = 3,
            labels: tuple[str, ...] = LABELS):
    """A blocked relation: ``(rows, width, env_index)``.

    Random environments (possibly none, possibly with gaps and empty
    forests) at a random — sometimes tight, sometimes slack — width.
    ``max_depth=1`` makes every tree a single node of any label class.
    A short ``labels`` alphabet makes structurally equal trees common.
    """
    count = draw(st.integers(min_value=0, max_value=max_envs))
    env_ids = sorted(draw(st.sets(st.integers(min_value=0, max_value=6),
                                  min_size=count, max_size=count)))
    encodings = [encode(draw(forests(max_trees=3, max_depth=max_depth,
                                     labels=labels)))
                 for _ in env_ids]
    minimum = max((enc.width for enc in encodings), default=0)
    # Width 1 is legal only for all-empty blocks — the smallest interval
    # needs two endpoints — so the floor is max(minimum, 1).
    width = max(minimum, 1) + draw(st.integers(min_value=0, max_value=5))
    rows = []
    index = []
    for env, enc in zip(env_ids, encodings):
        index.append(env)
        rows.extend((s, l + env * width, r + env * width)
                    for (s, l, r) in enc.tuples)
    return rows, width, index


#: Join-key relations: flat (every tree one node) or structured, over one
#: label of each class so that equal keys are common — or over a single
#: label, so that keys differ in shape alone.
keyed = blocked(max_depth=1, labels=("<a>", "@k", "x")) \
    | blocked(labels=("<a>", "@k", "x")) | blocked(labels=("<a>",))


def trees_in_order(rows, width, index):
    """Every decoded top-level tree, in document order."""
    return [tree for forest in env_forests(rows, width, index)
            for tree in forest]


class TestScanKernels:
    @given(blocked())
    def test_roots(self, data):
        unary("roots", lambda cols, _w: kernels.roots(cols), *data)

    @given(blocked())
    def test_children(self, data):
        unary("children", lambda cols, _w: kernels.children(cols), *data)

    @given(blocked(), st.sampled_from(["<a>", "<b>", "x", "@id"]))
    def test_select_trees(self, data, label):
        unary("select", lambda cols, _w: kernels.select_label(cols, label),
              *data, label=label)

    @given(blocked(), st.sampled_from(["<a>", "<b>", "x", "@id"]))
    def test_select_children_fusion(self, data, label):
        """The fused path-step kernel is select after children."""
        unary(("children", "select"),
              lambda cols, _w: kernels.select_children(cols, label),
              *data, label=label)

    @given(blocked(max_envs=3),
           st.sampled_from(["<a>", "<b>", "x", "@id", "<never-seen>"]))
    def test_select_descendants_fusion(self, data, label):
        """The fused ``//name`` kernel is select after subtrees_dfs —
        and, row for row, the two kernels it fuses."""
        unary(("subtrees_dfs", "select"),
              lambda cols, w: kernels.select_descendants(cols, w, label),
              *data, label=label)
        rows, width, _index = data
        cols = IntervalColumns.from_tuples(rows)
        assert kernels.select_descendants(cols, width, label).tuples() == \
            kernels.select_label(kernels.subtrees_dfs(cols, width),
                                 label).tuples()

    @given(blocked())
    def test_textnode_and_elementnode_trees(self, data):
        unary("textnodes", lambda cols, _w: kernels.textnode_trees(cols),
              *data)
        unary("elementnodes",
              lambda cols, _w: kernels.elementnode_trees(cols), *data)

    @given(blocked())
    def test_head(self, data):
        unary("head", kernels.head, *data)

    @given(blocked())
    def test_tail(self, data):
        unary("tail", kernels.tail, *data)

    @given(blocked())
    def test_data(self, data):
        unary("data", kernels.data, *data)


class TestShiftKernels:
    @given(blocked())
    def test_reverse(self, data):
        unary("reverse", kernels.reverse, *data)

    @given(blocked(max_envs=3))
    def test_subtrees_dfs(self, data):
        unary("subtrees_dfs", kernels.subtrees_dfs, *data)

    @given(blocked())
    def test_distinct(self, data):
        unary("distinct", kernels.distinct, *data)

    @given(blocked())
    def test_sort(self, data):
        unary("sort", kernels.sort, *data)

    @settings(deadline=None, max_examples=50)
    @given(st.data())
    def test_order_iterations(self, drawn):
        """An ``order by`` without tuples: within each enclosing
        environment the iterations come out as Figure 2's ``sort`` —
        reversed when descending — orders their packed tuples
        ``<#tuple><#key>v₀</#key><#v_1>v₁</#v_1>…</#tuple>``, each one
        moved to the slot of its rank.  Two labels and deep trees make
        values that tie on long prefixes, or are prefixes of others,
        common."""
        iterations = drawn.draw(st.lists(st.integers(0, 11), min_size=1,
                                         unique=True).map(sorted))
        fan = drawn.draw(st.sampled_from((4, 12, 3)))
        descending = drawn.draw(st.booleans())
        values, forests_of = [], []
        for _ in range(drawn.draw(st.integers(2, 3))):
            value = [drawn.draw(forests(max_trees=2, max_depth=4,
                                        labels=("<a>", "x")))
                     for _ in iterations]
            rows, width = [], max(max((encode(f).width for f in value)),
                                  1)
            for env, forest in zip(iterations, value):
                rows += [(s, l + env * width, r + env * width)
                         for s, l, r in encode(forest).tuples]
            values.append((IntervalColumns.from_tuples(rows), width))
            forests_of.append(value)
        packed = [Node("<#tuple>", [Node("<#key>", tuple(parts[0]))] + [
            Node(f"<#v_{at}>", tuple(part))
            for at, part in enumerate(parts[1:], 1)])
            for parts in zip(*forests_of)]
        origins, targets = kernels.order_iterations(
            values, iterations, fan, descending)
        position = {env: at for at, env in enumerate(iterations)}
        envs = sorted({env // fan for env in iterations})
        for outer in envs:
            mine = [packed[position[env]] for env in iterations
                    if env // fan == outer]
            expected = list(fig2.sort(tuple(mine)))
            if descending:
                expected.reverse()
            moved = [(int(origin), int(target))
                     for origin, target in zip(origins, targets)
                     if origin // fan == outer]
            assert [packed[position[origin]] for origin, _ in moved] \
                == expected
            assert [target for _, target in moved] \
                == [outer * fan + rank for rank in range(len(mine))]

    @given(blocked(), st.lists(st.integers(min_value=0, max_value=8),
                               unique=True).map(sorted))
    def test_filter_by_index(self, data, index):
        """The environments of ``index`` keep their forests; no other
        environment keeps a row."""
        rows, width, drawn_index = data
        for shift in placements(width, index + drawn_index):
            envs = [env + shift for env in index]
            moved = placed(rows, width, shift)
            result = kernels.filter_by_index(
                IntervalColumns.from_tuples(moved), width, envs)
            validate_value(result, width, envs)
            assert env_forests(result, width, envs) \
                == env_forests(moved, width, envs)
            assert_derived(result)

    @staticmethod
    def check_expand(rows, width, index, targets):
        """Tree ``k`` lands, unchanged, alone in environment
        ``targets[k]``."""
        trees = [(tree,) for tree in trees_in_order(rows, width, index)]
        for shift in placements(width, targets + index):
            envs = [target + shift for target in targets]
            result = kernels.expand_variable(
                IntervalColumns.from_tuples(placed(rows, width, shift)),
                width, envs)
            validate_value(result, width, envs)
            assert env_forests(result, width, envs) == trees
            assert_derived(result)

    @given(blocked())
    def test_expand_variable(self, data):
        """Section 4's numbering: each tree's environment is its root's
        left endpoint."""
        rows, width, index = data
        cols = IntervalColumns.from_tuples(rows)
        self.check_expand(rows, width, index, cols.l[cols.d == 0].tolist())

    @given(blocked(), st.data())
    def test_expand_variable_into_any_numbering(self, data, drawn):
        """The root left endpoints are one ascending numbering among
        many."""
        rows, width, index = data
        count = len(trees_in_order(rows, width, index))
        targets = sorted(drawn.draw(st.sets(
            st.integers(min_value=0, max_value=3 * count),
            min_size=count, max_size=count)))
        self.check_expand(rows, width, index, targets)

    @given(blocked(), st.data())
    def test_gather_blocks(self, data, drawn):
        """Environment ``targets[k]`` receives the forest of
        ``origins[k]`` (empty when that holds no rows)."""
        rows, width, index = data
        origins = drawn.draw(st.lists(
            st.sampled_from(index + [7, 8]), min_size=0, max_size=6)
            if index else st.just([]))
        targets = sorted(drawn.draw(st.sets(
            st.integers(min_value=0, max_value=30),
            min_size=len(origins), max_size=len(origins))))
        for shift in placements(width, targets + origins):
            moved = placed(rows, width, shift)
            envs = [target + shift for target in targets]
            result = kernels.gather_blocks(
                IntervalColumns.from_tuples(moved), width,
                np.array([origin + shift for origin in origins],
                         dtype=np.int64),
                np.array(envs, dtype=np.int64))
            validate_value(result, width, envs)
            assert env_forests(result, width, envs) == env_forests(
                moved, width, [origin + shift for origin in origins])
            assert_derived(result)


class TestConstructorKernels:
    @given(blocked(), blocked())
    def test_concat(self, left_data, right_data):
        left_rows, left_width, left_index = left_data
        right_rows, right_width, right_index = right_data
        check("concat", lambda left, lw, right, rw, _envs:
              kernels.concat(left, lw, right, rw),
              [(left_rows, left_width), (right_rows, right_width)],
              sorted(set(left_index) | set(right_index)))

    @given(blocked(), st.sampled_from(["<w>", "<a>"]))
    def test_xnode(self, data, label):
        rows, width, index = data
        check("xnode", lambda cols, w, envs: kernels.xnode(label, cols, w,
                                                           envs),
              [(rows, width)], index, {"label": label})

    @given(st.lists(st.integers(min_value=0, max_value=40),
                    unique=True).map(sorted),
           st.sampled_from(["", "x", "some text"]))
    def test_text_const(self, index, value):
        check("text_const", lambda envs: kernels.text_const(value, envs),
              [], index, {"value": value})

    @given(blocked())
    def test_count_roots(self, data):
        rows, width, index = data
        check("count", kernels.count_roots, [(rows, width)], index)

    @given(blocked(), st.data())
    def test_count_pairs(self, data, drawn):
        """A counted join (Section 6.2's join + group): per outer
        environment, Figure 2's ``count`` of the forest its pairs' inner
        blocks concatenate to — summed per-inner-block ``root_counts`` —
        and, unweighted, of one tree per pair; under Def 3.3 at each
        placement."""
        rows, width, inner = data  # the body's blocks, per inner env
        outer = sorted(drawn.draw(st.sets(
            st.integers(min_value=0, max_value=9), max_size=5)))
        pairs = sorted(drawn.draw(st.sets(st.tuples(
            st.sampled_from(outer), st.sampled_from(inner)), max_size=8))
            if outer and inner else [])
        blocks = dict(zip(inner, env_forests(rows, width, inner)))
        count = FUNCTIONS["count"].impl
        weighted = [count((tuple(tree for x, y in pairs if x == env
                                 for tree in blocks[y]),), {})
                    for env in outer]
        unweighted = [count((tuple(Node(str(y)) for x, y in pairs
                                   if x == env),), {})
                      for env in outer]
        for shift in placements(max(width, 2), outer + inner):
            envs = [env + shift for env in outer]
            ix = np.array([x + shift for x, _y in pairs], dtype=np.int64)
            iy = np.array([y + shift for _x, y in pairs], dtype=np.int64)
            inner_envs = np.array([y + shift for y in inner], dtype=np.int64)
            per_inner = kernels.root_counts(IntervalColumns.from_tuples(
                placed(rows, width, shift)), width, inner_envs)
            weights = per_inner[np.searchsorted(inner_envs, iy)]
            for given_weights, expected in ((weights, weighted),
                                            (None, unweighted)):
                result, out_width = kernels.count_pairs(ix, envs,
                                                        given_weights)
                assert out_width == 2
                validate_value(result, 2, envs)
                assert env_forests(result, 2, envs) == expected

    @given(blocked())
    def test_string_fn(self, data):
        rows, width, index = data
        check("string_fn", kernels.string_fn, [(rows, width)], index)


class TestStructuralKernels:
    @given(blocked())
    def test_encoder_depths_match_derivation(self, data):
        """The encoder's DFS depths are what ``from_tuples`` derives."""
        from repro.encoding.interval import encode_columns
        rows, _width, _index = data
        cols, _w = encode_columns(decode(rows))
        assert_derived(cols)

    @given(blocked())
    def test_collation_keys_order_as_canonical_keys(self, data):
        """Every environment block's byte key compares with every other
        one — the empty block included — as Figure 2's structural order
        compares their decoded forests."""
        rows, width, index = data
        cols = IntervalColumns.from_tuples(rows)
        starts, ends, _envs = kernels._block_spans(cols, width, index)
        (keys,) = kernels.collation_keys((cols, starts, ends))
        forests_ = env_forests(rows, width, index)
        for one, other in itertools.product(range(len(index)), repeat=2):
            order = compare_forests(forests_[one], forests_[other])
            assert (keys[one] < keys[other]) == (order < 0)
            assert (keys[one] == keys[other]) == (order == 0)

    @given(keyed, keyed)
    def test_span_ids_number_the_canonical_keys(self, outer, inner):
        """Two spans get one id exactly when their decoded trees are
        equal — across both sides, flat keys (every tree one node: the
        id is the label code) and structured ones (one dict over the
        ``(d, c)`` bytes) alike."""
        sides, trees = [], []
        for rows, width, index in (outer, inner):
            cols = IntervalColumns.from_tuples(rows)
            starts, ends, _envs = kernels._trees(cols, width)
            sides.append((cols, starts, ends))
            trees += trees_in_order(rows, width, index)
        ids = np.concatenate(kernels.span_ids(*sides)).tolist()
        assert len(ids) == len(trees)
        assert len(set(zip(ids, trees))) == len(set(ids)) == len(set(trees))

    def test_span_ids_read_depths_and_whole_spans(self):
        """The two halves of a structured key: same labels in another
        shape, and the same root over other children, are other keys."""
        chain = IntervalColumns.from_tuples(
            [("<a>", 0, 5), ("<b>", 1, 4), ("x", 2, 3)])
        fan = IntervalColumns.from_tuples(
            [("<a>", 0, 5), ("<b>", 1, 2), ("x", 3, 4)])
        leaf = IntervalColumns.from_tuples([("<a>", 0, 1)])
        whole = (np.array([0]), np.array([3]))
        ids = kernels.span_ids((chain, *whole), (fan, *whole),
                               (leaf, np.array([0]), np.array([1])),
                               (chain, *whole))
        assert len({int(one[0]) for one in ids}) == 3
        assert ids[0] == ids[3]

    @settings(deadline=None)
    @given(keyed, keyed, st.booleans(), st.sampled_from(list(JoinStrategy)))
    def test_match_pairs_equal_brute_force(self, outer, inner, existential,
                                           strategy):
        """The join matcher against Figure 3's conditions decided one
        pair of environments at a time: ``SomeEqual`` (some tree of one
        equals some tree of the other) for an existential join, deep
        ``Equal`` of the two forests — the empty forest included — for
        the other; near the origin and with environment numbers near
        2**62."""
        def matches(mine, theirs):
            if existential:
                return any(tree in set(theirs) for tree in mine)
            return fig2.equal(mine, theirs)

        for top in (False, True):
            sides, side_forests = [], []
            for rows, width, index in (outer, inner):
                shift = placements(width, index)[2] if top else 0
                envs = [env + shift for env in index]
                moved = placed(rows, width, shift)
                sides += [IntervalColumns.from_tuples(moved), width, envs]
                side_forests.append(list(zip(
                    envs, env_forests(moved, width, envs))))
            expected = sorted(
                (ix, iy) for ix, mine in side_forests[0]
                for iy, theirs in side_forests[1] if matches(mine, theirs))
            ix, iy = DIEngine()._match_pairs(
                *sides, existential=existential, strategy=strategy)
            assert ix.dtype == iy.dtype == np.int64
            assert list(zip(ix.tolist(), iy.tolist())) == expected

    @given(keyed)
    def test_distinct_near_the_top_of_int64(self, data):
        unary("distinct", kernels.distinct, *data)

    @given(blocked())
    def test_tree_slices_on_columns(self, data):
        """``_trees`` splits the relation into its top-level trees: each
        span decodes to one tree of its environment's forest, in order."""
        rows, width, index = data
        starts, ends, envs = kernels._trees(IntervalColumns.from_tuples(rows),
                                            width)
        assert [(env, decode(rows[a:b])) for env, a, b
                in zip(envs.tolist(), starts.tolist(), ends.tolist())] \
            == [(env, (tree,)) for env, forest
                in zip(index, env_forests(rows, width, index))
                for tree in forest]


def fig2_step(*fns, **params):
    """Figure 2's ``fns`` (innermost first) on every environment's
    forest."""
    def step(forests_):
        for fn in fns:
            forests_ = [FUNCTIONS[fn].impl((forest,), params)
                        for forest in forests_]
        return forests_
    return step


def expand_step(cols, width, _index):
    """Enter a ``for``: every tree to the environment of its root's
    left endpoint."""
    lefts = cols.l[cols.d == 0].tolist()
    return kernels.expand_variable(cols, width, lefts), width, lefts


class TestDerivedColumns:
    """``d`` and ``c`` stay functions of the triples wherever a relation
    goes: through any chain of kernels, slicing, pickling, and a
    shared-memory export/attach."""

    #: name → (Figure 2 form over the forests of the index, kernel form
    #: mapping ``(rel, width, index)`` to ``(rel, width, index)``).
    STEPS = {
        "roots": (fig2_step("roots"),
                  lambda c, w, i: (kernels.roots(c), w, i)),
        "children": (fig2_step("children"),
                     lambda c, w, i: (kernels.children(c), w, i)),
        "select": (fig2_step("select", label="<a>"),
                   lambda c, w, i: (kernels.select_label(c, "<a>"), w, i)),
        "child_step": (fig2_step("children", "select", label="<b>"),
                       lambda c, w, i: (kernels.select_children(c, "<b>"),
                                        w, i)),
        "descendant_step": (
            fig2_step("subtrees_dfs", "select", label="<a>"),
            lambda c, w, i: (kernels.select_descendants(c, w, "<a>"),
                             w * w, i)),
        "subtrees": (fig2_step("subtrees_dfs"),
                     lambda c, w, i: (kernels.subtrees_dfs(c, w), w * w, i)),
        "elements": (fig2_step("elementnodes"),
                     lambda c, w, i: (kernels.elementnode_trees(c), w, i)),
        "head": (fig2_step("head"), lambda c, w, i: (kernels.head(c, w), w, i)),
        "tail": (fig2_step("tail"), lambda c, w, i: (kernels.tail(c, w), w, i)),
        "data": (fig2_step("data"), lambda c, w, i: (kernels.data(c, w), w, i)),
        "reverse": (fig2_step("reverse"),
                    lambda c, w, i: (kernels.reverse(c, w), w, i)),
        "distinct": (fig2_step("distinct"),
                     lambda c, w, i: (kernels.distinct(c, w), w, i)),
        "sort": (fig2_step("sort"), lambda c, w, i: (*kernels.sort(c, w), i)),
        "twice": (lambda fs: [forest + forest for forest in fs],
                  lambda c, w, i: (kernels.concat(c, w, c, w), 2 * w, i)),
        "wrap": (fig2_step("xnode", label="<w>"),
                 lambda c, w, i: (*kernels.xnode("<w>", c, w, i), i)),
        "expand": (lambda fs: [(tree,) for forest in fs for tree in forest],
                   expand_step),
    }

    @settings(max_examples=150, deadline=None)
    @given(blocked(max_envs=3),
           st.lists(st.sampled_from(sorted(STEPS)), min_size=1, max_size=5))
    def test_kernel_chains(self, data, chain):
        """Chains squaring the width a few times run off the end of int64
        on their own: there the kernel raises, the chain renormalises as
        the evaluator would, and every environment still decodes to
        Figure 2's forest after every step."""
        rows, width, index = data
        cols = IntervalColumns.from_tuples(rows)
        expected = env_forests(rows, width, index)
        for name in chain:
            reference_step, kernel_step = self.STEPS[name]
            expected = reference_step(expected)
            try:
                cols, width, index = kernel_step(cols, width, index)
            except WidthOverflowError:
                cols, width, index = kernel_step(
                    *kernels.renormalise(cols, width), index)
            validate_value(cols, width, index, context=name)
            assert env_forests(cols, width, index) == expected, name
            assert cols.l.dtype == cols.r.dtype == np.int64
            assert_derived(cols)

    @given(blocked(), st.data())
    def test_slices_shards_and_pickles(self, data, drawn):
        rows, _width, _index = data
        cols = IntervalColumns.from_tuples(rows)
        lo = drawn.draw(st.integers(0, len(rows)))
        hi = drawn.draw(st.integers(lo, len(rows)))
        for piece in [cols[lo:hi], cols[::2]]:
            assert_derived(piece)
        assert cols[lo:hi].tuples() == rows[lo:hi]
        clone = pickle.loads(pickle.dumps(cols))
        assert clone == cols
        assert_derived(clone)

    @settings(max_examples=25, deadline=None)
    @given(blocked())
    def test_shared_memory_roundtrip(self, data):
        from repro.engine.columns import export_columns
        rows, _width, _index = data
        cols = IntervalColumns.from_tuples(rows)
        descriptor, shm = export_columns(cols)
        try:
            attachment = pickle.loads(pickle.dumps(descriptor)).attach()
            try:
                assert attachment.columns.tuples() == rows
                assert_derived(attachment.columns)
            finally:
                attachment.detach()
        finally:
            shm.close()
            shm.unlink()

    def test_attach_remaps_a_clashing_code(self):
        """A worker whose dictionary already gave a shipped code to another
        label — a constructor name, a ``count()`` result — translates its
        private ``c``; with no clash the column stays zero-copy."""
        import uuid

        from repro.engine import columns
        tag = uuid.uuid4().hex[:8]
        labels = [f"<a-{tag}>", f"<b-{tag}>", f"v-{tag}"]
        rows = [(labels[0], 0, 5), (labels[1], 1, 4), (labels[2], 2, 3)]
        descriptor, shm = columns.export_columns(
            IntervalColumns.from_tuples(rows))
        try:
            # Become a process that never saw the document's labels and
            # has numbered two labels of its own with their codes.
            with columns._names_lock:
                shipped = [columns._codes.pop(label) for label in labels]
                for code in shipped:
                    del columns._label_of[code]
            own = [f"<w-{tag}>", f"17-{tag}"]
            assert columns.adopt_labels(own, shipped[1:]) == shipped[1:]
            attachment = descriptor.attach()
            try:
                attached = attachment.columns
                assert attached.tuples() == rows
                assert_derived(attached)
                assert attached.c[0] == shipped[0]  # free: adopted as shipped
                assert not set(attached.c[1:].tolist()) & set(shipped[1:])
                assert [name_code(label) for label in own] == shipped[1:]
                assert kernels.select_label(attached, labels[2]).tuples() \
                    == [] != kernels.select_descendants(
                        attached, 6, labels[2]).tuples()
            finally:
                attachment.detach()
        finally:
            shm.close()
            shm.unlink()

    def test_validate_value_catches_drift(self, monkeypatch):
        """A ``d`` that is not the intervals' depths, a code the
        dictionary does not hold, and a code whose kind bits are not its
        label's kind are each refused."""
        from repro.engine import validate
        from repro.engine.columns import ELEMENT, _label_of
        from repro.errors import ExecutionError
        cols = IntervalColumns.from_tuples([("<a>", 0, 3), ("x", 1, 2)])
        validate_value(cols, 4, [0])
        unknown = (max(_label_of) | 3) + 1  # an id past every one taken
        flipped = int(cols.c[1]) | ELEMENT  # "x" under an element's bits
        monkeypatch.setattr(validate, "_label_of",
                            {**_label_of, flipped: "x"})
        for d, c in ((np.array([0, 0], dtype=np.int32), cols.c),
                     (cols.d, np.array([cols.c[0], unknown], dtype=np.int32)),
                     (cols.d, np.array([cols.c[0], flipped], dtype=np.int32))):
            with pytest.raises(ExecutionError, match="drifted"):
                validate_value(IntervalColumns(cols.l, cols.r, d, c), 4, [0])


class TestNameCodes:
    def test_codes_agree_across_documents(self):
        """One dictionary for names and text values: a label has one code
        in every relation of the process, two labels never share one, and
        the query side (``intern=False``) never grows it."""
        from repro.engine.columns import KIND_MASK, TEXT, _codes, _label_of
        from repro.encoding.interval import encode_columns
        from repro.xml.text_parser import parse_forest
        one, _ = encode_columns(parse_forest("<a k='1'><b>x</b>1</a>"))
        two, _ = encode_columns(parse_forest("<b><a k='2'>y</a>x</b>"))
        for cols in (one, two):
            for label, code in zip(cols.labels().tolist(), cols.c.tolist()):
                assert code == name_code(label, intern=False)
        assert one.c[one.labels() == "x"].tolist() \
            == two.c[two.labels() == "x"].tolist()
        assert len(set(one.c.tolist())) == len(set(one.labels().tolist()))
        size = len(_codes)
        assert name_code("text no relation carries", intern=False) is None
        assert name_code("<no-such-element>", intern=False) is None
        assert len(_codes) == len(_label_of) == size
        # Kind lives in the low two bits, the label's id above them.
        assert name_code("<a>") & KIND_MASK == 1
        assert name_code("@k") & KIND_MASK == 2
        assert name_code("x") & KIND_MASK == name_code("") & KIND_MASK == TEXT
        assert len({name_code(label) for label in ("<a>", "<b>", "x", "y",
                                                   "1", "@1", "<1>", "")}) == 8
        assert all(_label_of[code] == label for label, code in _codes.items())


class TestRenormalise:
    """``renormalise`` changes coordinates and nothing else."""

    @given(blocked())
    def test_same_forests_tightest_width(self, data):
        rows, width, index = data
        cols = IntervalColumns.from_tuples(rows)
        before = [column.copy() for column in (cols.l, cols.r, cols.d, cols.c)]
        tight, tight_width = kernels.renormalise(cols, width)
        sizes = Counter(l // width for _s, l, _r in rows)
        assert tight_width == 2 * max(sizes.values(), default=0)
        # The same forest in every environment, under the same number.
        validate_value(tight, tight_width, index)
        assert env_forests(tight, tight_width, index) \
            == env_forests(rows, width, index)
        assert_derived(tight)
        assert tight.l.dtype == tight.r.dtype == np.int64
        # Idempotent, and the input is not written to.
        again, again_width = kernels.renormalise(tight, tight_width)
        assert (again.tuples(), again_width) == (tight.tuples(), tight_width)
        for column, saved in zip((cols.l, cols.r, cols.d, cols.c), before):
            assert column.tolist() == saved.tolist()
        assert tight.d is cols.d and tight.c is cols.c

    def test_width_beyond_int64_is_one_block(self):
        rows = [("<a>", 5, 2 ** 62), ("x", 7, 90)]
        tight, width = kernels.renormalise(
            IntervalColumns.from_tuples(rows), 2 ** 80)
        assert (tight.tuples(), width) == ([("<a>", 0, 3), ("x", 1, 2)], 4)


class TestOverflow:
    """Coordinates that would leave int64: nothing wraps and nothing
    changes representation — input from outside is refused at the door,
    a kernel whose bound trips raises, and after ``renormalise`` it
    answers what the reference answers on Python integers."""

    BEYOND = [("<a>", 0, 2 ** 63), ("x", 1, 2)]

    def test_endpoints_beyond_int64_stop_at_the_door(self):
        from repro.compiler.plan import VarNode
        from repro.engine.columns import _rebuild_columns, make_int_column
        from repro.engine.evaluator import DIEngine

        with pytest.raises(WidthOverflowError):
            IntervalColumns.from_tuples(self.BEYOND)
        with pytest.raises(WidthOverflowError):
            make_int_column([0, 2 ** 63])
        assert make_int_column([0, INT64_MAX]).dtype == np.int64
        # The state a release with list-backed columns pickled.
        with pytest.raises(WidthOverflowError):
            _rebuild_columns(["<a>"], [0], [2 ** 63],
                             np.zeros(1, dtype=np.int32).tobytes())
        with pytest.raises(WidthOverflowError):
            DIEngine().run_plan_values(VarNode("$d"),
                                       {"$d": (self.BEYOND, 2 ** 64)})

    @settings(max_examples=25)
    @given(blocked())
    def test_targets_beyond_int64_raise(self, data):
        rows, width, index = data
        cols = IntervalColumns.from_tuples(rows)
        for shift in (2 ** 64, INT64_MAX // width):  # unstorable, unplaceable
            if rows:
                with pytest.raises(WidthOverflowError):
                    kernels.gather_blocks(cols, width, index,
                                          [env + shift for env in index])
                with pytest.raises(WidthOverflowError):
                    kernels.xnode("<w>", cols, width,
                                  [env + shift for env in index])
        for env in (2 ** 64, INT64_MAX // 2):
            with pytest.raises(WidthOverflowError):
                kernels.text_const("x", [0, env])

    def test_overflow_bound_is_checked_not_wrapped(self):
        # One block close to the int64 edge: widening must refuse, never
        # silently wrap in vector arithmetic — and fit once renormalised.
        width = 2 ** 32
        rows = [("<a>", 0, 1), ("<a>", width * (2 ** 30), width * (2 ** 30) + 1)]
        cols = IntervalColumns.from_tuples(rows)
        assert (2 ** 30 + 1) * width * width > INT64_MAX
        for kernel in (kernels.subtrees_dfs, kernels.sort,
                       lambda c, w: kernels.select_descendants(c, w, "<a>")):
            with pytest.raises(WidthOverflowError):
                kernel(cols, width)
        tight, tight_width = kernels.renormalise(cols, width)
        assert tight_width == 2
        result = kernels.subtrees_dfs(tight, tight_width)
        assert result.l.dtype == np.int64
        envs = [0, 2 ** 30]
        validate_value(result, tight_width ** 2, envs)
        assert env_forests(result, tight_width ** 2, envs) == [
            FUNCTIONS["subtrees_dfs"].impl((forest,), {})
            for forest in env_forests(rows, width, envs)]

    def test_descendant_chain_runs_off_int64(self):
        """The CI overflow case, ``//a//a//a//a//a``: every ``//`` squares
        the width, so the chain's width product runs off int64 and the
        evaluator renormalises on the way — with ``validate=True``
        checking the carried columns after every node — and still agrees
        with the interpreter."""
        from repro.api import compile_xquery
        from repro.compiler.planner import compile_plan
        from repro.engine.evaluator import DIEngine
        from repro.xml.text_parser import parse_forest
        from repro.xquery.interpreter import evaluate
        from repro.xquery.lowering import document_forest

        compiled = compile_xquery('document("w.xml")//a//a//a//a//a')
        forest = document_forest(parse_forest(
            "<a><a><b><a><a><a>x</a></a><a/></a></b></a></a>"))
        bindings = {var: forest for var in compiled.documents.values()}
        plan = compile_plan(compiled.core,
                            base_vars=compiled.documents.values())
        engine = DIEngine(validate=True)
        rel, width = engine.run_plan_encoded(plan, bindings)
        assert width <= INT64_MAX
        assert rel.l.dtype == rel.r.dtype == np.int64
        assert engine.run_plan(plan, bindings) == \
            evaluate(compiled.core, bindings) != ()


class TestEmptyAndEdgeCases:
    def test_empty_relation_all_kernels(self):
        empty = IntervalColumns.empty()
        assert kernels.roots(empty).tuples() == []
        assert kernels.children(empty).tuples() == []
        assert kernels.head(empty, 4).tuples() == []
        assert kernels.tail(empty, 4).tuples() == []
        assert kernels.reverse(empty, 4).tuples() == []
        assert kernels.subtrees_dfs(empty, 4).tuples() == []
        assert kernels.data(empty, 4).tuples() == []
        assert kernels.distinct(empty, 4).tuples() == []
        rel, width = kernels.sort(empty, 4)
        assert rel.tuples() == [] and width == 16
        assert kernels.concat(empty, 2, empty, 3).tuples() == []
        assert kernels.filter_by_index(empty, 4, [0, 1]).tuples() == []
        assert kernels.expand_variable(empty, 4, []).tuples() == []
        assert kernels.gather_blocks(empty, 4, [0], [1]).tuples() == []
        base = np.zeros(1, dtype=np.int64)
        assert kernels.collation_keys((empty, base, base)) == [[b""]]
        assert kernels.less_envs((empty, 4, base),
                                 (empty, 4, base)).tolist() == [False]
        for existential in (True, False):
            ((envs, ids),) = kernels.key_ids(existential, (empty, 4, []))
            assert len(envs) == len(ids) == 0

    def test_width_one_empty_blocks(self):
        # Width 1 holds only empty forests; constructors must still emit
        # per-environment output driven by the index.
        rel, width = kernels.count_roots(IntervalColumns.empty(), 1, [0, 2])
        assert width == 2
        assert rel.tuples() == [("0", 0, 1), ("0", 4, 5)]
        rel, width = kernels.string_fn(IntervalColumns.empty(), 1, [1])
        assert rel.tuples() == [("", 2, 3)]

    def test_single_tuple_blocks(self):
        # Width-2 blocks each holding exactly one node — the smallest
        # non-empty block shape.
        rows = [("x", 0, 1), ("y", 2, 3), ("z", 6, 7)]
        cols = IntervalColumns.from_tuples(rows)
        assert kernels.roots(cols).tuples() == rows
        assert kernels.children(cols).tuples() == []
        unary("reverse", kernels.reverse, rows, 2, [0, 1, 3])
        unary("sort", kernels.sort, rows, 2, [0, 1, 3])
