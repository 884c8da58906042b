"""Order without strings: ``sort`` and ``<`` compare collation-ranked bytes.

``kernels.sort`` and the ``Less`` condition order trees by Figure 2's
structural order — the canonical ``(depth, label)`` sequence in Python
tuple order.  The kernels build no such tuple: each distinct code gets
its collation rank — its place among the distinct labels present, in
string order — and a span's key is the bytes of its big-endian
``(d, rank)`` rows (``kernels.collation_keys``).  These properties hold
the kernels to Figure 2's ``sort`` and ``less`` per environment
(Definition 3.3, :mod:`tests.def33`) on drawn forests whose labels make
the dictionary's code order disagree with string order: every case's
labels are new to the dictionary and interned in reverse string order,
and they mix ASCII, accented, CJK, private-use and astral characters
(UTF-16 order would put the astral ones before the private-use ones).  Trees repeat, trees are
preorder prefixes of others, and equal labels sit at different depths.
"""

from __future__ import annotations

import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import XQuerySession
from repro.encoding.interval import encode
from repro.engine import kernels
from repro.engine.columns import IntervalColumns, name_code
from repro.xml import operations as fig2
from repro.xml.forest import Node, build_trees, preorder

from tests.def33 import check, env_forests
from tests.strategies import forests

#: Label stems: prefixes of one another, case, a precomposed and a
#: combining accent, a CJK character, a private-use character and the
#: replacement character (above the surrogate block), two astral ones.
STEMS = ("", "a", "ab", "abc", "b", "B", chr(0xE9), "e" + chr(0x301),
         chr(0xFF), chr(0x4E2D), chr(0xE000), chr(0xFFFD), chr(0x10000),
         chr(0x1F600), "z")

#: Numbers the cases, so that each case's labels are new to the dictionary.
_fresh = itertools.count()


def fresh_labels(stems: list[str]) -> list[str]:
    """Text and element labels over ``stems`` that no relation carried
    yet, interned in reverse string order: a label's code is larger than
    the code of every label after it in string order."""
    prefix = f"collate{next(_fresh)}-"
    labels = [prefix + stem for stem in stems]
    labels += [f"<{label}>" for label in labels]
    for label in sorted(labels, reverse=True):
        name_code(label)
    codes = [name_code(label) for label in sorted(labels)]
    assert codes == sorted(codes, reverse=True)
    return labels


@st.composite
def tree_pool(draw, labels: list[str]):
    """Drawn trees, plus a repeat of one (a tie only document order
    breaks) and a preorder prefix of one (a key that is a prefix of
    another's)."""
    trees = list(draw(forests(max_trees=3, max_depth=3,
                              labels=tuple(labels))))
    if not trees:
        return (Node(draw(st.sampled_from(labels))),)
    tree = draw(st.sampled_from(trees))
    labels, depths = preorder((tree,))
    cut = draw(st.integers(min_value=1, max_value=len(labels)))
    trees += [tree, *build_trees(labels[:cut], depths[:cut])]
    return tuple(draw(st.permutations(trees)))


def blocked(forest_of_env: dict, slack: int):
    """``(rows, width, index)``: each environment's forest in its own
    block."""
    encodings = {env: encode(forest) for env, forest in forest_of_env.items()}
    width = max([enc.width for enc in encodings.values()] + [1]) + slack
    rows = [(s, l + env * width, r + env * width)
            for env, enc in sorted(encodings.items())
            for s, l, r in enc.tuples]
    return rows, width, sorted(forest_of_env)


def drawn_labels(draw, min_size: int = 1) -> list[str]:
    return fresh_labels(draw(st.lists(st.sampled_from(STEMS),
                                      min_size=min_size, max_size=6,
                                      unique=True)))


@st.composite
def sort_cases(draw):
    """``(rows, width, index)`` over fresh labels, one to three
    environments."""
    labels = drawn_labels(draw)
    envs = draw(st.sets(st.integers(min_value=0, max_value=5), min_size=1,
                        max_size=3))
    return blocked({env: draw(tree_pool(labels)) for env in envs},
                   draw(st.integers(min_value=0, max_value=3)))


@st.composite
def less_cases(draw):
    """Two sides over one index; each environment's forest is drawn from
    one shared pool of trees (so equal forests and prefixes meet), or is
    empty."""
    pool = draw(tree_pool(drawn_labels(draw)))
    index = sorted(draw(st.sets(st.integers(min_value=0, max_value=5),
                                min_size=1, max_size=4)))
    sides = []
    for _side in range(2):
        chosen = {env: tuple(draw(st.lists(st.sampled_from(pool),
                                           max_size=3)))
                  for env in index}
        rows, width, _envs = blocked(
            {env: forest for env, forest in chosen.items() if forest},
            draw(st.integers(min_value=0, max_value=2)))
        sides.append((rows, width))
    return sides, index


def test_relations_carry_no_label_column():
    """Four numeric columns; the kernels build no label column."""
    assert IntervalColumns.__slots__ == ("l", "r", "d", "c")
    source = Path(kernels.__file__).read_text(encoding="utf-8")
    assert "label_column(" not in source


class TestSort:
    @settings(max_examples=200, deadline=None)
    @given(sort_cases())
    def test_kernel_sort_is_the_reference_sort(self, case):
        rows, width, index = case
        check("sort", lambda cols, w, _envs: kernels.sort(cols, w),
              [(rows, width)], index)

    def test_code_point_order_not_utf16_order(self):
        """U+10000 sorts after U+FFFD, though its UTF-16 surrogates come
        before U+FFFD."""
        astral, replacement = fresh_labels([chr(0x10000), chr(0xFFFD)])[:2]
        rows = [(astral, 0, 1), (replacement, 2, 3)]
        result, _width = kernels.sort(IntervalColumns.from_tuples(rows), 4)
        assert [row[0] for row in result.tuples()] == [replacement, astral]


class TestLess:
    @settings(max_examples=200, deadline=None)
    @given(less_cases())
    def test_less_envs_is_the_tuple_order(self, case):
        """Per environment, the mask is Figure 2's ``less`` of the two
        decoded forests."""
        (left, right), index = case
        expected = [fig2.less(one, other) for one, other in zip(
            *(env_forests(rows, width, index)
              for rows, width in (left, right)))]
        envs = np.array(index, dtype=np.int64)
        mask = kernels.less_envs(
            *((IntervalColumns.from_tuples(rows), width, envs)
              for rows, width in (left, right)))
        assert mask.tolist() == expected

    def test_a_width_zero_side_is_the_empty_forest(self):
        envs = np.array([0, 1], dtype=np.int64)
        cols = IntervalColumns.from_tuples([("x", 2, 3)])
        empty = IntervalColumns.empty()
        assert kernels.less_envs((empty, 0, envs),
                                 (cols, 2, envs)).tolist() == [False, True]
        assert kernels.less_envs((cols, 2, envs),
                                 (empty, 0, envs)).tolist() == [False, False]


@pytest.fixture(scope="module")
def session():
    with XQuerySession(admission=False, record=False) as active:
        yield active


#: ``<`` between two paths' forests, and between a path and a literal.
LESS_QUERIES = {
    "paths": 'for $a in document("c.xml")/r/as/a '
             'for $b in document("c.xml")/r/bs/b where $a/k < $b/k '
             'return <p a="{$a/@id/text()}" b="{$b/@id/text()}"/>',
    "literal": 'for $x in document("c.xml")/r/as/a/k '
               'where $x/text() < "LITERAL" return $x',
}


@st.composite
def less_documents(draw):
    """``(document, literal)``: records whose ``<k>`` keys hold fresh
    text labels (one, or a tree of two), zero to two keys a record, and
    one of those labels as the literal."""
    texts = [label for label in drawn_labels(draw, min_size=2)
             if not label.startswith("<")]
    value = st.sampled_from(texts).map(Node)

    def key():
        if draw(st.booleans()):
            return Node("<k>", (draw(value),))
        return Node("<k>", (Node("<t>", (draw(value),)),
                            Node("<t>", (draw(value),))))

    def records(tag):
        return [Node(f"<{tag}>", [Node("@id", (Node(f"{tag}{number}"),))]
                     + [key() for _ in range(draw(st.integers(0, 2)))])
                for number in range(draw(st.integers(0, 3)))]

    document = Node("<r>", (Node("<as>", records("a")),
                            Node("<bs>", records("b"))))
    return (document,), draw(st.sampled_from(texts))


@pytest.mark.parametrize("shape", sorted(LESS_QUERIES))
def test_engine_less_is_the_interpreters(shape, session):
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=less_documents())
    def check(case):
        document, literal = case
        query = LESS_QUERIES[shape].replace("LITERAL", literal)
        session.add_document("c.xml", document)
        expected = session.run(query, backend="interpreter").to_xml()
        assert session.run(query, backend="engine").to_xml() == expected

    check()
