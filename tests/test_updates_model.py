"""Model-based property testing of the updates module.

A random sequence of insert/delete operations is applied in parallel to

* the :class:`UpdatableDocument` (interval encoding + gap relabeling), and
* a plain in-memory forest model (tuples rebuilt functionally),

and the states must agree after every step.  This is the strongest check
that interval bookkeeping under updates never corrupts the encoding: the
document edits its columns with a local validity check only, so the full
Definition 3.1 sweep and the carried-equals-derived comparison of the
``d``/``c`` columns run here, after every step
(:func:`assert_state_is_sound`).
"""

from __future__ import annotations

import random

import pytest

from repro.encoding.updates import UpdatableDocument
from repro.engine.columns import IntervalColumns
from repro.xml.forest import Forest, Node, element, text


def assert_columns_equal(carried: IntervalColumns,
                         derived: IntervalColumns) -> None:
    """Same values and same dtypes on every column."""
    for name in IntervalColumns.__slots__:
        left, right = getattr(carried, name), getattr(derived, name)
        assert left.dtype == right.dtype, name
        assert left.tolist() == right.tolist(), name


def assert_state_is_sound(document: UpdatableDocument) -> None:
    """Definition 3.1 holds, and every column equals what
    ``from_tuples`` derives from the rows alone."""
    document.encoded.validate()
    derived = IntervalColumns.from_tuples(document.encoded.tuples)
    assert_columns_equal(document.columns, derived)
    assert document.node_count() == len(derived)


def model_delete(trees: Forest, path: tuple[int, ...]) -> Forest:
    """Remove the node addressed by child-index path from a forest."""
    index, *rest = path
    if not rest:
        return trees[:index] + trees[index + 1:]
    node = trees[index]
    children = model_delete(node.children, tuple(rest))
    return (trees[:index] + (Node(node.label, children),)
            + trees[index + 1:])


def model_insert(trees: Forest, path: tuple[int, ...], position: int,
                 new: Forest) -> Forest:
    """Insert ``new`` under the node addressed by ``path`` at ``position``."""
    if not path:
        position = min(position, len(trees))
        return trees[:position] + new + trees[position:]
    index, *rest = path
    node = trees[index]
    children = model_insert(node.children, tuple(rest), position, new)
    return (trees[:index] + (Node(node.label, children),)
            + trees[index + 1:])


def all_paths(trees: Forest) -> list[tuple[int, ...]]:
    """Every node address in the forest, as child-index paths."""
    paths: list[tuple[int, ...]] = []

    def walk(forest: Forest, prefix: tuple[int, ...]) -> None:
        for index, node in enumerate(forest):
            path = prefix + (index,)
            paths.append(path)
            walk(node.children, path)

    walk(trees, ())
    return paths


def left_endpoint_of(document: UpdatableDocument,
                     path: tuple[int, ...]) -> int:
    """Resolve a child-index path to the node's left endpoint."""
    rows = document.encoded.tuples

    def children_of(low: int, high: int) -> list[tuple[str, int, int]]:
        result = []
        max_right = low
        for row in rows:
            if low < row[1] and row[2] < high and row[1] > max_right:
                max_right = row[2]
                result.append(row)
        return result

    low, high = -1, document.encoded.width + 1
    row = None
    for index in path:
        row = children_of(low, high)[index]
        low, high = row[1], row[2]
    assert row is not None
    return row[1]


@pytest.mark.parametrize("seed", range(12))
def test_random_update_sequences_match_model(seed):
    rng = random.Random(seed)
    model: Forest = (element("root", (element("a"), text("t"))),)
    document = UpdatableDocument.from_forest(model,
                                             stride=rng.choice((1, 2, 8)))
    for step in range(15):
        paths = all_paths(model)
        operation = rng.random()
        if operation < 0.55 or len(paths) <= 1:
            # Insert a small new forest somewhere.
            new = _random_forest(rng, step)
            # Only elements take children (insert_child refuses the rest).
            parents = [path for path in paths
                       if _node_at(model, path).is_element()]
            if rng.random() < 0.25 or not parents:
                position = rng.randint(0, len(model))
                model = model_insert(model, (), position, new)
                document = document.insert_tree(position, new)
            else:
                target = rng.choice(parents)
                parent_node = _node_at(model, target)
                position = rng.randint(0, len(parent_node.children))
                left = left_endpoint_of(document, target)
                model = model_insert(model, target, position, new)
                document = document.insert_child(left, position, new)
        else:
            target = rng.choice(paths)
            left = left_endpoint_of(document, target)
            model = model_delete(model, target)
            document = document.delete_subtree(left)
        assert_state_is_sound(document)
        assert document.to_forest() == model, f"diverged at step {step}"


def _node_at(trees: Forest, path: tuple[int, ...]) -> Node:
    node = trees[path[0]]
    for index in path[1:]:
        node = node.children[index]
    return node


def _random_forest(rng: random.Random, step: int) -> Forest:
    shape = rng.random()
    if shape < 0.4:
        return (text(f"t{step}"),)
    if shape < 0.8:
        return (element(f"e{step}"),)
    return (element(f"p{step}", (text("x"), element("q"))),)
