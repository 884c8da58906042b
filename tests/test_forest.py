"""Unit tests for the XF forest model (Definition 2.1)."""

import pickle
import threading

import pytest
from hypothesis import given

from repro.xml.forest import (
    Node,
    PreorderForest,
    attribute,
    build_trees,
    compare_forests,
    compare_trees,
    element,
    forest,
    forest_depth,
    forest_size,
    is_attribute_label,
    is_element_label,
    is_text_label,
    iter_forest_dfs,
    preorder,
    string_value,
    text,
)

from tests.strategies import forests


class TestNodeConstruction:
    def test_leaf_node(self):
        node = Node("hello")
        assert node.label == "hello"
        assert node.children == ()

    def test_children_are_tuple(self):
        node = Node("<a>", [Node("x"), Node("y")])
        assert isinstance(node.children, tuple)
        assert [child.label for child in node.children] == ["x", "y"]

    def test_label_must_be_string(self):
        with pytest.raises(TypeError):
            Node(42)

    def test_children_must_be_nodes(self):
        with pytest.raises(TypeError):
            Node("<a>", ["not a node"])

    def test_immutability(self):
        node = Node("<a>")
        with pytest.raises(AttributeError):
            node.label = "<b>"
        with pytest.raises(AttributeError):
            del node.label


class TestConvenienceConstructors:
    def test_element(self):
        node = element("person", (text("x"),))
        assert node.label == "<person>"
        assert node.is_element()
        assert node.tag == "person"

    def test_element_rejects_brackets(self):
        with pytest.raises(ValueError):
            element("<person>")

    def test_attribute(self):
        node = attribute("id", "person0")
        assert node.label == "@id"
        assert node.is_attribute()
        assert node.attribute_name == "id"
        assert node.children[0].label == "person0"

    def test_attribute_rejects_at_sign(self):
        with pytest.raises(ValueError):
            attribute("@id", "x")

    def test_text(self):
        node = text("some data")
        assert node.is_text()
        assert not node.is_element()
        assert not node.is_attribute()

    def test_forest(self):
        trees = forest(text("a"), text("b"))
        assert len(trees) == 2

    def test_tag_of_non_element_raises(self):
        with pytest.raises(ValueError):
            text("x").tag

    def test_attribute_name_of_non_attribute_raises(self):
        with pytest.raises(ValueError):
            text("x").attribute_name


class TestLabelClassification:
    @pytest.mark.parametrize("label,expected", [
        ("<a>", True), ("<person>", True), ("<>", False),
        ("@id", False), ("plain text", False), ("<unclosed", False),
    ])
    def test_element_label(self, label, expected):
        assert is_element_label(label) is expected

    @pytest.mark.parametrize("label,expected", [
        ("@id", True), ("@", False), ("<a>", False), ("text", False),
    ])
    def test_attribute_label(self, label, expected):
        assert is_attribute_label(label) is expected

    def test_text_label(self):
        assert is_text_label("anything else")
        assert not is_text_label("<a>")
        assert not is_text_label("@id")

    def test_angle_text_is_text(self):
        # A text node containing "<" alone is not an element label.
        assert is_text_label("<")


class TestStructuralEquality:
    def test_equal_leaves(self):
        assert Node("a") == Node("a")

    def test_unequal_labels(self):
        assert Node("a") != Node("b")

    def test_deep_equality(self):
        left = element("a", (element("b", (text("x"),)),))
        right = element("a", (element("b", (text("x"),)),))
        assert left == right
        assert hash(left) == hash(right)

    def test_child_order_matters(self):
        left = element("a", (text("x"), text("y")))
        right = element("a", (text("y"), text("x")))
        assert left != right

    def test_nesting_matters(self):
        nested = element("a", (element("b", (element("c"),)),))
        flat = element("a", (element("b"), element("c")))
        assert nested != flat


class TestStructuralOrder:
    def test_label_order(self):
        assert compare_trees(Node("a"), Node("b")) < 0
        assert compare_trees(Node("b"), Node("a")) > 0
        assert compare_trees(Node("a"), Node("a")) == 0

    def test_children_break_label_ties(self):
        smaller = element("a", (text("x"),))
        larger = element("a", (text("y"),))
        assert compare_trees(smaller, larger) < 0

    def test_leaf_less_than_parent_with_child(self):
        assert compare_trees(Node("<a>"), element("a", (text("x"),))) < 0

    def test_forest_prefix_is_smaller(self):
        short = (Node("a"),)
        long = (Node("a"), Node("b"))
        assert compare_forests(short, long) < 0
        assert compare_forests(long, short) > 0

    def test_empty_forest_smallest(self):
        assert compare_forests((), (Node("a"),)) < 0
        assert compare_forests((), ()) == 0

    def test_nested_vs_sibling(self):
        # [a [b]] vs [a, b]: the nested variant is greater (its children
        # forest [b] exceeds the flat variant's empty children).
        nested = (element("a", (element("b"),)),)
        flat = (element("a"), element("b"))
        assert compare_forests(nested, flat) > 0

    def test_rich_comparison_operators(self):
        assert Node("a") < Node("b")
        assert Node("b") > Node("a")
        assert Node("a") <= Node("a")
        assert Node("a") >= Node("a")


class TestIntrospection:
    def test_size(self):
        tree = element("a", (element("b", (text("x"),)), text("y")))
        assert tree.size == 4

    def test_depth(self):
        assert text("x").depth == 1
        tree = element("a", (element("b", (text("x"),)),))
        assert tree.depth == 3

    def test_forest_size_and_depth(self):
        trees = (element("a", (text("x"),)), text("y"))
        assert forest_size(trees) == 3
        assert forest_depth(trees) == 2
        assert forest_depth(()) == 0

    def test_iter_dfs_document_order(self):
        tree = element("a", (element("b", (text("x"),)), text("y")))
        labels = [node.label for node in tree.iter_dfs()]
        assert labels == ["<a>", "<b>", "x", "y"]

    def test_iter_forest_dfs(self):
        trees = (element("a", (text("x"),)), text("y"))
        labels = [node.label for node in iter_forest_dfs(trees)]
        assert labels == ["<a>", "x", "y"]

    def test_string_value(self):
        tree = element("a", (text("hello "), element("b", (text("world"),))))
        assert tree.string_value() == "hello world"
        assert string_value((tree, text("!"))) == "hello world!"

    def test_repr_roundtrips_visually(self):
        assert repr(Node("x")) == "Node('x')"
        assert "Node('<a>'" in repr(element("a", (text("x"),)))

    def test_size_is_cached(self):
        tree = element("a", (text("x"),))
        assert tree.size == 2
        assert tree.size == 2  # second access hits the cache


class TestPreorderForest:
    """A forest as its (label, depth) stream; trees built on first touch."""

    TREES = (element("a", (element("b", (text("x"),)), element("c"))),
             text("y"))

    def make(self) -> PreorderForest:
        return PreorderForest.from_lists(*preorder(self.TREES))

    def test_preorder_lists(self):
        assert preorder(self.TREES) == (["<a>", "<b>", "x", "<c>", "y"],
                                        [0, 1, 2, 1, 0])
        result = self.make()
        assert preorder(result) == (result.labels, result.depths)

    @given(forests())
    def test_build_inverts_preorder(self, trees):
        assert build_trees(*preorder(trees)) == trees

    def test_reads_like_the_tuple_of_trees(self):
        result = self.make()
        assert len(result) == 2 and bool(result)
        assert tuple(result) == self.TREES
        assert result[0] == self.TREES[0] and result[-1] == text("y")
        assert result[1:] == (text("y"),)
        assert list(reversed(result)) == list(reversed(self.TREES))
        assert result == self.TREES and self.TREES == result
        assert result != self.TREES[:1] and not result == "<a/>"
        assert hash(result) == hash(self.TREES)
        empty = PreorderForest.from_lists([], [])
        assert not empty and empty == ()

    def test_len_equality_and_pickling_build_nothing(self, nodes_built):
        result, same = self.make(), self.make()
        assert len(result) == 2
        assert result == same
        assert result != PreorderForest.from_lists(["<a>", "y"], [0, 0])
        assert pickle.loads(pickle.dumps(result)) == result
        assert "2 trees, 5 nodes" in repr(result)
        assert nodes_built() == 0

    def test_trees_are_built_once(self, nodes_built):
        result = self.make()
        first = result.trees()
        assert nodes_built() == 5
        assert result.trees() is first and tuple(result) == first
        assert result[0] is first[0]
        assert nodes_built() == 5

    def test_racing_first_touches_agree(self, nodes_built):
        result = PreorderForest.from_lists(["<a>"] * 2000,
                                          list(range(2000)))
        seen: list[tuple] = []
        start = threading.Barrier(4)

        def touch() -> None:
            start.wait(timeout=10)
            seen.append(result.trees())

        threads = [threading.Thread(target=touch) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert len(seen) == 4 and all(trees is seen[0] for trees in seen)
        assert nodes_built() == 2000

    def test_pickles_flat(self):
        # A 5000-deep chain: a Node tree would recurse per level.
        deep = PreorderForest.from_lists(["<a>"] * 5000,
                                        list(range(5000)))
        clone = pickle.loads(pickle.dumps(deep))
        assert (clone.labels, clone.depths) == (deep.labels, deep.depths)
        assert len(clone) == 1 and clone.trees()[0].depth == 5000
