"""Hypothesis strategies for XF forests and related inputs."""

from __future__ import annotations

from hypothesis import strategies as st

from repro.xml.forest import Node

#: Small label alphabets keep shrunk examples readable while still
#: exercising all three label classes.
ELEMENT_LABELS = ("<a>", "<b>", "<c>")
ATTRIBUTE_LABELS = ("@id", "@k")
TEXT_LABELS = ("x", "y", "longer text", "")
LABELS = ELEMENT_LABELS + ATTRIBUTE_LABELS + TEXT_LABELS


@st.composite
def nodes(draw, max_depth: int = 4, max_children: int = 4,
          labels: tuple[str, ...] = LABELS):
    """A random tree with bounded depth and fanout.

    Any label may sit anywhere: attributes after content or with
    element children, text with children, either at the top level.
    """
    label = draw(st.sampled_from(labels))
    if max_depth <= 1:
        return Node(label)
    count = draw(st.integers(min_value=0, max_value=max_children))
    children = [draw(nodes(max_depth=max_depth - 1,
                           max_children=max_children, labels=labels))
                for _ in range(count)]
    return Node(label, children)


@st.composite
def forests(draw, max_trees: int = 4, max_depth: int = 4,
            labels: tuple[str, ...] = LABELS):
    """A random forest (possibly empty)."""
    count = draw(st.integers(min_value=0, max_value=max_trees))
    return tuple(draw(nodes(max_depth=max_depth, labels=labels))
                 for _ in range(count))


@st.composite
def xml_safe_nodes(draw, max_depth: int = 4):
    """Trees that serialize to well-formed XML and parse back.

    Elements with attribute children first (parser convention), attribute
    values and text with XML-safe characters, no empty text nodes.
    """
    text_alphabet = st.text(
        alphabet="abz 09'", min_size=1, max_size=6
    ).filter(lambda s: s.strip())
    # Attribute values additionally exercise tab/newline/CR: the
    # serializer must emit them as character references (&#9; &#10;
    # &#13;) for the round-trip to survive attribute-value normalization.
    attr_alphabet = st.text(
        alphabet="abz 09'\t\n\r", min_size=1, max_size=6
    ).filter(lambda s: s.strip())
    if max_depth <= 1:
        return Node(draw(text_alphabet))
    tag = draw(st.sampled_from(("<a>", "<b>", "<c>")))
    attr_count = draw(st.integers(min_value=0, max_value=2))
    attr_names = draw(st.permutations(["@p", "@q"]))[:attr_count]
    attributes = [Node(name, (Node(draw(attr_alphabet)),))
                  for name in sorted(attr_names)]
    child_count = draw(st.integers(min_value=0, max_value=3))
    content = []
    previous_text = False
    for _ in range(child_count):
        child = draw(xml_safe_nodes(max_depth=max_depth - 1))
        # Two adjacent text nodes would merge on reparse; skip those.
        if child.is_text():
            if previous_text:
                continue
            previous_text = True
        else:
            previous_text = False
        content.append(child)
    return Node(tag, attributes + content)


@st.composite
def xml_safe_forests(draw, max_trees: int = 3):
    """Forests of XML-safe element trees (roundtrippable)."""
    count = draw(st.integers(min_value=0, max_value=max_trees))
    trees = []
    for _ in range(count):
        tree = draw(xml_safe_nodes())
        if tree.is_text():
            tree = Node("<t>", (tree,))
        trees.append(tree)
    return tuple(trees)
