"""Serialize XF forests back to XML text.

The serializer inverts :mod:`repro.xml.text_parser`: attribute children are
emitted inside the opening tag, remaining children as element content, and
reserved characters are escaped.  Round-tripping a parsed forest yields a
structurally equal forest (verified by property-based tests).

Compact output is one iterative pass over the forest's preorder
``(label, depth)`` stream (:func:`_emit`) — the form an engine result
already has (:class:`~repro.xml.forest.PreorderForest`), so serializing a
query result builds no :class:`Node`; trees are flattened into the same
stream first.  Only ``indent=`` pretty-printing walks nodes.
"""

from __future__ import annotations

from itertools import chain

from repro.xml.forest import (
    Forest,
    Node,
    PreorderForest,
    is_text_label,
    preorder,
)


def escape_text(value: str) -> str:
    """Escape character data for use in element content."""
    return (value.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))


def escape_attribute(value: str) -> str:
    """Escape character data for use inside a double-quoted attribute value.

    Tab/newline/CR must be character references: a conformant parser
    normalizes raw literals to spaces (XML 1.0 §3.3.3), so emitting them
    bare would not round-trip.
    """
    return (value.replace("&", "&amp;").replace("<", "&lt;")
            .replace('"', "&quot;").replace("\t", "&#9;")
            .replace("\n", "&#10;").replace("\r", "&#13;"))


def forest_to_xml(trees: Forest | Node | PreorderForest,
                  indent: int | None = None) -> str:
    """Render a forest (or a single tree) as XML text.

    When ``indent`` is given, elements are pretty-printed with that many
    spaces per nesting level; text nodes are always emitted inline so the
    pretty-printed output is *not* guaranteed to round-trip documents with
    significant whitespace.
    """
    if isinstance(trees, Node):
        trees = (trees,)
    if indent is None:
        return _emit(*preorder(trees))
    parts: list[str] = []
    for tree in trees:
        _render(tree, parts, indent, 0)
    return "\n".join(parts)


def _emit(labels: list[str], depths: list[int]) -> str:
    """Compact XML from a preorder ``(label, depth)`` stream, in one pass.

    ``stack`` holds the open elements, outermost first, each as (index of
    its open-tag piece in ``parts``, its close tag).  Only elements are
    pushed, so an open element's stack position is its depth, and a row
    deeper than the stack is tall sits below a text row or an attribute:
    it is skipped, except that the direct text children of an attribute
    are its value.  An open-tag piece stays unterminated (``<tag a="1"``)
    until its element closes, so an attribute is hoisted into it from
    wherever among the children it sits.
    """
    parts: list[str] = []
    append = parts.append
    stack: list[tuple[int, str]] = []
    #: Name and collected value pieces of the attribute being read.
    name = ""
    value: list[str] | None = None
    # One empty text row at depth 0 past the end flushes a pending
    # attribute and closes every open element (and emits nothing).
    for label, depth in zip(chain(labels, ("",)), chain(depths, (0,))):
        if depth > len(stack):
            if (value is not None and depth == len(stack) + 1
                    and is_text_label(label)):
                value.append(label)
            continue
        if value is not None:
            _attribute(parts, stack, name, "".join(value))
            value = None
        while depth < len(stack):
            at, close = stack.pop()
            if at + 1 == len(parts):  # no content since the open tag
                parts[at] += "/>"
            else:
                parts[at] += ">"
                append(close)
        # The xml.forest label conventions, inlined: this is the hot loop.
        first = label[:1]
        if first == "<" and label[-1:] == ">" and len(label) > 2:
            stack.append((len(parts), "</" + label[1:]))
            append(label[:-1])
        elif first == "@" and len(label) > 1:
            name = label[1:]
            value = []
        else:
            append(escape_text(label))
    return "".join(parts)


def _attribute(parts: list[str], stack: list[tuple[int, str]],
               name: str, value: str) -> None:
    if stack:
        parts[stack[-1][0]] += f' {name}="{escape_attribute(value)}"'
    else:
        # A bare attribute at forest top level has no element to attach to;
        # render it in a readable debug form rather than failing.
        parts.append(f'[@{name}="{value}"]')


def _render(node: Node, parts: list[str], indent: int, level: int) -> None:
    """Pretty-print one tree, ``indent`` spaces per level."""
    pad = " " * (indent * level)
    if node.is_text():
        parts.append(pad + escape_text(node.label))
        return
    if node.is_attribute():
        parts.append(pad + f'[@{node.attribute_name}="{_attribute_value(node)}"]')
        return

    attributes = [child for child in node.children if child.is_attribute()]
    content = [child for child in node.children if not child.is_attribute()]
    attr_text = "".join(
        f' {attr.attribute_name}="{escape_attribute(_attribute_value(attr))}"'
        for attr in attributes
    )
    tag = node.tag
    if not content:
        parts.append(pad + f"<{tag}{attr_text}/>")
        return
    if all(child.is_text() for child in content):
        inline = "".join(escape_text(child.label) for child in content)
        parts.append(pad + f"<{tag}{attr_text}>{inline}</{tag}>")
        return
    parts.append(pad + f"<{tag}{attr_text}>")
    for child in content:
        _render(child, parts, indent, level + 1)
    parts.append(pad + f"</{tag}>")


def _attribute_value(attr: Node) -> str:
    return "".join(child.label for child in attr.children if child.is_text())
