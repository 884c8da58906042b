"""Serialize XF forests back to XML text.

The serializer inverts :mod:`repro.xml.text_parser`: attribute children are
emitted inside the opening tag, remaining children as element content, and
reserved characters are escaped.  Round-tripping a parsed forest yields a
structurally equal forest (verified by property-based tests).

Compact output is one columnar emitter (:func:`_emit`) over a forest's
preorder stream — label ids, kinds, depths and subtree ends — which is
the form an engine result already has
(:class:`~repro.xml.forest.PreorderForest`), so serializing a query
result builds no :class:`Node` and runs no Python per row.  Everything
that depends on a label — its kind, its escaping, its tags — is done
once per distinct label into *piece tables* indexed by label id:
process-wide ones for the dictionary's ids, filled on first sight and
never evicted, like the dictionary itself; a per-call one for a forest
of nodes, which is flattened by :func:`~repro.xml.forest.preorder`
first and so never grows the dictionary.  Only ``indent=``
pretty-printing walks nodes.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.xml.forest import (
    Forest,
    Node,
    PreorderForest,
    preorder,
    tree_links,
)
from repro.xml.labels import (
    ATTRIBUTE,
    ELEMENT,
    KIND_MASK,
    TEXT,
    _label_of,
    _names_lock,
    label_kind,
)


def escape_text(value: str) -> str:
    """Escape character data for use in element content.

    A CR must be a character reference: a conformant parser folds a raw
    one (and a raw CR LF) to a newline (XML 1.0 §2.11).
    """
    return (value.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace("\r", "&#13;"))


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
    if indent is not None:
        parts: list[str] = []
        for tree in trees:
            _render(tree, parts, indent, 0)
        return "\n".join(parts)
    if isinstance(trees, PreorderForest):
        c = trees.c
        ids, first, second = _process_pieces(c)
        return _emit(ids, c & KIND_MASK, trees.d, trees.end,
                     lambda: trees.parent, first, second, _dictionary_text)
    labels, depths = preorder(trees)
    ends, parents = tree_links(depths)
    # A per-call distinct-label table: ids are first-seen positions.
    table = list(dict.fromkeys(labels))
    ids = np.fromiter(map(dict(zip(table, range(len(table)))).__getitem__,
                          labels), np.intp, len(labels))
    kinds = np.fromiter(map(label_kind, table), np.int8, len(table))
    first, second = _piece_table(table, kinds.tolist())
    return _emit(ids, kinds[ids], np.array(depths, dtype=np.int32),
                 np.array(ends, dtype=np.intp),
                 lambda: np.array(parents, dtype=np.intp), first, second,
                 lambda text_ids: list(map(table.__getitem__,
                                           text_ids.tolist())))


# -- piece tables ------------------------------------------------------------------

def _pieces(label: str, kind: int) -> tuple[str, str]:
    """The two pieces of one label, by kind: an element's ``"<tag"`` and
    ``"</tag>"``; an attribute's ``' name="'`` and its top-level debug
    opener ``'[@name="'``; a text's content and attribute escapings."""
    if kind == ELEMENT:
        return label[:-1], "</" + label[1:]
    if kind == ATTRIBUTE:
        name = label[1:]
        return f' {name}="', f'[@{name}="'
    return escape_text(label), escape_attribute(label)


def _piece_table(labels: list[str],
                 kinds: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """The two piece columns of a label table (object arrays)."""
    first = np.empty(len(labels), dtype=object)
    second = np.empty(len(labels), dtype=object)
    if labels:
        first[:], second[:] = zip(*map(_pieces, labels, kinds))
    return first, second


#: The process-wide piece tables, indexed by label id (``code >> 2``):
#: ``(filled, first, second)``.  Replaced whole when they grow, filled in
#: place otherwise (pieces before the flag); readers take one snapshot.
_tables: tuple[np.ndarray, np.ndarray, np.ndarray] = (
    np.zeros(0, dtype=np.bool_), np.empty(0, dtype=object),
    np.empty(0, dtype=object))


def _process_pieces(c: np.ndarray):
    """``(ids, first, second)``: the label ids of ``c`` and piece tables
    that hold a piece for every one of them.  Lock-free when they do."""
    ids = np.right_shift(c, 2, dtype=np.intp)
    filled, first, second = _tables
    try:
        complete = filled[ids].all()
    except IndexError:  # an id past the tables' end
        complete = False
    if not complete:
        filled, first, second = _fill(c, ids)
    return ids, first, second


def _fill(c: np.ndarray, ids: np.ndarray):
    """Grow and fill the process-wide tables for the labels of ``c``,
    under the dictionary's lock (held across ``fork``)."""
    global _tables
    with _names_lock:
        filled, first, second = _tables
        top = int(ids.max()) + 1
        if top > len(filled):
            size = max(top, 2 * len(filled), 1024)
            grown = (np.zeros(size, dtype=np.bool_),
                     np.empty(size, dtype=object), np.empty(size, dtype=object))
            for old, new in zip((filled, first, second), grown):
                new[:len(old)] = old
            filled, first, second = grown
        for code in dict.fromkeys(c[~filled[ids]].tolist()):
            at = code >> 2
            first[at], second[at] = _pieces(_label_of[code], code & KIND_MASK)
            filled[at] = True
        _tables = (filled, first, second)
        return _tables


def _dictionary_text(text_ids: np.ndarray) -> list[str]:
    """The raw labels of text ids in the process-wide dictionary."""
    return list(map(_label_of.__getitem__, (text_ids << 2).tolist()))


# -- the emitter -------------------------------------------------------------------

#: An element's tag end, by whether it has content.
_TAG_ENDS = np.array(["/>", ">"], dtype=object)
#: An attribute's value end, by whether it is a top-level debug form.
_VALUE_ENDS = np.array(['"', '"]'], dtype=object)


def _emit(ids: np.ndarray, kinds: np.ndarray, d: np.ndarray,
          end: np.ndarray, parent: Callable[[], np.ndarray],
          first: np.ndarray, second: np.ndarray,
          text: Callable[[np.ndarray], list[str]]) -> str:
    """Compact XML from a preorder stream, with no per-row Python.

    ``ids`` index the piece tables ``first`` / ``second``; ``kinds``,
    ``d`` and ``end`` are each row's kind, depth and subtree end;
    ``parent()`` gives each row's parent row (asked for only when there
    are attributes) and ``text(ids)`` raw text labels (asked for only by
    a top-level attribute's debug form).

    A row is visible iff none of its ancestors is a text or an attribute
    row — except an attribute's direct text children, which are its
    value.  Every piece gets a key ``(anchor row, phase, order)``: at a
    visible element, its open tag (phase 0), its attributes hoisted from
    wherever they sit among its children (1, in row order), ``">"`` or
    ``"/>"`` (2); at a visible text row, its content (3); at the last
    row of an element's subtree, its close tag (4, innermost first).
    One sort of the keys puts the pieces in document order.
    """
    count = len(ids)
    if not count:
        return ""
    rows = np.arange(count)
    element = kinds == ELEMENT
    attribute = kinds == ATTRIBUTE
    is_text = kinds == TEXT
    # A text or attribute row hides its descendants: a row is hidden iff
    # the furthest subtree end of such a row above it reaches it.
    bearing = ((end > rows) > element).nonzero()[0]  # has children, no element
    if len(bearing):
        reach = np.full(count, -1)
        reach[bearing + 1] = end[bearing]
        visible = np.maximum.accumulate(reach) < rows
        elements = (element & visible).nonzero()[0]
        attributes = (attribute & visible).nonzero()[0]
        texts = (is_text & visible).nonzero()[0]
    else:
        elements = element.nonzero()[0]
        attributes = attribute.nonzero()[0]
        texts = is_text.nonzero()[0]
    heads = first[ids]
    if len(attributes):
        parents = parent()
        # An element has content iff a child of it is not an attribute.
        marked = np.zeros(count + 1, dtype=np.bool_)
        marked[parents[~attribute]] = True  # roots mark the spare slot
        content = marked[elements]
    else:
        content = end[elements] > elements
    # Close tags that share a last row go innermost first: the sort is
    # stable, and this (reversed) order is theirs.
    closing = elements[content][::-1]
    width = 2 * count + 2
    step = np.int64(5 * width)  # (anchor, phase, order) ↦ one int64
    opens = elements * step
    pieces = [heads[elements], _TAG_ENDS[content.view(np.int8)],
              second[ids[closing]], heads[texts]]
    keys = [opens, opens + 2 * width, end[closing] * step + 4 * width,
            texts * step + 3 * width]
    if len(attributes):
        # An attribute's name, value (its direct text children) and
        # closing quote anchor at its parent element, in row order.
        owner = np.zeros(count + 1, dtype=np.bool_)
        owner[attributes] = True
        values = (is_text & owner[parents]).nonzero()[0]
        owners = parents[values]
        anchors = parents[attributes]
        names, value_pieces = heads[attributes], second[ids[values]]
        top = d[attributes] == 0
        if top.any():
            # A depth-0 attribute anchors at itself, in the debug form
            # ``[@name="value"]`` with its value unescaped.
            raw = d[owners] == 0
            value_pieces[raw] = text(ids[values[raw]])
            owners = np.where(raw, owners, parents[owners])
            anchors = np.where(top, attributes, anchors)
            names = np.where(top, second[ids[attributes]], names)
        else:
            owners = parents[owners]
        within = 2 * np.concatenate((attributes, values, end[attributes]))
        within[len(attributes) + len(values):] += 1  # a quote follows
        pieces += [names, value_pieces, _VALUE_ENDS[top.view(np.int8)]]
        keys.append(np.concatenate((anchors, owners, anchors)) * step
                    + width + within)
    # Each group of keys ascends but the close tags' (nearly descends),
    # so the stable sort — a run-merging one — does little beyond merging.
    order = np.argsort(np.concatenate(keys), kind="stable")
    return "".join(np.concatenate(pieces)[order].tolist())


# -- pretty-printing ---------------------------------------------------------------

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
