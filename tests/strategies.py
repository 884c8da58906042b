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


# -- join-shaped (document, query) cases ------------------------------------------

#: The document every join case binds.
JOIN_DOCUMENT = "j.xml"

#: Key values: three letters, so that equal keys are common.  (Here and
#: below the usual choice comes first in a ``sampled_from``: Hypothesis
#: starts from, and shrinks toward, the front, and a case where nothing
#: matches tests little.)
_KEY_VALUES = st.sampled_from(("a", "b", "c"))


@st.composite
def _key_trees(draw, max_depth: int = 3):
    """The content of a key: a text value, or a tree of them at most
    ``max_depth`` levels deep."""
    if max_depth <= 1 or draw(st.sampled_from((True, False))):
        return Node(draw(_KEY_VALUES))
    children = [draw(_key_trees(max_depth=max_depth - 1))
                for _ in range(draw(st.sampled_from((1, 2))))]
    # Adjacent text children would merge on a reparse; keep the first.
    kept = [child for at, child in enumerate(children)
            if not (at and child.is_text() and children[at - 1].is_text())]
    return Node("<t>", kept)


@st.composite
def _records(draw, tag: str, number: int, keys: list):
    """One record: an ``@id``, maybe an ``@k``, and 0–3 ``<k>`` keys out
    of the document's pool ``keys`` — flat text or tree-valued, possibly
    repeated; a record may have none."""
    children = [Node("@id", (Node(f"{tag}{number}"),))]
    if draw(st.sampled_from((True, False))):
        children.append(Node("@k", (Node(draw(_KEY_VALUES)),)))
    children += [Node("<k>", (draw(st.sampled_from(keys)),))
                 for _ in range(draw(st.sampled_from((1, 2, 0, 3))))]
    return Node(f"<{tag}>", children)


#: The join family over two record collections (``%(A)s``, ``%(B)s``);
#: ``%(K)s`` is the key step both sides are compared on.
JOIN_SOURCES = {"A": f'document("{JOIN_DOCUMENT}")/r/as/a',
            "B": f'document("{JOIN_DOCUMENT}")/r/bs/b'}
_PAIR = '<p a="{$a/@id/text()}" b="{$b/@id/text()}"/>'
JOIN_FAMILY = {
    # Q8: a let-grouped join under a count ...
    "grouped": 'for $a in %(A)s let $m := for $b in %(B)s '
               'where $b/%(K)s = $a/%(K)s return $b '
               'return <o a="{$a/@id/text()}">{count($m)}</o>',
    # ... and as the paper times it, the inner-join form.
    "nonempty": 'for $a in %(A)s let $m := for $b in %(B)s '
                'where $b/%(K)s = $a/%(K)s return $b '
                'where not(empty($m)) '
                'return <o a="{$a/@id/text()}">{count($m)}</o>',
    "flat": 'for $a in %(A)s for $b in %(B)s where $a/%(K)s = $b/%(K)s '
            'return ' + _PAIR,
    # Q9: three levels, the innermost join inside the middle one's body.
    "three_level": 'for $a in %(A)s let $m := for $b in %(B)s '
                   'let $n := for $c in %(A)s where $b/@k = $c/@k return $c '
                   'where $a/%(K)s = $b/%(K)s '
                   'return <i>{$n/@id/text()}</i> '
                   'where not(empty($m)) '
                   'return <o a="{$a/@id/text()}">{$m}</o>',
    "deep_equal": 'for $a in %(A)s for $b in %(B)s '
                  'where deep-equal($a/%(K)s, $b/%(K)s) return ' + _PAIR,
    "constant": 'for $a in %(A)s where $a/%(K)s = "a" '
                'return <o a="{$a/@id/text()}"/>',
    "negated": 'for $a in %(A)s for $b in %(B)s '
               'where not($a/%(K)s = $b/%(K)s) return ' + _PAIR,
    "reflexive": 'for $a in %(A)s where $a/%(K)s = $a/%(K)s '
                 'return <o a="{$a/@id/text()}"/>',
    "distinct": 'for $a in %(A)s return <d>{distinct($a/%(K)s)}</d>',
    # Counted joins (join + group): a body of zero or many trees per
    # pair, so the count is not the number of pairs ...
    "counted_body": 'for $a in %(A)s let $m := for $b in %(B)s '
                    'where $b/%(K)s = $a/%(K)s return $b/%(K)s '
                    'return <o a="{$a/@id/text()}">{count($m)}</o>',
    # ... a residual second conjunct, counted after it filters ...
    "counted_residual": 'for $a in %(A)s let $m := for $b in %(B)s '
                        'where $b/%(K)s = $a/%(K)s '
                        'and not($b/@k = $a/@k) return $b '
                        'where not(empty($m)) '
                        'return <o a="{$a/@id/text()}">{count($m)}</o>',
    # ... count over the join written inline ...
    "counted_inline": 'for $a in %(A)s return <o a="{$a/@id/text()}">'
                      '{count(for $b in %(B)s where $b/%(K)s = $a/%(K)s '
                      'return $b)}</o>',
    # ... a quantifier, which lowers to not(empty(join)) ...
    "quantified": 'for $a in %(A)s '
                  'where some $b in %(B)s satisfies $b/%(K)s = $a/%(K)s '
                  'return <o a="{$a/@id/text()}"/>',
    # ... and the control: $m read as a forest too, so nothing is counted.
    "counted_and_read": 'for $a in %(A)s let $m := for $b in %(B)s '
                        'where $b/%(K)s = $a/%(K)s return $b '
                        'return <o a="{$a/@id/text()}" n="{count($m)}">'
                        '{$m/@id/text()}</o>',
}


#: The order-by family over the same documents: repeated, missing and
#: tree-valued keys make equal keys — broken by the bound values, then
#: by document order — and empty keys common.
_ROW = '<o a="{$a/@id/text()}"/>'
ORDER_FAMILY = {
    "plain": 'for $a in %(A)s order by $a/%(K)s return ' + _ROW,
    "descending": 'for $a in %(A)s order by $a/%(K)s descending '
                  'return ' + _ROW,
    "where": 'for $a in %(A)s where not($a/@k = "b") '
             'order by $a/%(K)s return ' + _ROW,
    # A let-bound key, itself a tie after the loop variable.
    "let_key": 'for $a in %(A)s let $v := $a/%(K)s order by $v '
               'return <o a="{$a/@id/text()}">{$v}</o>',
    # A key and a tie over a let-bound join: the ranking reads $m as a
    # forest, so the count rule must leave the join uncounted.
    "count_key": 'for $a in %(A)s let $m := for $b in %(B)s '
                 'where $b/%(K)s = $a/%(K)s return $b '
                 'order by count($m) return <o a="{$a/@id/text()}">'
                 '{count($m)}</o>',
    "attribute_key": 'for $a in %(A)s order by $a/@k descending '
                     'return ' + _ROW,
    # Each outer environment ranks its own iterations.
    "nested": 'for $a in %(A)s return <g a="{$a/@id/text()}">'
              '{for $k in $a/k order by $k descending return $k}</g>',
    # Controls the order rule must not fire on: two for clauses ...
    "two_fors": 'for $a in %(A)s for $b in %(B)s order by $b/%(K)s '
                'return <p a="{$a/@id/text()}" b="{$b/@id/text()}"/>',
    # ... and a correlated stream, which decorrelates to a join.
    "join_stream": 'for $a in %(A)s return <g a="{$a/@id/text()}">'
                   '{for $b in %(B)s where $b/%(K)s = $a/%(K)s '
                   'order by $b/@k return $b/@id/text()}</g>',
}


@st.composite
def join_cases(draw, shape: str, family: dict[str, str] = JOIN_FAMILY):
    """``(query text, document forest)`` — the ``shape`` query of
    ``family`` (:data:`JOIN_FAMILY`, or :data:`ORDER_FAMILY`), on a
    drawn key step, over a two-collection document whose records carry
    the keys it compares."""
    # One pool of keys for both collections, so that equal keys — flat
    # and structured — are common, across records and inside one.
    keys = [draw(_key_trees()) for _ in range(draw(st.sampled_from((2, 1, 3))))]
    sides = [[draw(_records(tag, number, keys))
              for number in range(draw(st.sampled_from((2, 1, 3, 0, 4))))]
             for tag in ("a", "b")]
    document = Node("<r>", (Node("<as>", sides[0]), Node("<bs>", sides[1])))
    step = draw(st.sampled_from(("k", "@k", "k/text()", "k/t")))
    return family[shape] % {**JOIN_SOURCES, "K": step}, (document,)


@st.composite
def order_cases(draw, shape: str):
    """:func:`join_cases` for the :data:`ORDER_FAMILY` ``shape``, each
    collection's records in descending ``@id`` order: the bound values
    compare by ``@id`` first, so equal keys fall to them against
    document order."""
    query, (document,) = draw(join_cases(shape, ORDER_FAMILY))
    return query, (Node(document.label, [
        Node(side.label, reversed(side.children))
        for side in document.children]),)
