"""XML substrate: the ordered-forest data model of Definition 2.1.

This subpackage provides the in-memory ``XF`` model (ordered forests of
rooted, node-labeled, ordered trees), the XML text reader (straight into
a document's interval columns, or into trees) and serialization back to
text, and the operator algebra of Figure 2 of the paper.

Label conventions (Section 2 of the paper):

* an element tag ``tag`` is stored as the label ``"<tag>"``;
* an attribute ``name`` is stored as the label ``"@name"``;
* text content (including attribute values) is stored as the raw string.
"""

from repro.xml.forest import (
    ELEMENT_PREFIX,
    Node,
    attribute,
    compare_forests,
    compare_trees,
    element,
    forest,
    is_attribute_label,
    is_element_label,
    is_text_label,
    text,
)
from repro.xml.operations import (
    children,
    concat,
    distinct,
    empty,
    equal,
    head,
    less,
    reverse,
    roots,
    select,
    sort,
    subtrees_dfs,
    tail,
    textnodes,
    tree_count,
    xnode,
)
from repro.xml.serializer import forest_to_xml
from repro.xml.text_parser import parse_document, parse_forest, read_document

__all__ = [
    "ELEMENT_PREFIX",
    "Node",
    "attribute",
    "children",
    "compare_forests",
    "compare_trees",
    "concat",
    "distinct",
    "element",
    "empty",
    "equal",
    "forest",
    "forest_to_xml",
    "head",
    "is_attribute_label",
    "is_element_label",
    "is_text_label",
    "less",
    "parse_document",
    "parse_forest",
    "read_document",
    "reverse",
    "roots",
    "select",
    "sort",
    "subtrees_dfs",
    "tail",
    "text",
    "textnodes",
    "tree_count",
    "xnode",
]
