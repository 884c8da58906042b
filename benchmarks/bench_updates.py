"""Benchmarks for gap-based updates (the paper's orthogonal concern).

Deletion and insertion into a slack-bearing encoding are local: two
binary searches on the ``l`` column find the rows, the delta carries
them, and one ``splice_columns`` (a ``concatenate`` per column) builds
the new state.  Only a slack-exhausted insertion pays a full relabel, a
rank of all 2n endpoints.  The benchmarks pin those cost classes apart.
"""

import pytest

from repro.encoding.updates import UpdatableDocument
from repro.xmark.generator import cached_document
from repro.xml.text_parser import parse_forest

NEW_CHILD = parse_forest("<inserted><text>payload</text></inserted>")


@pytest.fixture(scope="module")
def xmark_updatable():
    document = cached_document(0.002, seed=42)
    return UpdatableDocument.from_forest(document, stride=8)


def _people_left(document: UpdatableDocument) -> int:
    return next(row[1] for row in document.encoded.tuples
                if row[0] == "<people>")


def test_build_updatable(benchmark):
    document = cached_document(0.002, seed=42)
    result = benchmark(UpdatableDocument.from_forest, document, stride=8)
    assert result.node_count() == document.size


def test_insert_with_slack(benchmark, xmark_updatable):
    target = _people_left(xmark_updatable)
    result = benchmark(xmark_updatable.insert_child, target, 0, NEW_CHILD)
    assert result.last_stats.inserted_nodes == 3  # element + child + text


def test_insert_requiring_relabel(benchmark):
    tight = UpdatableDocument.from_forest(
        cached_document(0.002, seed=42), stride=1)
    target = _people_left(tight)
    result = benchmark(tight.insert_child, target, 0, NEW_CHILD)
    assert result.last_stats.relabeled is True


def test_delete_subtree(benchmark, xmark_updatable):
    target = _people_left(xmark_updatable)
    result = benchmark(xmark_updatable.delete_subtree, target)
    assert result.last_stats.deleted_nodes > 0


def test_relabel_whole_document(benchmark, xmark_updatable):
    result = benchmark(xmark_updatable.relabel, 32)
    assert result.node_count() == xmark_updatable.node_count()
