"""The document memo: path chains and join build sides once per snapshot.

A bound document snapshot keeps a :class:`~repro.engine.memo.DocumentMemo`
(:mod:`repro.engine.memo`).  What these tests hold:

* **warm ≡ cold ≡ interpreter** — the ten XMark texts and the ad-hoc
  shapes give the same bytes on a first run, a second run and the
  Figure 3 interpreter: after every step of a random edit script
  committed through ``session.apply_update``, after ``add_document``
  replaces the document, and on ``procpool``;
* **a hit behaves like a miss** — a tuple budget refuses a query warm
  exactly as cold, a hit opens its op span tagged ``memo="hit"``, and a
  run stopped by its deadline leaves no entry it did not finish;
* **one snapshot** — a commit, a replacement or an invalidation drops
  the memo with the binding;
* **the bound** — entries own at most the document's column bytes,
  least recently used go first;
* **shared relations are read-only** — a prepared document, a commit's
  snapshot and a memo entry refuse an in-place write.
"""

from __future__ import annotations

import gc
import random
import sys
import threading
from itertools import count
from statistics import median

import numpy as np
import pytest

from repro import XQuerySession
from repro.api import as_snapshot, compile_xquery
from repro.backends.base import ExecutionOptions
from repro.backends.registry import create_backend
from repro.compiler.plan import JoinStrategy
from repro.engine.columns import IntervalColumns
from repro.engine.evaluator import DIEngine
from repro.engine.memo import DocumentMemo
from repro.engine.stats import EngineStats
from repro.errors import QueryTimeoutError, ResourceBudgetError
from repro.obs.trace import Tracer
from repro.resilience.guard import QueryGuard, ResourceBudget
from repro.xmark.generator import cached_document, generate_xml
from repro.xmark.queries import (DOCUMENT, EXTRA_QUERIES, Q8, Q8_ORIGINAL,
                                 QUERIES)
from repro.xml.forest import element, text
from repro.xml.serializer import forest_to_xml
from repro.xquery.lowering import document_forest, document_variable

SCALE = 0.001
_DOC = f'document("{DOCUMENT}")'

#: The ten XMark texts, then the ad-hoc benchmark's four shapes with a
#: few of their constants each (different texts, shared path chains).
TEXTS = {**QUERIES, **EXTRA_QUERIES}
for _region, _step in (("europe", "description"), ("asia", "location")):
    TEXTS[f"adhoc-q13-{_region}"] = (
        f"for $i in {_DOC}/site/regions/{_region}/item\n"
        f'return <row name="{{$i/name/text()}}">{{$i/{_step}}}</row>')
for _person, _step in (("person0", "initial"), ("person3", "quantity")):
    TEXTS[f"adhoc-q1-{_person}"] = (
        f"for $b in {_DOC}/site/open_auctions/open_auction\n"
        f'where $b/seller/@person = "{_person}"\n'
        f"return <hit>{{$b/{_step}/text()}}</hit>")
for _role, _step in (("buyer", "emailaddress"), ("seller", "name")):
    TEXTS[f"adhoc-q8-{_role}"] = (
        f"for $p in {_DOC}/site/people/person\n"
        f"let $a := for $t in {_DOC}/site/closed_auctions/closed_auction\n"
        f"          where $t/{_role}/@person = $p/@id\n"
        "          return $t\n"
        "where not(empty($a))\n"
        f'return <out person="{{$p/{_step}/text()}}">{{count($a)}}</out>')
TEXTS["adhoc-q9-seller-asia"] = (
    f"for $p in {_DOC}/site/people/person\n"
    f"let $a := for $t in {_DOC}/site/closed_auctions/closed_auction\n"
    f"          let $n := for $t2 in {_DOC}/site/regions/asia/item\n"
    "                    where $t/itemref/@item = $t2/@id\n"
    "                    return $t2\n"
    "          where $p/@id = $t/seller/@person\n"
    "          return <item>{$n/name/text()}</item>\n"
    "where not(empty($a))\n"
    'return <res name="{$p/name/text()}">{$a}</res>')

VAR = document_variable(DOCUMENT)


@pytest.fixture(scope="module")
def xmark_xml() -> str:
    return generate_xml(SCALE)


def assert_warm_cold_interpreter(session: XQuerySession,
                                 backend: str = "engine") -> None:
    """Every text: first run ≡ second run ≡ the interpreter, as bytes."""
    for name, query in TEXTS.items():
        oracle = session.run(query, backend="interpreter").to_xml()
        first = session.run(query, backend=backend).to_xml()
        second = session.run(query, backend=backend).to_xml()
        assert first == oracle, (name, "first run")
        assert second == oracle, (name, "second run")


class TestWarmColdInterpreter:
    def test_after_every_step_of_an_edit_script(self, xmark_xml):
        rng = random.Random(7)
        with XQuerySession() as session:
            session.add_document(DOCUMENT, xmark_xml)
            assert_warm_cold_interpreter(session)
            for step in range(4):
                doc = session.updatable(DOCUMENT)
                rows = [row for row in doc.encoded.tuples
                        if row[0] in ("<person>", "<closed_auction>",
                                      "<item>")]
                if step % 2 == 0:
                    doc = doc.delete_subtree(rng.choice(rows)[1])
                else:
                    parents = [row for row in doc.encoded.tuples
                               if row[0] in ("<people>", "<europe>")]
                    parent = rng.choice(parents)
                    label = "person" if parent[0] == "<people>" else "item"
                    doc = doc.insert_child(parent[1], 0, [element(
                        label, [element("name", [text(f"new{step}")])])])
                memo = session.backend_instance("engine").memo(VAR)
                session.apply_update(DOCUMENT, doc)
                assert session.backend_instance("engine").memo(VAR) \
                    is not memo, "a commit must not keep the old memo"
                assert_warm_cold_interpreter(session)

    def test_after_add_document_replaces_the_document(self, xmark_xml):
        with XQuerySession() as session:
            session.add_document(DOCUMENT, xmark_xml)
            assert_warm_cold_interpreter(session)
            session.add_document(DOCUMENT, generate_xml(SCALE, seed=5))
            assert_warm_cold_interpreter(session)

    def test_on_procpool(self, xmark_xml):
        with XQuerySession() as session:
            session.add_document(DOCUMENT, xmark_xml)
            assert_warm_cold_interpreter(session, backend="procpool")


# -- a hit behaves like a miss ------------------------------------------------

def _backend_for(query: str, scale: float = SCALE):
    compiled = compile_xquery(query)
    document = cached_document(scale, seed=42)
    backend = create_backend("engine")
    backend.prepare({var: as_snapshot(document)
                     for var in compiled.documents.values()})
    return backend, compiled


def _outcome(backend, compiled, guard):
    try:
        return len(backend.execute(compiled, ExecutionOptions(guard=guard)))
    except ResourceBudgetError as error:
        return (error.resource, error.limit, error.used)


class TestHitBehavesLikeMiss:
    @pytest.mark.parametrize("name", ["Q8", "Q9", "Q13"])
    def test_tuple_budget_refuses_cold_and_warm_alike(self, name):
        refusals = 0
        for limit in (1, 10, 100, 1_000, 10_000, 100_000):
            cold, compiled = _backend_for(QUERIES[name])
            warm, _ = _backend_for(QUERIES[name])
            try:
                warm.execute(compiled)  # fills the memo
                assert len(warm.memo(VAR)) > 0
                outcomes = [
                    _outcome(backend, compiled, QueryGuard(
                        budget=ResourceBudget(max_tuples=limit)))
                    for backend in (cold, warm)]
            finally:
                cold.close()
                warm.close()
            assert outcomes[0] == outcomes[1], (limit, outcomes)
            refusals += isinstance(outcomes[0], tuple)
        assert 0 < refusals < 6

    def test_a_hit_opens_its_op_span_tagged(self):
        backend, compiled = _backend_for(Q8)
        try:
            cold, warm = Tracer(), Tracer()
            for tracer in (cold, warm):
                backend.instrument(tracer)
                with tracer.span("run"):
                    backend.execute(compiled)
            backend.instrument(None)
        finally:
            backend.close()

        def ops(tracer):
            return [span for span in tracer.roots[0].walk()
                    if span.name.startswith("op.")]

        def hits(tracer):
            return [span for span in ops(tracer)
                    if span.attributes.get("memo") == "hit"]

        # Cold, nothing is served, not even the /site step the For's and
        # the join's sources share: an entry is a whole chain.
        assert hits(cold) == []
        # Warm: the For's source chain, the join's source chain and its
        # inner key.
        assert len(hits(warm)) == 3, [span.name for span in hits(warm)]
        assert all("tuples" in span.attributes for span in hits(warm))
        assert len(ops(warm)) < len(ops(cold))

    def test_a_deadline_mid_chain_leaves_no_entry(self):
        backend, compiled = _backend_for(Q8)
        try:
            expected = forest_to_xml(backend.execute(compiled))
            stopped = 0
            for ticks in range(1, 400):
                backend.invalidate(VAR)
                backend.prepare({VAR: as_snapshot(
                    cached_document(SCALE, seed=42))})
                clock = count()
                guard = QueryGuard(deadline=ticks + 0.5,
                                   clock=lambda: next(clock),
                                   check_interval=1)
                try:
                    backend.execute(compiled, ExecutionOptions(guard=guard))
                except QueryTimeoutError:
                    stopped += 1
                else:
                    break
                if ticks <= 3:
                    # Stopped before the first path chain finished.
                    assert len(backend.memo(VAR)) == 0, ticks
                # Whatever was kept was finished: a warm run is exact.
                assert forest_to_xml(backend.execute(compiled)) == expected, \
                    ticks
            assert stopped > 3
        finally:
            backend.close()

    def test_validate_checks_a_hit(self, monkeypatch):
        backend, compiled = _backend_for(Q8)
        try:
            backend.execute(compiled)
            plan = backend.optimized_for(compiled, ExecutionOptions())
            values, memos = backend._values(compiled)
            checked = []
            original = DIEngine._check

            def counted(node, seq, result):
                checked.append(node)
                return original(node, seq, result)

            monkeypatch.setattr(DIEngine, "_check", staticmethod(counted))
            cold = DIEngine(validate=True).run_plan_values(plan, values)
            cold_checks = len(checked)
            checked.clear()
            warm = DIEngine(validate=True).run_plan_values(plan, values, memos)
            assert warm[0] == cold[0]
            assert 0 < len(checked) < cold_checks
        finally:
            backend.close()


# -- lifetime and sharing -----------------------------------------------------

class TestOneSnapshot:
    def test_memo_lives_and_dies_with_the_binding(self):
        backend, compiled = _backend_for(Q8)
        try:
            memo = backend.memo(VAR)
            assert memo is not None and len(memo) == 0
            backend.execute(compiled)
            assert len(memo) > 0
            backend.invalidate(VAR)
            assert backend.memo(VAR) is None
        finally:
            backend.close()
        assert backend.memo(VAR) is None

    def test_no_memo_means_no_entry(self):
        backend, compiled = _backend_for(Q8)
        try:
            plan = backend.optimized_for(compiled, ExecutionOptions())
            values, _memos = backend._values(compiled)
            DIEngine().run_plan_values(plan, values)
            backend.analyze(compiled, ExecutionOptions())  # EXPLAIN ANALYZE
            assert len(backend.memo(VAR)) == 0
        finally:
            backend.close()

    def test_texts_share_entries_by_structure(self):
        backend, compiled = _backend_for(Q8)
        try:
            backend.execute(compiled)
            memo = backend.memo(VAR)
            keys = set(memo._entries)
            builds = {key for key in keys if isinstance(key, tuple)}
            assert len(builds) == 1
            # Q8_ORIGINAL's join has Q8's source, variable and inner key:
            # it adds no build side and no path chain of its own.
            backend.execute(compile_xquery(Q8_ORIGINAL))
            assert set(memo._entries) == keys
        finally:
            backend.close()


class TestThreads:
    def test_racing_readers_keep_answers_and_the_books(self, xmark_xml):
        """Six threads on one session, a fast switch interval and more
        distinct path chains than the bound holds: every answer stays
        exact, and the memo's byte count is the sum of its entries'."""
        texts = [
            f"{_DOC}/site/regions/{region}/item/{step}"
            for region in ("africa", "asia", "australia", "europe",
                           "namerica", "samerica")
            for step in ("name", "description", "location", "quantity",
                         "payment", "shipping")]
        texts += list(TEXTS.values())
        with XQuerySession() as session:
            session.add_document(DOCUMENT, xmark_xml)
            expected = {text: session.run(text, backend="interpreter")
                        .to_xml() for text in texts}
            wrong, failed = [], []

            def reader(seed: int) -> None:
                order = random.Random(seed).sample(texts * 3, len(texts) * 3)
                try:
                    for text in order:
                        if session.run(text).to_xml() != expected[text]:
                            wrong.append(text)
                except Exception as error:  # noqa: BLE001 - reported below
                    failed.append(error)

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                threads = [threading.Thread(target=reader, args=(seed,))
                           for seed in range(6)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            assert not failed and not wrong, (failed, wrong[:3])
            memo = session.backend_instance("engine").memo(VAR)
            assert memo.evictions > 0
            assert memo.nbytes == sum(entry.nbytes
                                      for entry in memo._entries.values())
            assert memo.nbytes <= memo.bound


class TestWarmRun:
    @staticmethod
    def path_seconds_cold_then_warm() -> list[float]:
        """Seconds charged to paths by two MSJ runs of Q8 at sf 0.05 on
        one freshly prepared backend, collector off in each."""
        backend, compiled = _backend_for(Q8, scale=0.05)
        seconds = []
        try:
            for _ in range(2):
                stats = EngineStats()
                gc.collect()
                gc.disable()
                try:
                    backend.execute(compiled, ExecutionOptions(
                        strategy=JoinStrategy.MSJ, stats=stats))
                finally:
                    gc.enable()
                seconds.append(stats.seconds["paths"])
        finally:
            backend.close()
        return seconds

    def test_warm_run_charges_fewer_path_seconds(self):
        """On one backend the second run serves its document path chains
        from the memo, so it charges fewer seconds to paths than the
        first (median of three backends)."""
        pairs = [self.path_seconds_cold_then_warm() for _ in range(3)]
        cold, warm = (median(pair[run] for pair in pairs) for run in (0, 1))
        assert warm < cold, (cold, warm)


# -- the bound ----------------------------------------------------------------

def _document(rows: int) -> IntervalColumns:
    return IntervalColumns.from_tuples(
        [("<a>", 0, 2 * rows - 1)]
        + [("<b>", 2 * k + 1, 2 * k + 2) for k in range(rows - 1)])


def _entry(rows: int) -> tuple[IntervalColumns, int]:
    return _document(rows), 1


class TestBound:
    def test_bound_is_the_documents_column_bytes(self):
        document = _document(100)
        memo = DocumentMemo(document, 200)
        assert memo.bound == 100 * (8 + 8 + 4 + 4)

    def test_least_recently_used_go_first(self):
        memo = DocumentMemo(_document(100), 200)
        for key in "abc":
            memo.put(key, _entry(40), ())
        assert len(memo) == 2 and memo.evictions == 1
        assert memo.get("a") is None
        memo.get("b")                 # c is now the least recently used
        memo.put("d", _entry(40), ())
        assert memo.get("c") is None and memo.get("b") is not None
        assert memo.nbytes <= memo.bound
        assert memo.evictions == 2

    def test_an_entry_larger_than_the_bound_is_not_kept(self):
        memo = DocumentMemo(_document(10), 20)
        memo.put("big", _entry(11), ())
        assert len(memo) == 0 and memo.nbytes == 0

    def test_views_of_the_document_cost_nothing(self):
        document = _document(10)
        memo = DocumentMemo(document, 20)
        memo.put("view", (document[0:5], 20), ())
        assert len(memo) == 1 and memo.nbytes == 0

    def test_a_key_already_present_keeps_its_entry(self):
        memo = DocumentMemo(_document(100), 200)
        first = _entry(10)
        memo.put("k", first, ())
        memo.put("k", _entry(10), ())
        assert memo.get("k").value is first


# -- shared relations are read-only -------------------------------------------

def _refuses_writes(columns: IntervalColumns) -> None:
    for name in ("l", "r", "d", "c"):
        with pytest.raises(ValueError):
            getattr(columns, name)[0] = 0


class TestReadOnly:
    def test_prepared_document(self):
        backend, _compiled = _backend_for(Q8)
        try:
            _refuses_writes(backend._encoded[VAR][0])
        finally:
            backend.close()
        _refuses_writes(DIEngine.prepare_document(
            document_forest(cached_document(SCALE, seed=42)))[0])

    def test_commit_snapshot(self, xmark_xml):
        with XQuerySession() as session:
            session.add_document(DOCUMENT, xmark_xml)
            session.run(Q8, backend="engine")
            doc = session.updatable(DOCUMENT)
            victim = next(row for row in doc.encoded.tuples
                          if row[0] == "<person>")
            session.apply_update(DOCUMENT, doc.delete_subtree(victim[1]))
            snapshot = session.backend_instance("engine")._encoded[VAR][0]
            _refuses_writes(snapshot)

    def test_memo_entries(self):
        backend, compiled = _backend_for(Q8)
        try:
            backend.execute(compiled)
            entries = list(backend.memo(VAR)._entries.values())
            assert entries
            for entry in entries:
                relations = [item for item in _flatten(entry.value)
                             if isinstance(item, IntervalColumns)]
                arrays = [item for item in _flatten(entry.value)
                          if isinstance(item, np.ndarray)]
                for relation in relations:
                    if len(relation):
                        _refuses_writes(relation)
                for array in arrays:
                    with pytest.raises(ValueError):
                        array[:1] = 0
        finally:
            backend.close()


def _flatten(value):
    if isinstance(value, tuple):
        for item in value:
            yield from _flatten(item)
    else:
        yield value
