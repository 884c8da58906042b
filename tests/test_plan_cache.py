"""Tests for the plan cache (repro.compiler.cache)."""

from __future__ import annotations

from repro.compiler import cache as cache_module
from repro.compiler.cache import CacheKey, PlanCache
from repro.compiler.plan import VarNode
from repro.session import XQuerySession
from repro.xmark.queries import FIGURE1_SAMPLE

NAMES = 'document("a.xml")/site/people/person/name/text()'


def _key(text="q", strategy="msj"):
    return CacheKey(text, strategy)


PLAN = VarNode("a.xml")


class TestLookup:
    def test_miss_then_hit(self):
        cache = PlanCache()
        key = _key()
        assert cache.get(key) is None
        cache.put(key, PLAN)
        assert cache.get(key) is PLAN
        assert cache.snapshot() == {"entries": 1, "hits": 1, "misses": 1,
                                    "evictions": 0}

    def test_peek_touches_nothing(self):
        cache = PlanCache()
        key = _key()
        assert cache.peek(key) is None
        cache.put(key, PLAN)
        assert cache.peek(key) is not None
        snapshot = cache.snapshot()
        assert snapshot["hits"] == 0 and snapshot["misses"] == 0

    def test_lru_eviction(self, monkeypatch):
        monkeypatch.setattr(cache_module, "PLAN_CACHE_SIZE", 2)
        cache = PlanCache()
        first, second, third = (_key(text=s) for s in "abc")
        cache.put(first, PLAN)
        cache.put(second, PLAN)
        cache.get(first)              # first is now most recent
        cache.put(third, PLAN)        # evicts second
        assert cache.peek(second) is None
        assert cache.peek(first) is not None
        assert cache.evictions == 1


class TestInvalidation:
    def test_clear(self):
        cache = PlanCache()
        cache.put(_key(), PLAN)
        cache.clear()
        assert len(cache) == 0


class TestSessionInvalidation:
    """A plan depends on the text and the strategy alone: no write —
    incremental, rebased, or a whole replacement — ever replans."""

    def _session(self):
        session = XQuerySession()
        session.add_document("a.xml", FIGURE1_SAMPLE)
        return session

    def _delete_first_person(self, session, **options):
        updatable = session.updatable("a.xml")
        person = next(row for row in updatable.encoded.tuples
                      if row[0] == "<person>")
        session.apply_update("a.xml", updatable.delete_subtree(person[1]),
                             **options)

    def _assert_hit(self, session, plan, misses):
        engine = session.backend_instance("engine")
        snapshot = engine.plan_cache.snapshot()
        assert snapshot["misses"] == misses
        assert snapshot["entries"] == 1
        (key,) = engine.plan_cache.keys()
        assert engine.plan_cache.peek(key) is plan

    def _cached_plan(self, session):
        engine = session.backend_instance("engine")
        (key,) = engine.plan_cache.keys()
        return engine.plan_cache.peek(key), engine.plan_cache.misses

    def test_incremental_update_keeps_the_plan(self):
        with self._session() as session:
            assert session.run(NAMES).to_xml() == "Jaak TempestiCong Rosca"
            plan, misses = self._cached_plan(session)
            self._delete_first_person(session)
            self._delete_first_person(session)
            assert session.run(NAMES).to_xml() == ""
            self._assert_hit(session, plan, misses)
            assert session.recorder.records()[-1].plan_cache == "hit"

    def test_rebase_update_keeps_the_plan(self):
        with self._session() as session:
            session.run(NAMES)
            plan, misses = self._cached_plan(session)
            self._delete_first_person(session)
            assert session.run(NAMES).to_xml() == "Cong Rosca"
            self._assert_hit(session, plan, misses)
            self._delete_first_person(session, incremental=False)
            assert session.run(NAMES).to_xml() == ""
            self._assert_hit(session, plan, misses)

    def test_rerun_after_update_reflects_new_contents(self):
        with self._session() as session:
            session.run(NAMES)
            plan, misses = self._cached_plan(session)
            session.add_document(
                "a.xml",
                "<site><people><person><name>Zed</name></person>"
                "</people></site>")
            assert session.run(NAMES).to_xml() == "Zed"
            self._assert_hit(session, plan, misses)
