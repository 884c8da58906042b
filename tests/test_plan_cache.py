"""Tests for the stats-keyed plan cache (repro.compiler.cache)."""

from __future__ import annotations

from repro.compiler.cache import CacheEntry, CacheKey, PlanCache
from repro.compiler.plan import VarNode
from repro.compiler.planner import OptimizedPlan
from repro.session import XQuerySession
from repro.xmark.queries import FIGURE1_SAMPLE

NAMES = 'document("a.xml")/site/people/person/name/text()'


def _key(shape="q", strategy="msj", optimize=True, digest="d0"):
    return CacheKey(shape, strategy, True, optimize, digest)


def _entry(doc_vars=("a.xml",), estimates=None, observed_based=()):
    return CacheEntry(OptimizedPlan(plan=VarNode("a.xml")),
                      frozenset(doc_vars),
                      dict(estimates or {}),
                      frozenset(observed_based))


class TestLookup:
    def test_miss_then_hit(self):
        cache = PlanCache()
        key = _key()
        assert cache.get(key) is None
        cache.put(key, _entry())
        assert cache.get(key) is not None
        assert cache.snapshot() == {"entries": 1, "hits": 1, "misses": 1,
                                    "invalidations": 0, "evictions": 0,
                                    "migrations": 0}

    def test_peek_touches_nothing(self):
        cache = PlanCache()
        key = _key()
        assert cache.peek(key) is None
        cache.put(key, _entry())
        assert cache.peek(key) is not None
        snapshot = cache.snapshot()
        assert snapshot["hits"] == 0 and snapshot["misses"] == 0

    def test_distinct_digests_are_distinct_plans(self):
        cache = PlanCache()
        cache.put(_key(digest="d0"), _entry())
        assert cache.get(_key(digest="d1")) is None

    def test_lru_eviction(self):
        cache = PlanCache(maxsize=2)
        first, second, third = (_key(shape=s) for s in "abc")
        cache.put(first, _entry())
        cache.put(second, _entry())
        cache.get(first)              # first is now most recent
        cache.put(third, _entry())    # evicts second
        assert cache.peek(second) is None
        assert cache.peek(first) is not None
        assert cache.evictions == 1


class TestInvalidation:
    def test_invalidate_document_drops_readers(self):
        cache = PlanCache()
        cache.put(_key(shape="a"), _entry(doc_vars=("x.xml",)))
        cache.put(_key(shape="b"), _entry(doc_vars=("y.xml",)))
        assert cache.invalidate_document("x.xml") == 1
        assert len(cache) == 1
        assert cache.invalidations == 1

    def test_clear(self):
        cache = PlanCache()
        key = _key()
        cache.put(key, _entry())
        cache.record_observation(key, {0: 5})
        cache.clear()
        assert len(cache) == 0
        assert cache.observations(key) == {}


class TestObservations:
    def test_keyed_by_shape_survives_digest_change(self):
        cache = PlanCache()
        cache.record_observation(_key(digest="d0"), {3: 42})
        assert cache.observations(_key(digest="d1")) == {3: 42}

    def test_distinct_per_strategy(self):
        cache = PlanCache()
        cache.record_observation(_key(strategy="msj"), {0: 1})
        assert cache.observations(_key(strategy="nlj")) == {}

    def test_small_deviation_keeps_entry(self):
        cache = PlanCache()
        key = _key()
        cache.put(key, _entry(estimates={7: 100.0}))
        assert cache.record_observation(key, {7: 150}) is False
        assert cache.peek(key) is not None

    def test_large_deviation_drops_entry(self):
        cache = PlanCache()
        key = _key()
        cache.put(key, _entry(estimates={7: 10.0}))
        assert cache.record_observation(key, {7: 10_000}) is True
        assert cache.peek(key) is None
        # ...but the observation itself is retained for the replan.
        assert cache.observations(key) == {7: 10_000}

    def test_feedback_store_is_bounded_like_the_plans(self):
        cache = PlanCache(maxsize=4)
        hot = _key(shape="hot")
        cache.put(hot, _entry())
        cache.record_observation(hot, {1: 11})
        for i in range(10):  # more traced shapes than the bound
            cache.record_observation(_key(shape=f"s{i}"), {0: i})
            cache.record_observation(hot, {2: i})  # hot keeps being traced
            assert len(cache._observed) <= 4
        assert len(cache._observed) == 4
        assert cache.peek(hot) is not None
        assert cache.observations(hot) == {1: 11, 2: 9}
        assert cache.observations(_key(shape="s0")) == {}
        assert cache.observations(_key(shape="s9")) == {0: 9}

    def test_observed_based_estimates_not_second_guessed(self):
        cache = PlanCache()
        key = _key()
        cache.put(key, _entry(estimates={7: 10.0}, observed_based=(7,)))
        assert cache.record_observation(key, {7: 10_000}) is False
        assert cache.peek(key) is not None


class TestSessionInvalidation:
    """apply_update must never serve a plan built for the old contents."""

    def _session(self):
        session = XQuerySession()
        session.add_document("a.xml", FIGURE1_SAMPLE)
        return session

    def test_update_moves_digest_and_invalidates(self):
        with self._session() as session:
            baseline = session.run(NAMES).to_xml()
            assert baseline == "Jaak TempestiCong Rosca"
            engine = session.backend_instance("engine")
            old_keys = set(engine.plan_cache.keys())
            assert len(old_keys) == 1

            updatable = session.updatable("a.xml")
            person = next(row for row in updatable.encoded.tuples
                          if row[0] == "<person>")
            session.apply_update("a.xml",
                                 updatable.delete_subtree(person[1]))

            assert len(session.run(NAMES)) == 1
            new_keys = set(engine.plan_cache.keys())
            # The stats digest moved, so the stale key cannot collide.
            assert old_keys.isdisjoint(new_keys)
            # A small update migrates the cached plan to the new digest
            # instead of dropping it (the stats stayed within the
            # deviation factor), so the re-run was a cache hit.
            assert engine.plan_cache.migrations >= 1
            assert engine.plan_cache.hits >= 1

    def test_full_reencode_update_invalidates(self):
        with self._session() as session:
            session.run(NAMES)
            engine = session.backend_instance("engine")
            updatable = session.updatable("a.xml")
            person = next(row for row in updatable.encoded.tuples
                          if row[0] == "<person>")
            session.apply_update("a.xml",
                                 updatable.delete_subtree(person[1]),
                                 incremental=False)
            assert len(session.run(NAMES)) == 1
            assert engine.plan_cache.invalidations >= 1

    def test_rerun_after_update_reflects_new_contents(self):
        with self._session() as session:
            session.run(NAMES)
            session.add_document(
                "a.xml",
                "<site><people><person><name>Zed</name></person>"
                "</people></site>")
            assert session.run(NAMES).to_xml() == "Zed"
