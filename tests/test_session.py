"""Tests for the stateful XQuerySession API."""

import pytest

from repro.errors import ReproError
from repro.session import XQuerySession
from repro.xmark.queries import EXTRA_QUERIES, FIGURE1_SAMPLE, QUERIES

NAMES = 'document("a.xml")/site/people/person/name/text()'
XMARK_TEXTS = {**QUERIES, **EXTRA_QUERIES}


@pytest.fixture(scope="module")
def xmark_text():
    from repro.xmark.generator import generate_document
    from repro.xml.serializer import forest_to_xml

    return forest_to_xml(generate_document(0.001, seed=42))


@pytest.fixture
def session():
    with XQuerySession() as active:
        active.add_document("a.xml", FIGURE1_SAMPLE)
        yield active


class TestDocuments:
    def test_add_text(self, session):
        assert session.documents == ["a.xml"]

    def test_add_node(self):
        from repro.xml.text_parser import parse_document
        with XQuerySession() as active:
            active.add_document("a.xml", parse_document(FIGURE1_SAMPLE))
            assert active.run(NAMES).to_xml() == "Jaak TempestiCong Rosca"

    def test_add_file(self, tmp_path):
        path = tmp_path / "a.xml"
        path.write_text(FIGURE1_SAMPLE)
        with XQuerySession() as active:
            active.add_document_file("a.xml", path)
            assert len(active.run(NAMES)) == 2

    def test_add_xmark(self):
        with XQuerySession() as active:
            active.add_xmark_document("auction.xml", 0.0005)
            result = active.run('count(document("auction.xml")'
                                '/site/people/person)')
            assert int(result.forest[0].label) > 0

    def test_bad_source_type(self, session):
        with pytest.raises(ReproError):
            session.add_document("x", 12)

    def test_missing_document(self):
        with XQuerySession() as active:
            with pytest.raises(ReproError, match="a.xml"):
                active.run(NAMES)

    def test_replace_document(self, session):
        session.add_document("a.xml", "<site><people><person>"
                                      "<name>Zed</name></person>"
                                      "</people></site>")
        assert session.run(NAMES).to_xml() == "Zed"


class TestQuerying:
    def test_default_backend(self, session):
        assert session.run(NAMES).to_xml() == "Jaak TempestiCong Rosca"

    @pytest.mark.parametrize("backend", ["interpreter", "sqlite"])
    def test_other_backends(self, session, backend):
        assert session.run(NAMES, backend=backend).to_xml() == \
            "Jaak TempestiCong Rosca"

    def test_strategy_override(self, session):
        assert (session.run(NAMES, strategy="nlj").forest
                == session.run(NAMES, strategy="msj").forest)

    def test_prepared_query_cached(self, session):
        first = session.prepare(NAMES)
        second = session.prepare(NAMES)
        assert first is second

    def test_compiled_cache_is_bounded(self, session):
        """Distinct ad-hoc texts do not accumulate: the cache holds the
        most recent ``COMPILED_CACHE_SIZE`` and an evicted text just
        compiles again."""
        from repro.compiler.cache import COMPILED_CACHE_SIZE

        texts = [NAMES + " " * extra
                 for extra in range(COMPILED_CACHE_SIZE + 20)]
        oldest = session.prepare(texts[0])
        for text in texts:
            session.prepare(text)
        assert len(session._compiled) == COMPILED_CACHE_SIZE
        assert session.prepare(texts[-1]) is session.prepare(texts[-1])
        assert session.prepare(texts[0]) is not oldest  # evicted, recompiled
        assert session.run(texts[0]).to_xml() == "Jaak TempestiCong Rosca"
        assert len(session._compiled) == COMPILED_CACHE_SIZE

    def test_concurrent_prepare_agrees_on_one_compiled_query(self, session):
        import threading

        barrier = threading.Barrier(8)
        seen = []

        def compile_once():
            barrier.wait()
            seen.append(session.prepare(NAMES))

        threads = [threading.Thread(target=compile_once) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len({id(compiled) for compiled in seen}) == 1

    def test_plan_cached_per_strategy(self, session):
        session.run(NAMES, strategy="msj")
        session.run(NAMES, strategy="nlj")
        engine = session.backend_instance("engine")
        assert len(engine.plan_cache) == 2
        strategies = {key.strategy for key in engine.plan_cache.keys()}
        assert strategies == {"msj", "nlj"}

    def test_backend_instance_reused(self, session):
        session.run(NAMES)
        assert session.active_backends == ["engine"]
        assert (session.backend_instance("engine")
                is session.backend_instance("engine"))

    def test_sqlite_tables_reused(self, session):
        session.run(NAMES, backend="sqlite")
        database = session.backend_instance("sqlite").database
        session.run(NAMES, backend="sqlite")
        assert session.backend_instance("sqlite").database is database
        assert len(database.documents) == 1

    def test_explain(self, session):
        assert "Fn:select" in session.explain(NAMES)

    @pytest.mark.parametrize("strategy", ["msj", "nlj"])
    @pytest.mark.parametrize("name", sorted(XMARK_TEXTS))
    def test_explain_shows_the_plan_run_executes(self, name, strategy,
                                                 xmark_text):
        from repro.backends.base import ExecutionOptions, coerce_strategy
        from repro.compiler.planner import explain_plan

        query = XMARK_TEXTS[name]
        with XQuerySession() as active:
            active.add_document("auction.xml", xmark_text)
            active.run(query, strategy=strategy)
            engine = active.backend_instance("engine")
            executed = engine.optimized_for(
                active.prepare(query),
                ExecutionOptions(strategy=coerce_strategy(strategy)))
            assert active.explain(query, strategy=strategy) \
                == explain_plan(executed)

    def test_explain_analyze_leaves_the_plan_cache_alone(self):
        from repro.xmark.queries import Q8

        with XQuerySession() as active:
            active.add_document("auction.xml", FIGURE1_SAMPLE)
            active.run(Q8)
            cache = active.backend_instance("engine").plan_cache
            (key,) = cache.keys()
            plan = cache.peek(key)
            before = cache.snapshot()
            for _ in range(2):
                analyzed = active.explain(Q8, analyze=True)
                assert "isolated body" in analyzed
                assert "obs 2 tuples" in analyzed
            assert cache.keys() == [key]
            assert cache.peek(key) is plan
            assert cache.snapshot() == before

    def test_stats(self, session):
        from repro.engine.stats import EngineStats
        stats = EngineStats()
        session.run(NAMES, stats=stats)
        assert stats.total_seconds > 0

    def test_unknown_backend(self, session):
        with pytest.raises(ReproError):
            session.run(NAMES, backend="dbase3")


class TestUpdates:
    def test_update_cycle(self, session):
        updatable = session.updatable("a.xml")
        people = next(row for row in updatable.encoded.tuples
                      if row[0] == "<people>")
        new_person = (
            "<person id='person2'><name>Alan Turing</name></person>"
        )
        from repro.xml.text_parser import parse_forest
        updated = updatable.insert_child(people[1], 99,
                                         parse_forest(new_person))
        session.apply_update("a.xml", updated)
        assert session.run(NAMES).to_xml() == \
            "Jaak TempestiCong RoscaAlan Turing"

    def test_update_invalidates_sqlite(self, session):
        assert len(session.run(NAMES, backend="sqlite")) == 2
        updatable = session.updatable("a.xml")
        person = next(row for row in updatable.encoded.tuples
                      if row[0] == "<person>")
        session.apply_update("a.xml", updatable.delete_subtree(person[1]))
        assert len(session.run(NAMES, backend="sqlite")) == 1

    def test_updatable_cached(self, session):
        assert session.updatable("a.xml") is session.updatable("a.xml")

    def test_replacing_document_resets_updatable(self, session):
        session.updatable("a.xml")
        session.add_document("a.xml", "<site/>")
        fresh = session.updatable("a.xml")
        assert fresh.to_forest()[0].label == "<site>"
