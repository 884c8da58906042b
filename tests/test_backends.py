"""The backend registry and the cross-backend conformance matrix.

Every registered backend must produce forests identical to the
``interpreter`` oracle (the Figure 3 reference semantics) on a small
suite of FLWR queries, including a nested-for join and an
update-then-query cycle through :class:`XQuerySession`.
"""

import pytest

from repro import XQuerySession, compile_xquery, run_xquery
from repro.backends import (
    Backend,
    BackendCapabilities,
    backend_capabilities,
    create_backend,
    register_backend,
    registered_backends,
    unregister_backend,
)
from repro.errors import ReproError, UnknownBackendError
from repro.xml.text_parser import parse_forest, read_document
from repro.xmark.queries import FIGURE1_SAMPLE, Q8

ORACLE = "interpreter"

#: Snapshot of the built-in registrations (tests registering toy backends
#: clean up after themselves, but the matrix should not depend on order).
BUILTIN_BACKENDS = ("engine", "interpreter", "naive", "sqlite")

NAMES = 'document("a.xml")/site/people/person/name/text()'

CONFORMANCE_QUERIES = {
    "names": NAMES,
    "filter": ('for $p in document("a.xml")/site/people/person '
               'where $p/@id = "person0" return $p/name'),
    "nested-for": (
        'for $p in document("a.xml")/site/people/person '
        'for $n in $p/name return <who>{$n/text()}</who>'
    ),
    "join-q8": Q8.replace('document("auction.xml")', 'document("a.xml")'),
    "count": 'count(document("a.xml")/site/people/person)',
}


def _oracle(query: str) -> str:
    return run_xquery(query, {"a.xml": FIGURE1_SAMPLE},
                      backend=ORACLE).to_xml()


class TestBuiltinRegistrations:
    def test_builtins_registered(self):
        assert set(BUILTIN_BACKENDS) <= set(registered_backends())

    def test_capabilities_declared(self):
        for name in BUILTIN_BACKENDS:
            capabilities = backend_capabilities(name)
            assert isinstance(capabilities, BackendCapabilities)
            assert capabilities.description

    def test_sqlite_declares_width_cap(self):
        from repro.sql.sqlite_backend import SQLITE_MAX_WIDTH
        assert backend_capabilities("sqlite").max_width == SQLITE_MAX_WIDTH
        assert backend_capabilities("engine").max_width is None


class TestConformanceMatrix:
    @pytest.mark.parametrize("backend", BUILTIN_BACKENDS)
    @pytest.mark.parametrize("query", sorted(CONFORMANCE_QUERIES))
    def test_matches_oracle(self, backend, query):
        text = CONFORMANCE_QUERIES[query]
        result = run_xquery(text, {"a.xml": FIGURE1_SAMPLE}, backend=backend)
        assert result.to_xml() == _oracle(text)

    @pytest.mark.parametrize("backend", BUILTIN_BACKENDS)
    def test_update_then_query_via_session(self, backend):
        def run_after_update(target: str) -> str:
            with XQuerySession(backend=target) as session:
                session.add_document("a.xml", FIGURE1_SAMPLE)
                before = session.run(NAMES)
                assert len(before) == 2
                updatable = session.updatable("a.xml")
                people = next(row for row in updatable.encoded.tuples
                              if row[0] == "<people>")
                addition = parse_forest(
                    "<person id='person9'><name>Ada</name></person>")
                session.apply_update(
                    "a.xml", updatable.insert_child(people[1], 99, addition))
                return session.run(NAMES).to_xml()

        assert run_after_update(backend) == run_after_update(ORACLE)

    @pytest.mark.parametrize("backend", BUILTIN_BACKENDS)
    def test_engine_strategies_agree_with_oracle(self, backend):
        # strategy is a no-op knob for non-engine backends; both values
        # must be accepted and change nothing semantically.
        for strategy in ("msj", "nlj"):
            result = run_xquery(NAMES, {"a.xml": FIGURE1_SAMPLE},
                                backend=backend, strategy=strategy)
            assert result.to_xml() == _oracle(NAMES)


class ToyBackend(Backend):
    """A third-party backend: delegates to the reference interpreter."""

    name = "toy"
    capabilities = BackendCapabilities(description="toy oracle clone")

    def _runner(self, compiled, options):
        from repro.encoding.interval import decode
        from repro.xquery.interpreter import Interpreter

        # A backend is handed each document's snapshot; this one walks
        # trees, so it decodes them.
        bindings = {var: decode(columns).trees()
                    for var, (columns, _width)
                    in self._bindings(compiled).items()}
        return lambda: Interpreter().evaluate(compiled.core, bindings)


class TestThirdPartyRegistration:
    def test_register_backend_alone_suffices(self):
        register_backend(ToyBackend)
        try:
            assert "toy" in registered_backends()
            # one-shot API
            result = run_xquery(NAMES, {"a.xml": FIGURE1_SAMPLE},
                                backend="toy")
            assert result.to_xml() == _oracle(NAMES)
            # session API
            with XQuerySession(backend="toy") as session:
                session.add_document("a.xml", FIGURE1_SAMPLE)
                assert session.run(NAMES).to_xml() == _oracle(NAMES)
                assert session.active_backends == ["toy"]
        finally:
            unregister_backend("toy")
        assert "toy" not in registered_backends()

    def test_duplicate_registration_rejected(self):
        register_backend(ToyBackend)
        try:
            with pytest.raises(ReproError, match="already registered"):
                register_backend(ToyBackend)
            register_backend(ToyBackend, replace=True)  # explicit override ok
        finally:
            unregister_backend("toy")

    def test_nameless_factory_rejected(self):
        with pytest.raises(ReproError, match="without a name"):
            register_backend(lambda: ToyBackend())


class TestUnknownBackendError:
    def test_lists_registered_names(self):
        with pytest.raises(UnknownBackendError) as excinfo:
            create_backend("oracle9i")
        message = str(excinfo.value)
        for name in BUILTIN_BACKENDS:
            assert repr(name) in message

    def test_api_and_session_raise_the_same_error(self):
        with pytest.raises(UnknownBackendError) as from_api:
            run_xquery(NAMES, {"a.xml": FIGURE1_SAMPLE}, backend="oracle9i")
        with XQuerySession() as session:
            session.add_document("a.xml", FIGURE1_SAMPLE)
            with pytest.raises(UnknownBackendError) as from_session:
                session.run(NAMES, backend="oracle9i")
        assert str(from_api.value) == str(from_session.value)
        assert from_api.value.registered == from_session.value.registered


class TestLifecycle:
    def test_close_is_idempotent(self):
        backend = create_backend("sqlite")
        backend.prepare({"doc:a.xml": read_document(FIGURE1_SAMPLE)})
        backend.close()
        backend.close()

    def test_closed_backend_rejects_work(self):
        backend = create_backend("engine")
        backend.close()
        with pytest.raises(ReproError, match="closed"):
            backend.prepare({})

    def test_prepare_skips_loaded_documents(self):
        compiled = compile_xquery(NAMES)
        snapshot = read_document(FIGURE1_SAMPLE)
        with create_backend("sqlite") as backend:
            bindings = {var: snapshot for var in compiled.documents.values()}
            backend.prepare(bindings)
            tables = backend.database.documents
            backend.prepare(bindings)  # second prepare: no new tables
            assert backend.database.documents == tables

    def test_invalidate_forces_reload(self):
        with create_backend("interpreter") as backend:
            backend.prepare({"x": read_document("<a/>")})
            assert backend.prepared == ("x",)
            backend.invalidate("x")
            assert backend.prepared == ()
            replacement = read_document("<b/>")
            backend.prepare({"x": replacement})
            assert backend._prepared["x"] is replacement
