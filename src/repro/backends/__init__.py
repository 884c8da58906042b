"""Pluggable execution backends behind a single registry.

The paper's retargetability claim, made structural: compiled queries are
executed through the :class:`~repro.backends.base.Backend` protocol, and
every dispatch site (:func:`repro.run_xquery`,
:class:`~repro.session.XQuerySession`, benchmark cells, the CLI) resolves
names through :mod:`repro.backends.registry`.  Built-ins registered on
import:

* ``engine`` — the DI prototype (Section 5), merge-sort or nested-loop
  joins, cached document encodings and plans;
* ``sqlite`` — the Section 4 SQL translation on SQLite, run staged;
* ``interpreter`` — the Figure 3 reference semantics (the conformance
  oracle);
* ``naive`` — the materializing nested-loop competitor baseline;
* ``procpool`` — the process-parallel tier: a pool of engine workers
  attached zero-copy to shared-memory columnar document encodings
  (docs/CONCURRENCY.md "Process-parallel serving").

``sqlite`` is the one relational adapter.  Another engine is targeted
from the statement itself — :func:`repro.sql.translator.translate_query`
/ ``CompiledQuery.to_sql()`` emit one standard SQL statement — behind a
:class:`~repro.backends.base.Backend` subclass registered under a new
name.

All backends honor :meth:`~repro.backends.base.Backend.instrument`: give
one a :class:`~repro.obs.trace.Tracer` and executions open spans (engine
operators, SQL statements) under the caller's active span.
"""

from repro.backends.base import (
    Backend,
    BackendCapabilities,
    ExecutionOptions,
    coerce_strategy,
)
from repro.backends.registry import (
    backend_capabilities,
    create_backend,
    iter_backends,
    register_backend,
    registered_backends,
    unregister_backend,
)

# Importing the adapter modules registers the built-in backends.
from repro.backends import engine as _engine  # noqa: F401  (registration)
# (``interpreter`` registers both "interpreter" and "naive").
from repro.backends import interpreter as _interpreter  # noqa: F401
from repro.backends import procpool as _procpool  # noqa: F401
from repro.backends import sqlite as _sqlite  # noqa: F401

__all__ = [
    "Backend",
    "BackendCapabilities",
    "ExecutionOptions",
    "backend_capabilities",
    "coerce_strategy",
    "create_backend",
    "iter_backends",
    "register_backend",
    "registered_backends",
    "unregister_backend",
]
