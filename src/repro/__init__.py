"""Dynamic Interval Encoding: a comprehensive XQuery-to-SQL translation.

A faithful reproduction of DeHaan, Toman, Consens & Özsu,
"A Comprehensive XQuery to SQL Translation using Dynamic Interval
Encoding" (SIGMOD 2003).

Quick start::

    from repro import run_xquery

    result = run_xquery(
        'document("doc.xml")/site/people/person/name/text()',
        documents={"doc.xml": "<site>…</site>"},
    )
    print(result.to_xml())

Package layout (see DESIGN.md for the full inventory):

* :mod:`repro.xml` — the XF forest model and Figure 2 operator algebra;
* :mod:`repro.encoding` — the interval encoding (Definition 3.1) and its
  updates;
* :mod:`repro.xquery` — surface parser, lowering, reference interpreter;
* :mod:`repro.sql` — the single-statement SQL translation (SQLite backend);
* :mod:`repro.engine` — the DI prototype with order-aware operators, over
  dynamic-interval environment sequences (Definition 3.3);
* :mod:`repro.compiler` — physical plans, the merge-join decorrelation,
  and the timed compilation chain;
* :mod:`repro.backends` — the pluggable execution-backend registry;
* :mod:`repro.obs` — query-lifecycle tracing, metrics, and exporters;
* :mod:`repro.xmark` — the synthetic XMark workload generator and queries;
* :mod:`repro.baselines` — nested-loop competitor simulations;
* :mod:`repro.bench` — the experiment harness behind EXPERIMENTS.md.
"""

import logging as _logging

# Library logging etiquette: the "repro" logger hierarchy stays silent
# unless the application (or the CLI's --verbose) attaches a handler.
_logging.getLogger("repro").addHandler(_logging.NullHandler())

from repro.api import (
    CompiledQuery,
    DocumentInput,
    QueryResult,
    compile_xquery,
    run_xquery,
)
from repro.backends import (
    Backend,
    BackendCapabilities,
    register_backend,
    registered_backends,
)
from repro.errors import ReproError
from repro.session import XQuerySession

__version__ = "1.0.0"

__all__ = [
    "Backend",
    "BackendCapabilities",
    "CompiledQuery",
    "DocumentInput",
    "QueryResult",
    "ReproError",
    "XQuerySession",
    "compile_xquery",
    "register_backend",
    "registered_backends",
    "run_xquery",
    "__version__",
]
