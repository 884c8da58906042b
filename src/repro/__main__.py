"""Command-line interface: run XQuery against XML files.

Examples::

    python -m repro 'document("a.xml")/site/people/person/name' \
        --doc a.xml=./auction.xml

    python -m repro @query.xq --doc a.xml=./auction.xml --backend sqlite
    python -m repro @query.xq --doc a.xml=./auction.xml --explain
    python -m repro @query.xq --doc a.xml=./auction.xml --sql
    python -m repro @query.xq --doc a.xml=./auction.xml \
        --trace trace.json --metrics --verbose
    python -m repro @q1.xq @q2.xq @q3.xq --doc a.xml=./auction.xml --jobs 4
    python -m repro @query.xq --doc a.xml=./auction.xml \
        --serve-telemetry 9464 --serve-linger 60
    python -m repro top 127.0.0.1:9464
    python -m repro serve --doc a.xml=./auction.xml --port 8080 \
        --backend procpool
"""

from __future__ import annotations

import argparse
import signal
import sys
import time

from repro.api import compile_xquery
from repro.backends.registry import registered_backends
from repro.errors import OverloadError, QueryCancelledError, ReproError
from repro.obs.export import render_prometheus, write_chrome_trace
from repro.obs.logs import setup_console_logging
from repro.resilience.admission import INTERACTIVE, PRIORITIES, AdmissionConfig
from repro.session import XQuerySession
from repro.xml.text_parser import read_document


class _GracefulShutdown(Exception):
    """Raised by the SIGTERM handler to unwind into a graceful drain.

    Raising (rather than setting a flag) interrupts whatever the main
    thread is blocked on — the ``--serve-linger`` sleep, a batch gather —
    so shutdown starts immediately; the drain itself happens in the
    ``finally`` that closes the session.
    """


def _load_query(argument: str) -> str:
    if argument.startswith("@"):
        with open(argument[1:]) as handle:
            return handle.read()
    return argument


def _parse_doc_argument(argument: str) -> tuple[str, str]:
    uri, separator, path = argument.partition("=")
    if not separator:
        raise argparse.ArgumentTypeError(
            f"--doc expects uri=path, got {argument!r}")
    return uri, path


def _main_top(argv: list[str]) -> int:
    """``python -m repro top URL`` — one-shot console telemetry summary."""
    parser = argparse.ArgumentParser(
        prog="python -m repro top",
        description="Render a running server's percentile table "
                    "(see `serve`, --serve-telemetry, docs/OBSERVABILITY.md).",
    )
    parser.add_argument("url",
                        help="server address: HOST:PORT, a base URL, or "
                             "the full /debug/queries endpoint")
    args = parser.parse_args(argv)
    from repro.serving import run_top

    try:
        print(run_top(args.url))
        return 0
    except OSError as error:
        print(f"error: cannot reach server at {args.url}: "
              f"{error}", file=sys.stderr)
        return 1


def _main_serve(argv: list[str]) -> int:
    """``python -m repro serve`` — the asyncio HTTP query front-end.

    One event loop holds every in-flight request
    (:meth:`XQuerySession.run_async`); evaluation happens on the
    session's worker pool, or in worker *processes* with
    ``--backend procpool`` (shared-memory document encodings, one
    attach per worker — docs/CONCURRENCY.md "Process-parallel
    serving").  SIGTERM/SIGINT drain gracefully.
    """
    import asyncio

    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="Serve XQuery over HTTP: POST the query text to "
                    "/query; GET /healthz, /metrics and /debug/queries.",
    )
    parser.add_argument("--doc", action="append", default=[],
                        type=_parse_doc_argument, metavar="URI=PATH",
                        help="bind document(URI) to the XML file at PATH")
    parser.add_argument("--xmark", action="append", default=[], nargs=2,
                        metavar=("URI", "SCALE"),
                        help="bind document(URI) to a generated XMark "
                             "document at this scale factor")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8080,
                        help="listen port (0 picks a free one)")
    parser.add_argument("--backend", default=None,
                        choices=list(registered_backends()),
                        help="backend requests run on unless they name "
                             "their own (procpool = process-parallel tier)")
    parser.add_argument("--strategy", default="msj", choices=["msj", "nlj"])
    parser.add_argument("--timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="default per-request deadline")
    parser.add_argument("--warm", action="append", default=[],
                        metavar="QUERY",
                        help="query text (or @path) compiled on startup "
                             "before traffic arrives (repeatable)")
    parser.add_argument("--drain-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="on shutdown, give in-flight requests this "
                             "long before cancelling them")
    args = parser.parse_args(argv)

    from repro.serving import QueryServer, serve_until_stopped

    session = XQuerySession(backend=args.backend or "engine",
                            strategy=args.strategy)
    try:
        for uri, path in args.doc:
            session.add_document_file(uri, path)
        for uri, scale in args.xmark:
            session.add_xmark_document(uri, float(scale))
        for warm in args.warm:
            session.prepare(_load_query(warm))
        server = QueryServer(session, host=args.host, port=args.port,
                             backend=args.backend,
                             default_deadline=args.timeout)

        async def run() -> None:
            stop = asyncio.Event()
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(signum, stop.set)
                except (NotImplementedError, RuntimeError):
                    pass  # non-Unix event loops
            await server.start()
            print(f"query server listening on {server.url}",
                  file=sys.stderr)
            await serve_until_stopped(server, stop)
            print("shutdown signal received: draining", file=sys.stderr)

        asyncio.run(run())
        return 0
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        session.close(drain_timeout=args.drain_timeout)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "top":
        return _main_top(argv[1:])
    if argv and argv[0] == "serve":
        return _main_serve(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run XQuery over XML documents via dynamic intervals.",
    )
    parser.add_argument("query", nargs="+",
                        help="XQuery text, or @path to read it from a file; "
                             "several queries run as one batch (see --jobs)")
    parser.add_argument("--doc", action="append", default=[],
                        type=_parse_doc_argument, metavar="URI=PATH",
                        help="bind document(URI) to the XML file at PATH")
    parser.add_argument("--backend", default="engine",
                        choices=list(registered_backends()),
                        help="execution backend (from the backend registry)")
    parser.add_argument("--strategy", default="msj", choices=["msj", "nlj"])
    parser.add_argument("--indent", type=int, default=None,
                        help="pretty-print the result")
    parser.add_argument("--explain", action="store_true",
                        help="print the physical plan instead of running; "
                             "with --doc bindings the plan runs once and "
                             "every evaluated node shows its observed "
                             "tuples, width, environments and time")
    parser.add_argument("--explain-verbose", action="store_true",
                        help="with --explain: include the compilation "
                             "passes (timings, the core text and the plan "
                             "before isolation)")
    parser.add_argument("--sql", action="store_true",
                        help="print the translated single SQL statement "
                             "instead of running")
    parser.add_argument("--trace", metavar="FILE.json", default=None,
                        help="write a Chrome trace_event JSON of the run "
                             "(open in chrome://tracing or Perfetto)")
    parser.add_argument("--metrics", action="store_true",
                        help="dump Prometheus-format metrics to stderr "
                             "after the run")
    parser.add_argument("--verbose", action="store_true",
                        help="log progress to stderr (the 'repro' loggers)")
    parser.add_argument("--timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="cancel the query after this many seconds "
                             "(raises a QueryTimeoutError; see "
                             "docs/ROBUSTNESS.md)")
    parser.add_argument("--max-tuples", type=int, default=None, metavar="N",
                        help="cancel the query once it has produced more "
                             "than N interval tuples")
    parser.add_argument("--fallback", action="append", default=[],
                        choices=list(registered_backends()), metavar="BACKEND",
                        help="backend(s) to degrade to, in order, when the "
                             "primary fails (repeatable)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="run the queries concurrently on N worker "
                             "threads (results print in input order; see "
                             "docs/CONCURRENCY.md)")
    parser.add_argument("--serve-telemetry", type=int, default=None,
                        metavar="PORT",
                        help="serve /metrics + /healthz + /debug/queries on "
                             "this port while the queries run (0 picks a "
                             "free port; the URL prints to stderr)")
    parser.add_argument("--serve-linger", type=float, default=0.0,
                        metavar="SECONDS",
                        help="with --serve-telemetry: keep the process (and "
                             "the endpoint) alive this long after the "
                             "queries finish, for scrapers and `repro top`; "
                             "SIGTERM ends the linger early with a graceful "
                             "drain")
    parser.add_argument("--priority", default=INTERACTIVE,
                        choices=list(PRIORITIES),
                        help="admission priority class for the queries "
                             "(batch work admits behind interactive work)")
    parser.add_argument("--admission-limit", type=int, default=None,
                        metavar="N",
                        help="cap concurrently executing queries at N "
                             "(admission control; see docs/ROBUSTNESS.md)")
    parser.add_argument("--admission-queue", type=int, default=None,
                        metavar="N",
                        help="bound the admission queue at N waiting "
                             "queries; arrivals past it are shed with a "
                             "retry-after hint")
    parser.add_argument("--drain-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="on shutdown, give in-flight queries this long "
                             "to finish before cancelling them")
    args = parser.parse_args(argv)

    if args.verbose:
        setup_console_logging()

    try:
        queries = [_load_query(argument) for argument in args.query]

        if args.explain or args.explain_verbose or args.sql:
            if len(queries) > 1:
                raise ReproError(
                    "--explain/--sql take exactly one query")
            compiled = compile_xquery(queries[0])

        documents: dict[str, str] = {}
        for uri, path in args.doc:
            with open(path) as handle:
                documents[uri] = handle.read()

        if args.explain or args.explain_verbose:
            if documents:
                # With real documents: EXPLAIN ANALYZE runs the plan
                # once on the engine backend ("obs N tuples" per node).
                with XQuerySession(strategy=args.strategy) as session:
                    for uri, text in documents.items():
                        session.add_document(uri, text)
                    print(session.explain(queries[0],
                                          verbose=args.explain_verbose,
                                          analyze=True))
            else:
                print(compiled.explain(args.strategy,
                                       verbose=args.explain_verbose))
            return 0

        if args.sql:
            tables = {}
            for uri, var in compiled.documents.items():
                if uri not in documents:
                    raise ReproError(f"missing --doc binding for {uri!r}")
                _columns, width = read_document(documents[uri])
                tables[var] = (f"doc_{len(tables)}", width)
            print(compiled.to_sql(tables).sql)
            return 0

        admission = None
        if args.admission_limit is not None or args.admission_queue is not None:
            knobs: dict = {}
            if args.admission_limit is not None:
                knobs["max_concurrency"] = args.admission_limit
            if args.admission_queue is not None:
                knobs["max_queue_depth"] = args.admission_queue
            admission = AdmissionConfig(**knobs)

        restore_sigterm: "tuple | None" = None
        session = XQuerySession(backend=args.backend, strategy=args.strategy,
                                admission=admission)
        try:
            if args.serve_telemetry is not None:
                def _on_sigterm(signum: int, frame: object) -> None:
                    raise _GracefulShutdown()

                restore_sigterm = (
                    signal.signal(signal.SIGTERM, _on_sigterm),)
            for uri, text in documents.items():
                session.add_document(uri, text)
            server = None
            if args.serve_telemetry is not None:
                server = session.serve_telemetry(port=args.serve_telemetry)
                print(f"telemetry serving on {server.url}", file=sys.stderr)
            traced = bool(args.trace) or args.metrics
            if len(queries) > 1 or args.jobs > 1:
                results = session.run_many(
                    queries, max_workers=max(args.jobs, 1),
                    trace=traced,
                    deadline=args.timeout, budget=args.max_tuples,
                    fallback=tuple(args.fallback),
                    priority=args.priority,
                    return_errors=True)
            else:
                results = [session.run(queries[0], trace=traced,
                                       deadline=args.timeout,
                                       budget=args.max_tuples,
                                       fallback=tuple(args.fallback),
                                       priority=args.priority)]
            first_error: BaseException | None = None
            for result in results:
                if isinstance(result, (OverloadError, QueryCancelledError)):
                    # Load shedding is the service protecting itself, not
                    # a failed process: report it and keep exit status 0.
                    kind = ("shed" if isinstance(result, OverloadError)
                            else "cancelled")
                    print(f"{kind}: {result}", file=sys.stderr)
                    continue
                if isinstance(result, BaseException):
                    if first_error is None:
                        first_error = result
                    continue
                if result.degraded:
                    for degradation in result.degradations:
                        print(f"degraded: {degradation}", file=sys.stderr)
                    print(f"answered by fallback backend {result.backend!r}",
                          file=sys.stderr)
                print(result.to_xml(indent=args.indent))
            if first_error is not None:
                raise first_error
            # Export after to_xml so the serialize span is in the file.
            if args.trace:
                write_chrome_trace(
                    [result.trace for result in results
                     if not isinstance(result, BaseException)
                     and result.trace is not None], args.trace)
                print(f"trace written to {args.trace}", file=sys.stderr)
            if args.metrics:
                print(render_prometheus(session.metrics), file=sys.stderr)
            if server is not None and args.serve_linger > 0:
                print(f"telemetry lingering {args.serve_linger:g}s on "
                      f"{server.url}", file=sys.stderr)
                time.sleep(args.serve_linger)
        except _GracefulShutdown:
            print("SIGTERM received: draining", file=sys.stderr)
        finally:
            session.close(drain_timeout=args.drain_timeout)
            if restore_sigterm is not None:
                signal.signal(signal.SIGTERM, restore_sigterm[0])
        return 0
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
