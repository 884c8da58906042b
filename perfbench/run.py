"""The repository benchmark: seven workloads, XML text in, XML bytes out.

Two ways in:

* ``python perfbench/run.py --workload NAME --seed N --seconds S --trace T``
  runs one pass of one workload in this process and prints, as its last
  line, the JSON object the benchmark driver reads.  ``--trace 0`` is the
  timed pass (end-to-end metrics), ``--trace 1`` the traced pass
  (per-layer metrics).
* ``python perfbench/run.py [--seed N]`` runs both passes of every
  workload (or of ``--workload NAME``), each pass in its own child
  process so that peak memory, plan caches and brownout state never leak
  between them, prints every metric by name with its unit, and writes
  the lot to ``--json OUT``.

``--selfcheck`` does the second twice and fails unless the two agree
within the benchmark's own bounds; ``--record-expected`` rewrites
``perfbench/expected/``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

from tracing import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = ROOT / "BENCHMARK.json"

#: Bounds of the end-to-end metrics that only some workloads report and
#: that BENCHMARK.json (one metric list for all workloads) cannot carry.
EXTRA_BOUNDS = {"write_p50_ms": 0.15, "write_p95_ms": 0.25,
                "failed_share": 0.0}

#: A child pass must end well inside the driver's 180 s limit.
CHILD_TIMEOUT = 175


def load_contract() -> dict:
    return json.loads(BENCHMARK.read_text())


# -- one pass, in this process ---------------------------------------------------------

def single_pass(args: argparse.Namespace) -> int:
    import measure
    import passes
    from workloads import WORKLOADS

    contract = load_contract()
    workload = WORKLOADS[args.workload]
    run = passes.traced_pass if args.trace else passes.timed_pass
    try:
        result = run(workload, args.seed, args.seconds, args.scale_ops)
    except passes.NothingMeasured as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    result["host"] = measure.host_facts()

    listed = contract["per_layer" if args.trace else "end_to_end"]
    measured: dict[str, tuple[float, str]] = result["metrics"]
    print(f"{workload.name}  seed={args.seed}  trace={args.trace}  "
          f"attempted={result['attempted']}  failed={result['failed']}")
    for name, (value, unit) in measured.items():
        print(f"  {name:34s} {value:14.4f} {unit}")
    # The driver wants every listed metric and no other; a layer this
    # workload never enters reports 0.
    metrics = {}
    for metric in listed:
        value, unit = measured.get(metric["name"], (0.0, metric["unit"]))
        metrics[metric["name"]] = {"value": value, "unit": unit}
    result["metrics"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in measured.items()}
    print("detail: " + json.dumps(result))
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


# -- every pass, in child processes -------------------------------------------------------

def child_pass(workload: str, seed: int, seconds: float, scale_ops: float,
               trace: int) -> dict:
    """Run one pass in a fresh interpreter and return its ``detail`` object."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", workload, "--seed", str(seed),
               "--seconds", repr(seconds), "--scale-ops", repr(scale_ops),
               "--trace", str(trace)]
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} exited with "
                           f"{done.returncode}:\n{done.stderr[-2000:]}")
    for line in reversed(done.stdout.splitlines()):
        if line.startswith("detail: "):
            return json.loads(line[len("detail: "):])
    raise RuntimeError(f"{workload}: child printed no detail line")


def full_run(names: list[str], seed: int, seconds: float,
             scale_ops: float) -> dict:
    """Timed then traced pass of each workload; prints as it goes."""
    import measure

    contract = load_contract()
    end_to_end = [metric["name"] for metric in contract["end_to_end"]]
    report = {"host": measure.host_facts(), "seed": seed,
              "seconds": seconds, "scale_ops": scale_ops, "workloads": {}}
    for name in names:
        started = time.perf_counter()
        timed = child_pass(name, seed, seconds, scale_ops, trace=0)
        traced = child_pass(name, seed, seconds, scale_ops, trace=1)
        entry = {
            "end_to_end": timed["metrics"], "per_layer": traced["metrics"],
            "attempted": timed["attempted"], "failed": timed["failed"],
            "detail": timed["detail"], "traced_detail": traced["detail"],
        }
        report["workloads"][name] = entry
        detail = timed["detail"]
        print(f"\n== {name}: {detail['document']['nodes']} nodes, "
              f"{detail['clients']} client(s), {detail['loop']} loop, "
              f"backend {detail['requested_backend']}, "
              f"{detail['read_samples']} reads"
              + (f", {detail['write_samples']} writes"
                 if detail["write_samples"] else "")
              + f"  [{time.perf_counter() - started:.0f} s]")
        for metric in end_to_end + list(EXTRA_BOUNDS):
            if metric in timed["metrics"]:
                value = timed["metrics"][metric]
                print(f"  {metric:34s} {value['value']:14.4f} {value['unit']}")
        print("  -- per layer (traced pass: "
              f"{traced['detail']['traced_ops']} operations)")
        for metric, value in traced["metrics"].items():
            print(f"  {metric:34s} {value['value']:14.4f} {value['unit']}")
        print_predictions(name, traced["metrics"])
        if timed["failed"] or traced["failed"]:
            print(f"  !! failures: {detail['failures']} "
                  f"{detail['first_errors']} "
                  f"{traced['detail']['first_errors']}")
    return report


def print_predictions(name: str, layer: dict) -> None:
    """The layer shares each workload was chosen for, beside the claim."""
    def value(metric: str) -> float:
        return layer.get(metric, {"value": 0.0})["value"]

    operation = sum(value(f"{lay}.self_ms") for lay in LAYERS) or 1.0
    compile_share = (value("xquery.self_ms")
                     + value("compiler.self_ms")) / operation
    engine = sum(value(f"engine.{part}_ms")
                 for part in ("paths", "join", "construction")) or 1.0
    print(f"  -- shares: xquery+compiler {compile_share:.1%} of an "
          f"operation of {operation:.2f} ms; join "
          f"{value('engine.join_ms') / engine:.0%} of the engine's time; "
          f"http tax {value('serving.http_tax_ms'):.2f} ms")
    claims = {
        "paths_warm": "claim: compile share < 2%; join share small",
        "joins_warm": "claim: join share several times paths_warm's (not "
                      "the largest part: README, Baseline)",
        "adhoc_compile": "claim: compile share >= 40%",
        "serve_http": "claim: http tax is the serving layer's whole share",
    }
    if name in claims:
        print(f"     {claims[name]}")


def bounds(contract: dict) -> dict[str, float]:
    table = {metric["name"]: metric["bound"]
             for metric in contract["end_to_end"]}
    table.update(EXTRA_BOUNDS)
    return table


def selfcheck(names: list[str], seed: int, seconds: float,
              scale_ops: float) -> tuple[dict, bool]:
    """Two full runs of the same code must agree within the bounds."""
    first = full_run(names, seed, seconds, scale_ops)
    second = full_run(names, seed, seconds, scale_ops)
    limits = bounds(load_contract())
    agreed = True
    deltas: dict[str, dict[str, float]] = {}
    print("\n== selfcheck: |A-B|/A per end-to-end metric")
    for name in names:
        deltas[name] = {}
        for metric, limit in limits.items():
            a = first["workloads"][name]["end_to_end"].get(metric)
            b = second["workloads"][name]["end_to_end"].get(metric)
            if a is None or b is None:
                continue
            a, b = a["value"], b["value"]
            delta = abs(a - b) / a if a else abs(a - b)
            deltas[name][metric] = delta
            verdict = "ok" if delta <= limit else "EXCEEDS"
            agreed &= delta <= limit
            print(f"  {name:16s} {metric:18s} A={a:12.4f} B={b:12.4f} "
                  f"delta={delta:7.2%} bound={limit:5.0%} {verdict}")
    first["selfcheck"] = {"deltas": deltas, "agreed": agreed,
                          "second": second["workloads"]}
    return first, agreed


# -- pinned answers ---------------------------------------------------------------------

def record_expected(names: list[str], seed: int) -> None:
    """Rewrite ``expected/<workload>.json`` from the oracles."""
    import inputs
    import oracle
    from workloads import WORKLOADS

    # The join reference is only trusted where it equals the interpreter
    # on a document small enough for nested loops.
    small = inputs.generate_document(0.002, seed, f"crosscheck-{seed}")
    try:
        queries = inputs.named_queries(small, random.Random(seed))
        reference = oracle.join_reference(small.text())
        interpreted = oracle.interpreter_answers(
            small.text(), {name: queries[name] for name in reference})
        if reference != interpreted:
            raise SystemExit("join reference disagrees with the interpreter")
    finally:
        small.path.unlink(missing_ok=True)
    for name in names:
        workload = WORKLOADS[name]
        inp = workload.make_inputs(seed)
        try:
            ops = []
            for op in workload.schedule(inp):
                if len(ops) >= 40 * len(workload.mix):
                    break
                ops.append(op)
            answers = workload.answers(inp, ops)
        finally:
            inp.document.path.unlink(missing_ok=True)
        path = oracle.save_expected(
            name, seed, workload.oracle,
            {key: oracle.sha256(text) for key, text in answers.items()})
        print(f"recorded {len(answers)} answers in {path}")


# -- command line -----------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    if not (ROOT / "src" / "repro").is_dir() or not BENCHMARK.is_file():
        print("perfbench: no program to measure here (src/repro and "
              "BENCHMARK.json must sit beside perfbench/)", file=sys.stderr)
        return 2
    for path in (str(ROOT / "src"), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    contract = load_contract()
    names = [workload["name"] for workload in contract["workloads"]]

    parser = argparse.ArgumentParser(
        description="Run the repository benchmark (see perfbench/README.md).")
    parser.add_argument("--workload", choices=names,
                        help="only this workload (default: all seven)")
    parser.add_argument("--seed", type=int, default=42,
                        help="inputs are a function of the seed (default 42)")
    parser.add_argument("--seconds", type=float,
                        default=float(contract["run_seconds"]),
                        help="length of a timed phase (default: "
                             "BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="run ONE pass of --workload in this process "
                             "and end with the driver's JSON line: "
                             "0 = timed, 1 = traced")
    parser.add_argument("--scale-ops", type=float, default=1.0,
                        help="scale --seconds and the 200-operation floors "
                             "uniformly (smoke runs; never mixes or "
                             "document scales)")
    parser.add_argument("--json", type=Path, metavar="OUT",
                        help="write the full report here")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run everything twice; fail unless the two "
                             "agree within the bounds")
    parser.add_argument("--record-expected", action="store_true",
                        help="rewrite perfbench/expected/ from the oracles")
    args = parser.parse_args(argv)

    import measure

    # A driver that gives up sends SIGTERM: leave through the teardowns.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        return dispatch(parser, args, names)
    finally:
        # No process this one started may outlive it, on any path out.
        measure.stop_children()


def dispatch(parser: argparse.ArgumentParser, args: argparse.Namespace,
             names: list[str]) -> int:
    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        return single_pass(args)
    selected = [args.workload] if args.workload else names
    if args.record_expected:
        record_expected(selected, args.seed)
        return 0
    if args.selfcheck:
        report, agreed = selfcheck(selected, args.seed, args.seconds,
                                   args.scale_ops)
    else:
        report = full_run(selected, args.seed, args.seconds, args.scale_ops)
        agreed = True
    if args.json:
        args.json.write_text(json.dumps(report, indent=1) + "\n")
    failed = {name: entry["failed"]
              for name, entry in report["workloads"].items()
              if entry["failed"]}
    if failed:
        print(f"\nFAILED operations: {failed}")
    return 0 if agreed and not failed else 1


if __name__ == "__main__":
    sys.exit(main())
