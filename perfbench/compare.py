"""Compare two ``run.py --json`` reports: ``compare.py BASE.json NEW.json``.

One row per (workload, end-to-end metric): base, new, the ratio with its
base, the bound, and a verdict —

* ``better`` / ``worse``: moved past the bound in that direction;
* ``within``: moved less than the bound;
* ``unresolved``: either report carries a ``--selfcheck`` A/B spread for
  this metric that is wider than the bound, so the host cannot tell.

Below that, the traced self time per layer, so a change can show where
its saving sits.  One pair of reports is one sample: a gain is claimed
from at least ten alternating pairs (README.md, "Comparing two commits").
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from run import EXTRA_BOUNDS, load_contract
from tracing import LAYERS


def verdict(base: float, new: float, better: str, bound: float,
            spread: float) -> str:
    if spread > bound:
        return "unresolved"
    if base == 0:
        return "within" if new == 0 else "worse"
    change = (new - base) / base
    if better == "higher":
        change = -change
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "within"


def selfcheck_spread(report: dict, workload: str, metric: str) -> float:
    deltas = report.get("selfcheck", {}).get("deltas", {})
    return deltas.get(workload, {}).get(metric, 0.0)


def compare(base: dict, new: dict) -> list[dict]:
    contract = load_contract()
    metrics = [(m["name"], m["better"], m["bound"])
               for m in contract["end_to_end"]]
    metrics += [(name, "lower", bound) for name, bound in EXTRA_BOUNDS.items()]
    rows = []
    for workload in base["workloads"]:
        if workload not in new["workloads"]:
            continue
        old = base["workloads"][workload]["end_to_end"]
        cur = new["workloads"][workload]["end_to_end"]
        for name, better, bound in metrics:
            if name not in old or name not in cur:
                continue
            a, b = old[name]["value"], cur[name]["value"]
            spread = max(selfcheck_spread(base, workload, name),
                         selfcheck_spread(new, workload, name))
            rows.append({
                "workload": workload, "metric": name, "unit": old[name]["unit"],
                "base": a, "new": b, "ratio": b / a if a else float("nan"),
                "bound": bound, "selfcheck_spread": spread,
                "verdict": verdict(a, b, better, bound, spread)})
    return rows


def layer_deltas(base: dict, new: dict) -> list[tuple[str, str, float, float]]:
    rows = []
    for workload, entry in base["workloads"].items():
        other = new["workloads"].get(workload)
        if other is None:
            continue
        for layer in LAYERS:
            name = f"{layer}.self_ms"
            a = entry["per_layer"].get(name, {"value": 0.0})["value"]
            b = other["per_layer"].get(name, {"value": 0.0})["value"]
            if a or b:
                rows.append((workload, name, a, b))
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.loads(Path(path).read_text()) for path in argv)
    rows = compare(base, new)
    print(f"{'workload':16s} {'metric':18s} {'base':>12s} {'new':>12s} "
          f"{'new/base':>9s} {'bound':>6s}  verdict")
    for row in rows:
        ratio = f"{row['ratio']:8.3f}x" if row["base"] else f"{'-':>9s}"
        print(f"{row['workload']:16s} {row['metric']:18s} "
              f"{row['base']:12.4f} {row['new']:12.4f} "
              f"{ratio} {row['bound']:6.0%}  {row['verdict']}"
              f"  (base {row['base']:.4g} {row['unit']})")
    print(f"\n{'workload':16s} {'layer self time':22s} {'base ms':>10s} "
          f"{'new ms':>10s} {'delta ms':>10s}")
    for workload, name, a, b in layer_deltas(base, new):
        print(f"{workload:16s} {name:22s} {a:10.4f} {b:10.4f} {b - a:+10.4f}")
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
