"""Run-to-run spread of the end-to-end metrics, as the acceptance rule reads it.

    python3 symbench/spread.py --runs 10 --first-seed 1 [--workload sweep ...]

Runs symbench/run.py once per seed (seeds first-seed .. first-seed+runs-1),
one run at a time, and prints per workload and metric the median, the first
and third quartiles (statistics.quantiles(values, n=4)), the spread
(Q3 - Q1) / median against a third of the metric's bound, and the failed
share.  The table is also written to .symbench/spread-<first-seed>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    table = {}
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        values, shares = {name: [] for name in bounds}, set()
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                spec["command"] + ["--workload", workload, "--seed", str(seed),
                                   "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            result = json.loads(proc.stdout.splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                print(proc.stdout[-2000:], file=sys.stderr)
                return 1
            shares.add((result["failed"], result["attempted"]))
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        rows = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
                          "third_of_bound": bounds[name] / 3, "values": vals}
            print(f"{workload:9s} {name:15s} median {med:14.6g}  q1 {q1:14.6g}  q3 {q3:14.6g}"
                  f"  spread {(q3 - q1) / med:7.4f}  (bound/3 {bounds[name] / 3:.4f})", flush=True)
        fractions = sorted({f / a for f, a in shares})
        print(f"{workload:9s} failed share {fractions}", flush=True)
        table[workload] = {"metrics": rows, "failed_share": fractions}
    out = ROOT / ".symbench" / f"spread-{args.first_seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
