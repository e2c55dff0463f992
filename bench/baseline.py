#!/usr/bin/env python3
"""Repeated runs of the benchmark, summarised as a baseline.

    python3 bench/baseline.py --out bench/baseline.json [--first-seed 401]

For each workload it makes ten plain runs, seeds ``--first-seed`` on, and
reports every end-to-end metric's median, quartiles and spread (the
distance between the quartiles over the median, as
``statistics.quantiles(values, n=4)`` gives them) against the metric's
bound. Then it makes two traced runs with the first seed and keeps the
per-layer metrics of the first, after checking that every count of the
two agrees. Run lengths come from ``BENCHMARK.json``. Exits 1 if a spread
is out of its bound or a count differs. Takes about half an hour.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

from child import ROOT, read_run, run_bench
from tracer import is_count

RUNS = 10


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--first-seed", type=int, default=401)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    seeds = list(range(args.first_seed, args.first_seed + RUNS))
    summary = {"run_seconds": seconds, "seeds": seeds, "workloads": {}}
    steady = True
    for workload in names:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        failed = attempted = 0
        shares = []
        for seed in seeds:
            result, facts, share = read_run(run_bench(workload, seed, seconds, 0))
            attempted += result["attempted"]
            failed += result["failed"]
            shares.append(share)
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        end_to_end = {}
        for metric in spec["end_to_end"]:
            series = values[metric["name"]]
            q1, _, q3 = statistics.quantiles(series, n=4)
            median = statistics.median(series)
            spread = (q3 - q1) / median
            end_to_end[metric["name"]] = {
                "unit": metric["unit"], "median": median, "q1": q1, "q3": q3,
                "spread": spread, "bound": metric["bound"], "values": series}
            within = spread <= metric["bound"]
            steady = steady and within
            print(f"{workload} {metric['name']}: median {median:.6g} "
                  f"{metric['unit']}, spread {spread:.4f} of bound "
                  f"{metric['bound']}{'' if within else '  OUT OF BOUND'}",
                  flush=True)
        traced = [read_run(run_bench(workload, seeds[0], seconds, 1))[0]
                  for _ in range(2)]
        layers = traced[0]["metrics"]
        for name, metric in layers.items():
            if is_count(name) and metric["value"] != traced[1]["metrics"][name]["value"]:
                steady = False
                print(f"{workload} {name}: traced counts differ", flush=True)
        summary["workloads"][workload] = {
            "attempted": attempted, "failed": failed,
            "fail_share_median": statistics.median(shares),
            "end_to_end": end_to_end,
            "per_layer_seed": seeds[0],
            "per_layer": {name: m["value"] for name, m in layers.items()},
        }
        summary["facts"] = facts
    summary["finished"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
