#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny run length.

    python3 bench/selftest.py

For each workload it makes one plain run and two traced runs with the
same seed, at ``--seconds 1``, and checks that:

- the last line is the result object with exactly its four keys, every
  operation passed or failed only through a known defect, and every
  metric of ``BENCHMARK.json`` is there with its unit;
- each metric and ``fail_share`` is also printed by name with its unit
  and sample count;
- every count of the two traced runs is equal.

It also checks that the benchmark refuses to run, without a result line,
in a directory holding only ``BENCHMARK.json`` and ``bench/``. Takes a few
minutes; exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import re
import shutil
import sys

from child import ROOT, read_run, run_bench
from tracer import is_count

SEED = 3
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"selftest FAILED: {message}", file=sys.stderr)
        sys.exit(1)


def result_of(workload: str, trace: int, wanted: list[dict]) -> dict:
    where = f"{workload} trace {trace}"
    proc = run_bench(workload, SEED, 1, trace)
    check(proc.returncode == 0, f"{where} exited {proc.returncode}:\n{proc.stderr}")
    check(re.search(r"^metric fail_share = \S+ share \(of n=\d+ ", proc.stdout, re.M)
          is not None, f"{where}: fail_share not printed")
    result = read_run(proc)[0]
    check(set(result) == RESULT_KEYS, f"{where}: result keys {sorted(result)}")
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
          f"{where}: {result['failed']} of {result['attempted']} operations failed")
    names = [entry["name"] for entry in wanted]
    check(sorted(result["metrics"]) == sorted(names),
          f"{where}: metrics {sorted(set(names) ^ set(result['metrics']))} "
          "missing or unexpected")
    text = proc.stdout.strip().rsplit("\n", 1)[0]
    for entry in wanted:
        metric = result["metrics"][entry["name"]]
        check(metric["unit"] == entry["unit"]
              and isinstance(metric["value"], (int, float)),
              f"{where}: {entry['name']} is {metric}")
        pattern = rf"^metric {re.escape(entry['name'])} = \S+ {re.escape(entry['unit'])} \(.* n=\d+\)$"
        check(re.search(pattern, text, re.M) is not None,
              f"{where}: no printed line for {entry['name']}")
    return result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        result_of(workload, 0, spec["end_to_end"])
        first, second = (result_of(workload, 1, spec["per_layer"])
                         for _ in range(2))
        for name, metric in first["metrics"].items():
            if is_count(name):
                check(metric["value"] == second["metrics"][name]["value"],
                      f"{workload}: count {name} differs between traced runs: "
                      f"{metric['value']} vs {second['metrics'][name]['value']}")
        print(f"selftest {workload}: ok")

    bare = ROOT / "bench" / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "bench", bare / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run_bench(workloads[0], SEED, 1, 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          "a checkout without the program still produced a result")
    print("selftest bare directory: refused as expected")
    return 0


if __name__ == "__main__":
    sys.exit(main())
