"""Start one run of the benchmark as a child process and read its output.

Shared by ``baseline.py`` and ``selftest.py``.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_bench(workload: str, seed: int, seconds: float, trace: int,
              cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", f"{seconds:g}",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def read_run(proc: subprocess.CompletedProcess) -> tuple[dict, dict, float]:
    """Result line, machine facts and fail_share of a run that exited 0."""
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(proc.args[1:])} exited "
                           f"{proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    facts = next(json.loads(line[6:]) for line in lines if line.startswith("facts "))
    share = float(re.search(r"^metric fail_share = (\S+)", proc.stdout, re.M)[1])
    return json.loads(lines[-1]), facts, share
