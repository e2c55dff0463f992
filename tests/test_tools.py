import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DIGEST = ROOT / "tools" / "digest.py"
GOLDEN = ROOT / "tests" / "golden" / "digest-0.txt"

# Prints the sha256 of a matmul whose bits differ between OpenBLAS's
# Prescott kernel and the Haswell/SkylakeX kernels, then the digest lines
# of seed 0, all in one interpreter.
PINNED_CHILD = """
import hashlib, runpy, sys
import numpy as np
x = (np.arange(4096.0) * 37 % 1009 - 504.0).reshape(64, 64) / 7.0
print(hashlib.sha256(((x @ x.T / 3.0 + x) @ x).tobytes()).hexdigest())
print("\\n".join(runpy.run_path(sys.argv[1])["digest_lines"]([0])))
"""
PRESCOTT_CANARY = (
    "15005aee48048421677d8f3a92cf3c8321dae1c84a2b379ddea09526d3da9a76")


def _digest(*args):
    return subprocess.run([sys.executable, str(DIGEST), *args],
                          capture_output=True, text=True, timeout=300)


def test_digest_repeats_its_lines():
    first, second = _digest("5"), _digest("5")
    assert first.returncode == 0, first.stderr
    assert first.stdout == second.stdout
    lines = first.stdout.splitlines()
    # the suite and its nine checks, four volume certificates, two benchmark
    # certificates, eight benchmark reports, twelve fixed reports and four
    # notebooks
    assert len(lines) == 40
    assert lines[0].startswith("suite/all/seed=5 ")
    names = [line.split(" ")[0] for line in lines]
    assert len(set(names)) == len(names)
    assert all(re.fullmatch(r"\S+ [0-9a-f]{64}", line) for line in lines)


def test_digest_matches_the_golden_file_under_a_pinned_kernel():
    """Outputs are byte-identical to the committed digest of seed 0.

    The bytes depend on which OpenBLAS kernel runs, so the child pins one
    every x86-64 CPU runs; the canary shows the pin took effect. A change
    that moves an output regenerates the file:
    ``OPENBLAS_CORETYPE=Prescott python3 tools/digest.py 0``.
    """
    env = {**os.environ, "OPENBLAS_CORETYPE": "Prescott",
           "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", PINNED_CHILD, str(DIGEST)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    canary, *lines = proc.stdout.splitlines()
    assert canary == PRESCOTT_CANARY, "the kernel pin did not take effect"
    assert lines == GOLDEN.read_text().splitlines()
