import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

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
# Prints the same canary, then each check's verdict of run_suite("all", s)
# at seeds 0 and 1, all in one interpreter.
VERDICT_CHILD = """
import hashlib, json
import numpy as np
from flatlab.verify import run_suite
x = (np.arange(4096.0) * 37 % 1009 - 504.0).reshape(64, 64) / 7.0
print(hashlib.sha256(((x @ x.T / 3.0 + x) @ x).tobytes()).hexdigest())
print(json.dumps([{c.name: c.passed for c in run_suite("all", s).checks}
                  for s in (0, 1)]))
"""


def _digest(*args):
    return subprocess.run([sys.executable, str(DIGEST), *args],
                          capture_output=True, text=True, timeout=300)


def test_digest_repeats_its_lines():
    first, second = _digest("5"), _digest("5")
    assert first.returncode == 0, first.stderr
    assert first.stdout == second.stdout
    lines = first.stdout.splitlines()
    # the suite and its nine checks, the nine checks' unit tables, the
    # ball_sharpness units' ascents, five volume certificates, two benchmark
    # certificates, eight benchmark reports, twelve fixed reports and four
    # notebooks
    assert len(lines) == 51
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


def test_suite_verdicts_hold_across_blas_kernels():
    """Output bytes depend on the OpenBLAS kernel; verdicts must not.

    The suite runs at seeds 0 and 1 under the Prescott kernel and under the
    default one, in two interpreters at once. Where the canary reads the
    same under both, the BLAS picks no kernel at run time (it is not a
    ``DYNAMIC_ARCH`` OpenBLAS), and there is nothing to compare.
    """
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"),
           "OPENBLAS_NUM_THREADS": "1"}
    env.pop("OPENBLAS_CORETYPE", None)
    children = [subprocess.Popen([sys.executable, "-c", VERDICT_CHILD],
                                 env=kernel_env, stdout=subprocess.PIPE,
                                 stderr=subprocess.PIPE, text=True)
                for kernel_env in ({**env, "OPENBLAS_CORETYPE": "Prescott"},
                                   env)]
    (pinned, pinned_verdicts), (default, default_verdicts) = [
        _canary_and_verdicts(child) for child in children]
    assert pinned == PRESCOTT_CANARY, "the kernel pin did not take effect"
    if default == pinned:
        pytest.skip("one OpenBLAS kernel only: not a DYNAMIC_ARCH build")
    assert pinned_verdicts == default_verdicts


def _canary_and_verdicts(child):
    out, err = child.communicate(timeout=300)
    assert child.returncode == 0, err
    canary, verdicts = out.splitlines()
    return canary, json.loads(verdicts)
