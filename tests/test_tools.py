import re
import subprocess
import sys
from pathlib import Path

DIGEST = Path(__file__).resolve().parents[1] / "tools" / "digest.py"


def _digest(*args):
    return subprocess.run([sys.executable, str(DIGEST), *args],
                          capture_output=True, text=True, timeout=300)


def test_digest_repeats_its_lines():
    first, second = _digest("5"), _digest("5")
    assert first.returncode == 0, first.stderr
    assert first.stdout == second.stdout
    lines = first.stdout.splitlines()
    # the suite and its nine checks, four volume certificates, two benchmark
    # certificates, twelve fixed reports and four notebooks
    assert len(lines) == 32
    assert lines[0].startswith("suite/all/seed=5 ")
    names = [line.split(" ")[0] for line in lines]
    assert len(set(names)) == len(names)
    assert all(re.fullmatch(r"\S+ [0-9a-f]{64}", line) for line in lines)

