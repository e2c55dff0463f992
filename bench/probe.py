"""Set-up probe: a fresh interpreter that prepares one workload.

    python3 bench/probe.py WORKLOAD SEED WORKDIR

Prints ``ready`` once the workload's first operation could be issued; the
benchmark times it from spawn to that line.
"""

import sys
from pathlib import Path

from workloads import prepare

if __name__ == "__main__":
    prepare(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
    print("ready", flush=True)
