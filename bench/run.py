#!/usr/bin/env python3
"""flatlab benchmark: one workload per run, one client issuing operations.

Run from the root of a source checkout:

    python3 bench/run.py --workload suite --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` alternates plain and traced passes and reports the
per-layer metrics plus the tracing overhead (traced minus plain pass
wall). Metric names and units come from ``BENCHMARK.json``. The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. Lines before it give the machine facts, each
metric with its unit and sample count, ``fail_share`` and any known
defect that reproduced. See ``bench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

# BLAS threads move report_wide by up to a fifth between runs; pin them
# for the benchmark and every interpreter it starts.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_PROBES = 3
IMPORT_MODULES = {"flatlab": "import.flatlab_s",
                  "scipy.optimize": "import.scipy_optimize_s",
                  "scipy.linalg": "import.scipy_linalg_s"}
# per-layer families that exist only on some workloads; elsewhere they are 0
WORKLOAD_ONLY_PREFIXES = ("verify.", "cli.")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup_probe(workload: str, seed: int, workdir: Path) -> float:
    """Seconds from spawning a fresh interpreter until the workload is ready."""
    from workloads import child_env

    probe_dir = workdir / "probe"
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "probe.py"), workload,
         str(seed), str(probe_dir)],
        cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        _, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {err.decode()[-2000:]}")
    shutil.rmtree(probe_dir, ignore_errors=True)
    return elapsed


def import_seconds() -> dict[str, float]:
    """Cumulative import times from ``python -X importtime``, median of runs."""
    from workloads import child_env

    samples = defaultdict(list)
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import flatlab"],
            cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
            capture_output=True, timeout=60, check=True)
        for line in proc.stderr.decode().splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in IMPORT_MODULES:
                samples[IMPORT_MODULES[parts[2].strip()]].append(
                    int(parts[1]) / 1e6)
    return {key: statistics.median(samples[key])
            for key in IMPORT_MODULES.values()}


def machine_facts() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "flatlab").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest()[:16],
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Tally:
    """Gate results: a failure is an operation whose own gate failed or
    whose output differs from its first output. A failure that matches a
    known defect, with the same output as before, is counted apart."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.known = Counter()
        self.reference: dict[str, bytes] = {}

    def add(self, ops) -> None:
        for op in ops:
            self.attempted += 1
            same = self.reference.setdefault(op.name, op.output) == op.output
            if op.ok and same:
                continue
            if op.defect and same:
                self.known[op.defect] += 1
                continue
            self.failed += 1
            reason = "gate failed" if not op.ok else "output differs from first pass"
            print(f"FAIL {op.name}: {reason}", file=sys.stderr)

    def crashed(self, exc: BaseException) -> None:
        self.attempted += 1
        self.failed += 1
        traceback.print_exception(exc, file=sys.stderr)


def cli_spans(inputs, span_dir: Path) -> list[tuple]:
    """The spans every command of a cli_cold pass saved, with the ids of
    each process moved into a range of their own."""
    from tracer import read_spans

    spans = []
    for k, (name, *_) in enumerate(inputs.commands, 1):
        offset = k << 40
        spans += [(sid + offset, parent + offset if parent else 0, *rest)
                  for sid, parent, *rest in read_spans(span_dir / f"{name}.spans")]
    return spans


def describe(name, value, unit, count, how):
    print(f"metric {name} = {value!r} {unit} ({how}, n={count})")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "flatlab" / "__init__.py").is_file():
        print(f"bench: no flatlab source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text())
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = OUT_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return measure(args, spec, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, spec, workdir: Path) -> int:
    import workloads
    from tracer import Tracer, is_count, layer_metrics, write_spans

    in_process = args.workload in workloads.IN_PROCESS
    import_times = None
    setup: list[float] = []
    if args.trace:
        import_times = import_seconds()
    else:  # untimed: the first interpreter writes the bytecode caches
        setup_probe(args.workload, args.seed, workdir)

    inputs = workloads.prepare(args.workload, args.seed, workdir)
    tally = Tally()
    tracer = Tracer() if args.trace and in_process else None
    if tracer:  # build the wrappers once, outside any timed pass
        tracer.install()
        tracer.uninstall()
    if args.workload == "suite_jobs2":  # the bytes every pass must match
        try:
            tally.add(workloads.run_pass(inputs, serial=True))
        except Exception as exc:
            tally.crashed(exc)

    walls = {False: [], True: []}
    layer_samples: list[dict] = []
    cli_seconds = defaultdict(list)
    cli_rss = []
    last_spans: list = []
    traced = False
    step = 0.0
    crashes = 0
    start = time.perf_counter()
    while True:
        # stop before a pass that would end past --seconds, once each kind
        # of pass has a sample or once a pass has raised
        elapsed = time.perf_counter() - start
        sampled = walls[False] and (walls[True] or not args.trace)
        if elapsed + step > args.seconds and (sampled or crashes):
            break
        step_start = time.perf_counter()
        if not args.trace:
            # set-up probes spread over the window, as the host's speed
            # drifts over seconds: one before each pass, one after the last
            setup.append(setup_probe(args.workload, args.seed, workdir))
        span_dir = None
        if traced and not in_process:
            span_dir = workdir / "spans"
            shutil.rmtree(span_dir, ignore_errors=True)
            span_dir.mkdir()
        if traced and tracer:
            tracer.install()
        t0 = time.perf_counter()
        try:
            ops = workloads.run_pass(inputs, span_dir=span_dir)
        except Exception as exc:
            ops = None
            crashes += 1
            tally.crashed(exc)
        finally:
            wall = time.perf_counter() - t0
            if traced and tracer:
                tracer.uninstall()
        step = time.perf_counter() - step_start
        if ops is not None:
            tally.add(ops)
            walls[traced].append(wall)
            for op in ops:
                if op.name.startswith("cli."):
                    cli_rss.append(op.rss_mb)
                    if not traced:
                        cli_seconds[f"{op.name}.s"].append(op.seconds)
            if traced:
                spans = tracer.take() if tracer else cli_spans(inputs, span_dir)
                layer_samples.append(layer_metrics(spans))
                last_spans = spans
        if args.trace:
            traced = not traced
    if not args.trace:
        setup.append(setup_probe(args.workload, args.seed, workdir))

    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"seconds {args.seconds:g}: closed loop, one client, "
          f"{len(walls[False]) + len(walls[True])} timed passes")
    print("facts " + json.dumps(machine_facts(), sort_keys=True))
    values: dict[str, float] = {}
    counts: dict[str, tuple[int, str]] = {}
    if args.trace:
        plain = statistics.median(walls[False])
        values["trace.overhead_s"] = statistics.median(walls[True]) - plain
        counts["trace.overhead_s"] = (len(walls[True]), "traced minus plain median")
        for key, value in import_times.items():
            values[key] = value
            counts[key] = (IMPORT_PROBES, "median")
        for key, samples in cli_seconds.items():
            values[key] = statistics.median(samples)
            counts[key] = (len(samples), "median")
        for key in layer_samples[0]:
            series = [sample[key] for sample in layer_samples]
            if is_count(key):
                values[key] = series[0]
                counts[key] = (len(series), "first traced pass")
                if len(set(series)) > 1:
                    print(f"WARNING {key} differs between traced passes: "
                          f"{series}", file=sys.stderr)
            else:
                values[key] = statistics.median(series)
                counts[key] = (len(series), "median")
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
        write_spans(spans_path, last_spans)
        print(f"spans of the last traced pass: {spans_path.relative_to(ROOT)}")
        wanted = spec["per_layer"]
    else:
        values["wall_s"] = statistics.median(walls[False])
        counts["wall_s"] = (len(walls[False]), "median")
        values["setup_s"] = statistics.median(setup)
        counts["setup_s"] = (len(setup), "median")
        if in_process:
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            counts["peak_rss_mb"] = (1, "peak of this process")
        else:
            rss = max(cli_rss)
            counts["peak_rss_mb"] = (len(cli_rss), "peak over CLI children")
        values["peak_rss_mb"] = rss
        wanted = spec["end_to_end"]

    metrics = {}
    for entry in wanted:
        name, unit = entry["name"], entry["unit"]
        if name not in values:
            if not name.startswith(WORKLOAD_ONLY_PREFIXES):
                raise KeyError(f"metric {name} was not measured")
            values[name] = 0.0
            counts[name] = (0, "not exercised by this workload")
        metrics[name] = {"value": values[name], "unit": unit}
        n, how = counts[name]
        describe(name, values[name], unit, n, how)
    if not args.trace and len(walls[False]) >= 100:
        tail = statistics.quantiles(walls[False], n=10)[-1]
        describe("wall_s.p90", tail, "s", len(walls[False]), "p90")

    known = sum(tally.known.values())
    share = (tally.failed + known) / tally.attempted
    print(f"metric fail_share = {share!r} share (of n={tally.attempted} "
          f"operations; {tally.failed} unexpected, {known} known defect)")
    for defect, n in sorted(tally.known.items()):
        print(f"known defect reproduced {n}x: {defect} (see bench/NOTES.md)")
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
