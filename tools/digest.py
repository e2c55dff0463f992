"""Print one ``name sha256`` line per library output, to diff two trees.

    python3 tools/digest.py SEED [SEED ...]

For each seed: the canonical JSON of ``run_suite("all", seed)`` and of
each of its checks' outcomes, the float64 bytes of each check's unit
table (``<check>-units``), every ``ball_sharpness`` unit's two ascent
results (value repr, offset bytes, discard count), of the volume
certificate of each ``volume`` check unit, of the two volume certificates the
``report_wide`` benchmark builds at that seed, and of the eight
``flatness_report`` outputs the ``suite_jobs2`` benchmark builds at that
seed ((4,32,1) teachers on 256 examples, the CLI's default ascent). Then,
once: the ``flatness_report`` of a fixed teacher, rescaled by
``ScaleMap.first_last`` at each of a few factors, on one wide and three
biased architectures; the biased reports, the deep one too, include a
volume certificate (the wide one asks for none); and the printed text
of each notebook.
An output that raises digests its exception's type and message instead.

It imports the ``src/`` beside it. Run it in two checkouts and diff the
outputs: equal lines mean byte-identical outputs.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import runpy
import sys
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from flatlab import verify  # noqa: E402
from flatlab.experiments import make_teacher_student  # noqa: E402
from flatlab.metrics import (SharpnessConfig, flatness_report,  # noqa: E402
                             volume_flatness_certificate)
from flatlab.nets import Architecture  # noqa: E402
from flatlab.rng import SeededRng  # noqa: E402
from flatlab.serialize import to_json  # noqa: E402
from flatlab.transforms import ScaleMap  # noqa: E402

# (widths, use_bias, examples, volume epsilon) of the fixed reports, and
# their factors
REPORT_ARCHS = (((4, 32, 1), False, 256, None), ((2, 8, 1), True, 48, 1e-2),
                ((3, 4, 4, 1), True, 48, 1e-2), ((2, 5, 1), True, 48, 1e-2))
REPORT_ALPHAS = (1.0, 0.37, 1e-3)
REPORT_SEED = 3
# (widths, examples) of the report_wide benchmark's volume certificates
BENCH_VOLUME_ARCHS = (((10, 192, 1), 64), ((1, 256, 1), 64))
# (widths, examples, points) of the suite_jobs2 benchmark's reports
BENCH_REPORTS = ((4, 32, 1), 256, 8)


def _line(name: str, make, render=to_json) -> str:
    """``render`` returns text, hashed as UTF-8, or bytes, hashed as is."""
    try:
        out = render(make())
    except Exception as exc:  # the failure is an output too
        out = f"{type(exc).__name__}: {exc}"
    if isinstance(out, str):
        out = out.encode()
    return f"{name} {hashlib.sha256(out).hexdigest()}"


def _printed(path: Path) -> str:
    """What a notebook script prints when run as a program."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    return out.getvalue()


def _ball_ascents(seed: int) -> str:
    """Each ``ball_sharpness`` unit's ascents from its teacher and rescaled
    point at ``seed``, one line per result, as the check computes them."""
    return "\n".join(
        f"{r.value!r} {r.argmax_offset.tobytes().hex()} {r.discarded}"
        for unit in verify._ball_units(seed) for r in unit[:2])


def _bench_certificate(widths, m: int, seed: int) -> dict:
    """A ``report_wide`` volume certificate: 20 boxes of 32 samples, the
    witness on the benchmark's own stream, caller id 3000."""
    arch = Architecture(widths)
    data, teacher = make_teacher_student(arch, seed, m)
    return asdict(volume_flatness_certificate(
        arch, teacher, data, epsilon=1e-2, boxes=20, samples_per_box=32,
        rng=SeededRng(seed, 3000)))


def _bench_report(seed: int, i: int) -> dict:
    """A ``suite_jobs2`` report: teacher ``seed * points + i``, CLI ascent."""
    widths, m, points = BENCH_REPORTS
    arch = Architecture(widths)
    data, teacher = make_teacher_student(arch, seed * points + i, m)
    return flatness_report(arch, teacher, data,
                           SharpnessConfig(1e-2, seed=seed)).to_dict()


def _report(widths, bias: bool, m: int, volume_epsilon, alpha: float) -> dict:
    arch = Architecture(widths, use_bias=bias)
    data, teacher = make_teacher_student(arch, REPORT_SEED, m)
    point = ScaleMap.first_last(arch, alpha).apply(teacher)
    return flatness_report(arch, point, data,
                           SharpnessConfig(1e-2, seed=REPORT_SEED),
                           thresholds=(1.0,),
                           volume_epsilon=volume_epsilon).to_dict()


def digest_lines(seeds) -> list[str]:
    lines = []
    for seed in seeds:
        suite = functools.cache(
            lambda: verify.run_suite("all", seed).to_dict())
        lines.append(_line(f"suite/all/seed={seed}", suite))
        for i, name in enumerate(verify.CHECK_ORDER):
            lines.append(_line(f"suite/{name}/seed={seed}",
                               lambda: suite()["checks"][i]))
        for name in verify.CHECK_ORDER:
            lines.append(_line(f"{name}-units/seed={seed}",
                               lambda: verify._measure(name, seed)[0],
                               render=lambda units: units.tobytes()))
        lines.append(_line(f"ball-ascents/seed={seed}",
                           lambda: _ball_ascents(seed), render=str))
        for i, (widths, bias, _) in enumerate(verify._VOLUME_UNITS):
            lines.append(_line(
                f"certificate/{widths}/bias={bias}/seed={seed}".replace(" ", ""),
                lambda: asdict(verify._volume_certificate(seed, i))))
        for widths, m in BENCH_VOLUME_ARCHS:
            lines.append(_line(
                f"bench-certificate/{widths}/seed={seed}".replace(" ", ""),
                lambda: _bench_certificate(widths, m, seed)))
        for i in range(BENCH_REPORTS[2]):
            lines.append(_line(
                f"bench-report/{BENCH_REPORTS[0]}/point={i}/seed={seed}"
                .replace(" ", ""), lambda: _bench_report(seed, i)))
    for widths, bias, m, volume_epsilon in REPORT_ARCHS:
        for alpha in REPORT_ALPHAS:
            lines.append(_line(
                f"report/{widths}/bias={bias}/alpha={alpha}".replace(" ", ""),
                lambda: _report(widths, bias, m, volume_epsilon, alpha)))
    for path in sorted((ROOT / "notebooks").glob("*.py")):
        lines.append(_line(f"notebook/{path.stem}", lambda: _printed(path),
                           render=str))
    return lines


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    print("\n".join(digest_lines(int(s) for s in argv)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
