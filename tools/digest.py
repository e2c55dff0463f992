"""Print one ``name sha256`` line per library output, to diff two trees.

    python3 tools/digest.py SEED [SEED ...]

For each seed: the canonical JSON of ``run_suite("all", seed)``, of the
volume certificate of each ``volume`` check unit, and of the two volume
certificates the ``report_wide`` benchmark builds at that seed. Then,
once: the ``flatness_report`` of a fixed teacher, rescaled by ``first_last_alphas``
at each of a few factors, on one wide and three biased architectures;
the biased two-layer reports include a volume certificate (the wide
one's volume overflows a float). An output that raises digests its
exception's type and message instead.

It imports the ``src/`` beside it. Run it in two checkouts and diff the
outputs: equal lines mean byte-identical outputs.
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import asdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from flatlab import verify  # noqa: E402
from flatlab.experiments import make_teacher_student  # noqa: E402
from flatlab.metrics import (SharpnessConfig, flatness_report,  # noqa: E402
                             volume_flatness_certificate)
from flatlab.nets import Architecture  # noqa: E402
from flatlab.rng import SeededRng  # noqa: E402
from flatlab.serialize import to_json  # noqa: E402
from flatlab.transforms import alpha_scale_deep, first_last_alphas  # noqa: E402

# (widths, use_bias, examples, volume epsilon) of the fixed reports, and
# their factors
REPORT_ARCHS = (((4, 32, 1), False, 256, None), ((2, 8, 1), True, 48, 1e-2),
                ((3, 4, 4, 1), True, 48, 1e-2), ((2, 5, 1), True, 48, 1e-2))
REPORT_ALPHAS = (1.0, 0.37, 1e-3)
REPORT_SEED = 3
# (widths, examples) of the report_wide benchmark's volume certificates
BENCH_VOLUME_ARCHS = (((10, 192, 1), 64), ((1, 256, 1), 64))


def _line(name: str, make) -> str:
    try:
        text = to_json(make())
    except Exception as exc:  # the failure is an output too
        text = f"{type(exc).__name__}: {exc}"
    return f"{name} {hashlib.sha256(text.encode()).hexdigest()}"


def _certificate(seed: int, i: int) -> dict:
    """The certificate behind ``volume`` check unit ``i`` at ``seed``."""
    widths, bias, _ = verify._VOLUME_UNITS[i]
    arch = Architecture(widths, use_bias=bias)
    unit = verify._unit_seed(seed, 5, i)
    data, teacher = make_teacher_student(arch, unit, m=32)
    return asdict(volume_flatness_certificate(
        arch, teacher, data, epsilon=1e-2, boxes=verify._VOLUME_BOXES,
        samples_per_box=48, rng=SeededRng(unit, 13)))


def _bench_certificate(widths, m: int, seed: int) -> dict:
    """A ``report_wide`` volume certificate: 20 boxes of 32 samples."""
    arch = Architecture(widths)
    data, teacher = make_teacher_student(arch, seed, m)
    return asdict(volume_flatness_certificate(
        arch, teacher, data, epsilon=1e-2, boxes=20, samples_per_box=32,
        rng=SeededRng(seed, 3000)))


def _report(widths, bias: bool, m: int, volume_epsilon, alpha: float) -> dict:
    arch = Architecture(widths, use_bias=bias)
    data, teacher = make_teacher_student(arch, REPORT_SEED, m)
    point = alpha_scale_deep(arch, teacher,
                             first_last_alphas(arch.depth, alpha))
    return flatness_report(arch, point, data,
                           SharpnessConfig(1e-2, seed=REPORT_SEED),
                           thresholds=(1.0,),
                           volume_epsilon=volume_epsilon).to_dict()


def digest_lines(seeds) -> list[str]:
    lines = []
    for seed in seeds:
        lines.append(_line(f"suite/all/seed={seed}",
                           lambda: verify.run_suite("all", seed).to_dict()))
        for i, (widths, bias, _) in enumerate(verify._VOLUME_UNITS):
            lines.append(_line(
                f"certificate/{widths}/bias={bias}/seed={seed}".replace(" ", ""),
                lambda: _certificate(seed, i)))
        for widths, m in BENCH_VOLUME_ARCHS:
            lines.append(_line(
                f"bench-certificate/{widths}/seed={seed}".replace(" ", ""),
                lambda: _bench_certificate(widths, m, seed)))
    for widths, bias, m, volume_epsilon in REPORT_ARCHS:
        for alpha in REPORT_ALPHAS:
            lines.append(_line(
                f"report/{widths}/bias={bias}/alpha={alpha}".replace(" ", ""),
                lambda: _report(widths, bias, m, volume_epsilon, alpha)))
    return lines


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    print("\n".join(digest_lines(int(s) for s in argv)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
