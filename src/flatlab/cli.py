"""Command-line shell: thin argument handling around the library.

Exit codes: 0 success, 1 invalid input, 2 failed verification check.
Diagnostics go to standard error; data goes to files or standard output.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .errors import KinkProximityError, TrainingDivergedError
from .experiments import (TrainConfig, alpha_sweep, demo_spec_from_dict,
                          make_teacher_student, reparam_demo_1d, train_sgd)
from .metrics import SharpnessConfig, flatness_report
from .nets import (Architecture, checkpoint_payload, load_checkpoint)
from .serialize import read_json, to_json
from .transforms import apply_transform, transform_from_dict
from .verify import SUITES, run_suite


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse would sys.exit(2) on a bad flag; the contract reserves 2
    # for failed verification, so route parse errors through exit 1
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _parse_arch(text: str) -> tuple[int, ...]:
    try:
        widths = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--arch expects comma-separated integers, got {text!r}")
    if len(widths) < 2:
        raise argparse.ArgumentTypeError(
            f"--arch needs at least two widths, got {text!r}")
    return widths


def _checked(convert, accept, expected: str):
    """An argparse type: ``convert`` the text, refused unless ``accept`` holds."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not accept(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value
    return parse


_parse_finite = _checked(float, math.isfinite, "a finite number")
_parse_jobs = _checked(int, lambda jobs: jobs >= 1, "an integer >= 1")


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(_parse_finite(part) for part in text.split(","))


def _add_data_flags(parser, default_m: int = 64):
    parser.add_argument("--m", type=int, default=default_m, metavar="COUNT",
                        help="number of generated examples")
    parser.add_argument("--seed", type=int, default=0, metavar="INT",
                        help="seed for all generated randomness")


def _add_jobs_flag(parser):
    parser.add_argument("--jobs", type=_parse_jobs, default=1, metavar="INT",
                        help="accepted for compatibility; work runs serially")


def build_parser() -> _Parser:
    parser = _Parser(
        prog="flatlab",
        description="Flatness measures and function-preserving "
                    "reparametrizations for small rectifier networks.")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND",
                                parser_class=_Parser)

    train = sub.add_parser(
        "train", help="produce a checkpoint from generated data")
    train.add_argument("--arch", type=_parse_arch, required=True,
                       metavar="w0,w1,...,wK", help="layer widths")
    train.add_argument("--bias", action="store_true",
                       help="include bias terms")
    train.add_argument("--teacher", action="store_true",
                       help="save the exact generating network instead of "
                            "fitting a fresh one")
    _add_data_flags(train)
    train.add_argument("--out", metavar="PATH", help="checkpoint file")

    metrics = sub.add_parser(
        "metrics", help="flatness report for a checkpoint")
    metrics.add_argument("--checkpoint", required=True, metavar="PATH")
    _add_data_flags(metrics)
    metrics.add_argument("--eps", type=_parse_finite, default=1e-2,
                         metavar="REAL",
                         help="neighborhood size for sharpness and volume")
    metrics.add_argument("--thresholds", type=_parse_floats, default=(),
                         metavar="LIST", help="eigenvalue count thresholds")
    _add_jobs_flag(metrics)
    metrics.add_argument("--out", metavar="PATH", help="report file")

    transform = sub.add_parser(
        "transform", help="apply a transform spec to a checkpoint")
    transform.add_argument("--checkpoint", required=True, metavar="PATH")
    transform.add_argument("--spec", required=True, metavar="PATH",
                           help="transform spec file")
    transform.add_argument("--out", metavar="PATH",
                           help="transformed checkpoint file")

    sweep = sub.add_parser(
        "sweep", help="report columns across two-layer scale factors")
    sweep.add_argument("--checkpoint", required=True, metavar="PATH")
    sweep.add_argument("--alpha", type=_parse_floats, required=True,
                       metavar="REAL-or-list", help="scale factors")
    _add_data_flags(sweep)
    sweep.add_argument("--eps", type=_parse_finite, default=1e-2,
                       metavar="REAL")
    sweep.add_argument("--thresholds", type=_parse_floats, default=(),
                       metavar="LIST")
    _add_jobs_flag(sweep)
    sweep.add_argument("--out", metavar="PATH", help="CSV file")

    verify = sub.add_parser(
        "verify", help="run named verification checks")
    verify.add_argument("--suite", default="all", metavar="NAME",
                        help=f"one of: {', '.join(sorted(SUITES))}")
    verify.add_argument("--seed", type=int, default=0, metavar="INT")
    _add_jobs_flag(verify)
    verify.add_argument("--out", metavar="PATH", help="report file")

    demo = sub.add_parser(
        "demo-reparam", help="one-dimensional reparametrized loss curve")
    demo.add_argument("--spec", required=True, metavar="PATH",
                      help="demo spec file: loss, transform, grid")
    demo.add_argument("--out", metavar="PATH", help="curve CSV file")

    return parser


def _write_text(path: str, text: str) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _emit(args, text: str) -> None:
    if args.out:
        _write_text(args.out, text)
    else:
        sys.stdout.write(text)


def _cmd_train(args) -> int:
    arch = Architecture(args.arch, use_bias=args.bias)
    data, teacher = make_teacher_student(arch, args.seed, args.m)
    if args.teacher:
        params = teacher
        print(f"saved exact teacher minimum ({args.m} examples)",
              file=sys.stderr)
    else:
        result = train_sgd(arch, data,
                           TrainConfig(learning_rate=0.05, epochs=20000,
                                       seed=args.seed))
        params = result.params
        final_loss, final_grad = result.trace[-1]
        print(f"trained {result.epochs_run} epochs: "
              f"loss {final_loss:.3e}, gradient norm {final_grad:.3e}",
              file=sys.stderr)
    _emit(args, to_json(checkpoint_payload(arch, params)) + "\n")
    return 0


def _cmd_metrics(args) -> int:
    arch, params = load_checkpoint(args.checkpoint)
    data, _ = make_teacher_student(arch, args.seed, args.m)
    cfg = SharpnessConfig(epsilon=args.eps, seed=args.seed)
    report = flatness_report(arch, params, data, cfg,
                             thresholds=args.thresholds,
                             volume_epsilon=args.eps)
    for field, reason in report.skipped:
        print(f"skipped {field}: {reason}", file=sys.stderr)
    _emit(args, to_json(report.to_dict()) + "\n")
    return 0


def _cmd_transform(args) -> int:
    arch, params = load_checkpoint(args.checkpoint)
    spec = transform_from_dict(read_json(args.spec))
    moved = apply_transform(arch, params, spec)
    _emit(args, to_json(checkpoint_payload(arch, moved)) + "\n")
    return 0


def _cmd_sweep(args) -> int:
    arch, params = load_checkpoint(args.checkpoint)
    data, _ = make_teacher_student(arch, args.seed, args.m)
    cfg = SharpnessConfig(epsilon=args.eps, seed=args.seed)
    csv = alpha_sweep(arch, params, data, args.alpha, cfg,
                      thresholds=args.thresholds,
                      volume_epsilon=args.eps)
    _emit(args, csv)
    return 0


def _cmd_verify(args) -> int:
    report = run_suite(args.suite, args.seed, jobs=args.jobs,
                       progress=lambda line: print(line, file=sys.stderr))
    _emit(args, to_json(report.to_dict()) + "\n")
    return 0 if report.passed else 2


def _cmd_demo(args) -> int:
    loss_name, spec, lo, hi, count = demo_spec_from_dict(read_json(args.spec))
    demo = reparam_demo_1d(loss_name, spec, lo, hi, count)
    for note in demo.notes:
        print(note, file=sys.stderr)
    if args.out:
        _write_text(args.out, demo.curve_csv())
    payload = {
        "curve": {"eta": demo.etas, "loss": demo.values},
        **demo.to_dict(),
    }
    sys.stdout.write(to_json(payload) + "\n")
    return 0


_HANDLERS = {
    "train": _cmd_train,
    "metrics": _cmd_metrics,
    "transform": _cmd_transform,
    "sweep": _cmd_sweep,
    "verify": _cmd_verify,
    "demo-reparam": _cmd_demo,
}


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    if args.command is None:
        parser.print_usage(sys.stderr)
        print("flatlab: a COMMAND is required", file=sys.stderr)
        return 1
    try:
        return _HANDLERS[args.command](args)
    except (ValueError, OSError, KinkProximityError,
            TrainingDivergedError, RuntimeError) as exc:
        print(f"flatlab {args.command}: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())
