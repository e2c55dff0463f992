"""Spans around flatlab's public functions, recorded from outside the package.

The tracer replaces each traced function with a wrapper in every loaded
``flatlab`` module that holds a reference to it, so names pulled in with
``from ... import`` (``verify.make_teacher_student``, ``metrics.unvec``,
...) are counted too, and it wraps the entries of ``verify.CHECKS``.
Nothing under ``src/`` is edited; ``uninstall`` puts the originals back.

A span is ``(id, parent, name, start_ns, end_ns, extra)``. Parents come
from a per-thread stack, so a span opened in a pool worker has no parent
in the thread that submitted it. Spans stay in memory until ``take``.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time
from collections import defaultdict


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _lag_shape(args, kwargs, result):
    arch = _arg(args, kwargs, 0, "arch")
    data = _arg(args, kwargs, 2, "data")
    return [list(arch.layer_widths), int(data.inputs.shape[0])]


def _volume_outcome(args, kwargs, cert):
    bound = cert.volume_lower_bound
    ok = cert.valid and 0.0 < bound < float("inf")
    return [int(cert.shrink_steps), ok]


# (module, function, observer): the observer turns a call's result into the
# span's ``extra``; a raised exception becomes ``{"raised": <type name>}``.
TARGETS = (
    ("flatlab.nets", "loss", None),
    ("flatlab.nets", "loss_and_gradient", _lag_shape),
    ("flatlab.nets", "unvec", None),
    ("flatlab.nets", "hessian", None),
    ("flatlab.nets", "kink_distance", None),
    ("flatlab.linalg", "symmetric_eigendecomposition",
     lambda args, kwargs, result: int(result[0].size)),
    ("flatlab.linalg", "power_iteration",
     lambda args, kwargs, result: [int(result.iterations), bool(result.converged)]),
    ("flatlab.metrics", "epsilon_sharpness",
     lambda args, kwargs, result: int(result.discarded)),
    ("flatlab.metrics", "hessian_measures", None),
    ("flatlab.metrics", "volume_flatness_certificate", _volume_outcome),
    ("flatlab.experiments", "make_teacher_student",
     lambda args, kwargs, result: int(result[0].size)),
    ("flatlab.experiments", "reparam_demo_1d", None),
)

SHORT_NAMES = {f"{module}.{func}": f"{module.split('.', 1)[1]}.{func}"
               for module, func, _ in TARGETS}


class Tracer:
    """Wraps the functions in ``TARGETS`` and records one span per call."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._swaps: list[tuple] = []  # (namespace, key, original, wrapper)

    def _wrap(self, name, fn, observe):
        spans = self.spans
        ids = self._ids
        local = self._local
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end,
                              {"raised": type(exc).__name__}))
                raise
            end = clock()
            stack.pop()
            spans.append((sid, parent, name, start, end,
                          observe(args, kwargs, result) if observe else None))
            return result

        return traced

    def install(self) -> None:
        """Swap wrappers in; the first call builds them from the live modules."""
        if not self._swaps:
            modules = [m for key, m in list(sys.modules.items())
                       if m is not None and (key == "flatlab"
                                             or key.startswith("flatlab."))]
            for module_name, func, observe in TARGETS:
                original = getattr(sys.modules[module_name], func)
                wrapper = self._wrap(SHORT_NAMES[f"{module_name}.{func}"],
                                     original, observe)
                for module in modules:
                    space = vars(module)
                    for key, value in list(space.items()):
                        if value is original:
                            self._swaps.append((space, key, original, wrapper))
            checks = sys.modules["flatlab.verify"].CHECKS
            for key, original in checks.items():
                self._swaps.append((checks, key, original,
                                    self._wrap(f"verify.{key}", original, None)))
        for space, key, _, wrapper in self._swaps:
            space[key] = wrapper

    def uninstall(self) -> None:
        for space, key, original, _ in self._swaps:
            space[key] = original

    def take(self) -> list[tuple]:
        """Hand over the spans recorded so far and start a fresh list."""
        taken = self.spans[:]
        self.spans.clear()
        return taken


def write_spans(path, spans) -> None:
    """One JSON array per line: id, parent, name, start_ns, end_ns, extra."""
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span))
            fh.write("\n")


def read_spans(path) -> list[tuple]:
    with open(path, encoding="utf-8") as fh:
        return [tuple(json.loads(line)) for line in fh]


def is_count(name: str) -> bool:
    """Whether a per-layer metric is a count, which must repeat exactly."""
    return not name.endswith(("_s", ".s", ".gflops"))


def _matmul_flops(widths, m) -> int:
    """Multiply-adds of one ``loss_and_gradient`` call, from the shapes.

    Forward ``a @ W_k`` and weight gradients ``a.T @ delta`` per layer,
    plus ``delta @ W_k.T`` below every layer but the first; two FLOPs per
    multiply-add. Elementwise work is left out.
    """
    layers = [a * b for a, b in zip(widths[:-1], widths[1:])]
    return 2 * m * (2 * sum(layers) + sum(layers[1:]))


_EVAL_OWNERS = {
    # span name -> enclosing span whose work it is counted as
    "nets.loss": ("metrics.epsilon_sharpness",
                  "metrics.volume_flatness_certificate"),
    "nets.loss_and_gradient": ("metrics.epsilon_sharpness",),
    "nets.kink_distance": ("experiments.make_teacher_student",),
}


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer counts and times of one pass, keyed ``<layer>.<fn>.<metric>``.

    ``self_s`` is a span's duration minus the durations of its direct
    children; ``s`` (used for the verify checks) is the inclusive duration.
    """
    calls = defaultdict(int)
    self_ns = defaultdict(int)
    total_ns = defaultdict(int)
    child_ns = defaultdict(int)
    parent_of = {}
    name_of = {}
    for sid, parent, name, start, end, _ in spans:
        child_ns[parent] += end - start
        parent_of[sid] = parent
        name_of[sid] = name
    for sid, parent, name, start, end, _ in spans:
        calls[name] += 1
        total_ns[name] += end - start
        self_ns[name] += end - start - child_ns[sid]

    owned = defaultdict(int)  # (owner, counted name) -> calls
    for sid, parent, name, *_ in spans:
        owners = _EVAL_OWNERS.get(name)
        if owners is None:
            continue
        up = parent
        while up and name_of.get(up) not in owners:
            up = parent_of.get(up, 0)
        if up:
            owned[(name_of[up], name)] += 1

    flops = 0
    refused = max_n = iterations = unconverged = discarded = 0
    shrink_steps = volume_failed = teacher_rows = 0
    for *_, name, start, end, extra in spans:
        raised = extra.get("raised") if isinstance(extra, dict) else None
        if name == "nets.loss_and_gradient" and raised is None:
            flops += _matmul_flops(*extra)
        elif name == "nets.hessian" and raised == "KinkProximityError":
            refused += 1
        elif name == "linalg.symmetric_eigendecomposition" and raised is None:
            max_n = max(max_n, extra)
        elif name == "linalg.power_iteration" and raised is None:
            iterations += extra[0]
            unconverged += not extra[1]
        elif name == "metrics.epsilon_sharpness" and raised is None:
            discarded += extra
        elif name == "metrics.volume_flatness_certificate":
            if raised is None:
                shrink_steps += extra[0]
                volume_failed += not extra[1]
            else:
                volume_failed += 1
        elif name == "experiments.make_teacher_student" and raised is None:
            teacher_rows += extra

    out: dict[str, float] = {}
    for name in set(SHORT_NAMES.values()) | {n for n in calls if n.startswith("verify.")}:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_ns[name] / 1e9
        out[f"{name}.s"] = total_ns[name] / 1e9
    lag_self = self_ns["nets.loss_and_gradient"] / 1e9
    out["nets.loss_and_gradient.gflops"] = flops / lag_self / 1e9 if lag_self else 0.0
    out["nets.hessian.refused"] = refused
    out["linalg.symmetric_eigendecomposition.max_n"] = max_n
    out["linalg.power_iteration.iterations"] = iterations
    out["linalg.power_iteration.unconverged"] = unconverged
    out["metrics.epsilon_sharpness.evals"] = (
        owned[("metrics.epsilon_sharpness", "nets.loss")]
        + owned[("metrics.epsilon_sharpness", "nets.loss_and_gradient")])
    out["metrics.epsilon_sharpness.discarded"] = discarded
    out["metrics.volume_flatness_certificate.loss_evals"] = owned[
        ("metrics.volume_flatness_certificate", "nets.loss")]
    out["metrics.volume_flatness_certificate.shrink_steps"] = shrink_steps
    out["metrics.volume_flatness_certificate.failed"] = volume_failed
    probes = owned[("experiments.make_teacher_student", "nets.kink_distance")]
    out["experiments.make_teacher_student.kink_probes_per_row"] = (
        probes / teacher_rows if teacher_rows else 0.0)
    out["trace.spans"] = len(spans)
    return out
