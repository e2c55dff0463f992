"""Named verification checks over the whole pipeline.

Every check manufactures its own points and data from the run seed, so a
suite run is a pure function of (suite, seed, thresholds). Within a
check, work units are keyed by index, each with its own random stream,
and run in index order; the ``ball_sharpness`` units of one architecture
share the steps of one ascent, each unit keeping its own results. Checks
share nothing, so :func:`run_suite` may measure them in forked worker
processes and still judges them in suite order. Reports serialize
canonically: repeated runs, with any number of jobs, produce identical
bytes.

A check only measures. It returns its facts, the numbers no limit
judges, and its limits, each a ``(stat, measured, relation, bound)`` with
every bound a named module constant. :func:`run_suite` derives the
report from them: the stats are the facts followed by each limit's
measured value under its stat, the limits are listed with their bounds,
and the check passes when every limit holds. A NaN measurement fails its
limit, since every comparison with NaN is false.
"""

from __future__ import annotations

import contextlib
import operator
import os
from dataclasses import asdict, dataclass

import numpy as np

from . import nets
from .errors import KinkProximityError
from .experiments import (forward_deviation, make_teacher_student,
                          probe_inputs, reparam_demo_1d)
from .linalg import _row_norms, symmetric_eigenspectrum
from .metrics import _ascend, hessian_measures, volume_flatness_certificate
from .nets import Architecture, Dataset, FlatIndex, uniform_params
from .rng import SeededRng
from .transforms import (PowerStretch, Radial, ScaleMap, alpha_scale_two_layer,
                         epsilon_sharp_alpha, radial_forward, radial_inverse,
                         radial_jacobian, sharpening_alpha, zero_first_layer)


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    passed: bool
    stats: dict
    limits: tuple[tuple[str, str, float | None], ...]
    detail: str = ""


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    seed: int
    checks: tuple[CheckOutcome, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "passed": self.passed,
            "checks": [asdict(c) for c in self.checks],
        }


def _unit_seed(seed: int, check_index: int, unit: int) -> int:
    # distinct per (run seed, check, unit); units never share streams
    return seed * 1_000_000 + check_index * 10_000 + unit


def _finite(x) -> float | None:
    value = float(x)
    return value if np.isfinite(value) else None


_RELATIONS = {"<=": operator.le, ">=": operator.ge, ">": operator.gt}


def _judge(name: str, facts: dict, limits) -> CheckOutcome:
    """Report the facts, then each limit's measured value under its stat,
    and each limit as ``(stat, relation, bound)``; a value or bound that is
    not finite is reported as None. Pass when every limit holds; the
    detail names each one that fails, its numbers in shortest round-trip
    form so a near miss stays visible."""
    stats = dict(facts)
    stats.update((stat, _finite(measured)) for stat, measured, _, _ in limits)
    failing = [f"{stat} {measured} not {relation} {bound}"
               for stat, measured, relation, bound in limits
               if not _RELATIONS[relation](measured, bound)]
    return CheckOutcome(
        name, not failing, stats,
        tuple((stat, relation, _finite(bound))
              for stat, _, relation, bound in limits),
        "; ".join(failing))


# ---------------------------------------------------------------------------
# function preservation across the scaling families


_EQUIVALENCE_TRIPLES = 1000
_EQUIVALENCE_TOL = 1e-9


def _equivalence_units(seed: int) -> np.ndarray:
    """Per ``equivalence`` unit: the forward deviation of its moved point.

    Unit i draws from family i % 3, each of which moves the point: the
    two-layer scale, then the deep scale without and with biases.
    """

    def one(i: int) -> float:
        gen = SeededRng.of(_unit_seed(seed, 1, i), "unit").generator()
        family = i % 3
        if family == 0:  # two-layer scale
            arch = Architecture((int(gen.integers(1, 5)),
                                 int(gen.integers(1, 9)), 1))
            params = uniform_params(arch, gen)
            alpha = float(np.exp(gen.uniform(np.log(0.2), np.log(5.0))))
            moved = alpha_scale_two_layer(arch, params, alpha)
        else:  # deep scale, without and with biases
            depth = int(gen.integers(2, 5))
            widths = [int(gen.integers(1, 5))]
            widths += [int(gen.integers(1, 7)) for _ in range(depth - 1)]
            widths.append(1)
            arch = Architecture(tuple(widths), use_bias=(family == 2))
            params = uniform_params(arch, gen)
            head = [float(np.exp(gen.uniform(np.log(0.3), np.log(3.0))))
                    for _ in range(depth - 1)]
            alphas = tuple(head) + (1.0 / float(np.prod(head)),)
            moved = ScaleMap(arch, alphas).apply(params)
        x = gen.uniform(-2.0, 2.0, size=(1, arch.input_width))
        return forward_deviation(arch, params, moved, x)

    return np.array([one(i) for i in range(_EQUIVALENCE_TRIPLES)])


def _check_equivalence(seed: int) -> tuple[dict, list]:
    """Transformed parameters realize the same function, point by point."""
    return (
        {"triples": _EQUIVALENCE_TRIPLES},
        [("max_deviation", np.max(_equivalence_units(seed)), "<=",
          _EQUIVALENCE_TOL)],
    )


# ---------------------------------------------------------------------------
# gradient and Hessian transformation laws


_DERIVATIVE_POINTS = 100
_GRAD_LAW_TOL = 1e-8
_HESS_LAW_TOL = 1e-12


def _check_derivative_laws(seed: int) -> tuple[dict, list]:
    """Predicted derivatives at the moved point match re-evaluation."""
    pool = (
        ((2, 3, 1), False),
        ((2, 4, 1), True),
        ((3, 4, 4, 1), False),
        ((2, 5, 1), False),
    )

    def one(i: int) -> tuple[float, float]:
        gen = SeededRng.of(_unit_seed(seed, 2, i), "unit").generator()
        widths, bias = pool[i % len(pool)]
        arch = Architecture(widths, use_bias=bias)
        for _ in range(60):
            params = uniform_params(arch, gen)
            inputs = gen.uniform(-1.0, 1.0, size=(8, arch.input_width))
            targets = gen.uniform(-1.0, 1.0, size=8)
            data = Dataset(inputs, targets)
            head = [float(np.exp(gen.uniform(np.log(0.6), np.log(1.6))))
                    for _ in range(arch.depth - 1)]
            scale = ScaleMap(arch, tuple(head) + (1.0 / float(np.prod(head)),))
            moved = scale.apply(params)
            try:
                hess = nets.hessian(arch, params, data)
                hess_moved = nets.hessian(arch, moved, data)
            except KinkProximityError:
                continue
            grad = nets.gradient(arch, params, data)
            grad_moved = nets.gradient(arch, moved, data)
            grad_err = float(
                np.linalg.norm(scale.gradient(grad) - grad_moved)
                / max(np.linalg.norm(grad_moved), 1e-12))
            hess_err = float(
                np.linalg.norm(scale.hessian(hess) - hess_moved)
                / max(np.linalg.norm(hess_moved), 1e-12))
            return grad_err, hess_err
        raise RuntimeError(f"no smooth point found for unit {i}")

    worst_grad, worst_hess = np.max(
        [one(i) for i in range(_DERIVATIVE_POINTS)], axis=0)
    return (
        {"points": _DERIVATIVE_POINTS},
        [("max_gradient_error", worst_grad, "<=", _GRAD_LAW_TOL),
         ("max_hessian_error", worst_hess, "<=", _HESS_LAW_TOL)],
    )


# ---------------------------------------------------------------------------
# making a minimum arbitrarily sharp without changing its function


_SHARPEN_TARGETS = (1e3, 1e6)
_SHARPEN_MIN_MARGIN = 1.0  # spectral norm over target, at worst
_SHARPEN_ARCHS = (6 * (((2, 8, 1), False),) + 4 * (((2, 8, 1), True),)
                  + 5 * (((2, 4, 1), False),) + 5 * (((3, 4, 4, 1), False),))


def _sharpening_units(seed: int) -> np.ndarray:
    """(units, targets, 3): each unit's alpha, spectral norm of D H D over
    the target, and forward deviation of the moved teacher, per target."""

    def one(i: int) -> list:
        widths, bias = _SHARPEN_ARCHS[i]
        arch = Architecture(widths, use_bias=bias)
        unit = _unit_seed(seed, 3, i)
        margin = 0.02 if arch.depth > 2 else 0.01
        data, teacher = make_teacher_student(arch, unit, m=48, margin=margin)
        hess = nets.hessian(arch, teacher, data)
        probes = probe_inputs(arch, unit)
        rows = []
        for target in _SHARPEN_TARGETS:
            alpha = sharpening_alpha(arch, hess, target)
            scale = ScaleMap.first_last(arch, alpha)
            norm = hessian_measures(scale.hessian(hess)).spectral_norm
            rows.append((alpha, norm / target, forward_deviation(
                arch, teacher, scale.apply(teacher), probes)))
        return rows

    return np.array([one(i) for i in range(len(_SHARPEN_ARCHS))])


def _check_sharpening(seed: int) -> tuple[dict, list]:
    """Closed-form scale choices drive the spectral norm past each target."""
    units = _sharpening_units(seed)
    return (
        {"minima": len(_SHARPEN_ARCHS), "targets": list(_SHARPEN_TARGETS)},
        [("min_spectral_margin", np.min(units[..., 1]), ">=",
          _SHARPEN_MIN_MARGIN),
         ("max_probe_deviation", np.max(units[..., 2]), "<=",
          _EQUIVALENCE_TOL)],
    )


# ---------------------------------------------------------------------------
# exploding many eigendirections at once in a deep net


_MANY_TARGET = 1e3
_MANY_UNITS = (False, False, False, False, False, True, True, True)
_MANY_MIN_TOP_EIGENVALUE = 0.0  # strict: the spectrum must have a top
_MANY_MIN_SURPLUS = 0  # directions above target, minus the guarantee
_MANY_GRAD_TOL = 1e-6


def _check_many_directions(seed: int) -> tuple[dict, list]:
    """Layer-wise scaling pushes almost the whole rank past the target."""

    def one(i: int) -> tuple:
        arch = Architecture((3, 4, 4, 1), use_bias=_MANY_UNITS[i])
        unit = _unit_seed(seed, 4, i)
        data, teacher = make_teacher_student(arch, unit, m=48, margin=0.02)
        grad_norm = float(np.linalg.norm(nets.gradient(arch, teacher, data)))
        hess = nets.hessian(arch, teacher, data)
        evals = symmetric_eigenspectrum(hess)
        lam1 = float(evals[0])
        if not lam1 > 0:
            return lam1, 0, 0, 0, grad_norm
        rank = int(np.sum(evals > 1e-6 * lam1))
        # coordinates whose curvature D = 1/multiplier does not grow; a power
        # of two keeps the last bias's running product exactly 1
        unmoved = int(np.count_nonzero(
            ScaleMap.many_directions(arch, 2.0).multipliers >= 1.0))
        guarantee = rank - unmoved
        # each moved coordinate's D entry is at least beta >= 1, so by Cauchy
        # interlacing and Ostrowski's theorem the top rank - unmoved
        # eigenvalues of DHD are at least beta^2 lam_r >= 16 target
        beta = max(1.0, 4.0 * float(np.sqrt(_MANY_TARGET / evals[rank - 1])))
        moved = ScaleMap.many_directions(arch, beta).hessian(hess)
        count = int(np.sum(symmetric_eigenspectrum(moved) > _MANY_TARGET))
        return lam1, rank, guarantee, count, grad_norm

    lam1s, ranks, guarantees, counts, grad_norms = zip(
        *(one(i) for i in range(len(_MANY_UNITS))))
    return (
        {"points": len(_MANY_UNITS), "target": _MANY_TARGET,
         "min_rank": min(ranks), "min_guarantee": min(guarantees)},
        [("min_top_eigenvalue", np.min(lam1s), ">", _MANY_MIN_TOP_EIGENVALUE),
         ("min_count_minus_guarantee",
          min(c - g for c, g in zip(counts, guarantees)), ">=",
          _MANY_MIN_SURPLUS),
         ("max_grad_norm", np.max(grad_norms), "<=", _MANY_GRAD_TOL)],
    )


# ---------------------------------------------------------------------------
# box-chain volume lower bound


_VOLUME_UNITS = (
    ((1, 4, 1), False, True),   # equal block sizes: constant volume per box
    ((1, 6, 1), False, True),
    ((2, 5, 1), False, False),  # growing volume per box
    ((2, 4, 1), True, False),
    ((3, 4, 4, 1), False, False),  # the deep construction
)
_VOLUME_BOXES = 20
_VOLUME_MAX_UNCERTIFIED = 0  # units whose chain is not valid and disjoint
_VOLUME_MIN_INCREMENT = 0.0  # strict: every box adds volume
_VOLUME_CONSTANT_TOL = 1e-9


def _volume_certificate(seed: int, i: int):
    """The certificate of ``volume`` unit ``i`` at run seed ``seed``."""
    widths, bias, _ = _VOLUME_UNITS[i]
    arch = Architecture(widths, use_bias=bias)
    unit = _unit_seed(seed, 5, i)
    data, teacher = make_teacher_student(arch, unit, m=32)
    return volume_flatness_certificate(
        arch, teacher, data, epsilon=1e-2, boxes=_VOLUME_BOXES,
        samples_per_box=48, rng=SeededRng.of(unit, "witness"))


def _check_volume(seed: int) -> tuple[dict, list]:
    """Certified lower bound keeps growing box after box."""

    def one(i: int) -> tuple:
        cert = _volume_certificate(seed, i)
        bounds = np.asarray(cert.lower_bounds)
        increments = np.diff(np.concatenate(([0.0], bounds)))
        constant_dev = 0.0
        if _VOLUME_UNITS[i][2]:  # equal block sizes
            constant_dev = float(np.max(np.abs(increments - cert.v)) / cert.v)
        return (cert.valid and cert.disjointness_verified, bounds[-1],
                np.min(increments), constant_dev)

    certified, bounds, increments, constant_devs = zip(
        *(one(i) for i in range(len(_VOLUME_UNITS))))
    return (
        {"points": len(_VOLUME_UNITS), "boxes": _VOLUME_BOXES,
         "min_lower_bound": _finite(np.min(bounds))},
        [("uncertified_units", certified.count(False), "<=",
          _VOLUME_MAX_UNCERTIFIED),
         ("min_box_increment", np.min(increments), ">",
          _VOLUME_MIN_INCREMENT),
         ("max_constant_deviation", np.max(constant_devs), "<=",
          _VOLUME_CONSTANT_TOL)],
    )


# ---------------------------------------------------------------------------
# ball sharpness after shrinking the first layer into the ball


_BALL_ARCHS = ((2, 4, 1), (2, 8, 1), (3, 4, 4, 1))
_BALL_UNITS = 20
_BALL_EPSILON = 1e-2
_BALL_MIN_BOUND_RATIO = 1.0  # sharpness after over the zero-layer bound
_BALL_MIN_RISE = 1.0 - 1e-9  # sharpness after over before


def _ball_units(seed: int) -> list[tuple]:
    """Per ``ball_sharpness`` unit: the ascent results from the teacher and
    from its rescaled point, the zero-first-layer bound, the probe
    deviation. The units of one architecture share one :func:`_ascend`."""

    def one(i: int) -> tuple:
        arch = Architecture(_BALL_ARCHS[i % len(_BALL_ARCHS)])
        unit = _unit_seed(seed, 6, i)
        data, teacher = make_teacher_student(arch, unit, m=48)
        base_loss = nets.loss(arch, teacher, data)
        alpha = epsilon_sharp_alpha(arch, teacher, _BALL_EPSILON)
        point = ScaleMap.first_last(arch, alpha).apply(teacher)
        deviation = forward_deviation(arch, teacher, point,
                                      probe_inputs(arch, unit))
        zero_loss = nets.loss(arch, zero_first_layer(arch, point), data)
        bound = 0.9 * (zero_loss - base_loss) / (1.0 + base_loss)
        centers = np.stack([nets.vec(arch, teacher), nets.vec(arch, point)])
        return data, centers, unit, bound, deviation

    units = [one(i) for i in range(_BALL_UNITS)]
    ascents = {}
    for first, widths in enumerate(_BALL_ARCHS):
        group = range(first, _BALL_UNITS, len(_BALL_ARCHS))
        data, centers, seeds = zip(*(units[i][:3] for i in group))
        ascents.update(zip(group, _ascend(
            nets.Objective(Architecture(widths), data), np.stack(centers),
            eps=_BALL_EPSILON, steps=100, seeds=seeds)))
    return [(*ascents[i], *units[i][3:]) for i in range(_BALL_UNITS)]


def _check_ball_sharpness(seed: int) -> tuple[dict, list]:
    """After rescaling, the ball reaches the zero-first-layer loss level."""
    before, after, bounds, deviations = zip(*_ball_units(seed))
    ratios = [a.value / b if b > 0 else np.inf for a, b in zip(after, bounds)]
    rises = [a.value / b.value if b.value > 0 else np.inf
             for a, b in zip(after, before)]
    return (
        {"minima": _BALL_UNITS, "epsilon": _BALL_EPSILON},
        [("min_bound_ratio", np.min(ratios), ">=", _BALL_MIN_BOUND_RATIO),
         ("min_rise", np.min(rises), ">=", _BALL_MIN_RISE),
         ("max_probe_deviation", np.max(deviations), "<=", _EQUIVALENCE_TOL)],
    )


# ---------------------------------------------------------------------------
# gradient norm blows up as the first layer shrinks


_SLOPE_UNITS = 3
_SLOPE_TOL = 0.05


def _check_gradient_slope(seed: int) -> tuple[dict, list]:
    """Log-log slope of gradient norm against the scale factor is -1."""

    def one(i: int) -> float:
        arch = Architecture((2, 4, 1))
        gen = SeededRng.of(_unit_seed(seed, 7, i), "unit").generator()
        index = FlatIndex(arch)
        first = index.weight_slice(0)
        for _ in range(500):
            params = uniform_params(arch, gen)
            inputs = gen.uniform(-1.0, 1.0, size=(16, 2))
            targets = gen.uniform(-1.0, 1.0, size=16)
            data = Dataset(inputs, targets)
            grad = nets.gradient(arch, params, data)
            total = float(np.linalg.norm(grad))
            head = float(np.linalg.norm(grad[first]))
            # first-block share large enough that the tail term cannot
            # bend the fitted slope past the tolerance
            if total > 1e-3 and head >= 0.6 * total:
                break
        else:
            raise RuntimeError(f"no first-layer-dominant point for unit {i}")
        alphas_grid = 10.0 ** np.linspace(0.0, -4.0, 9)
        norms = []
        for alpha in alphas_grid:
            moved = alpha_scale_two_layer(arch, params, float(alpha))
            norms.append(np.linalg.norm(nets.gradient(arch, moved, data)))
        slope = float(np.polyfit(np.log(alphas_grid), np.log(norms), 1)[0])
        return slope

    slopes = [one(i) for i in range(_SLOPE_UNITS)]
    return (
        {"points": _SLOPE_UNITS, "slopes": [_finite(s) for s in slopes]},
        [("max_slope_deviation", np.max(np.abs(np.add(slopes, 1.0))), "<=",
          _SLOPE_TOL)],
    )


# ---------------------------------------------------------------------------
# radial map: inverse, Jacobian, and outside identity


_RADIAL_POINTS = 500
_RADIAL_DIM = 7
_RADIAL_ROUND_TRIP_TOL = 1e-10
_RADIAL_JACOBIAN_TOL = 1e-5
_RADIAL_MAX_OUTSIDE_MOVED = 0  # points outside the ball not mapped exactly


def _check_radial(seed: int) -> tuple[dict, list]:
    """Round trips, printed Jacobian, and bitwise identity outside.

    Each band draws its points one at a time, then evaluates them in
    blocks. The finite-difference Jacobian is two stacked forward calls on
    the rows moved by +-step along each axis.
    """
    gen = SeededRng.of(_unit_seed(seed, 8, 0), "unit").generator()
    center = gen.uniform(-1.0, 1.0, size=_RADIAL_DIM)
    spec = Radial(center, delta=1.3, rho=0.45, rhat=0.7)
    bands = (
        ("inner", 0.02, spec.rhat - 0.02),
        ("middle", spec.rhat + 0.02, spec.delta - 0.02),
        ("outer", spec.delta + 0.02, spec.delta + 2.0),
    )
    # a (points, dim, dim) stack gets a quarter of nets._BLOCK_ELEMENTS: the
    # finite-difference pass holds several at once, and full-size blocks
    # raised the suite's peak resident set by 0.5 MB (CHANGES.md)
    block = max(1, nets._BLOCK_ELEMENTS // (4 * _RADIAL_DIM ** 2))

    def fd_jacobian(u: np.ndarray, step: float = 1e-6) -> np.ndarray:
        moves = step * np.eye(_RADIAL_DIM)
        plus = (u[:, None, :] + moves).reshape(-1, _RADIAL_DIM)
        minus = (u[:, None, :] - moves).reshape(-1, _RADIAL_DIM)
        cols = (radial_forward(plus, spec)
                - radial_forward(minus, spec)) / (2.0 * step)
        return cols.reshape(len(u), _RADIAL_DIM, _RADIAL_DIM).transpose(0, 2, 1)

    def one(band_index: int) -> tuple:
        _, lo, hi = bands[band_index]
        local = SeededRng.of(_unit_seed(seed, 8, 1 + band_index),
                             "unit").generator()
        directions = np.empty((_RADIAL_POINTS, _RADIAL_DIM))
        radii = np.empty(_RADIAL_POINTS)
        for i in range(_RADIAL_POINTS):
            directions[i] = local.normal(size=_RADIAL_DIM)
            radii[i] = local.uniform(lo, hi)
        directions /= _row_norms(directions)[:, None]
        points = center + radii[:, None] * directions
        rounds, jacs, moved = [], [], 0
        for start in range(0, _RADIAL_POINTS, block):
            u = points[start:start + block]
            v = radial_forward(u, spec)
            w = radial_inverse(u, spec)
            rounds += [np.max(np.abs(radial_inverse(v, spec) - u)),
                       np.max(np.abs(radial_forward(w, spec) - u))]
            jac = radial_jacobian(u, spec)
            err = _row_norms((jac - fd_jacobian(u)).reshape(len(u), -1))
            scale = np.maximum(_row_norms(jac.reshape(len(u), -1)), 1.0)
            jacs.append(np.max(err / scale))
            moved += int(np.sum(np.any((v != u) | (w != u), axis=1)))
        return np.max(rounds), np.max(jacs), moved

    rounds, jacs, moved = zip(*(one(i) for i in range(len(bands))))
    return (
        {"points_per_region": _RADIAL_POINTS, "dim": _RADIAL_DIM},
        [("max_round_trip", np.max(rounds), "<=", _RADIAL_ROUND_TRIP_TOL),
         ("max_jacobian_error", np.max(jacs), "<=", _RADIAL_JACOBIAN_TOL),
         ("outside_points_moved", moved[2], "<=",
          _RADIAL_MAX_OUTSIDE_MOVED)],
    )


# ---------------------------------------------------------------------------
# one-dimensional curvature congruence


_CONGRUENCE_TOL = 1e-3
_CONGRUENCE_MAX_MISCOUNT = 0  # minima found versus minima expected
_CONGRUENCE_MIN_NONCRITICAL = 2
_CONGRUENCE_UNITS = (
    ("quadratic", PowerStretch(0.0, 0.0, 1.0), -2.0, 2.0, 401, 1),
    ("double_well", PowerStretch(0.2, 1.0, 0.5), -2.0, 2.0, 801, 2),
    ("triple_well", PowerStretch(-0.3, 0.7, 0.8), -1.6, 1.6, 801, 3),
    ("double_well", Radial(np.array([0.9]), delta=1.5, rho=0.6, rhat=0.9),
     -2.5, 2.5, 801, 2),
)


def _check_curvature_congruence(seed: int) -> tuple[dict, list]:
    """Transformed curve curvature equals the congruence prediction."""

    def one(i: int) -> tuple:
        loss_name, spec, lo, hi, count, expected = _CONGRUENCE_UNITS[i]
        demo = reparam_demo_1d(loss_name, spec, lo, hi, count)
        # no points found: an infinite error, which fails the tolerance
        minima_err, noncrit_err = (
            np.max([p.rel_err for p in points] or [np.inf])
            for points in (demo.minima, demo.noncritical))
        return (abs(len(demo.minima) - expected), len(demo.noncritical),
                minima_err, noncrit_err)

    miscounts, noncritical, minima_errs, noncrit_errs = zip(
        *(one(i) for i in range(len(_CONGRUENCE_UNITS))))
    max_minima_err = np.max(minima_errs)
    max_noncrit_err = np.max(noncrit_errs)
    return (
        {"demos": len(_CONGRUENCE_UNITS),
         "max_minimum_error": _finite(max_minima_err),
         "max_noncritical_error": _finite(max_noncrit_err)},
        [("max_minima_miscount", np.max(miscounts), "<=",
          _CONGRUENCE_MAX_MISCOUNT),
         ("min_noncritical_points", np.min(noncritical), ">=",
          _CONGRUENCE_MIN_NONCRITICAL),
         ("max_curvature_error", np.max([max_minima_err, max_noncrit_err]),
          "<=", _CONGRUENCE_TOL)],
    )


# ---------------------------------------------------------------------------
# suites


CHECKS = {
    "equivalence": _check_equivalence,
    "derivative_laws": _check_derivative_laws,
    "sharpening": _check_sharpening,
    "many_directions": _check_many_directions,
    "volume": _check_volume,
    "ball_sharpness": _check_ball_sharpness,
    "gradient_blowup": _check_gradient_slope,
    "radial": _check_radial,
    "curvature_congruence": _check_curvature_congruence,
}

CHECK_ORDER = tuple(CHECKS)

SUITES = {name: (name,) for name in CHECK_ORDER}
SUITES["all"] = CHECK_ORDER


def _measure(name: str, seed: int) -> tuple[dict, list]:
    # looked up by name, so a worker runs the entry its parent held at fork
    return CHECKS[name](seed)


def _worker_count(jobs: int, checks: int) -> int:
    """Processes to measure ``checks`` checks in: at most ``jobs`` and the
    usable CPUs; 1 where the platform cannot fork or report its CPUs."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return min(jobs, checks, len(os.sched_getaffinity(0)))


def run_suite(suite: str, seed: int, jobs: int = 1,
              progress=None) -> SuiteReport:
    """Run the suite's checks and judge them in suite order.

    With ``jobs > 1`` the checks are measured in up to ``jobs`` forked
    worker processes, never more than the checks or the usable CPUs; with
    one worker they run in this process. Every check is a pure function
    of the seed, so the report's bytes do not depend on ``jobs``, and no
    worker outlives the call. A check that raises re-raises here.
    """
    if suite not in SUITES:
        raise ValueError(
            f"unknown suite {suite!r}; available: {', '.join(sorted(SUITES))}"
        )
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if not (-1 << 63 <= _unit_seed(seed, 1, 0)
            and _unit_seed(seed, len(CHECK_ORDER), 9_999) < 1 << 63):
        raise ValueError(f"run seed {seed} gives unit seeds outside int64")
    names = SUITES[suite]
    workers = _worker_count(jobs, len(names))
    with contextlib.ExitStack() as stack:
        if workers > 1:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor
            pool = stack.enter_context(ProcessPoolExecutor(
                workers, mp_context=multiprocessing.get_context("fork")))
            measured = pool.map(_measure, names, [seed] * len(names))
        else:
            measured = (_measure(name, seed) for name in names)
        outcomes = []
        for name, (facts, limits) in zip(names, measured):
            outcome = _judge(name, facts, limits)
            if progress is not None:
                progress(f"check {name}: pass" if outcome.passed
                         else f"check {name}: FAIL ({outcome.detail})")
            outcomes.append(outcome)
    return SuiteReport(suite, seed, tuple(outcomes))
