"""Named verification checks over the whole pipeline.

Every check manufactures its own points and data from the run seed, so a
suite run is a pure function of (suite, seed, thresholds). Work units
are keyed by index, each with its own random stream, and run serially in
index order. Reports serialize canonically: repeated runs produce
identical bytes.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import nets
from .errors import KinkProximityError
from .experiments import (forward_deviation, make_teacher_student,
                          probe_inputs, reparam_demo_1d)
from .linalg import _row_norms, symmetric_eigenspectrum
from .metrics import (SharpnessConfig, epsilon_sharpness, hessian_measures,
                      volume_flatness_certificate)
from .nets import Architecture, Dataset, FlatIndex, uniform_params
from .rng import SeededRng
from .transforms import (PowerStretch, Radial, alpha_scale_deep,
                         alpha_scale_two_layer, diagonal_scaling,
                         epsilon_sharp_alpha, first_last_alphas,
                         many_directions_alphas, predicted_gradient,
                         predicted_hessian, radial_forward, radial_inverse,
                         radial_jacobian, sharpening_alpha,
                         weight_norm_scale, zero_first_layer)


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    passed: bool
    stats: dict
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


# ---------------------------------------------------------------------------
# function preservation across the scaling families


_EQUIVALENCE_TRIPLES = 1000
_EQUIVALENCE_TOL = 1e-9


def _check_equivalence(seed: int) -> CheckOutcome:
    """Transformed parameters realize the same function, point by point."""

    def one(i: int) -> float:
        gen = SeededRng(_unit_seed(seed, 1, i), 7).generator()
        family = i % 4
        if family == 0:  # two-layer scale
            arch = Architecture((int(gen.integers(1, 5)),
                                 int(gen.integers(1, 9)), 1))
            params = uniform_params(arch, gen)
            alpha = float(np.exp(gen.uniform(np.log(0.2), np.log(5.0))))
            moved = alpha_scale_two_layer(arch, params, alpha)
        elif family in (1, 2):  # deep scale, without and with biases
            depth = int(gen.integers(2, 5))
            widths = [int(gen.integers(1, 5))]
            widths += [int(gen.integers(1, 7)) for _ in range(depth - 1)]
            widths.append(1)
            arch = Architecture(tuple(widths), use_bias=(family == 2))
            params = uniform_params(arch, gen)
            head = [float(np.exp(gen.uniform(np.log(0.3), np.log(3.0))))
                    for _ in range(depth - 1)]
            alphas = tuple(head) + (1.0 / float(np.prod(head)),)
            moved = alpha_scale_deep(arch, params, alphas)
        else:  # weight-norm scale with alpha > 0
            depth = int(gen.integers(2, 4))
            widths = ([int(gen.integers(1, 5))]
                      + [int(gen.integers(1, 6)) for _ in range(depth - 1)]
                      + [1])
            arch = Architecture(tuple(widths))
            params = uniform_params(arch, gen)
            layer = int(gen.integers(0, depth))
            alpha = float(np.exp(gen.uniform(np.log(0.1), np.log(10.0))))
            moved = weight_norm_scale(arch, params, layer, alpha)
        x = gen.uniform(-2.0, 2.0, size=(1, arch.input_width))
        return forward_deviation(arch, params, moved, x)

    deviations = [one(i) for i in range(_EQUIVALENCE_TRIPLES)]
    worst = max(deviations)
    passed = worst <= _EQUIVALENCE_TOL
    detail = "" if passed else (
        f"worst forward deviation {worst:.3e} exceeds {_EQUIVALENCE_TOL:.0e} "
        f"(triple {int(np.argmax(deviations))})"
    )
    return CheckOutcome(
        "equivalence", passed,
        {"triples": _EQUIVALENCE_TRIPLES, "max_deviation": _finite(worst),
         "tolerance": _EQUIVALENCE_TOL},
        detail,
    )


# ---------------------------------------------------------------------------
# gradient and Hessian transformation laws


_DERIVATIVE_POINTS = 100
_GRAD_LAW_TOL = 1e-8
_HESS_LAW_TOL = 1e-12


def _check_derivative_laws(seed: int) -> CheckOutcome:
    """Predicted derivatives at the moved point match re-evaluation."""
    pool = (
        ((2, 3, 1), False),
        ((2, 4, 1), True),
        ((3, 4, 4, 1), False),
        ((2, 5, 1), False),
    )

    def one(i: int) -> tuple[float, float]:
        gen = SeededRng(_unit_seed(seed, 2, i), 7).generator()
        widths, bias = pool[i % len(pool)]
        arch = Architecture(widths, use_bias=bias)
        for _ in range(60):
            params = uniform_params(arch, gen)
            inputs = gen.uniform(-1.0, 1.0, size=(8, arch.input_width))
            targets = gen.uniform(-1.0, 1.0, size=8)
            data = Dataset(inputs, targets)
            head = [float(np.exp(gen.uniform(np.log(0.6), np.log(1.6))))
                    for _ in range(arch.depth - 1)]
            alphas = tuple(head) + (1.0 / float(np.prod(head)),)
            moved = alpha_scale_deep(arch, params, alphas)
            try:
                hess = nets.hessian(arch, params, data)
                hess_moved = nets.hessian(arch, moved, data)
            except KinkProximityError:
                continue
            grad = nets.gradient(arch, params, data)
            grad_moved = nets.gradient(arch, moved, data)
            scaling = diagonal_scaling(arch, alphas)
            grad_err = float(
                np.linalg.norm(predicted_gradient(grad, scaling) - grad_moved)
                / max(np.linalg.norm(grad_moved), 1e-12))
            hess_err = float(
                np.linalg.norm(predicted_hessian(hess, scaling) - hess_moved)
                / max(np.linalg.norm(hess_moved), 1e-12))
            return grad_err, hess_err
        raise RuntimeError(f"no smooth point found for unit {i}")

    results = [one(i) for i in range(_DERIVATIVE_POINTS)]
    worst_grad = max(r[0] for r in results)
    worst_hess = max(r[1] for r in results)
    passed = worst_grad <= _GRAD_LAW_TOL and worst_hess <= _HESS_LAW_TOL
    detail = "" if passed else (
        f"gradient law error {worst_grad:.3e} (tol {_GRAD_LAW_TOL:.0e}), "
        f"curvature law error {worst_hess:.3e} (tol {_HESS_LAW_TOL:.0e})"
    )
    return CheckOutcome(
        "derivative_laws", passed,
        {"points": _DERIVATIVE_POINTS,
         "max_gradient_error": _finite(worst_grad),
         "max_hessian_error": _finite(worst_hess),
         "gradient_tolerance": _GRAD_LAW_TOL,
         "hessian_tolerance": _HESS_LAW_TOL},
        detail,
    )


# ---------------------------------------------------------------------------
# making a minimum arbitrarily sharp without changing its function


_SHARPEN_TARGETS = (1e3, 1e6)
_SHARPEN_ARCHS = (
    ((2, 8, 1), False), ((2, 8, 1), False), ((2, 8, 1), False),
    ((2, 8, 1), False), ((2, 8, 1), False), ((2, 8, 1), False),
    ((2, 8, 1), True), ((2, 8, 1), True), ((2, 8, 1), True),
    ((2, 8, 1), True),
    ((2, 4, 1), False), ((2, 4, 1), False), ((2, 4, 1), False),
    ((2, 4, 1), False), ((2, 4, 1), False),
    ((3, 4, 4, 1), False), ((3, 4, 4, 1), False), ((3, 4, 4, 1), False),
    ((3, 4, 4, 1), False), ((3, 4, 4, 1), False),
)


def _check_sharpening(seed: int) -> CheckOutcome:
    """Certified scale choice drives the spectral norm past any target."""

    def one(i: int) -> dict:
        widths, bias = _SHARPEN_ARCHS[i]
        arch = Architecture(widths, use_bias=bias)
        unit = _unit_seed(seed, 3, i)
        margin = 0.02 if arch.depth > 2 else 0.01
        data, teacher = make_teacher_student(arch, unit, m=48, margin=margin)
        hess = nets.hessian(arch, teacher, data)
        probes = probe_inputs(arch, unit)
        min_margin = np.inf
        max_dev = 0.0
        for target in _SHARPEN_TARGETS:
            alpha = sharpening_alpha(arch, hess, target)
            alphas = first_last_alphas(arch.depth, alpha)
            measures = hessian_measures(
                predicted_hessian(hess, diagonal_scaling(arch, alphas)))
            min_margin = min(min_margin, measures.spectral_norm / target)
            moved = alpha_scale_deep(arch, teacher, alphas)
            max_dev = max(max_dev,
                          forward_deviation(arch, teacher, moved, probes))
        return {"margin": min_margin, "deviation": max_dev}

    results = [one(i) for i in range(len(_SHARPEN_ARCHS))]
    min_margin = min(r["margin"] for r in results)
    max_dev = max(r["deviation"] for r in results)
    passed = min_margin >= 1.0 and max_dev <= _EQUIVALENCE_TOL
    detail = "" if passed else (
        f"spectral norm reached only {min_margin:.3f} of target, "
        f"or probe deviation {max_dev:.3e} exceeds {_EQUIVALENCE_TOL:.0e}"
    )
    return CheckOutcome(
        "sharpening", passed,
        {"minima": len(_SHARPEN_ARCHS), "targets": list(_SHARPEN_TARGETS),
         "min_spectral_margin": _finite(min_margin),
         "max_probe_deviation": _finite(max_dev)},
        detail,
    )


# ---------------------------------------------------------------------------
# exploding many eigendirections at once in a deep net


_MANY_TARGET = 1e3
_MANY_UNITS = (False, False, False, False, False, True, True, True)


def _check_many_directions(seed: int) -> CheckOutcome:
    """Layer-wise scaling pushes almost the whole rank past the target."""

    def one(i: int) -> dict:
        arch = Architecture((3, 4, 4, 1), use_bias=_MANY_UNITS[i])
        unit = _unit_seed(seed, 4, i)
        data, teacher = make_teacher_student(arch, unit, m=48, margin=0.02)
        grad_norm = float(np.linalg.norm(nets.gradient(arch, teacher, data)))
        hess = nets.hessian(arch, teacher, data)
        evals = symmetric_eigenspectrum(hess)
        lam1 = float(evals[0])
        if lam1 <= 0:
            return {"rank": 0, "guarantee": 0, "count": 0, "beta": 0.0,
                    "grad_norm": grad_norm, "ok": False}
        rank = int(np.sum(evals > 1e-6 * lam1))
        index = FlatIndex(arch)
        last = index.weight_slice(arch.depth - 1)
        unmoved = (last.stop - last.start) + (
            arch.layer_widths[-1] if arch.use_bias else 0)
        guarantee = rank - unmoved
        lam_r = float(evals[rank - 1])
        beta = 4.0 * float(np.sqrt(_MANY_TARGET / lam_r))
        count = 0
        for _ in range(12):
            alphas = many_directions_alphas(arch.depth, beta)
            moved = predicted_hessian(hess, diagonal_scaling(arch, alphas))
            count = int(np.sum(symmetric_eigenspectrum(moved) > _MANY_TARGET))
            if count >= guarantee:
                break
            beta *= 4.0
        return {"rank": rank, "guarantee": guarantee, "count": count,
                "beta": beta, "grad_norm": grad_norm,
                "ok": count >= guarantee and grad_norm <= 1e-6}

    results = [one(i) for i in range(len(_MANY_UNITS))]
    passed = all(r["ok"] for r in results)
    worst_gap = min(r["count"] - r["guarantee"] for r in results)
    detail = "" if passed else "; ".join(
        f"unit {i}: {r['count']} of {r['guarantee']} directions above target"
        for i, r in enumerate(results) if not r["ok"])
    return CheckOutcome(
        "many_directions", passed,
        {"points": len(_MANY_UNITS), "target": _MANY_TARGET,
         "min_rank": min(r["rank"] for r in results),
         "min_guarantee": min(r["guarantee"] for r in results),
         "min_count_minus_guarantee": int(worst_gap),
         "max_grad_norm": _finite(max(r["grad_norm"] for r in results))},
        detail,
    )


# ---------------------------------------------------------------------------
# box-chain volume lower bound


_VOLUME_UNITS = (
    ((1, 4, 1), False, True),   # equal block sizes: constant volume per box
    ((1, 6, 1), False, True),
    ((2, 5, 1), False, False),  # growing volume per box
    ((2, 4, 1), True, False),
)


def _check_volume(seed: int) -> CheckOutcome:
    """Certified lower bound keeps growing box after box."""

    def one(i: int) -> dict:
        widths, bias, constant = _VOLUME_UNITS[i]
        arch = Architecture(widths, use_bias=bias)
        unit = _unit_seed(seed, 5, i)
        data, teacher = make_teacher_student(arch, unit, m=32)
        cert = volume_flatness_certificate(
            arch, teacher, data, epsilon=1e-2, boxes=20, samples_per_box=48,
            rng=SeededRng(unit, 13))
        bounds = np.asarray(cert.lower_bounds)
        increments = np.diff(np.concatenate(([0.0], bounds)))
        monotone = bool(np.all(increments > 0))
        ok = cert.valid and cert.disjointness_verified and monotone
        constant_dev = 0.0
        if constant:
            constant_dev = float(np.max(np.abs(increments - cert.v)) / cert.v)
            ok = ok and constant_dev <= 1e-9
        return {"ok": ok, "boxes": len(bounds), "bound": float(bounds[-1]),
                "min_increment": float(np.min(increments)),
                "constant_dev": constant_dev, "valid": cert.valid}

    results = [one(i) for i in range(len(_VOLUME_UNITS))]
    passed = all(r["ok"] for r in results)
    detail = "" if passed else "; ".join(
        f"unit {i} failed (valid={r['valid']}, "
        f"min increment {r['min_increment']:.3e})"
        for i, r in enumerate(results) if not r["ok"])
    return CheckOutcome(
        "volume", passed,
        {"points": len(_VOLUME_UNITS), "boxes": 20,
         "min_lower_bound": _finite(min(r["bound"] for r in results)),
         "max_constant_deviation": _finite(
             max(r["constant_dev"] for r in results))},
        detail,
    )


# ---------------------------------------------------------------------------
# ball sharpness after shrinking the first layer into the ball


_BALL_ARCHS = ((2, 4, 1), (2, 8, 1), (3, 4, 4, 1))
_BALL_UNITS = 20
_BALL_EPSILON = 1e-2


def _check_ball_sharpness(seed: int) -> CheckOutcome:
    """After rescaling, the ball reaches the zero-first-layer loss level."""

    def one(i: int) -> dict:
        arch = Architecture(_BALL_ARCHS[i % len(_BALL_ARCHS)])
        unit = _unit_seed(seed, 6, i)
        data, teacher = make_teacher_student(arch, unit, m=48)
        base_loss = nets.loss(arch, teacher, data)
        alpha = epsilon_sharp_alpha(arch, teacher, _BALL_EPSILON)
        alphas = first_last_alphas(arch.depth, alpha)
        point = alpha_scale_deep(arch, teacher, alphas)
        deviation = forward_deviation(arch, teacher, point,
                                      probe_inputs(arch, unit))
        zero_loss = nets.loss(arch, zero_first_layer(arch, point), data)
        bound = 0.9 * (zero_loss - base_loss) / (1.0 + base_loss)
        cfg = SharpnessConfig(epsilon=_BALL_EPSILON, steps=100, seed=unit)
        before = epsilon_sharpness(arch, teacher, data, cfg).value
        after = epsilon_sharpness(arch, point, data, cfg).value
        ok = (after >= bound and after >= before * (1.0 - 1e-9)
              and deviation <= _EQUIVALENCE_TOL)
        return {"ok": ok, "ratio": after / bound if bound > 0 else np.inf,
                "after": after, "before": before, "deviation": deviation}

    results = [one(i) for i in range(_BALL_UNITS)]
    passed = all(r["ok"] for r in results)
    detail = "" if passed else "; ".join(
        f"unit {i}: sharpness {r['after']:.4e} below bound "
        f"(ratio {r['ratio']:.3f}) or deviation {r['deviation']:.2e}"
        for i, r in enumerate(results) if not r["ok"])
    return CheckOutcome(
        "ball_sharpness", passed,
        {"minima": _BALL_UNITS, "epsilon": _BALL_EPSILON,
         "min_bound_ratio": _finite(min(r["ratio"] for r in results)),
         "max_probe_deviation": _finite(
             max(r["deviation"] for r in results))},
        detail,
    )


# ---------------------------------------------------------------------------
# gradient norm blows up as the first layer shrinks


_SLOPE_UNITS = 3
_SLOPE_TOL = 0.05


def _check_gradient_slope(seed: int) -> CheckOutcome:
    """Log-log slope of gradient norm against the scale factor is -1."""

    def one(i: int) -> float:
        arch = Architecture((2, 4, 1))
        gen = SeededRng(_unit_seed(seed, 7, i), 7).generator()
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
    worst = max(abs(s + 1.0) for s in slopes)
    passed = worst <= _SLOPE_TOL
    detail = "" if passed else (
        f"slope deviates from -1 by {worst:.4f} (tol {_SLOPE_TOL})")
    return CheckOutcome(
        "gradient_blowup", passed,
        {"points": _SLOPE_UNITS, "slopes": [_finite(s) for s in slopes],
         "max_slope_deviation": _finite(worst), "tolerance": _SLOPE_TOL},
        detail,
    )


# ---------------------------------------------------------------------------
# radial map: inverse, Jacobian, and outside identity


_RADIAL_POINTS = 500
_RADIAL_DIM = 7


def _check_radial(seed: int) -> CheckOutcome:
    """Round trips, printed Jacobian, and bitwise identity outside.

    Each band draws its points one at a time, then evaluates them in
    blocks. The finite-difference Jacobian is two stacked forward calls on
    the rows moved by +-step along each axis.
    """
    gen = SeededRng(_unit_seed(seed, 8, 0), 7).generator()
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

    def one(band_index: int) -> dict:
        _, lo, hi = bands[band_index]
        local = SeededRng(_unit_seed(seed, 8, 1 + band_index), 7).generator()
        directions = np.empty((_RADIAL_POINTS, _RADIAL_DIM))
        radii = np.empty(_RADIAL_POINTS)
        for i in range(_RADIAL_POINTS):
            directions[i] = local.normal(size=_RADIAL_DIM)
            radii[i] = local.uniform(lo, hi)
        directions /= _row_norms(directions)[:, None]
        points = center + radii[:, None] * directions
        worst_round = 0.0
        worst_jac = 0.0
        outer_exact = True
        for start in range(0, _RADIAL_POINTS, block):
            u = points[start:start + block]
            v = radial_forward(u, spec)
            w = radial_inverse(u, spec)
            worst_round = max(
                worst_round,
                float(np.max(np.abs(radial_inverse(v, spec) - u))),
                float(np.max(np.abs(radial_forward(w, spec) - u))))
            jac = radial_jacobian(u, spec)
            err = _row_norms((jac - fd_jacobian(u)).reshape(len(u), -1))
            scale = np.maximum(_row_norms(jac.reshape(len(u), -1)), 1.0)
            worst_jac = max(worst_jac, float(np.max(err / scale)))
            if band_index == 2 and not (np.array_equal(v, u)
                                        and np.array_equal(w, u)):
                outer_exact = False
        return {"round": worst_round, "jac": worst_jac, "exact": outer_exact}

    results = [one(i) for i in range(len(bands))]
    worst_round = max(r["round"] for r in results)
    worst_jac = max(r["jac"] for r in results)
    outer_exact = results[2]["exact"]
    passed = worst_round <= 1e-10 and worst_jac <= 1e-5 and outer_exact
    detail = "" if passed else (
        f"round-trip {worst_round:.3e}, Jacobian error {worst_jac:.3e}, "
        f"outside identity exact: {outer_exact}"
    )
    return CheckOutcome(
        "radial", passed,
        {"points_per_region": _RADIAL_POINTS, "dim": _RADIAL_DIM,
         "max_round_trip": _finite(worst_round),
         "max_jacobian_error": _finite(worst_jac),
         "outside_identity_exact": outer_exact},
        detail,
    )


# ---------------------------------------------------------------------------
# one-dimensional curvature congruence


_CONGRUENCE_TOL = 1e-3
_CONGRUENCE_UNITS = (
    ("quadratic", PowerStretch(0.0, 0.0, 1.0), -2.0, 2.0, 401, 1),
    ("double_well", PowerStretch(0.2, 1.0, 0.5), -2.0, 2.0, 801, 2),
    ("triple_well", PowerStretch(-0.3, 0.7, 0.8), -1.6, 1.6, 801, 3),
    ("double_well", Radial(np.array([0.9]), delta=1.5, rho=0.6, rhat=0.9),
     -2.5, 2.5, 801, 2),
)


def _check_curvature_congruence(seed: int) -> CheckOutcome:
    """Transformed curve curvature equals the congruence prediction."""

    def one(i: int) -> dict:
        loss_name, spec, lo, hi, count, expected = _CONGRUENCE_UNITS[i]
        demo = reparam_demo_1d(loss_name, spec, lo, hi, count)
        minima_err = max((m.rel_err for m in demo.minima), default=np.inf)
        noncrit_err = max((c.rel_err for c in demo.noncritical),
                          default=np.inf)
        ok = (len(demo.minima) == expected
              and len(demo.noncritical) >= 2
              and minima_err <= _CONGRUENCE_TOL
              and noncrit_err <= _CONGRUENCE_TOL)
        return {"ok": ok, "minima": len(demo.minima), "expected": expected,
                "minima_err": minima_err, "noncrit_err": noncrit_err}

    results = [one(i) for i in range(len(_CONGRUENCE_UNITS))]
    passed = all(r["ok"] for r in results)
    detail = "" if passed else "; ".join(
        f"demo {i}: found {r['minima']} of {r['expected']} minima, "
        f"errors {r['minima_err']:.2e}/{r['noncrit_err']:.2e}"
        for i, r in enumerate(results) if not r["ok"])
    return CheckOutcome(
        "curvature_congruence", passed,
        {"demos": len(_CONGRUENCE_UNITS), "tolerance": _CONGRUENCE_TOL,
         "max_minimum_error": _finite(
             max(r["minima_err"] for r in results)),
         "max_noncritical_error": _finite(
             max(r["noncrit_err"] for r in results))},
        detail,
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


def run_suite(suite: str, seed: int, jobs: int = 1,
              progress=None) -> SuiteReport:
    """Run the suite's checks in order; ``jobs`` is validated, work is serial."""
    if suite not in SUITES:
        raise ValueError(
            f"unknown suite {suite!r}; available: {', '.join(sorted(SUITES))}"
        )
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    outcomes = []
    for name in SUITES[suite]:
        outcome = CHECKS[name](seed)
        if progress is not None:
            verdict = "pass" if outcome.passed else "FAIL"
            progress(f"check {name}: {verdict}")
        outcomes.append(outcome)
    return SuiteReport(suite, seed, tuple(outcomes))
