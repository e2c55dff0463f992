"""Teacher-student problems, training, the alpha sweep and the 1-D demo.

Teacher-student data is the workhorse: targets come from a sampled
network, so the teacher parameters are an exact global minimum of the
mean squared error, which is what the curvature manipulations assume.
Input sampling rejects points whose hidden preactivations sit close to a
rectifier kink, so the teacher's activation pattern, and with it its exact
Hessian, is determined and survives the small parameter moves the checks
make. Probe inputs measure observational equivalence; the sweep and the
one-dimensional reparametrization demo back the CLI and the checks.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np
from scipy.optimize import brentq, minimize_scalar

from . import nets
from .errors import TrainingDivergedError
from .metrics import CSV_COLUMNS, SharpnessConfig, flatness_report
from .nets import Architecture, Dataset, ParamVector, vec
from .rng import SeededRng
from .serialize import format_float, json_float, json_int
from .transforms import (PowerStretch, Radial, alpha_scale_two_layer,
                         power_stretch_derivative, power_stretch_forward,
                         power_stretch_second_derivative, psi_prime,
                         radial_forward, radial_inverse, transform_from_dict)

_STREAM_TEACHER = 1
_STREAM_INPUTS = 2
_STREAM_INIT = 3
_STREAM_PROBES = 4

PROBE_COUNT = 256
PROBE_RANGE = 2.0
# hidden preactivations of sampled data must clear kinks by this much
KINK_MARGIN = 0.01
DIVERGENCE_FACTOR = 1e6
# teacher inputs are drawn uniformly from [-_INPUT_RANGE, _INPUT_RANGE]
_INPUT_RANGE = 1.0
_TEACHER_ATTEMPTS = 200
# draws allowed for each teacher input row before the attempt is given up
_INPUT_TRIES = 500
# initial weights of train_sgd are drawn from [-_INIT_SCALE, _INIT_SCALE]
_INIT_SCALE = 0.5


def _screened_inputs(arch: Architecture, teacher: ParamVector,
                     gen: np.random.Generator, m: int,
                     margin: float) -> np.ndarray | None:
    """``m`` input rows whose hidden preactivations all clear ``margin``.

    Row ``i`` is the first clear draw after row ``i - 1``; ``None`` when
    ``_INPUT_TRIES`` draws in a row fail. Candidates come from ``gen`` in
    blocks of at most ``m`` rows and ``nets._BLOCK_ELEMENTS`` activations
    and are screened with one forward pass, each row a ``(1, d)`` slice
    that takes the BLAS call a lone row takes. Draws past the last row are
    wasted, which is harmless: each attempt's generator is discarded.
    """
    block = min(m, max(1, nets._BLOCK_ELEMENTS // sum(arch.layer_widths)))
    rows = []
    misses = 0
    while True:
        x = gen.uniform(-_INPUT_RANGE, _INPUT_RANGE, size=(block, arch.input_width))
        _, pre = nets._forward_full(teacher.weights, teacher.biases, x[:, None, :])
        dist = np.full(block, np.inf)
        for z in pre:
            dist = np.minimum(dist, np.min(np.abs(z), axis=(1, 2)))
        for row, clear in zip(x, (dist > margin).tolist()):
            if not clear:
                misses += 1
                if misses == _INPUT_TRIES:
                    return None
                continue
            rows.append(row)
            if len(rows) == m:
                return np.stack(rows)
            misses = 0


def make_teacher_student(arch: Architecture, seed: int, m: int,
                         margin: float = KINK_MARGIN) -> tuple[Dataset, ParamVector]:
    """Dataset whose targets a sampled teacher reproduces exactly.

    The teacher is an exact zero-loss minimum by construction. Teachers
    whose outputs vanish on the whole sample are discarded (they realize
    a constant function), and each input is redrawn until every hidden
    preactivation clears the kink margin, so second derivatives at the
    teacher are well defined.
    """
    if m < 1:
        raise ValueError(f"need at least one example, got {m}")
    if not (np.isfinite(margin) and margin >= 0):
        raise ValueError(f"margin must be finite and >= 0, got {margin}")

    for attempt in range(_TEACHER_ATTEMPTS):
        teacher = nets.uniform_params(
            arch, SeededRng(seed, _STREAM_TEACHER + 16 * attempt).generator())
        gen = SeededRng(seed, _STREAM_INPUTS + 16 * attempt).generator()
        inputs = _screened_inputs(arch, teacher, gen, m, margin)
        if inputs is None:
            continue
        targets = nets.forward(arch, teacher, inputs)
        if float(np.max(np.abs(targets))) < 1e-6:
            continue  # constant-zero teacher on this sample
        return Dataset(inputs, targets), teacher
    raise ValueError(
        f"no usable teacher found in {_TEACHER_ATTEMPTS} attempts "
        f"(arch {arch.layer_widths}, margin {margin})"
    )


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float
    epochs: int
    seed: int = 0
    stop_grad_norm: float = 1e-8

    def __post_init__(self):
        if not (0 <= self.learning_rate < np.inf):
            raise ValueError("learning_rate must be finite and >= 0, "
                             f"got {self.learning_rate}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if not np.isfinite(self.stop_grad_norm):
            raise ValueError(
                f"stop_grad_norm must be finite, got {self.stop_grad_norm}")


@dataclass(frozen=True, eq=False)
class TrainResult:
    params: ParamVector
    trace: tuple[tuple[float, float], ...]  # (loss, grad_norm) per epoch
    epochs_run: int


def train_sgd(arch: Architecture, data: Dataset, cfg: TrainConfig,
              init: ParamVector | None = None) -> TrainResult:
    """Full-batch gradient descent to a low-gradient point.

    Deterministic by construction. Returns whichever parameters achieved
    the lowest loss, along with the per-epoch loss and gradient norm.
    """
    if init is None:
        params = nets.uniform_params(
            arch, SeededRng(cfg.seed, _STREAM_INIT).generator(),
            -_INIT_SCALE, _INIT_SCALE)
    else:
        nets.check_params(arch, init)
        params = init

    objective = nets.Objective(arch, data)
    flat = vec(arch, params)
    best_flat = flat.copy()
    best_loss = np.inf
    initial_loss = None
    trace: list[tuple[float, float]] = []
    epochs_run = 0
    # a diverging step overflows; the error below reports it, not numpy
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            loss_value, grad = objective.loss_grad(flat)
            grad_norm = float(np.linalg.norm(grad))
            trace.append((loss_value, grad_norm))
            epochs_run = epoch + 1
            if initial_loss is None:
                initial_loss = loss_value
            if not np.isfinite(loss_value) or (
                    loss_value > DIVERGENCE_FACTOR * max(initial_loss, 1e-12)):
                raise TrainingDivergedError(epoch, loss_value, initial_loss,
                                            DIVERGENCE_FACTOR)
            if loss_value < best_loss:
                best_loss = loss_value
                best_flat = flat.copy()
            if grad_norm <= cfg.stop_grad_norm:
                break
            flat = flat - cfg.learning_rate * grad
    return TrainResult(nets.unvec(arch, best_flat), tuple(trace), epochs_run)


# ---------------------------------------------------------------------------
# observational equivalence on probe inputs


def probe_inputs(arch: Architecture, seed: int) -> np.ndarray:
    gen = SeededRng(seed, _STREAM_PROBES).generator()
    return gen.uniform(-PROBE_RANGE, PROBE_RANGE,
                       size=(PROBE_COUNT, arch.input_width))


def forward_deviation(arch: Architecture, before: ParamVector,
                      after: ParamVector, probes: np.ndarray) -> float:
    """Largest relative output difference over the probe inputs."""
    f_before = nets.forward(arch, before, probes)
    f_after = nets.forward(arch, after, probes)
    return float(np.max(np.abs(f_after - f_before) / (1.0 + np.abs(f_before))))


# ---------------------------------------------------------------------------
# alpha sweep


def alpha_sweep(arch: Architecture, params: ParamVector, data: Dataset,
                alphas: tuple[float, ...], cfg: SharpnessConfig,
                thresholds: tuple[float, ...] = (),
                volume_epsilon: float | None = None) -> str:
    """CSV of every report column at each two-layer scale of the point."""
    if arch.depth != 2:
        raise ValueError(f"sweep needs a two-layer network, got depth {arch.depth}")
    if any(not (a > 0) for a in alphas):
        raise ValueError("all sweep factors must be > 0")
    lines = ["alpha," + ",".join(CSV_COLUMNS)]
    for alpha in alphas:
        point = alpha_scale_two_layer(arch, params, alpha)
        report = flatness_report(arch, point, data, cfg, thresholds,
                                 volume_epsilon)
        lines.append(",".join([format_float(float(alpha))] + report.csv_row()))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# one-dimensional reparametrization demo


def _double_well(t: float) -> float:
    return (t * t - 1.0) ** 2


def _double_well_d1(t: float) -> float:
    return 4.0 * t * (t * t - 1.0)


def _double_well_d2(t: float) -> float:
    return 12.0 * t * t - 4.0


def _triple_well(t: float) -> float:
    return t * t * (t * t - 1.0) ** 2


def _triple_well_d1(t: float) -> float:
    return 2.0 * t * (3.0 * t**4 - 4.0 * t * t + 1.0)


def _triple_well_d2(t: float) -> float:
    return 30.0 * t**4 - 24.0 * t * t + 2.0


def _quadratic(t: float) -> float:
    return t * t


def _quadratic_d1(t: float) -> float:
    return 2.0 * t


def _quadratic_d2(t: float) -> float:
    return 2.0


#: name -> (L, L', L'') as closed-form scalar functions, all with L >= 0
LOSS_REGISTRY_1D = {
    "quadratic": (_quadratic, _quadratic_d1, _quadratic_d2),
    "double_well": (_double_well, _double_well_d1, _double_well_d2),
    "triple_well": (_triple_well, _triple_well_d1, _triple_well_d2),
}

_JOINT_TOL = 1e-3


class _ScalarMap:
    """Forward map h, its derivatives, and the inverse g = h^-1."""

    def __init__(self, spec: PowerStretch | Radial):
        if isinstance(spec, Radial):
            if spec.center.size != 1:
                raise ValueError("the demo needs a one-dimensional center")
        elif not isinstance(spec, PowerStretch):
            raise TypeError(
                f"demo transform must be power_stretch or radial, "
                f"got {type(spec).__name__}"
            )
        self.spec = spec

    def forward(self, t: float) -> float:
        if isinstance(self.spec, PowerStretch):
            return power_stretch_forward(t, self.spec)
        return float(radial_forward(np.array([t]), self.spec)[0])

    def d1(self, t: float) -> float:
        if isinstance(self.spec, PowerStretch):
            return power_stretch_derivative(t, self.spec)
        r = abs(t - float(self.spec.center[0]))
        return psi_prime(r, self.spec)

    def d2(self, t: float) -> float:
        if isinstance(self.spec, PowerStretch):
            return power_stretch_second_derivative(t, self.spec)
        return 0.0  # piecewise-linear radius map

    def inverse(self, eta: float) -> float:
        if isinstance(self.spec, Radial):
            return float(radial_inverse(np.array([eta]), self.spec)[0])
        center = self.spec.center
        width = 1.0 + abs(eta - self.forward(center))
        for _ in range(200):
            lo, hi = center - width, center + width
            if self.forward(lo) <= eta <= self.forward(hi):
                break
            width *= 2.0
        else:
            raise ValueError(f"could not bracket {eta} for inversion")
        if self.forward(lo) == eta:
            return lo
        if self.forward(hi) == eta:
            return hi
        return float(brentq(lambda t: self.forward(t) - eta, lo, hi,
                            xtol=1e-14, rtol=4 * np.finfo(float).eps,
                            maxiter=200))

    def smooth_at(self, t: float) -> bool:
        """Away from the (measure-zero) points where h'' jumps."""
        if isinstance(self.spec, PowerStretch):
            if self.spec.b > 0:
                return True
            return abs(t - self.spec.center) > _JOINT_TOL
        r = abs(t - float(self.spec.center[0]))
        return (abs(r - self.spec.rhat) > _JOINT_TOL
                and abs(r - self.spec.delta) > _JOINT_TOL)


@dataclass(frozen=True)
class MinimumCurvature:
    eta: float
    theta: float
    fd_curvature: float
    predicted_curvature: float
    rel_err: float


@dataclass(frozen=True)
class NonCriticalCheck:
    eta: float
    fd_value: float
    formula_value: float
    rel_err: float


@dataclass(frozen=True, eq=False)
class Demo1D:
    etas: np.ndarray
    values: np.ndarray
    minima: tuple[MinimumCurvature, ...]
    noncritical: tuple[NonCriticalCheck, ...]
    notes: tuple[str, ...]

    def curve_csv(self) -> str:
        lines = ["eta,loss"]
        for eta, value in zip(self.etas, self.values):
            lines.append(f"{format_float(float(eta))},{format_float(float(value))}")
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        return {
            "minima": [asdict(m) for m in self.minima],
            "noncritical": [asdict(c) for c in self.noncritical],
            "notes": list(self.notes),
        }


def reparam_demo_1d(loss_name: str, spec: PowerStretch | Radial,
                    lo: float, hi: float, count: int = 801) -> Demo1D:
    """Transformed loss curve plus curvature congruence checks.

    The curve samples L(g(eta)) on a uniform eta grid spanning the image
    of [lo, hi]. Each interior grid minimum is refined to the actual
    critical point, where the finite-difference curvature of the curve
    must match (g')^2 L''. At a spread of non-critical sample points the
    full transformed second derivative, including the L' g'' term, is
    checked against finite differences instead.
    """
    if loss_name not in LOSS_REGISTRY_1D:
        raise ValueError(
            f"unknown loss {loss_name!r}; available: {sorted(LOSS_REGISTRY_1D)}"
        )
    if not (lo < hi):
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    if count < 9:
        raise ValueError(f"need at least 9 grid points, got {count}")
    loss_f, loss_d1, loss_d2 = LOSS_REGISTRY_1D[loss_name]
    mapping = _ScalarMap(spec)

    eta_lo = mapping.forward(lo)
    eta_hi = mapping.forward(hi)
    etas = np.linspace(eta_lo, eta_hi, count)

    thetas = np.array([mapping.inverse(e) for e in etas])
    values = np.array([loss_f(t) for t in thetas])

    def transformed_loss(eta: float) -> float:
        return loss_f(mapping.inverse(eta))

    def fd_second(eta: float, step: float) -> float:
        return (transformed_loss(eta - step) - 2.0 * transformed_loss(eta)
                + transformed_loss(eta + step)) / (step * step)

    notes: list[str] = []
    minima: list[MinimumCurvature] = []
    for i in range(1, count - 1):
        if not (values[i] < values[i - 1] and values[i] < values[i + 1]):
            continue
        result = minimize_scalar(transformed_loss, bounds=(etas[i - 1], etas[i + 1]),
                                 method="bounded",
                                 options={"xatol": 1e-12, "maxiter": 500})
        eta_star = float(result.x)
        span = etas[i + 1] - etas[i - 1]
        if (eta_star - etas[i - 1] < 1e-6 * span
                or etas[i + 1] - eta_star < 1e-6 * span):
            notes.append(
                f"minimum near eta={etas[i]:.6g} sits on its bracket edge; excluded"
            )
            continue
        theta_star = mapping.inverse(eta_star)
        if not mapping.smooth_at(theta_star):
            notes.append(
                f"minimum at eta={eta_star:.6g} sits on a map joint; excluded"
            )
            continue
        g_prime = 1.0 / mapping.d1(theta_star)
        predicted = g_prime * g_prime * loss_d2(theta_star)
        step = 1e-4 * max(1.0, abs(eta_star))
        fd = fd_second(eta_star, step)
        rel = abs(fd - predicted) / max(abs(predicted), 1e-12)
        minima.append(MinimumCurvature(eta_star, theta_star, fd, predicted, rel))
    if not minima:
        notes.append("no interior minima found on the grid")

    noncritical: list[NonCriticalCheck] = []
    for frac in (0.12, 0.27, 0.43, 0.58, 0.71, 0.86):
        eta = float(eta_lo + frac * (eta_hi - eta_lo))
        theta = mapping.inverse(eta)
        if not mapping.smooth_at(theta):
            continue
        hp = mapping.d1(theta)
        g_prime = 1.0 / hp
        g_second = -mapping.d2(theta) / hp**3
        slope = loss_d1(theta) * g_prime
        if abs(slope) < 1e-4:
            continue  # too close to critical for the distinction to matter
        formula = g_prime * g_prime * loss_d2(theta) + loss_d1(theta) * g_second
        step = 1e-4 * max(1.0, abs(eta))
        fd = fd_second(eta, step)
        rel = abs(fd - formula) / max(abs(formula), 1e-12)
        noncritical.append(NonCriticalCheck(eta, fd, formula, rel))
    if not noncritical:
        notes.append("no usable non-critical sample points")

    return Demo1D(etas, values, tuple(minima), tuple(noncritical), tuple(notes))


def demo_spec_from_dict(raw: dict) -> tuple[str, PowerStretch | Radial,
                                            float, float, int]:
    """Parse the demo-reparam spec file: loss name, transform, grid."""
    if not isinstance(raw, dict):
        raise ValueError("demo spec must be a JSON object")
    try:
        loss_name = raw["loss"]
        transform_raw = raw["transform"]
        grid = raw["grid"]
    except KeyError as exc:
        raise ValueError(f"demo spec is missing field {exc}") from None
    unknown = raw.keys() - {"loss", "transform", "grid"}
    if unknown:
        raise ValueError(f"demo spec has unknown fields {sorted(unknown)}")
    spec = transform_from_dict(transform_raw)
    if not isinstance(spec, (PowerStretch, Radial)):
        raise ValueError(
            f"demo transform must be power_stretch or radial, got {spec.kind}"
        )
    if (not isinstance(grid, (list, tuple))) or len(grid) != 3:
        raise ValueError("demo grid must be [lo, hi, count]")
    lo = json_float(grid[0], "demo grid lo")
    hi = json_float(grid[1], "demo grid hi")
    count = json_int(grid[2], "demo grid count")
    return str(loss_name), spec, lo, hi, count
