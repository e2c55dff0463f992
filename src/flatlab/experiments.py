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
from functools import partial

import numpy as np
from scipy.optimize import minimize_scalar

from . import nets
from .errors import TrainingDivergedError
from .metrics import CSV_COLUMNS, SharpnessConfig, flatness_report
from .nets import Architecture, Dataset, ParamVector, vec
from .rng import SeededRng
from .serialize import format_float, json_float, json_int
from .transforms import (PowerStretch, Radial, alpha_scale_two_layer,
                         power_stretch_derivative, power_stretch_forward,
                         power_stretch_inverse, power_stretch_second_derivative,
                         psi_prime, radial_forward, radial_inverse,
                         transform_from_dict)

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


#: name -> (L, L', L'') in closed form, elementwise; every L is >= 0
LOSS_REGISTRY_1D = {
    "quadratic": (lambda t: t * t, lambda t: 2.0 * t, lambda t: 2.0),
    "double_well": (lambda t: (t * t - 1.0) ** 2,
                    lambda t: 4.0 * t * (t * t - 1.0),
                    lambda t: 12.0 * t * t - 4.0),
    "triple_well": (lambda t: t * t * (t * t - 1.0) ** 2,
                    lambda t: 2.0 * t * (3.0 * t**4 - 4.0 * t * t + 1.0),
                    lambda t: 30.0 * t**4 - 24.0 * t * t + 2.0),
}

_JOINT_TOL = 1e-3
_NONCRITICAL_FRACTIONS = (0.12, 0.27, 0.43, 0.58, 0.71, 0.86)


def _demo_map(spec: PowerStretch | Radial) -> tuple:
    """(h, h', h'', h^-1, joints) of a demo coordinate map.

    The four maps are elementwise over arrays of t (or eta); ``joints``
    are the t where h'' jumps, which curvature checks stay away from.
    """
    if isinstance(spec, PowerStretch):
        joints = () if spec.b > 0 else (spec.center,)
        return (*(partial(f, spec=spec) for f in (
            power_stretch_forward, power_stretch_derivative,
            power_stretch_second_derivative, power_stretch_inverse)), joints)
    if not isinstance(spec, Radial):
        raise TypeError(
            f"demo transform must be power_stretch or radial, "
            f"got {type(spec).__name__}"
        )
    if spec.center.size != 1:
        raise ValueError("the demo needs a one-dimensional center")
    c = float(spec.center[0])

    def as_points(remap):  # each t is one point of the 1-D ball
        return lambda t: remap(np.reshape(t, (-1, 1)), spec).reshape(np.shape(t))

    return (as_points(radial_forward),
            lambda t: psi_prime(np.abs(np.asarray(t, dtype=float) - c), spec),
            lambda t: np.zeros(np.shape(t)),  # piecewise-linear radius map
            as_points(radial_inverse),
            (c - spec.delta, c - spec.rhat, c + spec.rhat, c + spec.delta))


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
        return "eta,loss\n" + "".join(
            f"{format_float(float(eta))},{format_float(float(value))}\n"
            for eta, value in zip(self.etas, self.values))

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
    of [lo, hi]. Each interior grid minimum is refined in theta to the
    actual critical point, where the finite-difference curvature of the
    curve must match (g')^2 L''. At a spread of non-critical sample points
    the full transformed second derivative, including the L' g'' term, is
    checked against finite differences; each map sees whole arrays.
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
    h, h_d1, h_d2, g, joints = _demo_map(spec)

    def smooth(theta):
        """Away from the (measure-zero) points where h'' jumps."""
        return np.all(np.abs(np.asarray(theta)[..., None] - np.array(joints))
                      > _JOINT_TOL, axis=-1)

    def fd_second(etas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Central second differences of L(g(eta)), and g(eta) itself,
        from one stacked inverse of every probe."""
        step = 1e-4 * np.maximum(1.0, np.abs(etas))
        probes = g(np.stack([etas - step, etas, etas + step], axis=1))
        values = loss_f(probes)
        fd = (values[:, 0] - 2.0 * values[:, 1] + values[:, 2]) / (step * step)
        return fd, probes[:, 1]

    eta_lo, eta_hi = h(np.array([lo, hi]))
    etas = np.linspace(eta_lo, eta_hi, count)
    thetas = g(etas)
    values = loss_f(thetas)

    # refine each interior grid minimum in theta, where the loss is known
    # in closed form; g is monotone, so eta* = h(theta*) minimizes L(g)
    found = np.flatnonzero((values[1:-1] < values[:-2])
                           & (values[1:-1] < values[2:])) + 1
    notes: list[str] = []
    theta_stars = []
    for i in found.tolist():
        left, right = thetas[i - 1] - thetas[i], thetas[i + 1] - thetas[i]
        offset = minimize_scalar(lambda d: loss_f(thetas[i] + d),
                                 bounds=(left, right), method="bounded",
                                 options={"xatol": 1e-12, "maxiter": 500}).x
        theta_star = thetas[i] + offset
        if min(offset - left, right - offset) < 1e-6 * (right - left):
            notes.append(
                f"minimum near eta={etas[i]:.6g} sits on its bracket edge; excluded"
            )
        elif not smooth(theta_star):
            notes.append(
                f"minimum at eta={h(theta_star):.6g} sits on a map joint; excluded"
            )
        else:
            theta_stars.append(theta_star)
    theta_stars = np.array(theta_stars)
    eta_stars = h(theta_stars)
    g_prime = 1.0 / h_d1(theta_stars)
    predicted = g_prime * g_prime * loss_d2(theta_stars)
    fd, _ = fd_second(eta_stars)
    rel = np.abs(fd - predicted) / np.maximum(np.abs(predicted), 1e-12)
    minima = [MinimumCurvature(*map(float, row)) for row in
              zip(eta_stars, theta_stars, fd, predicted, rel)]
    if not minima:
        notes.append("no interior minima found on the grid")

    # the full transformed second derivative, L' g'' term included, at a
    # spread of points off the minima
    checked = eta_lo + np.array(_NONCRITICAL_FRACTIONS) * (eta_hi - eta_lo)
    fd, theta = fd_second(checked)
    hp = h_d1(theta)
    g_prime = 1.0 / hp
    g_second = -h_d2(theta) / hp**3
    formula = g_prime * g_prime * loss_d2(theta) + loss_d1(theta) * g_second
    rel = np.abs(fd - formula) / np.maximum(np.abs(formula), 1e-12)
    # too close to critical for the distinction to matter
    usable = smooth(theta) & (np.abs(loss_d1(theta) * g_prime) >= 1e-4)
    noncritical = [NonCriticalCheck(*map(float, row)) for row in
                   zip(checked[usable], fd[usable], formula[usable],
                       rel[usable])]
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
