"""Flatness and sharpness measures at a parameter point.

The ball sharpness maximizer is a lower-bound estimator: projected
gradient ascent inside the epsilon ball from a deterministic start along
the gradient plus seeded random restarts. Reported values never claim to
be the true maximum. The starts advance in lockstep, one stacked
:class:`~flatlab.nets.Objective` evaluation a step; the volume
certificate and the Monte Carlo volume evaluate their samples as stacks
too. Each row of a stack is bit-identical to evaluating it alone.

The volume certificate is the constructive side of the infinite-volume
argument: a sup-norm box of nearly constant loss around the point,
replicated through exact scale transformations into pairwise disjoint
copies whose summed volume grows without bound in the number of copies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nets
from .errors import KinkProximityError
from .linalg import symmetric_eigenspectrum
from .nets import Architecture, Dataset, FlatIndex, Objective, ParamVector, vec
from .rng import SeededRng
from .serialize import format_float
from .transforms import disjoint_box_alpha, transform_multipliers

# stream-id bases; keep distinct so no two purposes share a stream
_STREAM_SHARPNESS = 1000
_STREAM_SUBSPACE = 1500
_STREAM_MC = 2000
_STREAM_BOX = 3000

# the volume certificate inside a full report
_REPORT_BOXES = 20
_REPORT_SAMPLES_PER_BOX = 32
# radius halvings the volume certificate tries before giving up
_MAX_SHRINKS = 40

CSV_COLUMNS = ("loss", "grad_norm", "kink_dist", "spec_norm", "trace",
               "eps_sharp", "sharp_2nd", "vol_lb")


@dataclass(frozen=True)
class SharpnessConfig:
    """Knobs of the ball-sharpness ascent."""

    epsilon: float
    restarts: int = 8
    steps: int = 60
    step_size: float = 0.1
    subspace_dim: int | None = None
    seed: int = 0

    def __post_init__(self):
        if not (self.epsilon > 0):
            raise ValueError(f"epsilon must be > 0, got {self.epsilon}")
        if self.restarts < 1 or self.steps < 1:
            raise ValueError("restarts and steps must be >= 1")
        if not (self.step_size > 0):
            raise ValueError(f"step_size must be > 0, got {self.step_size}")
        if self.subspace_dim is not None and self.subspace_dim < 1:
            raise ValueError("subspace_dim must be >= 1 when present")


@dataclass(frozen=True, eq=False)
class SharpnessResult:
    """Lower bound on the relative loss increase over the epsilon ball."""

    value: float
    argmax_offset: np.ndarray
    discarded: int


def _ball_point(gen: np.random.Generator, dim: int, radius: float) -> np.ndarray:
    """Uniform draw from the solid ball of the given radius."""
    direction = gen.standard_normal(dim)
    norm = np.linalg.norm(direction)
    if norm == 0.0:
        return np.zeros(dim)
    scale = radius * gen.uniform() ** (1.0 / dim)
    return (scale / norm) * direction


def _subspace_basis(dim: int, subspace_dim: int, rng: SeededRng) -> np.ndarray:
    """Column-orthonormal basis of a seeded random subspace."""
    if subspace_dim > dim:
        raise ValueError(
            f"subspace_dim {subspace_dim} exceeds parameter count {dim}"
        )
    gen = rng.generator()
    raw = gen.standard_normal((dim, subspace_dim))
    q, _ = np.linalg.qr(raw)
    return q


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, by the dot product ``np.linalg.norm`` uses."""
    return np.sqrt(rows[:, None, :] @ rows[:, :, None])[:, 0, 0]


def epsilon_sharpness(arch: Architecture, params: ParamVector, data: Dataset,
                      cfg: SharpnessConfig) -> SharpnessResult:
    """Lower bound on max over the epsilon ball of the relative loss rise.

    Start 0 is the center itself, 1 the deterministic gradient start, 2
    onward the seeded random restarts, each from its own stream. All starts
    step in lockstep: one stacked loss and gradient evaluation a step, whose
    value scores each start's step and whose gradient drives its next one.
    A start stops on a zero or non-finite gradient and is discarded on a
    non-finite loss. Starts are merged in index order, and the center is
    always a candidate, so the value is >= 0.
    """
    nets.check_params(arch, params)
    flat0 = vec(arch, params)
    base_loss = nets.loss(arch, params, data)
    basis = None
    if cfg.subspace_dim is not None:
        basis = _subspace_basis(flat0.size, cfg.subspace_dim,
                                SeededRng(cfg.seed, _STREAM_SUBSPACE))
    objective = Objective(arch, data)
    eps = cfg.epsilon

    def loss_grad_at(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if basis is None:
            return objective.loss_grad(flat0 + z)
        values, g = objective.loss_grad(flat0 + (basis @ z[:, :, None])[:, :, 0])
        return values, (basis.T @ g[:, :, None])[:, :, 0]

    inner = flat0.size if basis is None else basis.shape[1]
    z = np.zeros((2 + cfg.restarts, inner))
    g_center = loss_grad_at(z[:1])[1]
    norm = _row_norms(g_center)[0]
    if norm != 0.0 and np.isfinite(norm):
        z[1] = (eps / norm) * g_center[0]
    for sid in range(2, len(z)):
        gen = SeededRng(cfg.seed, _STREAM_SHARPNESS + sid).generator()
        z[sid] = _ball_point(gen, inner, eps)

    best, g = loss_grad_at(z)
    kept = np.isfinite(best)
    best_z = z.copy()
    rows = np.flatnonzero(kept)
    for _ in range(cfg.steps):
        norms = _row_norms(g[rows])
        moving = np.isfinite(norms) & (norms != 0.0)
        rows, norms = rows[moving], norms[moving]
        if rows.size == 0:
            break
        step = z[rows] + ((cfg.step_size * eps) / norms)[:, None] * g[rows]
        znorms = _row_norms(step)
        out = znorms > eps
        step[out] = (eps / znorms[out])[:, None] * step[out]
        values, g[rows] = loss_grad_at(step)
        z[rows] = step
        finite = np.isfinite(values)
        kept[rows[~finite]] = False
        better = finite & (values > best[rows])
        best[rows[better]] = values[better]
        best_z[rows[better]] = step[better]
        rows = rows[finite]

    best_loss = base_loss
    best_offset = np.zeros(flat0.size)
    for sid in np.flatnonzero(kept):
        if best[sid] > best_loss:
            best_loss = float(best[sid])
            best_offset = best_z[sid] if basis is None else basis @ best_z[sid]
    value = (best_loss - base_loss) / (1.0 + base_loss)
    return SharpnessResult(max(value, 0.0), best_offset,
                           int(np.count_nonzero(~kept)))


def second_order_sharpness(hessian_norm: float, epsilon: float,
                           loss_value: float) -> float:
    """Curvature proxy: spectral norm times epsilon^2 / (2 (1 + loss))."""
    if loss_value < 0:
        raise ValueError(f"loss must be >= 0, got {loss_value}")
    if epsilon < 0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    if not np.isfinite(hessian_norm):
        raise ValueError("hessian norm must be finite")
    return hessian_norm * epsilon * epsilon / (2.0 * (1.0 + loss_value))


@dataclass(frozen=True, eq=False)
class HessianMeasures:
    spectral_norm: float
    trace: float
    eigenvalues: np.ndarray
    counts_above: tuple[tuple[float, int], ...]


def hessian_measures(hess: np.ndarray,
                     thresholds: tuple[float, ...] = ()) -> HessianMeasures:
    """Spectral norm, trace, sorted eigenvalues, strict threshold counts.

    Everything derives from one eigenvalue solve, with no eigenvectors;
    the matrix trace is checked against the eigenvalue sum so a broken
    solve cannot pass silently.
    """
    try:
        evals = symmetric_eigenspectrum(hess)
    except ValueError as exc:
        raise ValueError(f"hessian: {exc}") from None
    trace = float(np.trace(hess))
    esum = float(np.sum(evals))
    tol = 1e-6 * max(1.0, abs(trace))
    if abs(trace - esum) > tol:
        raise RuntimeError(
            f"eigenvalue sum {esum:.6e} disagrees with trace {trace:.6e}"
        )
    spectral = float(np.max(np.abs(evals))) if evals.size else 0.0
    counts = tuple((float(m), int(np.sum(evals > m))) for m in thresholds)
    return HessianMeasures(spectral, trace, evals, counts)


@dataclass(frozen=True, eq=False)
class VolumeCertificate:
    """Evidence for the unbounded-volume construction at one point.

    ``lower_bounds`` accumulates the exact volume after each verified
    box; ``valid`` means every sampled deviation stayed below epsilon and
    the boxes are pairwise disjoint. ``failed_box`` names the first box
    that broke the loss bound, if any.
    """

    r: float
    v: float
    alpha: float
    boxes_checked: int
    max_deviations: tuple[float, ...]
    lower_bounds: tuple[float, ...]
    disjointness_verified: bool
    valid: bool
    failed_box: int | None
    shrink_steps: int

    @property
    def volume_lower_bound(self) -> float:
        return self.lower_bounds[-1] if self.lower_bounds else 0.0


def _sample_losses(objective: Objective, count: int, make_rows):
    """Losses of ``count`` sample rows, one stacked evaluation a block.

    ``make_rows(start, rows)`` builds the next ``rows`` rows from row
    ``start`` on, so the rows are built in order and only one block is held.
    """
    block = nets._block_rows(objective)
    for start in range(0, count, block):
        yield objective.loss(make_rows(start, min(block, count - start)))


def volume_flatness_certificate(arch: Architecture, params: ParamVector,
                                data: Dataset, epsilon: float,
                                boxes: int, samples_per_box: int,
                                rng: SeededRng,
                                r: float | None = None) -> VolumeCertificate:
    """Constructive lower bound on the volume of the near-constant region.

    Only two-layer networks are supported (the construction scales the
    two weight blocks against each other). The box radius is validated by
    sampling: if any sampled loss deviates by epsilon or more, the radius
    halves and validation repeats. Each subsequent box reuses the base
    samples pushed through the exact coordinatewise scale map, and the
    pairwise disjointness of all boxes is established analytically on the
    first-layer coordinate of largest magnitude.
    """
    nets.check_params(arch, params)
    if arch.depth != 2:
        raise ValueError(
            f"volume certificate needs a two-layer network, got depth {arch.depth}"
        )
    if not (epsilon > 0):
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    if boxes < 1 or samples_per_box < 1:
        raise ValueError("boxes and samples_per_box must be >= 1")

    flat0 = vec(arch, params)
    base_loss = nets.loss(arch, params, data)
    theta1 = params.weights[0].ravel()
    t = float(np.max(np.abs(theta1)))
    if t == 0.0:
        raise ValueError("first layer is zero: the scale orbit is degenerate")
    if r is None:
        r = 0.5 * t
    if not (0 < r < t):
        raise ValueError(f"r must lie in (0, {t}), got {r}")

    n = flat0.size
    gen = rng.generator()
    base_offsets = gen.uniform(-1.0, 1.0, size=(samples_per_box, n))

    objective = Objective(arch, data)

    def box_max_deviation(mult: np.ndarray, radius: float) -> float:
        worst = 0.0
        for losses in _sample_losses(
                objective, samples_per_box,
                lambda i, k: (flat0 + radius * base_offsets[i:i + k]) * mult):
            worst = max([worst, *(losses - base_loss).tolist()])
        return worst

    # validate the base box, shrinking r until the loss bound holds on it
    shrink_steps = 0
    identity = np.ones(n)
    while True:
        deviation = box_max_deviation(identity, r)
        if deviation < epsilon:
            break
        shrink_steps += 1
        if shrink_steps > _MAX_SHRINKS:
            raise ValueError(
                f"no box radius satisfied the loss bound after "
                f"{_MAX_SHRINKS} halvings (last deviation {deviation:.3e})"
            )
        r *= 0.5

    alpha = disjoint_box_alpha(theta1, r)
    index = FlatIndex(arch)
    n1 = index.weight_slice(0).stop - index.weight_slice(0).start
    n2 = index.weight_slice(1).stop - index.weight_slice(1).start
    witness = t

    # per-box volume and the exact per-step volume ratio of the scale map:
    # weights scale by (alpha, 1/alpha), the first bias rides along with
    # the first layer, the last bias is untouched
    v = (2.0 * r) ** n
    n_bias1 = arch.layer_widths[1] if arch.use_bias else 0
    det_exponent = (n1 + n_bias1) - n2

    max_deviations: list[float] = []
    lower_bounds: list[float] = []
    total = 0.0
    valid = True
    failed_box = None
    for k in range(boxes):
        mult = transform_multipliers(arch, (alpha ** k, alpha ** (-k)))
        deviation = box_max_deviation(mult, r)
        max_deviations.append(deviation)
        if deviation >= epsilon:
            valid = False
            failed_box = k
            break
        total += v * alpha ** (k * det_exponent)
        lower_bounds.append(total)

    # disjointness on the witness coordinate: consecutive scaled intervals
    # [a^k (w - r), a^k (w + r)] must not touch
    disjoint = all(
        alpha ** (k + 1) * (witness - r) > alpha ** k * (witness + r)
        for k in range(len(max_deviations) - 1)
    )
    return VolumeCertificate(
        r=r, v=v, alpha=alpha, boxes_checked=len(lower_bounds),
        max_deviations=tuple(max_deviations),
        lower_bounds=tuple(lower_bounds),
        disjointness_verified=disjoint,
        valid=valid and disjoint,
        failed_box=failed_box,
        shrink_steps=shrink_steps,
    )


def sublevel_volume_mc(arch: Architecture, params: ParamVector, data: Dataset,
                       epsilon: float, halfwidth: float, samples: int,
                       rng: SeededRng) -> tuple[float, float]:
    """Monte Carlo fraction of a box around the point with loss below
    loss + epsilon, with its binomial standard error.

    Illustrates the bounded-window view of the near-constant region; it
    says nothing about connectivity and is not a certified bound.
    """
    nets.check_params(arch, params)
    if not (halfwidth > 0) or samples < 1:
        raise ValueError("halfwidth must be > 0 and samples >= 1")
    flat0 = vec(arch, params)
    base_loss = nets.loss(arch, params, data)
    objective = Objective(arch, data)
    gen = rng.generator()
    hits = 0
    for losses in _sample_losses(
            objective, samples,
            lambda _, rows: flat0 + gen.uniform(-halfwidth, halfwidth,
                                                size=(rows, flat0.size))):
        hits += int(np.count_nonzero(losses < base_loss + epsilon))
    fraction = hits / samples
    stderr = float(np.sqrt(fraction * (1.0 - fraction) / samples))
    return fraction, stderr


@dataclass(frozen=True, eq=False)
class FlatnessReport:
    """Everything measured at one parameter point.

    Hessian-derived fields are None when a hidden preactivation sits within
    rounding of a rectifier kink, where the activation pattern the exact
    Hessian belongs to is not determined; ``skipped`` records why.
    """

    loss: float
    grad_norm: float
    kink_dist: float | None
    spec_norm: float | None
    trace: float | None
    eigenvalues: tuple[float, ...] | None
    counts_above: tuple[tuple[float, int], ...] | None
    eps_sharp: float
    eps_sharp_offset: tuple[float, ...]
    eps_sharp_discarded: int
    sharp_2nd: float | None
    volume: VolumeCertificate | None
    skipped: tuple[tuple[str, str], ...]

    def to_dict(self) -> dict:
        volume = None
        if self.volume is not None:
            volume = {
                "r": self.volume.r,
                "v": self.volume.v,
                "alpha": self.volume.alpha,
                "boxes_checked": self.volume.boxes_checked,
                "max_deviations": list(self.volume.max_deviations),
                "lower_bounds": list(self.volume.lower_bounds),
                "disjointness_verified": self.volume.disjointness_verified,
                "valid": self.volume.valid,
                "failed_box": self.volume.failed_box,
                "shrink_steps": self.volume.shrink_steps,
            }
        return {
            "loss": self.loss,
            "grad_norm": self.grad_norm,
            "kink_dist": self.kink_dist,
            "spec_norm": self.spec_norm,
            "trace": self.trace,
            "eigenvalues": (list(self.eigenvalues)
                            if self.eigenvalues is not None else None),
            "counts_above": ([{"threshold": m, "count": c}
                              for m, c in self.counts_above]
                             if self.counts_above is not None else None),
            "eps_sharp": self.eps_sharp,
            "eps_sharp_offset": list(self.eps_sharp_offset),
            "eps_sharp_discarded": self.eps_sharp_discarded,
            "sharp_2nd": self.sharp_2nd,
            "volume": volume,
            "skipped": [{"field": f, "reason": r} for f, r in self.skipped],
        }

    def csv_row(self) -> list[str]:
        cells = []
        for column in CSV_COLUMNS:
            value = {
                "loss": self.loss,
                "grad_norm": self.grad_norm,
                "kink_dist": self.kink_dist,
                "spec_norm": self.spec_norm,
                "trace": self.trace,
                "eps_sharp": self.eps_sharp,
                "sharp_2nd": self.sharp_2nd,
                "vol_lb": (self.volume.volume_lower_bound
                           if self.volume is not None else None),
            }[column]
            cells.append("" if value is None else format_float(float(value)))
        return cells


def flatness_report(arch: Architecture, params: ParamVector, data: Dataset,
                    cfg: SharpnessConfig,
                    thresholds: tuple[float, ...] = (),
                    volume_epsilon: float | None = None,
                    jobs: int = 1) -> FlatnessReport:
    """Measure one point; skip second-order entries within rounding of a kink.

    ``volume_epsilon``, when given, adds a volume certificate at that loss
    tolerance. ``jobs`` is accepted and has no effect: the work runs serially.
    """
    nets.check_params(arch, params)
    loss_value, grad = nets.loss_and_gradient(arch, params, data)
    grad_norm = float(np.linalg.norm(grad))
    kink = nets.kink_distance(arch, params, data)
    kink_field = None if np.isinf(kink) else kink

    skipped: list[tuple[str, str]] = []
    spec_norm = trace = None
    evals = counts = None
    sharp_2nd = None
    try:
        hess = nets.hessian(arch, params, data)
    except KinkProximityError as exc:
        reason = str(exc)
        for field in ("spec_norm", "trace", "eigenvalues", "counts_above",
                      "sharp_2nd"):
            skipped.append((field, reason))
    else:
        measures = hessian_measures(hess, thresholds)
        spec_norm = measures.spectral_norm
        trace = measures.trace
        evals = tuple(float(x) for x in measures.eigenvalues)
        counts = measures.counts_above
        sharp_2nd = second_order_sharpness(spec_norm, cfg.epsilon, loss_value)

    sharp = epsilon_sharpness(arch, params, data, cfg)

    cert = None
    if volume_epsilon is not None:
        if arch.depth == 2:
            cert = volume_flatness_certificate(
                arch, params, data, volume_epsilon, _REPORT_BOXES,
                _REPORT_SAMPLES_PER_BOX, SeededRng(cfg.seed, _STREAM_BOX))
        else:
            skipped.append(("volume", "certificate requires a two-layer network"))

    return FlatnessReport(
        loss=loss_value,
        grad_norm=grad_norm,
        kink_dist=kink_field,
        spec_norm=spec_norm,
        trace=trace,
        eigenvalues=evals,
        counts_above=counts,
        eps_sharp=sharp.value,
        eps_sharp_offset=tuple(float(x) for x in sharp.argmax_offset),
        eps_sharp_discarded=sharp.discarded,
        sharp_2nd=sharp_2nd,
        volume=cert,
        skipped=tuple(skipped),
    )
