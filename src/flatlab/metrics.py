"""Flatness and sharpness measures at a parameter point.

The ball sharpness maximizer is a lower-bound estimator: projected
gradient ascent inside the epsilon ball from a deterministic start along
the gradient plus seeded random restarts. Reported values never claim to
be the true maximum. The starts of one or several centers advance in
lockstep, one stacked :class:`~flatlab.nets.Objective` evaluation a step,
and the centers may lie on different datasets of one shape, each dataset
with its own seed; the volume certificate's witness evaluates its samples
as stacks too. Each row of a stack is bit-identical to evaluating it
alone.

The volume certificate is the constructive side of the infinite-volume
argument: a sup-norm box of provably near-constant loss around the
point, replicated through loss-preserving scale maps into pairwise
disjoint copies whose summed volume grows without bound in their number.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from itertools import accumulate

import numpy as np

from . import nets
from .errors import KinkProximityError
from .linalg import _row_norms, symmetric_eigenspectrum
from .nets import Architecture, Dataset, FlatIndex, Objective, ParamVector, vec
from .rng import SeededRng
from .serialize import format_float
from .transforms import ScaleMap, disjoint_box_alpha

# seeded random starts of the ball-sharpness ascent, and its step as a
# fraction of epsilon
_RESTARTS = 8
_STEP_SIZE = 0.1

# the volume certificate inside a full report
_REPORT_BOXES = 20
_REPORT_SAMPLES_PER_BOX = 32
# radius halvings the volume certificate tries before giving up
_MAX_SHRINKS = 40

CSV_COLUMNS = ("loss", "grad_norm", "kink_dist", "spec_norm", "trace",
               "eps_sharp", "sharp_2nd", "vol_lb")


@dataclass(frozen=True)
class SharpnessConfig:
    """Ball radius, step count and seed of the ball-sharpness ascent; its
    :data:`_RESTARTS` seeded restarts each step :data:`_STEP_SIZE` epsilon."""

    epsilon: float
    steps: int = 60
    seed: int = 0

    def __post_init__(self):
        if not (0 < self.epsilon < np.inf):
            raise ValueError(
                f"epsilon must be finite and > 0, got {self.epsilon}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")


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


def epsilon_sharpness(arch: Architecture, params: ParamVector, data: Dataset,
                      cfg: SharpnessConfig) -> SharpnessResult:
    """Lower bound on max over the epsilon ball of the relative loss rise:
    the ascent of :func:`_ascend` from one center."""
    nets.check_params(arch, params)
    return _ascend(Objective(arch, data), vec(arch, params)[None, None],
                   cfg.epsilon, cfg.steps, [cfg.seed])[0][0]


def _ascend(objective: Objective, centers: np.ndarray, eps: float,
            steps: int, seeds) -> list[list[SharpnessResult]]:
    """The ball-sharpness ascent from each center of a ``(D, K, n)`` stack,
    block d on the objective's dataset d; the results, block by block.

    Start 0 is the center, 1 the gradient start, 2 onward the random
    restarts, drawn once per block d, each from its own stream of
    ``seeds[d]``. All starts of all centers step in lockstep, one stacked
    loss and gradient evaluation a step. A start stops on a zero or
    non-finite gradient and is discarded on a non-finite loss. Each center
    merges its starts in index order, the center always a candidate, so
    each value is >= 0 and bit-identical to ascending from that center
    alone. Raises ``ValueError`` when a center discards every random
    restart: its ball overflows the loss, and a zero would read as flat.
    """
    sets, per, dim = centers.shape
    z = np.zeros((sets, per, 2 + _RESTARTS, dim))
    starts = z.shape[2]
    centers, own_set = centers.reshape(-1, dim), np.arange(sets * per) // per
    base = objective.loss(centers, own_set).tolist()
    with np.errstate(over="ignore", invalid="ignore"):  # counted as discarded
        for block, seed in zip(z, seeds, strict=True):
            for sid in range(2, starts):
                gen = SeededRng.of(seed, "restart", sid).generator()
                block[:, sid] = _ball_point(gen, dim, eps)
        z = z.reshape(len(centers), starts, dim)
        g_center = objective.loss_grad(centers + z[:, 0], own_set)[1]
        norms = _row_norms(g_center)
        for c in np.flatnonzero(np.isfinite(norms) & (norms != 0.0)):
            z[c, 1] = (eps / norms[c]) * g_center[c]
        z = z.reshape(len(centers) * starts, dim)
        at = np.repeat(centers, starts, axis=0)
        which = np.arange(len(z)) // (per * starts)  # each start's dataset
        best, g = objective.loss_grad(at + z, which)
        kept = np.isfinite(best)
        best_z = z.copy()
        # the live starts' rows, offsets, gradients, centers and datasets,
        # compacted only when a start stops or is discarded
        live = [np.flatnonzero(kept)]
        live += [a[live[0]] for a in (z, g, at, which)]
        for _ in range(steps):
            norms = _row_norms(live[2])
            moving = np.isfinite(norms) & (norms != 0.0)
            if not moving.all():
                live, norms = [a[moving] for a in live], norms[moving]
            rows, z, g, at, which = live
            if rows.size == 0:
                break
            step = z + ((_STEP_SIZE * eps) / norms)[:, None] * g
            znorms = _row_norms(step)
            out = znorms > eps
            step[out] = (eps / znorms[out])[:, None] * step[out]
            values, g = objective.loss_grad(at + step, which)
            live[1:3] = step, g
            finite = np.isfinite(values)
            kept[rows[~finite]] = False
            better = finite & (values > best[rows])
            best[rows[better]] = values[better]
            best_z[rows[better]] = step[better]
            if not finite.all():
                live = [a[finite] for a in live]

    results = []
    for c, base_loss in enumerate(base):
        own = slice(c * starts, (c + 1) * starts)
        if not kept[own][2:].any():
            raise ValueError(f"epsilon {eps} overflows the loss: all "
                             f"{_RESTARTS} random restarts were discarded")
        best_loss, best_offset = base_loss, np.zeros(dim)
        for sid in np.flatnonzero(kept[own]) + own.start:
            if best[sid] > best_loss:
                best_loss, best_offset = float(best[sid]), best_z[sid]
        value = (best_loss - base_loss) / (1.0 + base_loss)
        results.append(SharpnessResult(max(value, 0.0), best_offset,
                                       int(np.count_nonzero(~kept[own]))))
    return [results[d * per:(d + 1) * per] for d in range(sets)]


def second_order_sharpness(hessian_norm: float, epsilon: float,
                           loss_value: float) -> float:
    """Curvature proxy: spectral norm times epsilon^2 / (2 (1 + loss))."""
    if loss_value < 0:
        raise ValueError(f"loss must be >= 0, got {loss_value}")
    if epsilon < 0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    if not np.isfinite(hessian_norm):
        raise ValueError("hessian norm must be finite")
    # float arithmetic: an overflow gives inf without a numpy warning
    value = float(hessian_norm) * epsilon * epsilon / (2.0 * (1.0 + loss_value))
    if not np.isfinite(value):
        raise ValueError(
            f"epsilon {epsilon} makes the second-order sharpness non-finite")
    return value


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
    return _measures(evals, float(np.trace(hess)), thresholds)


def _gram_measures(jac: np.ndarray,
                   thresholds: tuple[float, ...]) -> HessianMeasures:
    """:func:`hessian_measures` of ``H = (2/m) J^T J`` without building H.

    ``jac`` is the ``(m, n)`` output Jacobian. The nonzero spectrum of H is
    that of the smaller of ``(2/m) J J^T`` and ``(2/m) J^T J``; the other
    ``n - m`` eigenvalues are exactly 0. The trace is ``(2/m) |J|_F^2``.
    """
    m, n = jac.shape
    gram = jac @ jac.T if m <= n else jac.T @ jac
    gram *= 2.0 / m
    evals = symmetric_eigenspectrum(gram)
    cut = int(np.count_nonzero(evals > 0.0))  # descending: zeros go here
    evals = np.concatenate([evals[:cut], np.zeros(n - evals.size), evals[cut:]])
    trace = (2.0 / m) * float(np.einsum("ij,ij->", jac, jac))
    return _measures(evals, trace, thresholds)


def _measures(evals: np.ndarray, trace: float,
              thresholds: tuple[float, ...]) -> HessianMeasures:
    """Everything from a descending spectrum, checked against the trace."""
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
    """Proof of the unbounded-volume construction at one point.

    ``deviation_bound`` is a proved bound, below epsilon, on the real loss
    rise over the base box of radius ``r`` and so over every box;
    ``sampled_deviation`` is the witness, the largest float rise sampled in
    the base box (at least 0.0). ``lower_bounds`` accumulates the volume
    box by box; ``valid`` means the boxes are also pairwise disjoint.
    """

    r: float
    v: float
    alpha: float
    deviation_bound: float
    sampled_deviation: float
    lower_bounds: tuple[float, ...]
    disjointness_verified: bool
    valid: bool
    shrink_steps: int

    @property
    def volume_lower_bound(self) -> float:
        return self.lower_bounds[-1] if self.lower_bounds else 0.0


def volume_flatness_certificate(arch: Architecture, params: ParamVector,
                                data: Dataset, epsilon: float,
                                boxes: int, samples_per_box: int,
                                rng: SeededRng,
                                r: float | None = None) -> VolumeCertificate:
    """Proved lower bound on the volume of the near-constant region.

    The radius r starts at t/2, t the largest first-layer magnitude, and
    halves until :func:`_rise_bound` over the whole sup-norm box of radius
    r first falls below epsilon. Box k is the base box under
    ``ScaleMap.first_last(arch, alpha**k)``, which leaves the real loss
    unchanged at any depth (positive homogeneity), so the bound covers it
    too. alpha is the power of two of :func:`disjoint_box_alpha`; the
    boxes' pairwise disjointness is established analytically on the
    first-layer coordinate of largest magnitude. :func:`_witness` samples
    the base box and raises ``RuntimeError`` where a sample contradicts
    the bound.
    """
    nets.check_params(arch, params)
    nets._check_input_width(arch, data.inputs)
    if not (epsilon > 0):
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    if boxes < 1 or samples_per_box < 1:
        raise ValueError("boxes and samples_per_box must be >= 1")

    theta1 = params.weights[0].ravel()
    t = float(np.max(np.abs(theta1)))
    if t == 0.0:
        raise ValueError("first layer is zero: the scale orbit is degenerate")
    if r is None:
        r = 0.5 * t
    if not (0 < r < t):
        raise ValueError(f"r must lie in (0, {t}), got {r}")

    flat0 = vec(arch, params)
    acts, pre = nets._forward_full(params.weights, params.biases, data.inputs)
    for shrink_steps in range(_MAX_SHRINKS + 1):
        bound = _rise_bound(params, data, acts, pre, r)
        if bound < epsilon:  # a NaN bound never fits
            break
        r *= 0.5
    else:
        raise ValueError(
            f"no box radius satisfied the loss bound after {_MAX_SHRINKS} "
            f"halvings (last bound {bound:.3e})")
    sampled = _witness(arch, params, data, acts, pre, flat0, r,
                       samples_per_box, rng)

    alpha = disjoint_box_alpha(theta1, r)
    # per-box volume, and the per-step volume ratio alpha^det_exponent of
    # the scale map: det_exponent is log2 of its determinant at alpha = 2,
    # where every multiplier is 2, 1 or 1/2 exactly
    v = (2.0 * r) ** flat0.size
    det_exponent = int(ScaleMap.first_last(arch, 2.0).log2_det)
    lower_bounds = tuple(accumulate(v * alpha ** (k * det_exponent)
                                    for k in range(boxes)))

    # disjointness on the first-layer coordinate of largest magnitude t:
    # box k+1's interval starts at alpha^(k+1) (t - r), past box k's end
    # alpha^k (t + r); divided by alpha^k that is one inequality for all k
    disjoint = alpha * (t - r) > t + r
    return VolumeCertificate(
        r=r, v=v, alpha=alpha, deviation_bound=bound,
        sampled_deviation=sampled, lower_bounds=lower_bounds,
        disjointness_verified=disjoint, valid=disjoint,
        shrink_steps=shrink_steps,
    )


def _rise_bound(params: ParamVector, data: Dataset, acts: list, pre: list,
                r: float) -> float:
    """Upper bound on the real ``L(theta) - L(theta0)`` over the sup-norm
    box of radius r around theta0, computed pass ``acts``, ``pre``. By
    :func:`nets._interval_forward` the real outputs over the box and at
    theta0 lie within R(r) and R(0) of the computed f, so with e = |f - y|
    (at most its computed value times 1 + 2**-52) and d = R(r) + R(0) an
    example rises by at most (e + R(r))^2 - max(e - R(0), 0)^2 <= d (2 e +
    d). ``1 + (m + 8) 2**-52`` and one float up undo the mean's m + 5
    roundings. An overflow gives inf or NaN."""
    with np.errstate(over="ignore", invalid="ignore"):
        d = sum(nets._interval_forward(params.weights, params.biases, acts,
                                       pre, radius)[-1][:, 0]
                for radius in (r, 0.0))
        e = np.abs(acts[-1][:, 0] - data.targets) * (1.0 + 2.0 ** -52)
        bound = (np.mean(d * (2.0 * e + d))
                 * (1.0 + (data.size + 8) * 2.0 ** -52))
    return float(np.nextafter(bound, np.inf))


def _witness(arch: Architecture, params: ParamVector, data: Dataset,
             acts: list, pre: list, flat0: np.ndarray, r: float,
             samples: int, rng: SeededRng) -> float:
    """Largest float loss rise over uniform samples of the base box.

    Each sample lies within R, r plus one float spacing of the largest
    coordinate (its rounding), so its real rise is at most the bound at R.
    Its weights, biases, inputs and so activations are at most those of
    the net |theta0| + R on inputs |x|, so a computed output errs by at
    most ``env``, twice that net's :func:`nets._interval_forward` radius
    at r = 0 (the error carried in adds gamma times itself, gamma << 1/2),
    a computed residual e by env + 2**-52 |e|, and, as the mean of m
    squares rounds by at most gamma(m + 1), a computed loss L by mean(env^2)
    + 3 rms(env) sqrt(L) + (m + 1) 2**-50 L. A rise beyond the bound at R
    plus both losses' slack (times 1 + 2**-32, for the comparison's own
    rounding) contradicts the proof and raises ``RuntimeError``.
    """
    reach = r + np.spacing(np.max(np.abs(flat0)) + r)
    limit = _rise_bound(params, data, acts, pre, reach)
    mags = nets.unvec(arch, np.abs(flat0) + reach)
    env = 2.0 * nets._interval_forward(
        mags.weights, mags.biases, *nets._forward_full(
            mags.weights, mags.biases, np.abs(data.inputs)), 0.0)[-1][:, 0]
    rows = rng.generator().uniform(-1.0, 1.0, size=(samples, flat0.size))
    rows *= r  # in place: flat0 + r * offset, with no temporaries
    rows += flat0
    objective = Objective(arch, data)
    block = nets._block_rows(objective)
    losses = np.concatenate([[objective.loss(flat0)], *(
        objective.loss(rows[i:i + block]) for i in range(0, samples, block))])
    slack = (np.mean(env * env) + 3.0 * np.sqrt(np.mean(env * env) * losses)
             + (data.size + 1) * 2.0 ** -50 * losses)
    rises = losses[1:] - losses[0]
    over = rises > (limit + slack[0] + slack[1:]) * (1.0 + 2.0 ** -32)
    if over.any():
        j = int(np.argmax(over))
        raise RuntimeError(
            f"sampled loss rise {rises[j]:.6e} exceeds the proved bound "
            f"{limit:.6e} plus rounding {slack[0] + slack[1 + j]:.3e}")
    return max([0.0, *rises.tolist()])


@dataclass(frozen=True, eq=False)
class FlatnessReport:
    """Everything measured at one parameter point.

    Hessian-derived fields are None when a hidden preactivation sits within
    rounding of a rectifier kink, where the activation pattern the exact
    Hessian belongs to is not determined; ``skipped`` records why.
    ``curvature_path`` says how they were obtained: ``"gram"`` at a point
    whose every residual is exactly zero (the spectrum of the Gauss-Newton
    term from the ``m x m`` Gram matrix, with ``n - m`` eigenvalues exactly
    0.0), ``"hessian"`` elsewhere (the dense exact Hessian), None when
    skipped.
    """

    loss: float
    grad_norm: float
    kink_dist: float | None
    curvature_path: str | None
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
        """JSON-ready fields in declaration order; the certificate, the
        threshold counts and the skip reasons become nested objects."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        if self.counts_above is not None:
            out["counts_above"] = [{"threshold": m, "count": c}
                                   for m, c in self.counts_above]
        if self.volume is not None:
            out["volume"] = asdict(self.volume)
        out["skipped"] = [{"field": f, "reason": r} for f, r in self.skipped]
        return out

    def csv_row(self) -> list[str]:
        """One cell per :data:`CSV_COLUMNS` entry, empty where None."""
        vol_lb = None if self.volume is None else self.volume.volume_lower_bound
        values = [vol_lb if c == "vol_lb" else getattr(self, c)
                  for c in CSV_COLUMNS]
        return ["" if v is None else format_float(float(v)) for v in values]


def flatness_report(arch: Architecture, params: ParamVector, data: Dataset,
                    cfg: SharpnessConfig,
                    thresholds: tuple[float, ...] = (),
                    volume_epsilon: float | None = None,
                    jobs: int = 1) -> FlatnessReport:
    """Measure one point; skip second-order entries within rounding of a kink.

    The curvature comes from one forward pass and the kink guard, then from
    the Gram matrix of the output Jacobian where every residual is exactly
    zero, so no ``n x n`` matrix is built at an exact minimum, and from
    :func:`hessian_measures` of the exact Hessian, built from that same
    pass, elsewhere.
    ``volume_epsilon``, when given, adds a volume certificate at that loss
    tolerance, at any depth. ``jobs`` is accepted and has no effect: one
    report is mostly a single lockstep ascent, too short to repay a
    worker process.
    """
    nets.check_params(arch, params)
    loss_value, grad = nets.loss_and_gradient(arch, params, data)
    grad_norm = float(np.linalg.norm(grad))
    acts, pre = nets._forward_full(params.weights, params.biases, data.inputs)

    skipped: list[tuple[str, str]] = []
    spec_norm = trace = None
    evals = counts = None
    sharp_2nd = path = None
    try:
        kink = nets._kink_guard(params.weights, params.biases, acts, pre)
    except KinkProximityError as exc:
        kink = exc.distance
        reason = str(exc)
        for field in ("spec_norm", "trace", "eigenvalues", "counts_above",
                      "sharp_2nd"):
            skipped.append((field, reason))
    else:
        if np.all(acts[-1][:, 0] == data.targets):
            path = "gram"
            measures = _gram_measures(nets._output_jacobian(
                FlatIndex(arch), params.weights, params.biases, acts, pre),
                thresholds)
        else:
            path = "hessian"
            measures = hessian_measures(nets._hessian_at(
                Objective(arch, data), params, acts, pre), thresholds)
        spec_norm = measures.spectral_norm
        trace = measures.trace
        evals = tuple(float(x) for x in measures.eigenvalues)
        counts = measures.counts_above
        sharp_2nd = second_order_sharpness(spec_norm, cfg.epsilon, loss_value)

    sharp = epsilon_sharpness(arch, params, data, cfg)

    cert = None
    if volume_epsilon is not None and arch.depth < 2:
        skipped.append(("volume", "certificate requires a hidden layer"))
    elif volume_epsilon is not None:
        try:
            cert = volume_flatness_certificate(
                arch, params, data, volume_epsilon, _REPORT_BOXES,
                _REPORT_SAMPLES_PER_BOX, SeededRng.of(cfg.seed, "witness"))
        except OverflowError:
            skipped.append(("volume", "the volume bound leaves the float "
                                      "range (alpha ** (k * det_exponent) "
                                      "overflows)"))

    return FlatnessReport(
        loss=loss_value,
        grad_norm=grad_norm,
        kink_dist=None if np.isinf(kink) else kink,
        curvature_path=path,
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
