"""Flatness and sharpness measures at a parameter point.

The ball sharpness maximizer is a lower-bound estimator: projected
gradient ascent inside the epsilon ball from a deterministic start along
the gradient plus seeded random restarts. Reported values never claim to
be the true maximum. The starts of one or several centers advance in
lockstep, one stacked :class:`~flatlab.nets.Objective` evaluation a step;
the volume certificate evaluates its samples as stacks too. Each row of a
stack is bit-identical to evaluating it alone.

The volume certificate is the constructive side of the infinite-volume
argument: a sup-norm box of nearly constant loss around the point,
replicated through exact scale transformations into pairwise disjoint
copies whose summed volume grows without bound in the number of copies.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np

from . import nets
from .errors import KinkProximityError
from .linalg import _row_norms, symmetric_eigenspectrum
from .nets import Architecture, Dataset, FlatIndex, Objective, ParamVector, vec
from .rng import SeededRng
from .serialize import format_float
from .transforms import disjoint_box_alpha, transform_multipliers

# stream-id bases; keep distinct so no two purposes share a stream
_STREAM_SHARPNESS = 1000
_STREAM_BOX = 3000

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
    return _ascend(Objective(arch, data), vec(arch, params)[None], cfg)[0]


def _ascend(objective: Objective, centers: np.ndarray,
            cfg: SharpnessConfig) -> list[SharpnessResult]:
    """The ball-sharpness ascent from each row of a ``(C, n)`` stack.

    Start 0 is the center, 1 the gradient start, 2 onward the seeded random
    restarts, each from its own stream and shared by every center. All
    starts of all centers step in lockstep, one stacked loss and gradient
    evaluation a step. A start stops on a zero or non-finite gradient and
    is discarded on a non-finite loss. Each center merges its starts in
    index order, the center always a candidate, so each value is >= 0 and
    bit-identical to ascending from that center alone. Raises
    ``ValueError`` when a center discards every random restart: its ball
    overflows the loss, and a zero would read as flat.
    """
    eps = cfg.epsilon
    z = np.zeros((len(centers), 2 + _RESTARTS, centers.shape[1]))
    count, starts, dim = z.shape
    base = objective.loss(centers).tolist()
    with np.errstate(over="ignore", invalid="ignore"):  # counted as discarded
        g_center = objective.loss_grad(centers + z[:, 0])[1]
        norms = _row_norms(g_center)
        for c in np.flatnonzero(np.isfinite(norms) & (norms != 0.0)):
            z[c, 1] = (eps / norms[c]) * g_center[c]
        for sid in range(2, starts):
            gen = SeededRng(cfg.seed, _STREAM_SHARPNESS + sid).generator()
            z[:, sid] = _ball_point(gen, dim, eps)
        z = z.reshape(count * starts, dim)
        best, g = objective.loss_grad(np.repeat(centers, starts, axis=0) + z)
        kept = np.isfinite(best)
        best_z = z.copy()
        rows = np.flatnonzero(kept)
        for _ in range(cfg.steps):
            norms = _row_norms(g[rows])
            moving = np.isfinite(norms) & (norms != 0.0)
            rows, norms = rows[moving], norms[moving]
            if rows.size == 0:
                break
            step = z[rows] + ((_STEP_SIZE * eps) / norms)[:, None] * g[rows]
            znorms = _row_norms(step)
            out = znorms > eps
            step[out] = (eps / znorms[out])[:, None] * step[out]
            values, g[rows] = objective.loss_grad(centers[rows // starts] + step)
            z[rows] = step
            finite = np.isfinite(values)
            kept[rows[~finite]] = False
            better = finite & (values > best[rows])
            best[rows[better]] = values[better]
            best_z[rows[better]] = step[better]
            rows = rows[finite]

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
    return results


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
    """Evidence for the unbounded-volume construction at one point.

    ``lower_bounds`` accumulates the volume after each verified box;
    ``valid`` means every box's deviation stayed below epsilon (sampled, or
    proved equal to the sampled base box's) and the boxes are pairwise
    disjoint. ``failed_box`` names the first box that broke the loss
    bound, if any.
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


def volume_flatness_certificate(arch: Architecture, params: ParamVector,
                                data: Dataset, epsilon: float,
                                boxes: int, samples_per_box: int,
                                rng: SeededRng,
                                r: float | None = None) -> VolumeCertificate:
    """Constructive lower bound on the volume of the near-constant region.

    Only two-layer networks are supported (the construction scales the
    two weight blocks against each other). The box radius is validated by
    sampling: if any sampled loss deviates by epsilon or more, the radius
    halves and validation repeats; a trial radius stops sampling at the
    first block of samples that reaches epsilon. Box k is the base box
    pushed through the scale map ``transform_multipliers(arch, (alpha**k,
    alpha**-k))``, with alpha the power of two of :func:`disjoint_box_alpha`,
    so the map rounds nothing: where :func:`_images_exact` proves that the
    base samples' images have bit-identical losses, every later box takes
    the base box's deviation unsampled; otherwise each later box samples
    the images. The pairwise disjointness of all boxes is established
    analytically on the first-layer coordinate of largest magnitude.
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
    block = nets._block_rows(objective)

    def box_max_deviation(mult: np.ndarray, radius: float,
                          stop: float = np.inf) -> float:
        # one stacked evaluation a block, so only one block of rows is
        # held; the first block whose deviation reaches ``stop`` ends it
        worst = 0.0
        for i in range(0, samples_per_box, block):
            rows = (flat0 + radius * base_offsets[i:i + block]) * mult
            worst = max([worst, *(objective.loss(rows) - base_loss).tolist()])
            if worst >= stop:
                break
        return worst

    # validate the base box, shrinking r until the loss bound holds on it
    shrink_steps = 0
    identity = np.ones(n)
    while True:
        deviation = box_max_deviation(identity, r, stop=epsilon)
        if deviation < epsilon:
            break
        shrink_steps += 1
        if shrink_steps > _MAX_SHRINKS:
            raise ValueError(
                f"no box radius satisfied the loss bound after "
                f"{_MAX_SHRINKS} halvings (the last radius stopped sampling "
                f"at deviation {deviation:.3e})"
            )
        r *= 0.5

    alpha = disjoint_box_alpha(theta1, r)
    # per-box volume, and the per-step volume ratio alpha^det_exponent of
    # the scale map: coordinates it grows minus those it shrinks, counted
    # on the exact pair (2, 1/2) so the last bias's product is exactly 1
    v = (2.0 * r) ** n
    grow = transform_multipliers(arch, (2.0, 0.5))
    det_exponent = int(np.count_nonzero(grow > 1.0)
                       - np.count_nonzero(grow < 1.0))

    # the guard at the last box covers every earlier one
    last = boxes - 1
    derived = _images_exact(
        FlatIndex(arch), data.inputs, flat0 + r * base_offsets,
        transform_multipliers(arch, (alpha ** last, alpha ** -last)))
    max_deviations: list[float] = []
    lower_bounds: list[float] = []
    total = 0.0
    valid = True
    failed_box = None
    for k in range(boxes):
        # box 0's multipliers are all 1: it is the base box validated above;
        # a derived box keeps its deviation
        if k > 0 and not derived:
            mult = transform_multipliers(arch, (alpha ** k, alpha ** (-k)))
            deviation = box_max_deviation(mult, r)
        max_deviations.append(deviation)
        if deviation >= epsilon:
            valid = False
            failed_box = k
            break
        total += v * alpha ** (k * det_exponent)
        lower_bounds.append(total)

    # disjointness on the first-layer coordinate of largest magnitude t:
    # box k+1's interval starts at alpha^(k+1) (t - r), past box k's end
    # alpha^k (t + r); divided by alpha^k that is one inequality for all k
    disjoint = alpha * (t - r) > t + r
    return VolumeCertificate(
        r=r, v=v, alpha=alpha, boxes_checked=len(lower_bounds),
        max_deviations=tuple(max_deviations),
        lower_bounds=tuple(lower_bounds),
        disjointness_verified=disjoint,
        valid=valid and disjoint,
        failed_box=failed_box,
        shrink_steps=shrink_steps,
    )


def _images_exact(index: FlatIndex, inputs: np.ndarray, rows: np.ndarray,
                  mult: np.ndarray) -> bool:
    """Whether each row of ``rows * mult`` has bit for bit the loss of its
    row of ``rows``, for the two-layer scale map ``mult`` at alpha = 2**s,
    s >= 0: the first weight block and its bias times 2**s, the second
    block times 2**-s, the last bias times exactly 1.

    True only when three cheap bounds hold, each monotone in s, so that a
    check at the largest s covers every smaller one:

    1. The scaled rows are exact: dividing them by ``mult`` gives ``rows``
       back. A power-of-two factor rounds only where it overflows or drops
       bits below 2**-1074, and either changes the quotient.
    2. Every nonzero first-layer product |x_i theta_ij| of ``rows`` is at
       least 2**-969, read off the smallest nonzero |x| times the smallest
       nonzero |theta|.
    3. (largest row ||x||_1 * largest |theta_1| + largest |b_1|) of the
       scaled rows stays below 2**1023, which bounds every first-layer
       value of the scaled evaluation with a factor 2 to spare for
       rounding: nothing there overflows.

    Proof. Each first-layer value of the scaled evaluation is 2**s times
    the base evaluation's, by induction over the operations. A nonzero
    product is normal in both (by 2 and 3), so its rounding commutes with
    2**s. A product of magnitude >= 2**-969 is a multiple of 2**-1074
    (its two 53-bit significands leave its last bit there or above), as is
    every float; so the exact value of every sum, partial or fused with a
    product, either is below 2**-1022, hence representable and exact in
    both evaluations, or is normal in both, where rounding commutes with
    2**s. The rectifier commutes with 2**s. Each second-layer product
    (2**s h)(2**-s w) is the same real number as h w, so from there on
    both evaluations perform the same operations on the same values.
    """
    first = index.weight_slice(0)
    x = np.abs(inputs)
    theta = np.abs(rows[:, first])
    with np.errstate(over="ignore"):  # an overflow refuses
        scaled = rows * mult
        largest = np.max(np.sum(x, axis=1)) * np.max(np.abs(scaled[:, first]))
        if index.arch.use_bias:
            largest += np.max(np.abs(scaled[:, index.bias_slice(0)]))
    smallest = (np.min(x, initial=np.inf, where=x > 0.0)
                * np.min(theta, initial=np.inf, where=theta > 0.0))
    # a computed product above 2**-969 proves the exact one is
    return bool(np.array_equal(scaled / mult, rows)
                and smallest > 2.0 ** -969 and largest < 2.0 ** 1023)


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
    :func:`hessian_measures` of :func:`nets.hessian` elsewhere.
    ``volume_epsilon``, when given, adds a volume certificate at that loss
    tolerance. ``jobs`` is accepted and has no effect: the work runs serially.
    """
    nets.check_params(arch, params)
    loss_value, grad = nets.loss_and_gradient(arch, params, data)
    grad_norm = float(np.linalg.norm(grad))
    acts, pre = nets._forward_full(params.weights, params.biases, data.inputs)
    kink = nets._kink_argmin(pre)[0]
    kink_field = None if np.isinf(kink) else kink

    skipped: list[tuple[str, str]] = []
    spec_norm = trace = None
    evals = counts = None
    sharp_2nd = path = None
    try:
        nets._kink_guard(params.weights, params.biases, acts, pre)
    except KinkProximityError as exc:
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
            measures = hessian_measures(nets.hessian(arch, params, data),
                                        thresholds)
        spec_norm = measures.spectral_norm
        trace = measures.trace
        evals = tuple(float(x) for x in measures.eigenvalues)
        counts = measures.counts_above
        sharp_2nd = second_order_sharpness(spec_norm, cfg.epsilon, loss_value)

    sharp = epsilon_sharpness(arch, params, data, cfg)

    cert = None
    if volume_epsilon is not None:
        if arch.depth == 2:
            try:
                cert = volume_flatness_certificate(
                    arch, params, data, volume_epsilon, _REPORT_BOXES,
                    _REPORT_SAMPLES_PER_BOX, SeededRng(cfg.seed, _STREAM_BOX))
            except OverflowError:
                skipped.append(("volume", "the volume bound leaves the float "
                                          "range (alpha ** (k * det_exponent) "
                                          "overflows)"))
        else:
            skipped.append(("volume", "certificate requires a two-layer network"))

    return FlatnessReport(
        loss=loss_value,
        grad_norm=grad_norm,
        kink_dist=kink_field,
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
