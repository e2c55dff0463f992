"""Parameter transformations and their effect on derivatives.

Two families live here. The scale family (two-layer and deep alpha
scalings, with or without biases) maps a parameter vector to an
observationally equivalent one: the realized prediction function is
unchanged for every input. The reparametrization family
(radial, power stretch, input affine) changes coordinates instead; the
point moves, the function family does not.

Scale transformations act diagonally on flat coordinates, as
:class:`ScaleMap` states once: layer k's weights are multiplied by
alpha_k and layer j's bias by the running product alpha_1 * ... *
alpha_j, which is what pushing the factors through the rectifiers
demands. The inverse of that diagonal is the matrix D that carries
gradients and Hessians between equivalent points:

    grad_after = grad_before * d        (elementwise)
    hess_after = d[:, None] * hess_before * d[None, :]

where ``d`` is ``ScaleMap.inverse``, the stored reciprocal.
"""

from __future__ import annotations

import dataclasses
import math
import typing
from dataclasses import dataclass

import numpy as np

from .linalg import _row_norms, require_symmetric, symmetric_eigenspectrum
from .nets import Architecture, ParamVector, check_params, unvec, vec
from .serialize import json_float

ALPHA_PRODUCT_RTOL = 1e-12
# Condition-number ceiling past which a preprocessing matrix is treated
# as singular.
MAX_AFFINE_CONDITION = 1e12


# ---------------------------------------------------------------------------
# transform specifications


@dataclass(frozen=True)
class AlphaScaleTwoLayer:
    """(theta_1, theta_2) -> (alpha theta_1, alpha^-1 theta_2)."""

    kind = "alpha_scale_two_layer"

    alpha: float

    def __post_init__(self):
        if not (0 < self.alpha < np.inf):
            raise ValueError(f"alpha must be finite and > 0, got {self.alpha}")


@dataclass(frozen=True)
class AlphaScaleDeep:
    """Layer k scaled by alphas[k]; the product of all factors is 1."""

    kind = "alpha_scale_deep"

    alphas: tuple[float, ...]

    def __post_init__(self):
        alphas = tuple(float(a) for a in self.alphas)
        object.__setattr__(self, "alphas", alphas)
        if len(alphas) < 1:
            raise ValueError("need at least one factor")
        if any(not (0 < a < np.inf) for a in alphas):
            raise ValueError(f"alphas must be finite and > 0, got {alphas}")
        product = float(np.prod(alphas))
        if abs(product - 1.0) > ALPHA_PRODUCT_RTOL:
            raise ValueError(
                f"factor product {product!r} differs from 1 by more than "
                f"{ALPHA_PRODUCT_RTOL:.0e}"
            )


@dataclass(frozen=True, eq=False)
class Radial:
    """Radius remap inside the ball of radius delta around ``center``.

    Radii in [0, rhat] stretch linearly to [0, rho]; radii in (rhat,
    delta] stretch linearly to (rho, delta]; everything outside the ball
    is untouched.
    """

    kind = "radial"

    center: np.ndarray
    delta: float
    rho: float
    rhat: float

    def __post_init__(self):
        center = np.ascontiguousarray(self.center, dtype=float).ravel()
        object.__setattr__(self, "center", center)
        if not np.all(np.isfinite(center)):
            raise ValueError(f"center must be finite, got {center}")
        if not (0 < self.delta < np.inf):
            raise ValueError(f"delta must be finite and > 0, got {self.delta}")
        if not (0 < self.rho < self.delta):
            raise ValueError(f"rho must lie in (0, delta), got {self.rho}")
        if not (0 < self.rhat < self.delta):
            raise ValueError(f"rhat must lie in (0, delta), got {self.rhat}")


@dataclass(frozen=True)
class PowerStretch:
    """Scalar bijection eta = (|t - center|^2 + b)^a (t - center)."""

    kind = "power_stretch"

    center: float
    a: float
    b: float

    def __post_init__(self):
        if not np.isfinite(self.center):
            raise ValueError(f"center must be finite, got {self.center}")
        if not (-0.5 < self.a < np.inf):
            raise ValueError(f"a must be finite and > -1/2, got {self.a}")
        if not (0 <= self.b < np.inf):
            raise ValueError(f"b must be finite and >= 0, got {self.b}")


@dataclass(frozen=True, eq=False)
class InputAffine:
    """Invertible input preprocessing x = A u + shift."""

    kind = "input_affine"

    matrix: np.ndarray
    shift: np.ndarray

    def __post_init__(self):
        a = np.ascontiguousarray(self.matrix, dtype=float)
        c = np.ascontiguousarray(self.shift, dtype=float).ravel()
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"matrix must be square, got shape {a.shape}")
        if c.shape != (a.shape[0],):
            raise ValueError(
                f"shift length {c.shape[0]} != matrix dim {a.shape[0]}"
            )
        for name, value in (("matrix", a), ("shift", c)):
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{name} must be finite, got {value}")
        cond = np.linalg.cond(a)
        if not np.isfinite(cond) or cond > MAX_AFFINE_CONDITION:
            raise ValueError(f"matrix is singular (condition number {cond:.3e})")
        object.__setattr__(self, "matrix", a)
        object.__setattr__(self, "shift", c)


TransformSpec = (AlphaScaleTwoLayer | AlphaScaleDeep | Radial | PowerStretch
                 | InputAffine)


# each spec's ``kind`` JSON tag is a plain class attribute, not a field
_TRANSFORM_KINDS = {cls.kind: cls for cls in typing.get_args(TransformSpec)}


def _decode_field(name: str, annotation: str, value):
    """Coerce one JSON value by the field's annotated type."""
    if annotation == "float":
        return json_float(value, f"field {name!r}")
    if annotation.startswith("tuple"):
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"field {name!r} must be a list, got {value!r}")
        return tuple(json_float(v, f"field {name!r} entry") for v in value)
    entries = np.asarray(value, dtype=object)  # np.ndarray
    for entry in entries.flat:
        json_float(entry, f"field {name!r} entry")
    return entries.astype(float)


def transform_from_dict(raw: dict) -> TransformSpec:
    if not isinstance(raw, dict) or "kind" not in raw:
        raise ValueError("transform spec must be an object with a 'kind' field")
    kind = raw["kind"]
    if not isinstance(kind, str) or kind not in _TRANSFORM_KINDS:
        raise ValueError(f"unknown transform kind {kind!r}")
    cls = _TRANSFORM_KINDS[kind]
    annotations = {f.name: f.type for f in dataclasses.fields(cls)}
    given = {k: v for k, v in raw.items() if k != "kind"}
    missing = annotations.keys() - given.keys()
    if missing:
        raise ValueError(
            f"transform spec '{kind}' is missing fields {sorted(missing)}"
        )
    unknown = given.keys() - annotations.keys()
    if unknown:
        raise ValueError(
            f"transform spec '{kind}' has unknown fields {sorted(unknown)}"
        )
    return cls(**{name: _decode_field(name, annotations[name], value)
                  for name, value in given.items()})


# ---------------------------------------------------------------------------
# alpha-scale transformations


@dataclass(frozen=True, eq=False)
class ScaleMap:
    """The alpha-scale map on flat coordinates, and its derivative transport.

    ``multipliers`` gives weight block k alphas[k] and the bias of layer j
    the running product alphas[0] ... alphas[j], as the rectifiers demand;
    every scale construction reads it. ``inverse`` is its reciprocal D,
    which carries gradients and Hessians to the moved point. The factors
    are validated as :class:`AlphaScaleDeep` validates them.
    """

    arch: Architecture
    alphas: tuple[float, ...]
    multipliers: np.ndarray = dataclasses.field(init=False, repr=False)
    inverse: np.ndarray = dataclasses.field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "alphas",
                           AlphaScaleDeep(tuple(self.alphas)).alphas)
        factors = np.asarray(self.alphas)
        if factors.shape != (self.arch.depth,):
            raise ValueError(f"{factors.size} scale factors for a "
                             f"{self.arch.depth}-layer network")
        widths = self.arch.layer_widths
        sizes = [a * b for a, b in zip(widths, widths[1:])]
        if self.arch.use_bias:
            factors = np.concatenate([factors, np.cumprod(factors)])
            sizes += widths[1:]
        object.__setattr__(self, "multipliers", np.repeat(factors, sizes))
        # silent: a non-finite D is refused where it is used, not by apply
        with np.errstate(divide="ignore", over="ignore"):
            object.__setattr__(self, "inverse", 1.0 / self.multipliers)

    @classmethod
    def first_last(cls, arch: Architecture, alpha: float) -> ScaleMap:
        """Factors (alpha, 1, ..., 1, 1/alpha): only the outer layers move."""
        _check_outer(arch, "alpha", alpha)
        return cls(arch, (alpha,) + (1.0,) * (arch.depth - 2) + (1.0 / alpha,))

    @classmethod
    def many_directions(cls, arch: Architecture, beta: float) -> ScaleMap:
        """Factors (1/beta, ..., 1/beta, beta^(K-1)): D grows every flat
        coordinate but the last weight block's and the last bias's, which
        pushes many Hessian eigenvalues upward at once."""
        _check_outer(arch, "beta", beta)
        try:
            last = float(beta) ** (arch.depth - 1)
        except OverflowError:
            raise ValueError(
                f"beta {beta} ** {arch.depth - 1} overflows") from None
        return cls(arch, (1.0 / beta,) * (arch.depth - 1) + (last,))

    @property
    def log2_det(self) -> float:
        """log2 of the map's determinant: the sum of log2 multipliers."""
        return float(np.sum(np.log2(self.multipliers)))

    def apply(self, params: ParamVector) -> ParamVector:
        """The equivalent point: the flat parameters times the multipliers."""
        return unvec(self.arch, vec(self.arch, params) * self.multipliers)

    def gradient(self, grad: np.ndarray) -> np.ndarray:
        """Gradient at the moved point: the old gradient times D."""
        d, grad = self._transport(), np.asarray(grad, dtype=float)
        if grad.shape != d.shape:
            raise ValueError(
                f"gradient length {grad.shape} != scaling length {d.shape}")
        return grad * d

    def hessian(self, hess: np.ndarray) -> np.ndarray:
        """Hessian at the moved point: D H D."""
        d, hess = self._transport(), require_symmetric(hess, "hessian")
        if hess.shape != (d.size, d.size):
            raise ValueError(
                f"hessian shape {hess.shape} != ({d.size}, {d.size})")
        return d[:, None] * hess * d[None, :]

    def _transport(self) -> np.ndarray:
        if not np.all(np.isfinite(self.inverse) & (self.inverse > 0)):
            raise ValueError("multipliers must be a finite positive vector")
        return self.inverse


def _check_outer(arch: Architecture, name: str, value: float) -> None:
    """The refusals of :class:`ScaleMap`'s outer-layer constructors."""
    if arch.depth < 2:
        raise ValueError(f"need depth >= 2, got {arch.depth}")
    if not (value > 0):
        raise ValueError(f"{name} must be > 0, got {value}")


def alpha_scale_two_layer(arch: Architecture, params: ParamVector,
                          alpha: float) -> ParamVector:
    """(theta_1, theta_2) -> (alpha theta_1, alpha^-1 theta_2), K = 2 only.

    On a network with biases, the first bias is scaled by alpha along
    with the first layer; that is what keeps the realized function
    unchanged, and the last bias needs no factor because the product of
    the two weight factors is already 1.
    """
    spec = AlphaScaleTwoLayer(alpha)
    if arch.depth != 2:
        raise ValueError(
            f"two-layer scaling needs exactly 2 layers, got {arch.depth}"
        )
    return ScaleMap.first_last(arch, spec.alpha).apply(params)


# ---------------------------------------------------------------------------
# constructions on top of the scale family


def sharpening_alpha(arch: Architecture, hess: np.ndarray,
                     target: float) -> float:
    """Power of two alpha at which ``ScaleMap.first_last`` lifts the
    Hessian's spectral norm to at least ``target``, in closed form.

    D H D scales H's principal block on the coordinates the map multiplies
    by alpha (first-layer weights, hidden biases) by alpha^-2, and its block
    on the last-layer weights by alpha^2. The block with the larger spectral
    norm s moves, by 2^-k or 2^k for the least k >= 0 with s 4^k >= target.
    A power of two rounds nothing, so that block of D H D is exactly 4^k
    times H's, and no principal block's spectral norm exceeds the whole
    matrix's (Cauchy interlacing): ||D H D|| >= target by construction.
    """
    if not (0 < target < math.inf):
        raise ValueError(f"target must be finite and > 0, got {target}")
    hess = require_symmetric(hess, "hessian")
    multipliers = ScaleMap.first_last(arch, 2.0).multipliers
    if hess.shape != (multipliers.size, multipliers.size):
        raise ValueError(
            f"hessian dim {hess.shape[0]} != parameter count {multipliers.size}"
        )
    first, last = (np.ix_(multipliers == m, multipliers == m)
                   for m in (2.0, 0.5))
    norms = [float(np.max(np.abs(symmetric_eigenspectrum(hess[block]))))
             for block in (first, last)]
    s = max(norms)
    if s == 0.0:
        raise ValueError(
            "no curvature on the first or the last layer: the Hessian "
            "cannot be sharpened along a scale orbit"
        )
    # s 4^k >= target compared exactly, on frexp's mantissas in [0.5, 1)
    # and exponents
    (m_s, e_s), (m_t, e_t) = math.frexp(s), math.frexp(target)
    k = max(0, -(-(e_t - e_s + (m_t > m_s)) // 2))
    exponent = -k if norms[0] >= norms[1] else k
    if k <= 1023:  # 2^1024 is not a float
        alpha = math.ldexp(1.0, exponent)
        with np.errstate(over="ignore"):
            moved = ScaleMap.first_last(arch, alpha).hessian(hess)
        if np.all(np.isfinite(moved)):
            return alpha
    raise ValueError(
        f"scale factor 2**{exponent} leaves the transformed Hessian "
        f"outside the finite floats"
    )


def epsilon_sharp_alpha(arch: Architecture, params: ParamVector,
                        epsilon: float) -> float:
    """Factor alpha = epsilon / |theta_1| placing the first layer on the
    epsilon sphere, so the zero-first-layer point falls inside the ball."""
    check_params(arch, params)
    if not (0 < epsilon < math.inf):
        raise ValueError(f"epsilon must be finite and > 0, got {epsilon}")
    # |theta_1| = 2^e |2^-e theta_1|: scaling by a power of two is exact,
    # and the scaled squares neither overflow nor go subnormal
    theta1 = params.weights[0].ravel()
    e = math.frexp(float(np.max(np.abs(theta1))))[1]
    norm = float(np.linalg.norm(np.ldexp(theta1, -e)))
    if norm == 0.0:
        raise ValueError("first layer is zero: the function is constant")
    try:
        alpha = math.ldexp(epsilon / norm, -e)
    except OverflowError:
        alpha = math.inf
    if not (0 < alpha < math.inf):
        raise ValueError(f"{epsilon} / ({norm} * 2**{e}) is not a finite "
                         "positive factor")
    return alpha


def zero_first_layer(arch: Architecture, params: ParamVector) -> ParamVector:
    """Same parameters with the first weight matrix zeroed."""
    check_params(arch, params)
    weights = (np.zeros_like(params.weights[0]),) + params.weights[1:]
    return ParamVector(weights, params.biases)


def disjoint_box_alpha(theta1: np.ndarray, r: float) -> float:
    """Scale factor separating a box around theta from its own image.

    For the sup-norm box of radius r around theta (with r below the
    largest first-layer magnitude t), any alpha >= 2 (t + r)/(t - r) moves
    the box's widest first-layer coordinate interval strictly past itself,
    alpha (t - r) > t + r, so the box and all its forward images are
    pairwise disjoint. The smallest power of two at or above that bound is
    returned, exactly. The volume certificate's proof does not need it to
    be one (the real scale map keeps the real loss at any alpha), but a
    power of two rounds nothing, so the float image boxes are the exact
    images too. A bound whose power of two is not a finite float is
    refused.
    """
    theta1 = np.asarray(theta1, dtype=float)
    t = float(np.max(np.abs(theta1))) if theta1.size else 0.0
    if not (r > 0):
        raise ValueError(f"r must be > 0, got {r}")
    if r >= t:
        raise ValueError(
            f"box radius {r} must stay below the largest first-layer "
            f"magnitude {t}"
        )
    bound = 2.0 * (t + r) / (t - r)
    if not bound <= 2.0 ** 1023:  # inf too, where frexp's exponent is 0
        raise ValueError(
            f"the disjointness bound {bound} has no power of two above it "
            f"in the float range"
        )
    # bound = mantissa * 2**exponent with mantissa in [0.5, 1)
    mantissa, exponent = math.frexp(bound)
    return math.ldexp(1.0, exponent - 1 if mantissa == 0.5 else exponent)


# ---------------------------------------------------------------------------
# radial reparametrization


def _radii(r) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise ValueError(f"radius must be >= 0, got {r[r < 0][0]}")
    return r


def _two_segments(x, knot: float, value: float, delta: float):
    """Piecewise-linear map [0, knot] -> [0, value], (knot, delta] ->
    (value, delta], identity beyond delta; elementwise."""
    x = _radii(x)
    out = np.where(
        x <= knot, value * x / knot,
        np.where(x <= delta,
                 (value - delta) * (x - delta) / (knot - delta) + delta, x))
    return out if out.ndim else float(out)


def psi(r, spec: Radial):
    """Piecewise-linear radius remap; identity outside [0, delta].

    Elementwise: a float gives a float, an array an array of that shape.
    """
    return _two_segments(r, spec.rhat, spec.rho, spec.delta)


def psi_prime(r, spec: Radial):
    """Slope of :func:`psi`, elementwise."""
    r = _radii(r)
    out = np.where(r <= spec.rhat, spec.rho / spec.rhat,
                   np.where(r <= spec.delta,
                            (spec.rho - spec.delta) / (spec.rhat - spec.delta),
                            1.0))
    return out if out.ndim else float(out)


def psi_inverse(q, spec: Radial):
    """Exact inverse of the radius remap: :func:`psi` with knot and value
    swapped, elementwise."""
    return _two_segments(q, spec.rho, spec.rhat, spec.delta)


def _point_rows(points: np.ndarray, spec: Radial) -> np.ndarray:
    """A point ``(d,)`` or a stack ``(S, d)`` as an ``(S, d)`` view."""
    if points.ndim not in (1, 2) or points.shape[-1] != spec.center.size:
        raise ValueError(
            f"points of shape {points.shape} do not match center length "
            f"{spec.center.size}"
        )
    return points.reshape(-1, spec.center.size)


def _remap_radius(points, spec: Radial, remap) -> np.ndarray:
    """Move each row along its offset from the center to radius ``remap(r)``.

    Rows at the center return the center and rows at ``r >= delta`` come
    back untouched; every row gets the arithmetic a single point gets.
    """
    points = np.asarray(points, dtype=float)
    rows = _point_rows(points, spec)
    u = rows - spec.center
    r = _row_norms(u)
    out = rows.copy()
    out[r == 0.0] = spec.center
    moved = ~((r == 0.0) | (r >= spec.delta))  # a NaN radius is moved to NaN
    r, u = r[moved], u[moved]
    out[moved] = spec.center + (remap(r, spec) / r)[:, None] * u
    return out.reshape(points.shape)


def radial_forward(theta: np.ndarray, spec: Radial) -> np.ndarray:
    """Remap the radius of each point around the center; direction is kept.

    ``theta`` is one point ``(d,)`` or a stack ``(S, d)``; the result has
    its shape.
    """
    return _remap_radius(theta, spec, psi)


def radial_inverse(eta: np.ndarray, spec: Radial) -> np.ndarray:
    """Exact inverse of :func:`radial_forward`, for a point or a stack."""
    return _remap_radius(eta, spec, psi_inverse)


def radial_jacobian(theta: np.ndarray, spec: Radial) -> np.ndarray:
    """Derivative matrix of :func:`radial_forward` at each point.

    psi'(r) I everywhere, plus a rank-one correction on the outer linear
    segment where the map is not a pure dilation of the offset. A point
    ``(d,)`` gives ``(d, d)``, a stack ``(S, d)`` gives ``(S, d, d)``.
    """
    theta = np.asarray(theta, dtype=float)
    rows = _point_rows(theta, spec)
    n = spec.center.size
    u = rows - spec.center
    r = _row_norms(u)
    jac = psi_prime(r, spec)[:, None, None] * np.eye(n)
    middle = (spec.rhat < r) & (r <= spec.delta)
    r, u = r[middle], u[middle]
    coeff = spec.delta * (spec.rhat - spec.rho) / (spec.rhat - spec.delta)
    # Python's ** is libm pow; np.power may take a SIMD pow that rounds
    # differently in the last bit
    cubes = np.array([x ** 3 for x in r.tolist()])
    jac[middle] += (coeff / r)[:, None, None] * np.eye(n)
    jac[middle] -= (coeff / cubes)[:, None, None] * (u[:, :, None] * u[:, None, :])
    return jac.reshape(theta.shape + (n,))


# ---------------------------------------------------------------------------
# power stretch reparametrization


def _stretch(t, spec: PowerStretch, formula):
    """``formula(u, u^2 + b)`` at u = t - center, elementwise, overflow
    saturating silently. Formulas take numpy's pow, never a scalar's
    ``**``, so that a lone element gets the bits it gets in a stack."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        u = np.asarray(t, dtype=float) - spec.center
        out = formula(u, u * u + spec.b)
    return out if out.ndim else float(out)


def power_stretch_forward(t, spec: PowerStretch):
    """eta = (u^2 + b)^a u with u = t - center, elementwise.

    With b = 0 the map is exactly |u|^(2a + 1) with the sign of u, and is
    evaluated so everywhere: one power, monotone in the float order, and
    exact where u^2 would be subnormal. So is it with b > 0 at u = 0, and
    where u^2 + b overflows (b is then negligible), so every finite t has a
    non-NaN image. Where u^2 + b is subnormal it is factored as in
    :func:`power_stretch_derivative`: u |u|^(2a) (1 + q)^a, or u b^a (1 +
    q)^a.
    """
    a, b = spec.a, spec.b

    def formula(u, base):
        u_dominant, q = _dominant_ratio(u, b)
        scaled = _power_product(u, np.where(u_dominant, np.abs(u), b),
                                np.where(u_dominant, 2.0 * a, a),
                                np.power(1.0 + q, a))
        return np.where(
            (u == 0.0) | (b == 0.0) | _unrepresented(base),
            np.copysign(np.power(np.abs(u), 2.0 * a + 1.0), u),
            np.where(_normal(base), np.power(base, a) * u, scaled))

    return _stretch(t, spec, formula)


def _unrepresented(base):
    """Where u^2 + b underflowed to 0 or overflowed, so that b is
    negligible or absent and the map is |u|^(2a + 1) sign(u)."""
    return (base == 0.0) | (base == np.inf)


def _normal(x):
    """Where x is a normal float: finite, and neither zero nor subnormal."""
    mag = np.abs(x)
    return (mag >= np.finfo(float).tiny) & (mag < np.inf)


def _dominant_ratio(u, b: float):
    """Where u^2 >= b, and the ratio q in [0, 1] of the smaller of u^2 and
    b to the larger, formed without u^2, so that it neither underflows nor
    overflows where u^2 does (NaN at u = b = 0)."""
    mag = np.abs(u)
    u_dominant = mag >= np.sqrt(b)
    return u_dominant, np.where(u_dominant, (b / mag) / mag, (mag / b) * mag)


def _power_product(v, x, p, k):
    """v k x^p, with x^p split into two halves, one multiplied onto v and
    one onto k, so that no intermediate carries the whole of x^p."""
    half = np.power(x, 0.5 * p)
    return (v * half) * (k * half)


def power_stretch_derivative(t, spec: PowerStretch):
    """Slope of :func:`power_stretch_forward`, elementwise.

    (u^2 + b)^(a - 1) ((2a + 1) u^2 + b) where each of those three factors
    is a normal float. Elsewhere the same value is factored through the
    larger of u^2 and b, with q the smaller over the larger:
    |u|^(2a) (1 + q)^(a - 1) (2a + 1 + q), or b^a (1 + q)^(a - 1)
    (1 + (2a + 1) q), so that the factor carrying the magnitude is a power
    of the exact |u| or b. At u = 0 it is b^a, which for b = 0 is the limit
    1, 0 or inf for a = 0, a > 0, a < 0.
    """
    a, b = spec.a, spec.b

    def formula(u, base):
        power, rest = np.power(base, a - 1.0), (2.0 * a + 1.0) * u * u + b
        u_dominant, q = _dominant_ratio(u, b)
        scaled = _power_product(
            1.0, np.where(u_dominant, np.abs(u), b),
            np.where(u_dominant, 2.0 * a, a),
            np.where(u_dominant, 2.0 * a + 1.0 + q, 1.0 + (2.0 * a + 1.0) * q)
            * np.power(1.0 + q, a - 1.0))
        return np.where(
            _normal(base) & _normal(power) & _normal(rest), power * rest,
            np.where(u == 0.0, np.power(b, a), scaled))

    return _stretch(t, spec, formula)


def power_stretch_second_derivative(t, spec: PowerStretch):
    """Second derivative of :func:`power_stretch_forward`, elementwise.

    2a u (u^2 + b)^(a - 2) ((2a + 1) u^2 + 3b) where each of its three
    non-constant factors is a normal float. Elsewhere, factored as in
    :func:`power_stretch_derivative`: 2a sign(u) |u|^(2a - 1) (1 + q)^(a - 2)
    (2a + 1 + 3q), or 2a u b^(a - 1) (1 + q)^(a - 2) (3 + (2a + 1) q); and 0
    at u = 0 or wherever a = 0.
    """
    a, b = spec.a, spec.b

    def formula(u, base):
        power = np.power(base, a - 2.0)
        rest = (2.0 * a + 1.0) * u * u + 3.0 * b
        u_dominant, q = _dominant_ratio(u, b)
        scaled = _power_product(
            np.where(u_dominant, np.sign(u), u),
            np.where(u_dominant, np.abs(u), b),
            np.where(u_dominant, 2.0 * a - 1.0, a - 1.0),
            2.0 * a * np.where(u_dominant, 2.0 * a + 1.0 + 3.0 * q,
                               3.0 + (2.0 * a + 1.0) * q)
            * np.power(1.0 + q, a - 2.0))
        return np.where(
            _normal(base) & _normal(power) & _normal(rest),
            2.0 * a * u * power * rest,
            np.where((u == 0.0) | (a == 0.0), 0.0, scaled))

    return _stretch(t, spec, formula)


def _ordered(x: np.ndarray) -> np.ndarray:
    """float64 <-> int64 keys that order as the floats do (its own inverse):
    adjacent keys are adjacent floats, and -0.0 keys as -1, below +0.0."""
    bits = x.view(np.int64)
    return np.where(bits < 0, bits ^ np.int64(2**63 - 1), bits)


def power_stretch_inverse(eta, spec: PowerStretch):
    """Inverse of :func:`power_stretch_forward` over the floats, elementwise.

    Bisects over the ordered float64 bit patterns, starting from the whole
    finite float line (at most 64 halvings), keeping forward(lo) <= eta <
    forward(hi) until lo and hi are adjacent floats; lo is returned, so
    forward(lo) <= eta < forward(next float above lo) always holds. The
    preimage lo is unique only where forward is monotone over the floats,
    as it is at b = 0 and at the specs the suite and notebooks use; with
    a < 0 and b > 0 its rounding steps down between some adjacent floats,
    and lo is then one of several floats that bracket eta. A NaN or
    infinite eta, or one outside [forward(-max), forward(max)), is refused.
    """
    eta = np.asarray(eta, dtype=float)
    if not np.all(np.isfinite(eta)):
        raise ValueError("eta must be finite")
    top = np.finfo(float).max
    if not np.all((power_stretch_forward(-top, spec) <= eta)
                  & (eta < power_stretch_forward(top, spec))):
        raise ValueError("eta lies beyond the image of the finite floats")
    lo, hi = _ordered(np.full(eta.shape, -top)), _ordered(np.full(eta.shape, top))
    while np.any(lo < hi - 1):
        # floor((lo + hi) / 2) without int64 overflow; a closed bracket
        # has mid == lo and stays put
        mid = (lo >> 1) + (hi >> 1) + (lo & hi & 1)
        below = power_stretch_forward(_ordered(mid).view(float), spec) <= eta
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    out = _ordered(lo).view(float)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# input preprocessing


def fold_input_affine(arch: Architecture, params: ParamVector,
                      spec: InputAffine) -> ParamVector:
    """Network computing f(A u + shift) directly on raw u.

    The affine map folds into the first layer: its weight becomes A^T
    theta_1 and the shift lands in the first bias. A nonzero shift on a
    bias-free architecture has nowhere to go and is rejected.
    """
    check_params(arch, params)
    if spec.matrix.shape[0] != arch.input_width:
        raise ValueError(
            f"preprocessing dim {spec.matrix.shape[0]} != input width "
            f"{arch.input_width}"
        )
    w0 = spec.matrix.T @ params.weights[0]
    weights = (w0,) + params.weights[1:]
    if arch.use_bias:
        b0 = params.biases[0] + spec.shift @ params.weights[0]
        biases = (b0,) + params.biases[1:]
        return ParamVector(weights, biases)
    if float(np.max(np.abs(spec.shift), initial=0.0)) != 0.0:
        raise ValueError(
            "nonzero preprocessing shift requires a biased architecture"
        )
    return ParamVector(weights, None)


# ---------------------------------------------------------------------------
# uniform application entry point


def apply_transform(arch: Architecture, params: ParamVector,
                    spec: TransformSpec) -> ParamVector:
    """Apply any transform spec to a parameter point.

    Scale-family specs return an observationally equivalent point.
    Radial and power-stretch specs return the point's coordinates in the
    reparametrized space (the same function seen through new
    coordinates, which as raw parameters realizes a different network);
    input-affine specs fold the preprocessing into the first layer.
    """
    if isinstance(spec, AlphaScaleTwoLayer):
        return alpha_scale_two_layer(arch, params, spec.alpha)
    if isinstance(spec, AlphaScaleDeep):
        return ScaleMap(arch, spec.alphas).apply(params)
    if isinstance(spec, Radial):
        return unvec(arch, radial_forward(vec(arch, params), spec))
    if isinstance(spec, PowerStretch):
        return unvec(arch, power_stretch_forward(vec(arch, params), spec))
    if isinstance(spec, InputAffine):
        return fold_input_affine(arch, params, spec)
    raise TypeError(f"not a transform spec: {type(spec).__name__}")
