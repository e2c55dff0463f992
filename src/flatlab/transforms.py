"""Parameter transformations and their effect on derivatives.

Two families live here. The scale family (two-layer and deep alpha
scalings, bias-aware variants, weight-norm rescaling) maps a parameter
vector to an observationally equivalent one: the realized prediction
function is unchanged for every input. The reparametrization family
(radial, power stretch, input affine) changes coordinates instead; the
point moves, the function family does not.

Scale transformations act diagonally on flat coordinates: layer k's
weights are multiplied by alpha_k and layer j's bias by the running
product alpha_1 * ... * alpha_j, which is what pushing the factors
through the rectifiers demands. The inverse of that diagonal is the
matrix D that carries gradients and Hessians between equivalent points:

    grad_after = grad_before * d        (elementwise)
    hess_after = d[:, None] * hess_before * d[None, :]

where ``d`` is the flat multiplier vector of :class:`DiagonalScaling`.
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass

import numpy as np

from .linalg import require_symmetric, symmetric_eigenspectrum
from .nets import Architecture, FlatIndex, ParamVector, check_params, unvec, vec
from .serialize import json_int

ALPHA_PRODUCT_RTOL = 1e-12
# Condition-number ceiling past which a preprocessing matrix is treated
# as singular.
MAX_AFFINE_CONDITION = 1e12
# geometric (factor 2) candidates sharpening_alpha tries before giving up
_SHARPEN_STEPS = 300


# ---------------------------------------------------------------------------
# transform specifications


@dataclass(frozen=True)
class AlphaScaleTwoLayer:
    """(theta_1, theta_2) -> (alpha theta_1, alpha^-1 theta_2)."""

    alpha: float

    def __post_init__(self):
        if not (self.alpha > 0):
            raise ValueError(f"alpha must be > 0, got {self.alpha}")

    @property
    def kind(self) -> str:
        return "alpha_scale_two_layer"


@dataclass(frozen=True)
class AlphaScaleDeep:
    """Layer k scaled by alphas[k]; the product of all factors is 1."""

    alphas: tuple[float, ...]

    def __post_init__(self):
        alphas = tuple(float(a) for a in self.alphas)
        object.__setattr__(self, "alphas", alphas)
        if len(alphas) < 1:
            raise ValueError("need at least one factor")
        if any(not (a > 0) for a in alphas):
            raise ValueError(f"all factors must be > 0, got {alphas}")
        product = float(np.prod(alphas))
        if abs(product - 1.0) > ALPHA_PRODUCT_RTOL:
            raise ValueError(
                f"factor product {product!r} differs from 1 by more than "
                f"{ALPHA_PRODUCT_RTOL:.0e}"
            )

    @property
    def kind(self) -> str:
        return "alpha_scale_deep"


@dataclass(frozen=True)
class WeightNormScale:
    """Scale the unnormalized weight v of one layer; w = s v/|v| is kept."""

    layer: int
    alpha: float

    def __post_init__(self):
        if self.alpha == 0:
            raise ValueError("alpha must be nonzero")
        if self.layer < 0:
            raise ValueError(f"layer index must be >= 0, got {self.layer}")

    @property
    def kind(self) -> str:
        return "weight_norm"


@dataclass(frozen=True, eq=False)
class Radial:
    """Radius remap inside the ball of radius delta around ``center``.

    Radii in [0, rhat] stretch linearly to [0, rho]; radii in (rhat,
    delta] stretch linearly to (rho, delta]; everything outside the ball
    is untouched.
    """

    center: np.ndarray
    delta: float
    rho: float
    rhat: float

    def __post_init__(self):
        center = np.ascontiguousarray(self.center, dtype=float).ravel()
        object.__setattr__(self, "center", center)
        if not (self.delta > 0):
            raise ValueError(f"delta must be > 0, got {self.delta}")
        if not (0 < self.rho < self.delta):
            raise ValueError(f"rho must lie in (0, delta), got {self.rho}")
        if not (0 < self.rhat < self.delta):
            raise ValueError(f"rhat must lie in (0, delta), got {self.rhat}")

    @property
    def kind(self) -> str:
        return "radial"


@dataclass(frozen=True)
class PowerStretch:
    """Scalar bijection eta = (|t - center|^2 + b)^a (t - center)."""

    center: float
    a: float
    b: float

    def __post_init__(self):
        if not (self.a > -0.5):
            raise ValueError(f"a must be > -1/2, got {self.a}")
        if not (self.b >= 0):
            raise ValueError(f"b must be >= 0, got {self.b}")

    @property
    def kind(self) -> str:
        return "power_stretch"


@dataclass(frozen=True, eq=False)
class InputAffine:
    """Invertible input preprocessing x = A u + shift."""

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
        if not np.all(np.isfinite(a)) or not np.all(np.isfinite(c)):
            raise ValueError("non-finite preprocessing parameters")
        cond = np.linalg.cond(a)
        if not np.isfinite(cond) or cond > MAX_AFFINE_CONDITION:
            raise ValueError(f"matrix is singular (condition number {cond:.3e})")
        object.__setattr__(self, "matrix", a)
        object.__setattr__(self, "shift", c)

    @property
    def kind(self) -> str:
        return "input_affine"


TransformSpec = (AlphaScaleTwoLayer | AlphaScaleDeep | WeightNormScale
                 | Radial | PowerStretch | InputAffine)


_TRANSFORM_KINDS = {
    "alpha_scale_two_layer": AlphaScaleTwoLayer,
    "alpha_scale_deep": AlphaScaleDeep,
    "weight_norm": WeightNormScale,
    "radial": Radial,
    "power_stretch": PowerStretch,
    "input_affine": InputAffine,
}


def transform_to_dict(spec: TransformSpec) -> dict:
    """JSON-ready encoding: the ``kind`` tag, then each dataclass field."""
    if type(spec) not in _TRANSFORM_KINDS.values():
        raise TypeError(f"not a transform spec: {type(spec).__name__}")
    out = {"kind": spec.kind}
    for f in dataclasses.fields(spec):
        value = getattr(spec, f.name)
        if isinstance(value, np.ndarray):
            value = value.tolist()
        elif isinstance(value, tuple):
            value = list(value)
        out[f.name] = value
    return out


def _decode_field(name: str, annotation: str, value):
    """Coerce one JSON value by the field's annotated type."""
    if annotation == "float":
        return float(value)
    if annotation == "int":
        return json_int(value, f"field {name!r}")
    if annotation.startswith("tuple"):
        return tuple(value)
    return np.asarray(value, dtype=float)  # np.ndarray


def transform_from_dict(raw: dict) -> TransformSpec:
    if not isinstance(raw, dict) or "kind" not in raw:
        raise ValueError("transform spec must be an object with a 'kind' field")
    kind = raw["kind"]
    if kind not in _TRANSFORM_KINDS:
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


def _bias_factors(alphas: tuple[float, ...]) -> np.ndarray:
    """Running products: bias of layer j scales by alpha_1 ... alpha_j."""
    return np.cumprod(np.asarray(alphas, dtype=float))


def _check_depth(arch: Architecture, alphas: tuple[float, ...]) -> None:
    if len(alphas) != arch.depth:
        raise ValueError(
            f"{len(alphas)} scale factors for a {arch.depth}-layer network"
        )


def alpha_scale_deep(arch: Architecture, params: ParamVector,
                     alphas: tuple[float, ...] | AlphaScaleDeep) -> ParamVector:
    """Scale layer k by alphas[k]; biases carry the running product.

    The factor product is constrained to 1, which makes the result
    observationally equivalent to the input (the factors cancel through
    the rectifiers).
    """
    if not isinstance(alphas, AlphaScaleDeep):
        alphas = AlphaScaleDeep(tuple(alphas))
    check_params(arch, params)
    _check_depth(arch, alphas.alphas)
    weights = tuple(w * a for w, a in zip(params.weights, alphas.alphas))
    biases = None
    if arch.use_bias:
        factors = _bias_factors(alphas.alphas)
        biases = tuple(b * f for b, f in zip(params.biases, factors))
    return ParamVector(weights, biases)


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
    return alpha_scale_deep(arch, params, (spec.alpha, 1.0 / spec.alpha))


def first_last_alphas(depth: int, alpha: float) -> tuple[float, ...]:
    """Factor list (alpha, 1, ..., 1, 1/alpha): only the outer layers move."""
    if depth < 2:
        raise ValueError(f"need depth >= 2, got {depth}")
    if not (alpha > 0):
        raise ValueError(f"alpha must be > 0, got {alpha}")
    return (alpha,) + (1.0,) * (depth - 2) + (1.0 / alpha,)


def many_directions_alphas(depth: int, beta: float) -> tuple[float, ...]:
    """Factor list (1/beta, ..., 1/beta, beta^(K-1)).

    Every layer but the last is shrunk by the same factor; the last layer
    absorbs the product constraint. Under the induced diagonal map this
    blows up all flat coordinates except the last weight block, which is
    what pushes many Hessian eigenvalues upward at once.
    """
    if depth < 2:
        raise ValueError(f"need depth >= 2, got {depth}")
    if not (beta > 0):
        raise ValueError(f"beta must be > 0, got {beta}")
    return (1.0 / beta,) * (depth - 1) + (float(beta) ** (depth - 1),)


def transform_multipliers(arch: Architecture,
                          alphas: tuple[float, ...]) -> np.ndarray:
    """Flat per-coordinate multipliers of the alpha-scale map itself."""
    _check_depth(arch, tuple(alphas))
    index = FlatIndex(arch)
    out = np.empty(index.total)
    for k in range(arch.depth):
        out[index.weight_slice(k)] = alphas[k]
    if arch.use_bias:
        factors = _bias_factors(tuple(alphas))
        for k in range(arch.depth):
            out[index.bias_slice(k)] = factors[k]
    return out


@dataclass(frozen=True, eq=False)
class DiagonalScaling:
    """Flat diagonal D carrying derivatives between equivalent points.

    ``multipliers`` is the elementwise inverse of the transform's own
    coordinate multipliers: weight block k gets 1/alpha_k, the bias of
    layer j gets 1/(alpha_1 ... alpha_j).
    """

    multipliers: np.ndarray

    def __post_init__(self):
        m = np.ascontiguousarray(self.multipliers, dtype=float)
        if m.ndim != 1 or not np.all(m > 0) or not np.all(np.isfinite(m)):
            raise ValueError("multipliers must be a finite positive vector")
        object.__setattr__(self, "multipliers", m)


def diagonal_scaling(arch: Architecture,
                     alphas: tuple[float, ...] | AlphaScaleDeep) -> DiagonalScaling:
    if isinstance(alphas, AlphaScaleDeep):
        alphas = alphas.alphas
    AlphaScaleDeep(tuple(alphas))  # validate positivity and product
    return DiagonalScaling(1.0 / transform_multipliers(arch, tuple(alphas)))


def predicted_gradient(grad: np.ndarray, scaling: DiagonalScaling) -> np.ndarray:
    """Gradient at the transformed point: the old gradient times D."""
    grad = np.asarray(grad, dtype=float)
    if grad.shape != scaling.multipliers.shape:
        raise ValueError(
            f"gradient length {grad.shape} != scaling length "
            f"{scaling.multipliers.shape}"
        )
    return grad * scaling.multipliers


def predicted_hessian(hess: np.ndarray, scaling: DiagonalScaling) -> np.ndarray:
    """Hessian at the transformed point: D H D."""
    hess = require_symmetric(hess, "hessian")
    d = scaling.multipliers
    if hess.shape != (d.size, d.size):
        raise ValueError(
            f"hessian shape {hess.shape} != ({d.size}, {d.size})"
        )
    return d[:, None] * hess * d[None, :]


# ---------------------------------------------------------------------------
# constructions on top of the scale family


def sharpening_alpha(arch: Architecture, hess: np.ndarray,
                     target: float) -> float:
    """Factor alpha whose scale transform pushes the spectral norm >= target.

    Searches geometrically (factor 2) from alpha = 1 and returns the first
    candidate whose D H D reaches the target by the eigenvalue solve that
    ``hessian_measures`` uses, so a check measures exactly what certified
    the choice. The search direction comes from the diagonal: a positive
    diagonal entry in the first-layer block grows like 1/alpha^2 as alpha
    shrinks, one in the later blocks grows like alpha^2, so whichever is
    available guarantees termination.
    """
    hess = require_symmetric(hess, "hessian")
    if not (target > 0):
        raise ValueError(f"target must be > 0, got {target}")
    index = FlatIndex(arch)
    if hess.shape != (index.total, index.total):
        raise ValueError(
            f"hessian dim {hess.shape[0]} != parameter count {index.total}"
        )
    if float(np.max(np.abs(hess))) == 0.0:
        raise ValueError("zero Hessian: nothing to sharpen")
    diag = np.diag(hess)
    first = index.weight_slice(0)
    gamma_first = float(np.max(diag[first], initial=0.0))
    rest = np.ones(index.total, dtype=bool)
    rest[first] = False
    gamma_rest = float(np.max(diag[rest], initial=0.0))
    if gamma_first <= 0 and gamma_rest <= 0:
        raise ValueError(
            "no positive diagonal curvature: the Hessian cannot be "
            "sharpened along a scale orbit"
        )
    factor = 0.5 if gamma_first >= gamma_rest else 2.0

    alpha = 1.0
    for _ in range(_SHARPEN_STEPS):
        scaling = diagonal_scaling(arch, first_last_alphas(arch.depth, alpha))
        candidate = predicted_hessian(hess, scaling)
        if not np.all(np.isfinite(candidate)):
            raise ValueError(
                f"scale factor {alpha:.3e} overflows the transformed Hessian"
            )
        if float(np.max(np.abs(symmetric_eigenspectrum(candidate)))) >= target:
            return alpha
        alpha *= factor
    raise ValueError(
        f"no certifying factor found within {_SHARPEN_STEPS} geometric steps"
    )


def epsilon_sharp_alpha(arch: Architecture, params: ParamVector,
                        epsilon: float) -> float:
    """Factor alpha = epsilon / |theta_1| placing the first layer on the
    epsilon sphere, so the zero-first-layer point falls inside the ball."""
    check_params(arch, params)
    if not (epsilon > 0):
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    norm = float(np.linalg.norm(params.weights[0].ravel()))
    if norm == 0.0:
        raise ValueError("first layer is zero: the function is constant")
    return epsilon / norm


def zero_first_layer(arch: Architecture, params: ParamVector) -> ParamVector:
    """Same parameters with the first weight matrix zeroed."""
    check_params(arch, params)
    weights = (np.zeros_like(params.weights[0]),) + params.weights[1:]
    return ParamVector(weights, params.biases)


def disjoint_box_alpha(theta1: np.ndarray, r: float) -> float:
    """Scale factor separating a box around theta from its own image.

    For the sup-norm box of radius r around theta (with r below the
    largest first-layer magnitude t), alpha = 2 (t + r)/(t - r) moves the
    box's widest first-layer coordinate interval strictly past itself, so
    the box and all its forward images are pairwise disjoint.
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
    return 2.0 * (t + r) / (t - r)


def weight_norm_decompose(params: ParamVector, layer: int) -> tuple[float, np.ndarray]:
    """Scale-and-direction reading (s, v) of one layer's weight, s = |v|."""
    if not (0 <= layer < len(params.weights)):
        raise ValueError(f"layer {layer} out of range")
    v = params.weights[layer]
    s = float(np.linalg.norm(v.ravel()))
    if s == 0.0:
        raise ValueError(f"layer {layer} weight is zero")
    return s, v.copy()


def weight_norm_realize(s: float, v: np.ndarray) -> np.ndarray:
    """Realized weight s v / |v|."""
    v = np.asarray(v, dtype=float)
    norm = float(np.linalg.norm(v.ravel()))
    if norm == 0.0:
        raise ValueError("unnormalized weight is zero")
    return (s / norm) * v


def weight_norm_scale(arch: Architecture, params: ParamVector,
                      layer: int, alpha: float) -> ParamVector:
    """Rescale the unnormalized weight of one layer by alpha.

    The realized weight s v / |v| is invariant under v -> alpha v for
    alpha > 0, so the returned parameters are bit-identical to the input.
    A negative alpha flips the layer's sign, which changes the function;
    it is allowed but warned about.
    """
    spec = WeightNormScale(layer, alpha)
    check_params(arch, params)
    s, v = weight_norm_decompose(params, spec.layer)
    if spec.alpha > 0:
        # s v/|v| is exactly invariant: return the input weight untouched
        # rather than recomputing it through two norms
        return ParamVector(params.weights, params.biases)
    warnings.warn(
        f"weight-norm factor {spec.alpha} < 0 flips layer {spec.layer}; "
        "the realized function changes sign structure",
        stacklevel=2,
    )
    realized = weight_norm_realize(s, spec.alpha * v)
    weights = list(params.weights)
    weights[spec.layer] = realized
    return ParamVector(tuple(weights), params.biases)


# ---------------------------------------------------------------------------
# radial reparametrization


def psi(r: float, spec: Radial) -> float:
    """Piecewise-linear radius remap; identity outside [0, delta]."""
    if r < 0:
        raise ValueError(f"radius must be >= 0, got {r}")
    if r <= spec.rhat:
        return spec.rho * r / spec.rhat
    if r <= spec.delta:
        return (spec.rho - spec.delta) * (r - spec.delta) / (spec.rhat - spec.delta) + spec.delta
    return r


def psi_prime(r: float, spec: Radial) -> float:
    if r < 0:
        raise ValueError(f"radius must be >= 0, got {r}")
    if r <= spec.rhat:
        return spec.rho / spec.rhat
    if r <= spec.delta:
        return (spec.rho - spec.delta) / (spec.rhat - spec.delta)
    return 1.0


def psi_inverse(q: float, spec: Radial) -> float:
    """Exact inverse of the radius remap, segment by segment."""
    if q < 0:
        raise ValueError(f"radius must be >= 0, got {q}")
    if q <= spec.rho:
        return q * spec.rhat / spec.rho
    if q <= spec.delta:
        return spec.delta + (q - spec.delta) * (spec.rhat - spec.delta) / (spec.rho - spec.delta)
    return q


def radial_forward(theta: np.ndarray, spec: Radial) -> np.ndarray:
    """Remap the radius of theta around the center; direction is kept."""
    theta = np.asarray(theta, dtype=float).ravel()
    if theta.shape != spec.center.shape:
        raise ValueError(
            f"point length {theta.size} != center length {spec.center.size}"
        )
    u = theta - spec.center
    r = float(np.linalg.norm(u))
    if r == 0.0:
        return spec.center.copy()
    if r >= spec.delta:  # untouched, not merely re-assembled
        return theta.copy()
    return spec.center + (psi(r, spec) / r) * u


def radial_inverse(eta: np.ndarray, spec: Radial) -> np.ndarray:
    eta = np.asarray(eta, dtype=float).ravel()
    if eta.shape != spec.center.shape:
        raise ValueError(
            f"point length {eta.size} != center length {spec.center.size}"
        )
    u = eta - spec.center
    q = float(np.linalg.norm(u))
    if q == 0.0:
        return spec.center.copy()
    if q >= spec.delta:
        return eta.copy()
    return spec.center + (psi_inverse(q, spec) / q) * u


def radial_jacobian(theta: np.ndarray, spec: Radial) -> np.ndarray:
    """Derivative matrix of :func:`radial_forward` at theta.

    psi'(r) I everywhere, plus a rank-one correction on the outer linear
    segment where the map is not a pure dilation of the offset.
    """
    theta = np.asarray(theta, dtype=float).ravel()
    if theta.shape != spec.center.shape:
        raise ValueError(
            f"point length {theta.size} != center length {spec.center.size}"
        )
    n = theta.size
    u = theta - spec.center
    r = float(np.linalg.norm(u))
    if r == 0.0:
        return (spec.rho / spec.rhat) * np.eye(n)
    jac = psi_prime(r, spec) * np.eye(n)
    if spec.rhat < r <= spec.delta:
        coeff = spec.delta * (spec.rhat - spec.rho) / (spec.rhat - spec.delta)
        jac += (coeff / r) * np.eye(n)
        jac -= (coeff / r**3) * np.outer(u, u)
    return jac


# ---------------------------------------------------------------------------
# power stretch reparametrization (scalar)


def power_stretch_forward(t: float, spec: PowerStretch) -> float:
    u = float(t) - spec.center
    return (u * u + spec.b) ** spec.a * u


def power_stretch_derivative(t: float, spec: PowerStretch) -> float:
    u = float(t) - spec.center
    base = u * u + spec.b
    if base == 0.0:
        # only reachable with b = 0 at the center
        if spec.a == 0:
            return 1.0
        return 0.0 if spec.a > 0 else np.inf
    return base ** (spec.a - 1.0) * ((2.0 * spec.a + 1.0) * u * u + spec.b)


def power_stretch_second_derivative(t: float, spec: PowerStretch) -> float:
    u = float(t) - spec.center
    base = u * u + spec.b
    if base == 0.0:
        return 0.0
    return 2.0 * spec.a * u * base ** (spec.a - 2.0) * ((2.0 * spec.a + 1.0) * u * u + 3.0 * spec.b)


# ---------------------------------------------------------------------------
# input preprocessing


def input_affine_apply(spec: InputAffine, u: np.ndarray) -> np.ndarray:
    """x = A u + shift, rowwise over a batch."""
    u = np.asarray(u, dtype=float)
    if u.ndim == 1:
        return spec.matrix @ u + spec.shift
    if u.ndim == 2 and u.shape[1] == spec.matrix.shape[0]:
        return u @ spec.matrix.T + spec.shift
    raise ValueError(f"input shape {u.shape} does not match preprocessing dim")


def preprocessed_input_gradient(df_dx: np.ndarray,
                                spec: InputAffine) -> np.ndarray:
    """Chain rule for the preprocessed prediction: row gradient times A."""
    df_dx = np.asarray(df_dx, dtype=float)
    if df_dx.shape[-1] != spec.matrix.shape[0]:
        raise ValueError(
            f"gradient length {df_dx.shape[-1]} != preprocessing dim "
            f"{spec.matrix.shape[0]}"
        )
    return df_dx @ spec.matrix


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
        return alpha_scale_deep(arch, params, spec)
    if isinstance(spec, WeightNormScale):
        return weight_norm_scale(arch, params, spec.layer, spec.alpha)
    if isinstance(spec, Radial):
        return unvec(arch, radial_forward(vec(arch, params), spec))
    if isinstance(spec, PowerStretch):
        flat = vec(arch, params)
        out = np.array([power_stretch_forward(t, spec) for t in flat])
        return unvec(arch, out)
    if isinstance(spec, InputAffine):
        return fold_input_affine(arch, params, spec)
    raise TypeError(f"not a transform spec: {type(spec).__name__}")
