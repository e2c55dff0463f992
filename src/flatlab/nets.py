"""Small dense rectified networks and their calculus.

A network is described by an :class:`Architecture` (layer widths, bias
flag) plus a :class:`ParamVector` (one weight matrix per layer, optional
bias vectors). Inputs are row vectors, so layer ``k`` maps ``a`` to
``phi(a @ W_k + b_k)`` with ``W_k`` of shape ``(n_{k-1}, n_k)``; hidden
layers apply the rectifier ``phi(z) = max(z, 0)``, the output layer is
linear and one unit wide.

Parameter vectors flatten to a single float64 array in a fixed order:
weight matrices in layer order, each row-major, followed by bias vectors
in layer order. All derivative routines and serialized artifacts share
that layout via :class:`FlatIndex`.

The loss everywhere is mean squared error over a dataset. Its gradient is
exact backpropagation with the convention ``phi'(0) = 0``. Loops over
many flat vectors evaluate them as :class:`Objective` stacks, which keep
their hidden-layer buffers, and may hold several same-shaped datasets, a
stack's rows each naming its own. :func:`_block_rows` caps, to bound
memory, the volume certificate's witness stacks and the Hessian's
columns, whose Hessian-vector products allocate on every call. The
ball-sharpness ascent is not capped: each step stacks every start of
every center at once.
The Hessian is exact on the activation pattern at the point:
Hessian-vector products by forward-over-reverse differentiation, one
stacked call per block of columns; see :func:`hessian`. Where every
residual is exactly zero the Hessian on the pattern is exactly the
Gauss-Newton term ``(2/m) J^T J``; :func:`_output_jacobian` gives the
``(m, n)`` output Jacobian ``J`` so its spectrum can come from the smaller
Gram matrix without building the ``n x n`` Hessian. Both refuse within
rounding of a kink through the same guard, :func:`_kink_guard`.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import KinkProximityError
from .serialize import json_float, json_int, read_json

# Floats of activations a witness or Hessian stack is sized to (128 KiB), which
# bounds their memory; HVP temporaries still allocate (and fault) every call.
_BLOCK_ELEMENTS = 1 << 14


@dataclass(frozen=True)
class Architecture:
    """Layer widths ``(n_0, ..., n_K)`` and whether layers carry biases.

    ``K >= 1`` layers of weights; the output layer is one unit wide.
    """

    layer_widths: tuple[int, ...]
    use_bias: bool = False

    def __post_init__(self):
        widths = tuple(int(w) for w in self.layer_widths)
        object.__setattr__(self, "layer_widths", widths)
        if len(widths) < 2:
            raise ValueError(f"need at least input and output widths, got {widths}")
        if any(w < 1 for w in widths):
            raise ValueError(f"layer widths must be positive, got {widths}")
        if widths[-1] != 1:
            raise ValueError(f"output width must be 1, got {widths[-1]}")

    @property
    def depth(self) -> int:
        """Number of weight layers K."""
        return len(self.layer_widths) - 1

    @property
    def input_width(self) -> int:
        return self.layer_widths[0]

    def weight_shape(self, k: int) -> tuple[int, int]:
        """Shape of the weight matrix of layer ``k`` (0-based)."""
        return (self.layer_widths[k], self.layer_widths[k + 1])


@dataclass(frozen=True, eq=False)
class ParamVector:
    """Per-layer weight matrices and optional per-layer bias vectors."""

    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...] | None = None

    def __post_init__(self):
        ws = tuple(np.ascontiguousarray(w, dtype=float) for w in self.weights)
        object.__setattr__(self, "weights", ws)
        if self.biases is not None:
            bs = tuple(np.ascontiguousarray(b, dtype=float) for b in self.biases)
            object.__setattr__(self, "biases", bs)


def check_params(arch: Architecture, params: ParamVector) -> None:
    if len(params.weights) != arch.depth:
        raise ValueError(
            f"expected {arch.depth} weight matrices, got {len(params.weights)}"
        )
    for k, w in enumerate(params.weights):
        if w.shape != arch.weight_shape(k):
            raise ValueError(
                f"layer {k} weight shape {w.shape} != {arch.weight_shape(k)}"
            )
    if arch.use_bias:
        if params.biases is None or len(params.biases) != arch.depth:
            raise ValueError("architecture uses biases but params carry none")
        for k, b in enumerate(params.biases):
            if b.shape != (arch.layer_widths[k + 1],):
                raise ValueError(
                    f"layer {k} bias shape {b.shape} != ({arch.layer_widths[k + 1]},)"
                )
    elif params.biases is not None:
        raise ValueError("architecture is bias-free but params carry biases")


class FlatIndex:
    """Slices of the flat parameter vector: weights first, then biases."""

    def __init__(self, arch: Architecture):
        self.arch = arch
        self._shapes = tuple(arch.weight_shape(k) for k in range(arch.depth))
        sizes = [rows * cols for rows, cols in self._shapes]
        if arch.use_bias:
            sizes += arch.layer_widths[1:]
        bounds = list(accumulate(sizes, initial=0))
        slices = [slice(a, b) for a, b in zip(bounds, bounds[1:])]
        self._weight_slices = tuple(slices[:arch.depth])
        self._bias_slices = tuple(slices[arch.depth:])
        self.total = bounds[-1]

    def weight_slice(self, k: int) -> slice:
        return self._weight_slices[k]

    def bias_slice(self, k: int) -> slice:
        if not self.arch.use_bias:
            raise ValueError("architecture has no biases")
        return self._bias_slices[k]

    def split(self, flat: np.ndarray):
        """Per-layer views of a flat vector: ``(weights, biases or None)``.

        A stack ``(S, n)`` gives ``(S, r, c)`` weights and ``(S, w)`` biases.
        """
        flat = np.asarray(flat, dtype=float)
        if flat.ndim > 2 or flat.shape[-1:] != (self.total,):
            raise ValueError(
                f"flat vector shape {flat.shape} is not ({self.total},) "
                f"or (S, {self.total})")
        lead = flat.shape[:-1]
        weights = tuple(flat[..., s].reshape(lead + shape)
                        for s, shape in zip(self._weight_slices, self._shapes))
        biases = (tuple(flat[..., s] for s in self._bias_slices)
                  if self.arch.use_bias else None)
        return weights, biases


_flat_index = functools.cache(FlatIndex)  # one layout per architecture


def vec(arch: Architecture, params: ParamVector) -> np.ndarray:
    """Flatten to one float64 vector in the canonical order."""
    check_params(arch, params)
    parts = [w.ravel() for w in params.weights]
    if arch.use_bias:
        parts.extend(params.biases)
    return np.concatenate(parts) if parts else np.zeros(0)


def unvec(arch: Architecture, flat: np.ndarray) -> ParamVector:
    """Inverse of :func:`vec`."""
    if np.ndim(flat) != 1:
        raise ValueError(f"flat vector must be 1-d, got shape {np.shape(flat)}")
    weights, biases = _flat_index(arch).split(flat)
    if biases is not None:
        biases = tuple(b.copy() for b in biases)
    return ParamVector(weights, biases)


def uniform_params(arch: Architecture, gen: np.random.Generator,
                   low: float = -1.0, high: float = 1.0) -> ParamVector:
    """Independent uniform draws for every weight, then every bias."""
    weights = tuple(gen.uniform(low, high, size=arch.weight_shape(k))
                    for k in range(arch.depth))
    biases = None
    if arch.use_bias:
        biases = tuple(gen.uniform(low, high, size=arch.layer_widths[k + 1])
                       for k in range(arch.depth))
    return ParamVector(weights, biases)


@dataclass(frozen=True, eq=False)
class Dataset:
    """Fixed regression sample: inputs ``(m, n_0)``, scalar targets ``(m,)``."""

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        x = np.ascontiguousarray(self.inputs, dtype=float)
        y = np.ascontiguousarray(self.targets, dtype=float)
        if x.ndim != 2:
            raise ValueError(f"inputs must be 2-d, got shape {x.shape}")
        if y.shape != (x.shape[0],):
            raise ValueError(f"targets shape {y.shape} != ({x.shape[0]},)")
        if x.shape[0] < 1:
            raise ValueError("dataset must contain at least one example")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("dataset contains non-finite values")
        object.__setattr__(self, "inputs", x)
        object.__setattr__(self, "targets", y)

    @property
    def size(self) -> int:
        return self.inputs.shape[0]


def _forward_full(weights, biases, inputs: np.ndarray,
                  out=None) -> tuple[list, list]:
    """Activations per layer (input included) and hidden preactivations.

    Weights ``(S, r, c)`` and biases ``(S, w)`` from a stack give ``(S, m, w)``
    activations, on ``(m, d)`` inputs or on ``(S, m, d)``, a dataset a row;
    each slice takes the same BLAS call as one vector does.
    ``out``, when given, holds per hidden layer the ``(z, a, mask)``
    arrays that ``z`` and ``a`` are written into; else they are new arrays.
    """
    acts = [inputs]
    pre = []
    a = inputs
    last = len(weights) - 1
    for k, w in enumerate(weights):
        z_out, a_out = out[k][:2] if out and k < last else (None, None)
        z = np.matmul(a, w, out=z_out)
        if biases is not None:
            z += biases[k][..., None, :]
        if k < last:
            pre.append(z)
            a = np.maximum(z, 0.0, out=a_out)
        else:
            a = z
        acts.append(a)
    return acts, pre


def _mean_square(diff: np.ndarray):
    """Mean of ``diff**2`` over the last axis: a float, or one per row."""
    value = np.mean(diff * diff, axis=-1)
    return value if value.ndim else float(value)


def _mse(weights, biases, inputs, targets, out=None):
    acts, _ = _forward_full(weights, biases, inputs, out)
    return _mean_square(acts[-1][..., 0] - targets)


def _mse_and_gradient(weights, biases, inputs, targets, out=None):
    acts, pre = _forward_full(weights, biases, inputs, out)
    diff = acts[-1][..., 0] - targets
    value = _mean_square(diff)

    depth = len(weights)
    delta = (2.0 / targets.shape[-1]) * diff[..., None]
    grad_w: list[np.ndarray] = [None] * depth
    grad_b: list[np.ndarray] = [None] * depth
    for k in range(depth - 1, -1, -1):
        grad_w[k] = acts[k].swapaxes(-1, -2) @ delta
        if biases is not None:
            grad_b[k] = delta.sum(axis=-2)
        if k > 0:  # acts[k] is spent: the error below takes its buffer
            d_out, mask = out[k - 1][1:] if out else (None, None)
            w_t = weights[k].swapaxes(-1, -2)
            # through the one output unit the product is an outer one,
            # which einsum forms faster than matmul and rounds the same
            delta = (np.einsum("...ik,...kj->...ij", delta, w_t, out=d_out)
                     if k == depth - 1 else np.matmul(delta, w_t, out=d_out))
            delta *= np.greater(pre[k - 1], 0.0, out=mask)

    parts = [g.reshape(diff.shape[:-1] + (-1,)) for g in grad_w]
    if biases is not None:
        parts.extend(grad_b)
    return value, np.concatenate(parts, axis=-1)


def _mse_hvp(weights, biases, acts, pre, targets, tangent_w, tangent_b):
    """Hessian-vector products of the loss at one point, ``(S, n)``.

    Pearlmutter's R-operator on the gradient: ``acts`` and ``pre`` come
    from :func:`_forward_full` at the point, the tangents are a stack of
    per-layer directions ``(S, r, c)`` and ``(S, w)`` (or None). Exact on
    the point's activation pattern, which the tangents do not move.
    """
    depth = len(weights)
    masks = [z > 0.0 for z in pre]
    r_acts = [None]
    for k in range(depth):
        rz = acts[k] @ tangent_w[k]
        if k > 0:
            rz = rz + r_acts[k] @ weights[k]
        if tangent_b is not None:
            rz = rz + tangent_b[k][..., None, :]
        r_acts.append(rz * masks[k] if k < depth - 1 else rz)

    scale = 2.0 / targets.size
    delta = scale * (acts[-1] - targets[:, None])
    r_delta = scale * r_acts[-1]
    hv_w: list[np.ndarray] = [None] * depth
    hv_b: list[np.ndarray] = [None] * depth
    for k in range(depth - 1, -1, -1):
        hv_w[k] = acts[k].T @ r_delta
        if tangent_b is not None:
            hv_b[k] = r_delta.sum(axis=-2)
        if k > 0:
            hv_w[k] = hv_w[k] + r_acts[k].swapaxes(-1, -2) @ delta
            r_delta = (r_delta @ weights[k].T
                       + delta @ tangent_w[k].swapaxes(-1, -2)) * masks[k - 1]
            delta = (delta @ weights[k].T) * masks[k - 1]

    parts = [h.reshape(h.shape[0], -1) for h in hv_w]
    if tangent_b is not None:
        parts.extend(hv_b)
    return np.concatenate(parts, axis=-1)


def _check_input_width(arch: Architecture, x: np.ndarray) -> None:
    if x.shape[1] != arch.input_width:
        raise ValueError(f"input width {x.shape[1]} != {arch.input_width}")


def forward(arch: Architecture, params: ParamVector,
            inputs: np.ndarray) -> np.ndarray:
    """Network outputs, one scalar per input row."""
    check_params(arch, params)
    x = np.atleast_2d(np.asarray(inputs, dtype=float))
    _check_input_width(arch, x)
    acts, _ = _forward_full(params.weights, params.biases, x)
    return acts[-1][:, 0]


def loss(arch: Architecture, params: ParamVector, data: Dataset) -> float:
    """Mean squared error over the dataset."""
    check_params(arch, params)
    _check_input_width(arch, data.inputs)
    return _mse(params.weights, params.biases, data.inputs, data.targets)


def loss_and_gradient(arch: Architecture, params: ParamVector,
                      data: Dataset) -> tuple[float, np.ndarray]:
    """Loss and its exact gradient as a flat vector.

    Backpropagation with ``phi'(z) = 1`` for ``z > 0`` and ``0`` otherwise;
    in particular the derivative at a kink is taken to be 0.
    """
    check_params(arch, params)
    _check_input_width(arch, data.inputs)
    return _mse_and_gradient(params.weights, params.biases, data.inputs,
                             data.targets)


def gradient(arch: Architecture, params: ParamVector, data: Dataset) -> np.ndarray:
    return loss_and_gradient(arch, params, data)[1]


class Objective:
    """The loss of one architecture on one dataset, or on each of several
    datasets of one shape, as a function of the flat parameter vector.

    Built once per (architecture, data): the layout is fixed and the data
    checked here, so a call only checks the flat shape and slices it into
    per-layer views. ``loss`` and ``loss_grad`` take one vector ``(n,)``,
    giving a float and an ``(n,)`` gradient, or a stack ``(S, n)``, giving
    ``(S,)`` losses and ``(S, n)`` gradients. Over several datasets,
    ``which`` (an int, or ``(S,)`` for a stack) names each row's dataset,
    whose data are gathered; one dataset is broadcast to every row. A
    stack is one evaluation, so its memory grows with ``S``: about ``S``
    times the data rows times the summed layer widths in floats, kept as
    hidden-layer buffers for the Objective's life and sized to its largest
    stack so far, so repeated calls fault in no new pages. Two threads must
    not call one Objective at once. Losses and gradients are new arrays,
    every row bit-identical to :func:`loss` and :func:`loss_and_gradient`
    at ``unvec(arch, row)`` on its dataset.
    """

    def __init__(self, arch: Architecture, data: Dataset | Sequence[Dataset]):
        datasets = (data,) if isinstance(data, Dataset) else tuple(data)
        if len({d.inputs.shape for d in datasets}) != 1:
            raise ValueError("need one or more datasets of one shape")
        _check_input_width(arch, datasets[0].inputs)
        self.arch = arch
        self.examples = datasets[0].size
        self._index = _flat_index(arch)
        self.size = self._index.total
        self._rows = 0
        self._buffers = ()
        self._inputs, self._targets = (
            (datasets[0].inputs, datasets[0].targets) if len(datasets) == 1
            else (np.stack([d.inputs for d in datasets]),
                  np.stack([d.targets for d in datasets])))

    def _args(self, flat: np.ndarray, which):
        """Per-layer views of ``flat``, its rows' data, ``out`` for it."""
        weights, biases = self._index.split(flat)
        rows = len(weights[0]) if weights[0].ndim == 3 else 1
        if rows > self._rows:
            self._rows = rows
            self._buffers = [[np.empty((rows, self.examples, w), dtype)
                              for dtype in (float, float, bool)]
                             for w in self.arch.layer_widths[1:-1]]
        inputs, targets = self._inputs, self._targets
        if inputs.ndim == 3:  # several datasets: gather each row's own
            if which is None or np.shape(which) != weights[0].shape[:-2]:
                raise ValueError("which must give each row's dataset index")
            inputs, targets = inputs[which], targets[which]
        key = slice(rows) if weights[0].ndim == 3 else 0
        return weights, biases, inputs, targets, [
            (z[key], a[key], m[key]) for z, a, m in self._buffers]

    def loss(self, flat: np.ndarray, which=None):
        return _mse(*self._args(flat, which))

    def loss_grad(self, flat: np.ndarray, which=None):
        return _mse_and_gradient(*self._args(flat, which))


def _block_rows(objective: Objective) -> int:
    """Rows of one stack: the element budget over a row's activations."""
    row_elements = (objective.examples * sum(objective.arch.layer_widths)
                    + objective.size)
    return max(1, _BLOCK_ELEMENTS // row_elements)


def kink_argmin(arch: Architecture, params: ParamVector,
                data: Dataset) -> tuple[float, int, int, int]:
    """Smallest hidden-unit preactivation magnitude and where it occurs.

    Returns ``(distance, example, layer, unit)`` with ``layer`` 1-based to
    match how hidden layers are usually counted. Networks without hidden
    layers have no kinks; the distance is ``+inf`` and the location fields
    are ``-1``.
    """
    check_params(arch, params)
    _check_input_width(arch, data.inputs)
    _, pre = _forward_full(params.weights, params.biases, data.inputs)
    return _kink_argmin(pre)


def _kink_argmin(pre: list[np.ndarray]) -> tuple[float, int, int, int]:
    best = (np.inf, -1, -1, -1)
    for k, z in enumerate(pre):
        mags = np.abs(z)
        i, u = np.unravel_index(np.argmin(mags), mags.shape)
        if mags[i, u] < best[0]:
            best = (float(mags[i, u]), int(i), k + 1, int(u))
    return best


def kink_distance(arch: Architecture, params: ParamVector, data: Dataset) -> float:
    return kink_argmin(arch, params, data)[0]


def _interval_forward(weights, biases, acts, pre, r: float) -> list[np.ndarray]:
    """Radii, one ``(m, w)`` array a layer, around the computed pass ``acts``,
    ``pre`` (:func:`_forward_full` at theta) that hold the real
    preactivations (last, the outputs) of all weights and biases in
    ``[theta - r, theta + r]`` on the exact inputs ``acts[0]``: interval
    bound propagation in midpoint-radius form (Gowal et al., arXiv
    1810.12715), rounded outward. At r = 0, the pass's rounding error.

    Proof. With a layer's real inputs within s of the computed a, ``|a' W'
    + b' - (a W + b)| <= s |W| + r (sum(|a| + s) + [b])`` ([b] 1 with
    biases), and the computed z errs from ``a W + b`` by at most ``gamma(n
    + 1) (|a| |W| + |b|)``, ``gamma(j) = j 2**-53 / (1 - j 2**-53)``, n the
    fan-in, in any summation order (Higham, Accuracy and Stability of
    Numerical Algorithms, 3.1), plus 2**-1075 per underflowing product.
    The rectifier is monotone and 1-Lipschitz: the next s is the radius
    where z >= 0, ``max(z + radius, 0)`` below. The radius adds and
    multiplies non-negative floats: ``1 + (n + 8) 2**-52`` undoes gamma(n)
    for the product with |W| and seven roundings on any chain, and
    ``2**-1072 (sum |W| + n + 1)`` every underflow loss, its own too.
    """
    radii = []
    spread = 0.0  # the radius of the layer's inputs: exact at the first
    for k, w in enumerate(weights):
        fan_in = w.shape[-2]
        w = np.abs(w)
        gamma = (fan_in + 1) * 2.0 ** -53 / (1.0 - (fan_in + 1) * 2.0 ** -53)
        a = np.abs(acts[k])
        rad = (gamma * a + spread) @ w
        if biases is not None:
            rad += gamma * np.abs(biases[k])
        if r:
            rad += r * (np.sum(a + spread, axis=-1, keepdims=True)
                        + float(biases is not None))
        rad *= 1.0 + (fan_in + 8) * 2.0 ** -52
        rad += 2.0 ** -1072 * (float(w.sum()) + fan_in + 1)
        radii.append(rad)
        if k < len(weights) - 1:  # the rectifier's image of the interval
            spread = np.minimum(np.maximum(pre[k] + rad, 0.0), rad)
    return radii


def _kink_guard(weights, biases, acts, pre) -> float:
    """Refuse second derivatives within rounding of a kink; return the
    smallest hidden preactivation magnitude, inf without a hidden layer.

    The loss is twice differentiable wherever no hidden preactivation is
    zero; ``acts`` and ``pre`` come from :func:`_forward_full` at the point,
    and :class:`KinkProximityError`, carrying that magnitude, is raised
    only when it lies within the band of the largest hidden
    :func:`_interval_forward` radius at ``r = 0``, where the computed sign,
    and so the activation pattern, is unsure.
    """
    band = max([0.0, *(float(np.max(rad)) for rad in
                       _interval_forward(weights[:-1], biases, acts, pre, 0.0))])
    dist, example, layer, unit = _kink_argmin(pre)
    if dist <= band:
        raise KinkProximityError(dist, band, example, layer, unit)
    return dist


def _output_jacobian(index: FlatIndex, weights, biases, acts,
                     pre) -> np.ndarray:
    """Jacobian of the outputs in the flat parameters, ``(m, n)``.

    Row ``i`` is the gradient of the output at example ``i``: backprop of
    one unit output seed per example from the forward pass at the point
    (``acts``, ``pre``), written straight into the per-layer views that
    ``index.split`` gives of the result. Exact on the activation pattern.
    """
    jac = np.empty((acts[0].shape[0], index.total))
    jac_w, jac_b = index.split(jac)
    delta = np.ones_like(acts[-1])
    for k in range(len(weights) - 1, -1, -1):
        np.multiply(acts[k][:, :, None], delta[:, None, :], out=jac_w[k])
        if jac_b is not None:
            jac_b[k][...] = delta
        if k > 0:
            delta = (delta @ weights[k].T) * (pre[k - 1] > 0.0)
    return jac


def hessian(arch: Architecture, params: ParamVector,
            data: Dataset) -> np.ndarray:
    """Exact loss Hessian on the activation pattern at the point.

    Columns are Hessian-vector products (:func:`_mse_hvp`) with blocks of
    :func:`_block_rows` unit tangents, each row bit-identical to its
    tangent alone; the result is symmetrized. Refused by
    :func:`_kink_guard` within rounding of a kink.
    """
    check_params(arch, params)
    objective = Objective(arch, data)
    acts, pre = _forward_full(params.weights, params.biases, data.inputs)
    _kink_guard(params.weights, params.biases, acts, pre)
    return _hessian_at(objective, params, acts, pre)


def _hessian_at(objective: Objective, params: ParamVector, acts,
                pre) -> np.ndarray:
    """:func:`hessian` from the computed pass ``acts``, ``pre`` at a point
    that has passed :func:`_kink_guard`, on the objective's one dataset."""
    n = objective.size
    columns = np.empty((n, n))
    block = _block_rows(objective)
    for start in range(0, n, block):
        stop = min(start + block, n)
        columns[start:stop] = _mse_hvp(
            params.weights, params.biases, acts, pre, objective._targets,
            *objective._index.split(np.eye(stop - start, n, start)))
    return (columns + columns.T) / 2.0


def checkpoint_payload(arch: Architecture, params: ParamVector) -> dict:
    check_params(arch, params)
    return {
        "layer_widths": list(arch.layer_widths),
        "use_bias": arch.use_bias,
        "weights": [w.ravel().tolist() for w in params.weights],
        "biases": ([b.tolist() for b in params.biases]
                   if arch.use_bias else None),
    }


def _json_floats(values, name: str) -> np.ndarray:
    """A JSON list of finite numbers as a float array; see ``json_float``."""
    if not isinstance(values, list):
        raise ValueError(f"{name} must be a list, got {values!r}")
    return np.array([json_float(v, f"{name} entry") for v in values], dtype=float)


def load_checkpoint(path: str) -> tuple[Architecture, ParamVector]:
    raw = read_json(path)
    if not isinstance(raw, dict):
        raise ValueError(f"checkpoint {path}: expected a JSON object")
    try:
        widths = raw["layer_widths"]
        use_bias = raw["use_bias"]
        weights_raw = raw["weights"]
        biases_raw = raw["biases"]
    except KeyError as exc:
        raise ValueError(f"checkpoint {path}: missing field {exc}") from None
    for name in ("layer_widths", "weights"):
        if not isinstance(raw[name], list):
            raise ValueError(f"checkpoint {path}: {name} must be a list")
    if not isinstance(use_bias, bool):
        raise ValueError(
            f"checkpoint {path}: use_bias must be true or false, got {use_bias!r}")
    arch = Architecture(
        tuple(json_int(w, f"checkpoint {path}: layer_widths entry") for w in widths),
        use_bias)
    if len(weights_raw) != arch.depth:
        raise ValueError(
            f"checkpoint {path}: {len(weights_raw)} weight layers, "
            f"expected {arch.depth}"
        )
    weights = []
    for k, flat in enumerate(weights_raw):
        shape = arch.weight_shape(k)
        flat = _json_floats(flat, f"checkpoint {path}: layer {k} weights")
        if flat.shape != (shape[0] * shape[1],):
            raise ValueError(
                f"checkpoint {path}: layer {k} has {flat.size} weights, "
                f"expected {shape[0] * shape[1]}"
            )
        weights.append(flat.reshape(shape))
    biases = None
    if arch.use_bias:
        if not isinstance(biases_raw, list) or len(biases_raw) != arch.depth:
            raise ValueError(f"checkpoint {path}: bias layers missing")
        biases = tuple(_json_floats(b, f"checkpoint {path}: layer {k} biases")
                       for k, b in enumerate(biases_raw))
    elif biases_raw is not None:
        raise ValueError(f"checkpoint {path}: biases present but use_bias is false")
    params = ParamVector(tuple(weights), biases)
    check_params(arch, params)
    return arch, params
