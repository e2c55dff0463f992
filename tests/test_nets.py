import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatlab import metrics, nets
from flatlab.errors import KinkProximityError
from flatlab.experiments import (TrainConfig, alpha_sweep,
                                 make_teacher_student, train_sgd)
from flatlab.metrics import (SharpnessConfig, epsilon_sharpness,
                             flatness_report, volume_flatness_certificate)
from flatlab.nets import (Architecture, Dataset, FlatIndex, Objective,
                          ParamVector, check_params, checkpoint_payload,
                          forward, gradient, hessian, kink_distance,
                          load_checkpoint, loss,
                          loss_and_gradient, uniform_params, unvec, vec)
from flatlab.rng import SeededRng
from flatlab.serialize import to_json


def _fd_gradient(arch, params, data, h=1e-6):
    flat = vec(arch, params)
    out = np.zeros_like(flat)
    for i in range(flat.size):
        e = np.zeros_like(flat)
        e[i] = h
        out[i] = (loss(arch, unvec(arch, flat + e), data)
                  - loss(arch, unvec(arch, flat - e), data)) / (2 * h)
    return out


def test_architecture_validation():
    with pytest.raises(ValueError):
        Architecture((2,))
    with pytest.raises(ValueError):
        Architecture((2, 0, 1))
    with pytest.raises(ValueError):
        Architecture((2, 4, 3))  # output width must be 1
    arch = Architecture((3, 5, 1), use_bias=True)
    assert arch.depth == 2
    assert arch.input_width == 3
    assert arch.weight_shape(1) == (5, 1)


def test_forward_by_hand_single_unit():
    # one input, one hidden unit: f(x) = w2 * max(0, w1 * x)
    arch = Architecture((1, 1, 1))
    params = ParamVector([np.array([[2.0]]), np.array([[3.0]])])
    x = np.array([[1.5], [-2.0]])
    expected = np.array([3.0 * 3.0, 0.0])
    assert np.allclose(forward(arch, params, x), expected)


def test_forward_with_bias_by_hand():
    arch = Architecture((1, 1, 1), use_bias=True)
    params = ParamVector([np.array([[1.0]]), np.array([[2.0]])],
                         [np.array([0.5]), np.array([-1.0])])
    # f(x) = 2 * relu(x + 0.5) - 1
    assert np.isclose(forward(arch, params, np.array([[1.0]]))[0], 2.0)
    assert np.isclose(forward(arch, params, np.array([[-2.0]]))[0], -1.0)


def test_loss_is_mean_squared_error():
    arch = Architecture((1, 1, 1))
    params = ParamVector([np.array([[1.0]]), np.array([[1.0]])])
    data = Dataset(np.array([[1.0], [2.0]]), np.array([0.0, 0.0]))
    assert np.isclose(loss(arch, params, data), (1.0 + 4.0) / 2.0)


def test_gradient_matches_finite_differences():
    gen = SeededRng(21).generator()
    for widths, bias in (((2, 3, 1), False), ((2, 4, 1), True),
                         ((3, 4, 4, 1), False)):
        arch = Architecture(widths, use_bias=bias)
        params = uniform_params(arch, SeededRng(22).generator())
        data = Dataset(gen.uniform(-1, 1, (6, arch.input_width)),
                       gen.uniform(-1, 1, 6))
        g = gradient(arch, params, data)
        assert np.allclose(g, _fd_gradient(arch, params, data), atol=1e-7)


def test_gradient_hand_case_linear_chain():
    # f(x) = w2 * relu(w1 x); at w1=1, w2=2, x=1, y=0:
    # loss = (2)^2, dL/dw2 = 2 f relu = 4 * 1? derive: L = f^2, f = 2
    # dL/df = 2f = 4; df/dw2 = relu(w1 x) = 1; df/dw1 = w2 * x = 2
    arch = Architecture((1, 1, 1))
    params = ParamVector([np.array([[1.0]]), np.array([[2.0]])])
    data = Dataset(np.array([[1.0]]), np.array([0.0]))
    _, g = loss_and_gradient(arch, params, data)
    assert np.allclose(g, [4.0 * 2.0, 4.0 * 1.0])


def test_gradient_is_zero_on_inactive_path():
    arch = Architecture((1, 1, 1))
    params = ParamVector([np.array([[1.0]]), np.array([[2.0]])])
    data = Dataset(np.array([[-1.0]]), np.array([1.0]))
    _, g = loss_and_gradient(arch, params, data)
    # hidden unit off: only the (zero) activation reaches w2, and w1 gets
    # no signal through the dead rectifier
    assert np.allclose(g, [0.0, 0.0])


_WIDE_ARCH = Architecture((2, 3, 1))
_WIDE_PARAMS = uniform_params(_WIDE_ARCH, SeededRng(26).generator())
_WIDE_DATA = Dataset(np.ones((4, 3)), np.zeros(4))
_SHARPNESS = SharpnessConfig(epsilon=1e-2)
WIDTH_ENTRY_POINTS = {
    "forward": lambda a, p, d: forward(a, p, d.inputs),
    "loss": loss,
    "loss_and_gradient": loss_and_gradient,
    "gradient": gradient,
    "hessian": hessian,
    "kink_distance": kink_distance,
    "Objective": lambda a, p, d: Objective(a, d),
    "epsilon_sharpness": lambda a, p, d: epsilon_sharpness(a, p, d, _SHARPNESS),
    "flatness_report": lambda a, p, d: flatness_report(a, p, d, _SHARPNESS),
    "volume_flatness_certificate": lambda a, p, d: volume_flatness_certificate(
        a, p, d, 1e-2, 2, 4, SeededRng(0)),
    "train_sgd": lambda a, p, d: train_sgd(a, d, TrainConfig(0.1, 2), p),
    "alpha_sweep": lambda a, p, d: alpha_sweep(a, p, d, (1.0,), _SHARPNESS),
}


@pytest.mark.parametrize("name", sorted(WIDTH_ENTRY_POINTS))
def test_wrong_input_width_is_named_at_every_entry_point(name):
    with pytest.raises(ValueError, match=r"^input width 3 != 2$"):
        WIDTH_ENTRY_POINTS[name](_WIDE_ARCH, _WIDE_PARAMS, _WIDE_DATA)


def test_vec_unvec_round_trip():
    arch = Architecture((2, 3, 1), use_bias=True)
    params = uniform_params(arch, SeededRng(23).generator())
    back = unvec(arch, vec(arch, params))
    for a, b in zip(params.weights, back.weights):
        assert np.array_equal(a, b)
    for a, b in zip(params.biases, back.biases):
        assert np.array_equal(a, b)


def test_flat_index_layout():
    arch = Architecture((2, 3, 1), use_bias=True)
    index = FlatIndex(arch)
    assert index.weight_slice(0) == slice(0, 6)
    assert index.weight_slice(1) == slice(6, 9)
    assert index.bias_slice(0) == slice(9, 12)
    assert index.bias_slice(1) == slice(12, 13)
    assert index.total == 13
    # unvec's layout is built once per architecture
    assert nets._flat_index(arch) is nets._flat_index(
        Architecture((2, 3, 1), use_bias=True))


def test_hessian_matches_fd_of_gradient_oracle():
    arch = Architecture((2, 3, 1))
    params = uniform_params(arch, SeededRng(24).generator())
    gen = SeededRng(25).generator()
    data = Dataset(gen.uniform(-1, 1, (6, 2)), gen.uniform(-1, 1, 6))
    h = hessian(arch, params, data)
    flat = vec(arch, params)
    step = 1e-5
    oracle = np.zeros_like(h)
    for i in range(flat.size):
        e = np.zeros_like(flat)
        e[i] = step
        gp = gradient(arch, unvec(arch, flat + e), data)
        gm = gradient(arch, unvec(arch, flat - e), data)
        oracle[:, i] = (gp - gm) / (2 * step)
    oracle = (oracle + oracle.T) / 2
    assert np.allclose(h, oracle, atol=1e-5)
    assert np.array_equal(h, h.T)


def _hessian_per_column(arch, params, data):
    """Central differences of the gradient, one column and call at a time."""
    objective = Objective(arch, data)
    base = vec(arch, params)
    step = 1e-4 * max(1.0, float(np.max(np.abs(base))))
    n = base.size
    columns = np.empty((n, n))
    for j in range(n):
        bumped = base.copy()
        bumped[j] = base[j] + step
        g_plus = objective.loss_grad(bumped)[1]
        bumped[j] = base[j] - step
        g_minus = objective.loss_grad(bumped)[1]
        columns[:, j] = (g_plus - g_minus) / (2.0 * step)
    return (columns + columns.T) / 2.0


def _noisy_teacher(widths, bias, m):
    arch = Architecture(widths, use_bias=bias)
    data, teacher = make_teacher_student(arch, 71, m)
    # nonzero residuals, so the Hessian has more than its Gauss-Newton part
    noise = SeededRng(71, 1).generator().uniform(-0.1, 0.1, m)
    return arch, Dataset(data.inputs, data.targets + noise), teacher


@pytest.mark.parametrize("widths,bias,m", [
    ((2, 3, 1), False, 8),
    ((2, 4, 1), True, 8),
    ((3, 4, 4, 1), True, 48),
    ((4, 32, 1), False, 256),
])
def test_hessian_matches_per_column_fd(widths, bias, m):
    arch, data, teacher = _noisy_teacher(widths, bias, m)
    assert np.allclose(hessian(arch, teacher, data),
                       _hessian_per_column(arch, teacher, data), rtol=1e-6)


@pytest.mark.parametrize("widths,bias,m,budget", [
    ((2, 3, 1), False, 8, None),
    ((2, 4, 1), True, 8, None),
    ((3, 4, 4, 1), False, 48, None),
    ((4, 32, 1), False, 256, None),   # one-row blocks
    ((3, 4, 4, 1), False, 48, 2000),  # 3-row blocks, which do not divide n
])
def test_blocked_hessian_bit_equal_to_per_column(widths, bias, m, budget,
                                                 monkeypatch):
    if budget is not None:
        monkeypatch.setattr(nets, "_BLOCK_ELEMENTS", budget)
    arch, data, teacher = _noisy_teacher(widths, bias, m)
    objective = Objective(arch, data)
    block = nets._block_rows(objective)
    n = objective.size
    assert block == 1 if widths == (4, 32, 1) else block > 1
    if budget is not None:
        assert n % block

    rows_per_call = []
    hvp = nets._mse_hvp

    def spy(weights, biases, acts, pre, targets, tangent_w, tangent_b):
        rows_per_call.append(len(tangent_w[0]))
        return hvp(weights, biases, acts, pre, targets, tangent_w, tangent_b)

    monkeypatch.setattr(nets, "_mse_hvp", spy)
    blocked = hessian(arch, teacher, data)
    calls = list(rows_per_call)
    assert max(calls) <= block
    assert sum(calls) == n
    assert len(calls) == -(-n // block)
    monkeypatch.setattr(nets, "_BLOCK_ELEMENTS", 1)
    assert np.array_equal(blocked, hessian(arch, teacher, data))


def test_hessian_analytic_single_path():
    # L(w1, w2) = (w2 relu(w1 x) - y)^2 with x=1, y=1, active unit:
    # L = (w2 w1 - 1)^2; Hessian entries are then elementary
    arch = Architecture((1, 1, 1))
    w1, w2 = 1.5, 0.8
    params = ParamVector([np.array([[w1]]), np.array([[w2]])])
    data = Dataset(np.array([[1.0]]), np.array([1.0]))
    h = hessian(arch, params, data)
    r = w1 * w2 - 1.0
    expected = 2.0 * np.array([
        [w2 * w2, 2 * w1 * w2 - 1.0],
        [2 * w1 * w2 - 1.0, w1 * w1],
    ])
    assert np.allclose(h, expected, atol=1e-6)


def test_hessian_refuses_kink_proximity():
    arch = Architecture((1, 1, 1))
    # preactivation exactly zero for the only example
    params = ParamVector([np.array([[0.0]]), np.array([[1.0]])])
    data = Dataset(np.array([[1.0]]), np.array([1.0]))
    with pytest.raises(KinkProximityError):
        hessian(arch, params, data)


def test_kink_refusal_names_the_band():
    arch = Architecture((2, 1, 1), use_bias=True)
    # 0.1 + 0.2 - 0.3 computes to 5.55e-17: nonzero, but within the
    # rounding error bound of its own computation, so its sign is unsure
    params = ParamVector([np.array([[0.1], [0.2]]), np.array([[1.0]])],
                         [np.array([-0.3]), np.array([0.0])])
    data = Dataset(np.array([[1.0, 1.0]]), np.array([1.0]))
    with pytest.raises(KinkProximityError) as info:
        hessian(arch, params, data)
    exc = info.value
    assert str(exc).startswith("kink proximity")
    assert f"<= band {exc.band:.3e}" in str(exc)
    assert exc.band > exc.distance > 0.0
    _, pre = nets._forward_full(params.weights, params.biases, data.inputs)
    assert ((exc.distance, exc.example_index, exc.layer, exc.unit)
            == nets._kink_argmin(pre))


def test_kink_band_carries_error_from_layer_below():
    # layer 1 cancels 1e8 against 1e8 - 1: its bound 4.4e-8 is far below
    # its preactivation 1, but W2 = 1e3 carries it to 4.4e-5 at layer 2,
    # past layer 2's preactivation 1e-5 and its own bound 4.4e-13
    arch = Architecture((1, 1, 1, 1), use_bias=True)
    params = ParamVector(
        [np.array([[1e8]]), np.array([[1e3]]), np.array([[1.0]])],
        [np.array([1.0 - 1e8]), np.array([1e-5 - 1e3]), np.array([0.0])])
    data = Dataset(np.array([[1.0]]), np.array([0.0]))
    with pytest.raises(KinkProximityError) as info:
        hessian(arch, params, data)
    assert info.value.layer == 2
    assert info.value.distance < 2e-5 < info.value.band


@pytest.mark.parametrize("sign", (1.0, -1.0))
def test_kink_guard_refuses_inside_its_band_only(sign):
    # unit 0's preactivation 1 sets the band; unit 1's, x w exactly, sits
    # one float inside it, on it, or one float outside it
    arch = Architecture((1, 2, 1))
    data = Dataset(np.array([[1.0]]), np.array([0.0]))

    def point(z):
        return ParamVector((np.array([[1.0, sign * z]]), np.ones((2, 1))))

    acts, pre = nets._forward_full(point(0.5).weights, None, data.inputs)
    band = float(np.max(nets._interval_forward(
        point(0.5).weights[:-1], None, acts, pre, 0.0)[0]))
    for z in (np.nextafter(band, 0.0), band):
        with pytest.raises(KinkProximityError) as info:
            hessian(arch, point(z), data)
        assert (info.value.distance, info.value.band) == (z, band)
    hessian(arch, point(np.nextafter(band, np.inf)), data)


# ---------------------------------------------------------------------------
# the interval forward pass against an exact oracle

_fraction = np.vectorize(Fraction, otypes=[object])
_ORACLE_ARCHS = (((2, 3, 1), False), ((2, 3, 1), True),
                 ((2, 2, 2, 1), False), ((2, 2, 2, 1), True))


def _exact_layers(weights, biases, inputs):
    """Real preactivations of every layer, the outputs last, as fractions:
    each float is a dyadic rational, so nothing rounds. Stacked weights
    ``(V, r, c)`` and biases ``(V, c)`` give ``(V, m, c)``."""
    a = _fraction(inputs)
    layers = []
    for k, w in enumerate(weights):
        z = a @ _fraction(w)
        if biases is not None:
            z = z + _fraction(biases[k])[..., None, :]
        layers.append(z)
        a = np.where(z > 0, z, Fraction(0))
    return layers


def _exact_losses(arch, flat, data):
    """Real losses at each row of a ``(V, n)`` stack of fractions."""
    index = FlatIndex(arch)
    weights = [flat[:, index.weight_slice(k)].reshape(
        (len(flat),) + arch.weight_shape(k)) for k in range(arch.depth)]
    biases = ([flat[:, index.bias_slice(k)] for k in range(arch.depth)]
              if arch.use_bias else None)
    out = _exact_layers(weights, biases, data.inputs)[-1][..., 0]
    return ((out - _fraction(data.targets)) ** 2).sum(axis=-1) / data.size


@settings(max_examples=150, deadline=None)
@given(case=st.sampled_from(_ORACLE_ARCHS), m=st.integers(1, 4),
       draw=st.data())
def test_interval_band_holds_the_exact_rounding_error(case, m, draw):
    # any floats up to 1e3, subnormals and zeros included: every computed
    # preactivation and output lies within its r = 0 radius of the real one
    widths, bias = case
    arch = Architecture(widths, use_bias=bias)
    floats = st.floats(-1e3, 1e3)
    flat = np.array(draw.draw(st.lists(floats, min_size=FlatIndex(arch).total,
                                       max_size=FlatIndex(arch).total)))
    inputs = np.array(draw.draw(st.lists(
        floats, min_size=m * widths[0], max_size=m * widths[0])))
    params = unvec(arch, flat)
    acts, pre = nets._forward_full(params.weights, params.biases,
                                   inputs.reshape(m, widths[0]))
    radii = nets._interval_forward(params.weights, params.biases, acts, pre,
                                   0.0)
    exact = _exact_layers(params.weights, params.biases, acts[0])
    for computed, rad, real in zip([*pre, acts[-1]], radii, exact):
        assert np.all(abs(_fraction(computed) - real) <= _fraction(rad))


def test_interval_band_covers_products_that_underflow():
    # weights near 1e-160: the second layer's products are near 1e-320,
    # subnormal, where rounding loses up to 2**-1075 that no relative
    # gamma covers, and the third layer's underflow to zero
    arch = Architecture((2, 3, 3, 1))
    gen = SeededRng(81).generator()
    params = ParamVector(tuple(
        gen.uniform(0.5, 1.5, arch.weight_shape(k)) * 1e-160
        for k in range(arch.depth)))
    inputs = gen.uniform(0.5, 1.5, (4, 2))
    acts, pre = nets._forward_full(params.weights, None, inputs)
    radii = nets._interval_forward(params.weights, None, acts, pre, 0.0)
    errors = [abs(_fraction(computed) - real) for computed, real in zip(
        [*pre, acts[-1]], _exact_layers(params.weights, None, inputs))]
    assert np.all(errors[1] > 0) and np.all(acts[-1] == 0.0)
    for error, rad in zip(errors, radii):
        assert np.all(error <= _fraction(rad))


@pytest.mark.parametrize("widths,bias", _ORACLE_ARCHS)
def test_rise_bound_holds_exact_rises_at_vertices_and_inside(widths, bias):
    # every vertex of the box where there are at most 2**10 of them, 512
    # drawn vertices elsewhere, and 64 uniform points, all exact
    arch = Architecture(widths, use_bias=bias)
    gen = SeededRng(82).generator()
    params = uniform_params(arch, gen)
    data = Dataset(gen.uniform(-1.0, 1.0, (3, widths[0])),
                   gen.uniform(-1.0, 1.0, 3))
    r = 0.05
    acts, pre = nets._forward_full(params.weights, params.biases, data.inputs)
    bound = metrics._rise_bound(params, data, acts, pre, r)
    flat0 = vec(arch, params)
    if flat0.size <= 10:
        vertices = np.array(list(itertools.product((-1, 1),
                                                   repeat=flat0.size)))
    else:
        vertices = gen.choice([-1, 1], size=(512, flat0.size))
    offsets = np.concatenate([_fraction(vertices), _fraction(
        gen.uniform(-1.0, 1.0, (64, flat0.size)))])
    points = _fraction(flat0) + Fraction(r) * offsets
    base = _exact_losses(arch, _fraction(flat0)[None], data)[0]
    rises = _exact_losses(arch, points, data) - base
    assert max(rises) <= Fraction(bound)
    # not vacuous: the bound is within a small factor of the largest rise
    assert max(rises) > Fraction(bound) / 4


def test_rise_bound_holds_where_a_hidden_interval_straddles_the_kink():
    # the hidden preactivation -1/8 is off at theta0, and the box of radius
    # 1/4 turns it on: the rectifier passes max(z + radius, 0) = 1/8 up, and
    # the exact rise at the vertex (5/4 * 1/8)**2 is the bound, up to its
    # outward rounding. A rectifier step that passes 0 below the kink
    # bounds the rise by rounding alone.
    arch = Architecture((1, 1, 1))
    params = ParamVector((np.array([[-0.125]]), np.array([[1.0]])))
    data = Dataset(np.array([[1.0]]), np.array([0.0]))
    acts, pre = nets._forward_full(params.weights, None, data.inputs)
    radius = nets._interval_forward(params.weights, None, acts, pre, 0.25)[0]
    assert pre[0][0, 0] < 0.0 < pre[0][0, 0] + radius[0, 0]
    bound = metrics._rise_bound(params, data, acts, pre, 0.25)
    vertices = _fraction(np.array(list(itertools.product((-1, 1), repeat=2))))
    rises = _exact_losses(arch, _fraction(vec(arch, params))
                          + Fraction(1, 4) * vertices, data)
    assert max(rises) == Fraction(5, 32) ** 2 <= Fraction(bound)
    assert bound <= float(max(rises)) * (1.0 + 1e-13)


def test_interval_radius_covers_a_box_term_that_rounds_down():
    # the box moves the preactivation x w by exactly r x = 0.7 * 3, which
    # rounds down to 2.0999999999999996, and the rounding terms, gamma |x|
    # |w| with w = 2**-6, are too small to make that up: only the radius's
    # relative inflation covers the real move at the vertices
    arch = Architecture((1, 1, 1))
    params = ParamVector((np.array([[2.0 ** -6]]), np.array([[1.0]])))
    inputs = np.array([[3.0]])
    acts, pre = nets._forward_full(params.weights, None, inputs)
    radii = nets._interval_forward(params.weights, None, acts, pre, 0.7)
    assert Fraction(0.7) * 3 > Fraction(0.7 * 3)
    vertices = _fraction(np.array(list(itertools.product((-1, 1), repeat=2))))
    flat = _fraction(vec(arch, params)) + Fraction(0.7) * vertices
    exact = _exact_layers([flat[:, :1].reshape(4, 1, 1),
                           flat[:, 1:].reshape(4, 1, 1)], None, inputs)
    for computed, rad, real in zip([*pre, acts[-1]], radii, exact):
        assert np.all(abs(real - _fraction(computed)) <= _fraction(rad))


@pytest.mark.parametrize("widths,bias", [((1, 3, 1), False),
                                         ((2, 4, 1), True),
                                         ((3, 4, 4, 1), False)])
def test_objective_bit_equal_to_public_loss(widths, bias):
    arch = Architecture(widths, use_bias=bias)
    gen = SeededRng(30).generator()
    data = Dataset(gen.uniform(-1, 1, (9, widths[0])), gen.uniform(-1, 1, 9))
    objective = Objective(arch, data)
    for _ in range(3):
        params = uniform_params(arch, gen)
        flat = vec(arch, params)
        value, grad = objective.loss_grad(flat)
        ref_value, ref_grad = loss_and_gradient(arch, params, data)
        assert objective.loss(flat) == loss(arch, params, data)
        assert value == ref_value
        assert np.array_equal(grad, ref_grad)
    # a stack equals its rows, bit for bit, also a stack of many rows
    for rows in (1, 3, 300):
        stack = gen.uniform(-1, 1, (rows, objective.size))
        values, grads = objective.loss_grad(stack)
        assert values.shape == (rows,) and grads.shape == stack.shape
        assert np.array_equal(objective.loss(stack), values)
        for row, value, grad in zip(stack, values, grads):
            row_value, row_grad = objective.loss_grad(row.copy())
            assert row_value == value and objective.loss(row.copy()) == value
            assert np.array_equal(row_grad, grad)


def test_objective_rejects_bad_shapes():
    arch = Architecture((2, 4, 1))
    data = Dataset(np.zeros((3, 2)), np.zeros(3))
    objective = Objective(arch, data)
    with pytest.raises(ValueError):
        objective.loss(np.zeros(objective.size + 1))
    with pytest.raises(ValueError):
        objective.loss_grad(np.zeros(objective.size - 1))
    with pytest.raises(ValueError):
        objective.loss(np.zeros((4, objective.size + 1)))
    with pytest.raises(ValueError):
        objective.loss_grad(np.zeros((2, 3, objective.size)))
    with pytest.raises(ValueError):
        unvec(arch, np.zeros((1, objective.size)))
    with pytest.raises(ValueError):
        Objective(arch, Dataset(np.zeros((3, 3)), np.zeros(3)))


@pytest.mark.parametrize("bias", [False, True])
@pytest.mark.parametrize("widths", [(3, 5, 1), (2, 4, 3, 1), (3, 4, 2, 3, 1)])
def test_objective_buffer_reuse_is_bit_identical_and_never_aliases(widths, bias):
    arch = Architecture(widths, use_bias=bias)
    gen = SeededRng(31).generator()
    data = Dataset(gen.uniform(-1, 1, (7, widths[0])), gen.uniform(-1, 1, 7))
    objective = Objective(arch, data)
    # stacks that shrink and outgrow the buffers, then one vector and one row
    calls = [gen.uniform(-2, 2, shape) for shape in (
        (10, objective.size), (3, objective.size), (12, objective.size),
        objective.size, (1, objective.size))]
    calls[0][1, 0] = calls[2][4, -1] = np.inf
    calls[0][2, 3] = calls[2][5, 0] = np.nan
    calls[2][6, :] = -np.inf
    returned = []
    with np.errstate(all="ignore"):
        for flat in calls:
            values, grads = objective.loss_grad(flat)
            losses = objective.loss(flat)
            returned.append((values, grads, losses,
                             np.copy(values), grads.copy(), np.copy(losses)))
        for flat, (values, grads, losses, *_) in zip(calls, returned):
            assert np.array_equal(losses, values, equal_nan=True)
            for row, value, grad in zip(np.atleast_2d(flat),
                                        np.atleast_1d(values),
                                        np.atleast_2d(grads)):
                ref_value, ref_grad = loss_and_gradient(
                    arch, unvec(arch, row), data)
                assert np.array_equal(value, ref_value, equal_nan=True)
                assert np.array_equal(grad, ref_grad, equal_nan=True)
    assert any(np.isnan(v).any() for v, *_ in returned)
    # later calls leave every earlier result as it was returned
    for values, grads, losses, *copies in returned:
        for result, copy in zip((values, grads, losses), copies):
            assert np.array_equal(result, copy, equal_nan=True)


@pytest.mark.parametrize("bias", [False, True])
@pytest.mark.parametrize("widths", [(3, 5, 1), (2, 4, 3, 1), (3, 4, 2, 3, 1)])
def test_objective_over_several_datasets_equals_each_row_alone(widths, bias):
    arch = Architecture(widths, use_bias=bias)
    gen = SeededRng(32).generator()
    datasets = [Dataset(gen.uniform(-1, 1, (7, widths[0])),
                        gen.uniform(-1, 1, 7)) for _ in range(3)]
    objective = Objective(arch, datasets)
    # stacks that interleave every dataset, shrink and outgrow the buffers,
    # then one vector and one row
    shapes = ((10, objective.size), (3, objective.size), (12, objective.size),
              objective.size, (1, objective.size))
    calls = [(gen.uniform(-2, 2, shape),
              gen.integers(0, 3, shape[:-1]) if np.ndim(shape) else 2)
             for shape in shapes]
    calls[0][1][:3] = calls[2][1][:3] = [0, 1, 2]
    calls[1][1][:] = [2, 0, 1]
    calls[0][0][1, 0] = calls[2][0][4, -1] = np.inf
    calls[0][0][2, 3] = calls[2][0][5, 0] = np.nan
    calls[2][0][6, :] = -np.inf
    returned = []
    with np.errstate(all="ignore"):
        for flat, which in calls:
            values, grads = objective.loss_grad(flat, which)
            losses = objective.loss(flat, which)
            returned.append((values, grads, losses,
                             np.copy(values), grads.copy(), np.copy(losses)))
        for (flat, which), (values, grads, losses, *_) in zip(calls, returned):
            assert np.array_equal(losses, values, equal_nan=True)
            for row, own, value, grad in zip(
                    np.atleast_2d(flat), np.atleast_1d(which),
                    np.atleast_1d(values), np.atleast_2d(grads)):
                ref_value, ref_grad = loss_and_gradient(
                    arch, unvec(arch, row), datasets[own])
                assert np.array_equal(value, ref_value, equal_nan=True)
                assert np.array_equal(grad, ref_grad, equal_nan=True)
    assert any(np.isnan(v).any() for v, *_ in returned)
    assert all(set(which) == {0, 1, 2} for _, which in calls[:3])
    # later calls leave every earlier result as it was returned
    for values, grads, losses, *copies in returned:
        for result, copy in zip((values, grads, losses), copies):
            assert np.array_equal(result, copy, equal_nan=True)


def test_objective_over_several_datasets_rejects_bad_indices():
    arch = Architecture((2, 4, 1))
    data = Dataset(np.zeros((3, 2)), np.zeros(3))
    objective = Objective(arch, [data, data])
    stack = np.zeros((4, objective.size))
    for which in (None, np.zeros(3, int), np.zeros((4, 1), int), 0):
        with pytest.raises(ValueError, match="which"):
            objective.loss_grad(stack, which)
    with pytest.raises(ValueError, match="which"):
        objective.loss(stack[0])
    with pytest.raises(ValueError, match="datasets of one shape"):
        Objective(arch, [data, Dataset(np.zeros((4, 2)), np.zeros(4))])
    with pytest.raises(ValueError, match="datasets of one shape"):
        Objective(arch, [])


def test_objective_calls_stop_page_faulting_once_warm():
    pytest.importorskip("resource")
    child = """
import resource
import numpy as np
from flatlab.nets import Architecture, Dataset, Objective
gen = np.random.default_rng(0)
data = Dataset(gen.uniform(-1, 1, (256, 4)), gen.uniform(-1, 1, 256))
objective = Objective(Architecture((4, 32, 1)), data)
stack = gen.uniform(-1, 1, (10, objective.size))
for _ in range(3):
    objective.loss_grad(stack)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(50):
    objective.loss_grad(stack)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
    # a fresh interpreter: earlier tests' allocator history can hide faults
    src = str(Path(nets.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", child], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 50


def test_kink_argmin_matches_enumeration():
    arch = Architecture((2, 4, 1), use_bias=True)
    params = uniform_params(arch, SeededRng(26).generator())
    gen = SeededRng(27).generator()
    data = Dataset(gen.uniform(-1, 1, (5, 2)), np.zeros(5))
    _, pres = nets._forward_full(params.weights, params.biases, data.inputs)
    dist, example, layer, unit = nets._kink_argmin(pres)
    pre = data.inputs @ params.weights[0] + params.biases[0]
    assert layer == 1
    assert np.isclose(dist, np.min(np.abs(pre)))
    assert np.isclose(abs(pre[example, unit]), dist)
    assert kink_distance(arch, params, data) == dist


def test_checkpoint_round_trip_bitwise(tmp_path):
    arch = Architecture((2, 5, 1), use_bias=True)
    params = uniform_params(arch, SeededRng(28).generator())
    gen = SeededRng(29).generator()
    deep = Architecture((3, 4, 4, 1), use_bias=True)
    extreme = ParamVector(  # magnitudes from 1e-300 to 1e300
        tuple(gen.normal(size=deep.weight_shape(k))
              * 10.0 ** gen.integers(-300, 300, size=deep.weight_shape(k))
              for k in range(deep.depth)),
        tuple(gen.normal(size=w) for w in deep.layer_widths[1:]))
    path = tmp_path / "ckpt.json"
    for arch, params in ((arch, params), (deep, extreme)):
        path.write_text(to_json(checkpoint_payload(arch, params)) + "\n")
        arch2, params2 = load_checkpoint(str(path))
        assert arch2 == arch
        for a, b in zip(params.weights + params.biases,
                        params2.weights + params2.biases):
            assert a.tobytes() == b.tobytes()


def test_checkpoint_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"layer_widths": [2, 3, 1], "use_bias": false, '
                    '"weights": [[1.0]], "biases": null}\n')
    with pytest.raises(ValueError):
        load_checkpoint(str(path))


def test_checkpoint_rejects_coercible_json(tmp_path):
    good = {"layer_widths": [2, 1, 1], "use_bias": False,
            "weights": [[0.25, 0.5], [2.0]], "biases": None}
    path = tmp_path / "ckpt.json"
    path.write_text(json.dumps(good))
    arch, params = load_checkpoint(str(path))
    assert arch == Architecture((2, 1, 1))
    assert params.weights[0].tolist() == [[0.25], [0.5]]
    for field, value in (("layer_widths", [2.7, 1, 1.0]),
                         ("layer_widths", "211"),
                         ("use_bias", "false"),
                         ("use_bias", 0),
                         ("weights", [[True, "0.5"], ["2"]]),
                         ("weights", [[0.25, 0.5], "2"]),
                         ("weights", 5)):
        path.write_text(json.dumps({**good, field: value}))
        with pytest.raises(ValueError, match=field):
            load_checkpoint(str(path))
    for biases in ([[0.5], [False]], 5):
        path.write_text(json.dumps({**good, "use_bias": True, "biases": biases}))
        with pytest.raises(ValueError, match="bias"):
            load_checkpoint(str(path))
    path.write_text(json.dumps({**good, "weights": [[0.25, float("nan")], [2.0]]}))
    with pytest.raises(ValueError, match="weights"):
        load_checkpoint(str(path))


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.array([[1.0, np.nan]]), np.array([0.0]))
    with pytest.raises(ValueError):
        Dataset(np.array([[1.0]]), np.array([0.0, 1.0]))


def test_check_params_shape_mismatch():
    arch = Architecture((2, 3, 1))
    bad = ParamVector([np.zeros((2, 2)), np.zeros((3, 1))])
    with pytest.raises(ValueError):
        check_params(arch, bad)


@pytest.mark.parametrize("widths, bias, m", [
    ((2, 3, 1), False, 5), ((2, 4, 1), True, 3), ((3, 4, 4, 1), True, 7),
    ((1, 1), True, 4)])
def test_output_jacobian_rows_are_per_example_gradients(widths, bias, m):
    # the loss of one example with residual 1/2 has gradient 2 (1/2) grad f
    arch = Architecture(widths, use_bias=bias)
    params = uniform_params(arch, SeededRng(31).generator())
    x = SeededRng(32).generator().uniform(-1, 1, (m, widths[0]))
    acts, pre = nets._forward_full(params.weights, params.biases, x)
    jac = nets._output_jacobian(FlatIndex(arch), params.weights,
                                params.biases, acts, pre)
    assert jac.shape == (m, FlatIndex(arch).total)
    for i in range(m):
        row = Dataset(x[i:i + 1], forward(arch, params, x[i:i + 1]) - 0.5)
        assert np.allclose(jac[i], gradient(arch, params, row),
                           rtol=1e-12, atol=1e-15)
