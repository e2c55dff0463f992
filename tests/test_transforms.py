import operator
import re
import warnings
from dataclasses import fields
from decimal import Decimal, localcontext
from itertools import accumulate
from typing import get_args

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flatlab.errors import KinkProximityError
from flatlab.linalg import symmetric_eigenspectrum
from flatlab.nets import (Architecture, Dataset, FlatIndex, ParamVector,
                          forward, gradient, hessian, loss_and_gradient,
                          uniform_params, unvec, vec)
from flatlab.rng import SeededRng
from flatlab.transforms import (_TRANSFORM_KINDS, AlphaScaleDeep,
                                AlphaScaleTwoLayer, InputAffine, PowerStretch,
                                Radial, ScaleMap, TransformSpec, _ordered,
                                alpha_scale_two_layer, apply_transform,
                                disjoint_box_alpha, epsilon_sharp_alpha,
                                fold_input_affine, power_stretch_derivative,
                                power_stretch_forward,
                                power_stretch_inverse,
                                power_stretch_second_derivative,
                                psi, psi_inverse, psi_prime, radial_forward,
                                radial_inverse,
                                radial_jacobian, sharpening_alpha,
                                transform_from_dict, zero_first_layer)

ARCH2 = Architecture((2, 4, 1))
ARCH3 = Architecture((3, 4, 4, 1))


def _params(arch, seed=0):
    return uniform_params(arch, SeededRng(seed, 33).generator())


def _data(arch, seed=0, m=8):
    gen = SeededRng(seed, 34).generator()
    return Dataset(gen.uniform(-1, 1, (m, arch.input_width)),
                   gen.uniform(-1, 1, m))


# ---------------------------------------------------------------------------
# scale transforms


def test_two_layer_scale_by_hand():
    params = ParamVector([np.ones((2, 4)), np.ones((4, 1))])
    moved = alpha_scale_two_layer(ARCH2, params, 4.0)
    assert np.array_equal(moved.weights[0], 4.0 * np.ones((2, 4)))
    assert np.array_equal(moved.weights[1], 0.25 * np.ones((4, 1)))


def test_two_layer_preserves_function_exactly_for_powers_of_two():
    params = _params(ARCH2)
    x = SeededRng(1, 35).generator().uniform(-2, 2, (16, 2))
    base = forward(ARCH2, params, x)
    # powers of two scale without rounding, so equality is exact
    moved = forward(ARCH2, alpha_scale_two_layer(ARCH2, params, 8.0), x)
    assert np.array_equal(base, moved)


def test_group_law_composition():
    params = _params(ARCH2, 2)
    ab = alpha_scale_two_layer(ARCH2, params, 2.0 * 4.0)
    composed = alpha_scale_two_layer(
        ARCH2, alpha_scale_two_layer(ARCH2, params, 2.0), 4.0)
    for a, b in zip(ab.weights, composed.weights):
        assert np.array_equal(a, b)


def test_deep_scale_bias_chain():
    # bias of layer j picks up the product of factors up to j
    arch = Architecture((1, 2, 2, 1), use_bias=True)
    params = ParamVector(
        [np.ones((1, 2)), np.ones((2, 2)), np.ones((2, 1))],
        [np.ones(2), np.ones(2), np.ones(1)])
    alphas = (2.0, 4.0, 1.0 / 8.0)
    moved = ScaleMap(arch, alphas).apply(params)
    assert np.allclose(moved.weights[0], 2.0)
    assert np.allclose(moved.weights[1], 4.0)
    assert np.allclose(moved.weights[2], 1.0 / 8.0)
    assert np.allclose(moved.biases[0], 2.0)       # alpha_1
    assert np.allclose(moved.biases[1], 8.0)       # alpha_1 alpha_2
    assert np.allclose(moved.biases[2], 1.0)       # full product
    # and the realized function is unchanged
    x = np.array([[0.3], [-0.7], [1.2]])
    assert np.allclose(forward(arch, moved, x), forward(arch, params, x),
                       rtol=1e-12, atol=1e-12)


def test_deep_scale_rejects_bad_product():
    with pytest.raises(ValueError):
        AlphaScaleDeep((2.0, 1.0))
    # a product off by more than the tolerance is refused, one inside it
    # is kept as given
    for alphas in ((2.0, 2.0, 1.0), (2.0, 0.5, 1.0 + 2e-12)):
        with pytest.raises(ValueError, match="differs from 1 by more than"):
            ScaleMap(ARCH3, alphas)
    assert ScaleMap(ARCH3, (2.0, 0.5, 1.0 + 5e-13)).alphas[2] == 1.0 + 5e-13


def test_deep_scale_rejects_wrong_arity():
    # factors that pass the spec's checks, one per layer too many or few
    for alphas in ((1.0,), (2.0, 1.0, 0.5), (0.5, 0.5, 2.0, 2.0)):
        with pytest.raises(ValueError, match=f"^{len(alphas)} scale factors "
                                             "for a 2-layer network$"):
            ScaleMap(ARCH2, alphas)
    with pytest.raises(ValueError, match="need at least one factor"):
        ScaleMap(ARCH2, ())


def test_scale_map_rejects_non_positive_factors():
    for alphas in ((-1.0, -1.0), (0.0, np.inf), (np.nan, 1.0)):
        with pytest.raises(ValueError, match="alphas must be finite and > 0"):
            ScaleMap(ARCH2, alphas)
    with pytest.raises(ValueError, match="alpha must be > 0, got 0.0"):
        ScaleMap.first_last(ARCH2, 0.0)
    with pytest.raises(ValueError, match="beta must be > 0, got -2.0"):
        ScaleMap.many_directions(ARCH3, -2.0)


def test_scale_map_constructors_need_two_layers():
    shallow = Architecture((3, 1))
    for build in (ScaleMap.first_last, ScaleMap.many_directions):
        with pytest.raises(ValueError, match="need depth >= 2, got 1"):
            build(shallow, 2.0)
    # the map itself takes one factor for one layer
    assert ScaleMap(shallow, (1.0,)).multipliers.tolist() == [1.0] * 3


def test_scale_map_refuses_derivatives_where_its_inverse_overflows():
    # the running product 2^-535 2^-535 = 2^-1070 is a subnormal bias
    # multiplier whose reciprocal overflows: apply takes it without a
    # warning, as the parameter map is still exact, but D is not finite
    arch = Architecture((1, 2, 2, 2, 1), use_bias=True)
    small, large = 2.0 ** -535, 2.0 ** 535
    params = _params(arch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scale = ScaleMap(arch, (small, small, large, large))
        moved = scale.apply(params)
    assert scale.multipliers.min() == 2.0 ** -1070
    assert np.isinf(scale.inverse).any()
    assert vec(arch, moved).tobytes() == (
        vec(arch, params) * scale.multipliers).tobytes()
    n = FlatIndex(arch).total
    with pytest.raises(ValueError, match="finite positive vector"):
        scale.gradient(np.ones(n))
    with pytest.raises(ValueError, match="finite positive vector"):
        scale.hessian(np.eye(n))


def test_two_layer_requires_depth_two():
    with pytest.raises(ValueError):
        alpha_scale_two_layer(ARCH3, _params(ARCH3), 2.0)


@settings(max_examples=30)
@given(st.floats(min_value=0.05, max_value=20.0))
def test_scale_equivalence_property(alpha):
    params = _params(ARCH2, 5)
    x = SeededRng(5, 36).generator().uniform(-2, 2, (8, 2))
    base = forward(ARCH2, params, x)
    moved = forward(ARCH2, alpha_scale_two_layer(ARCH2, params, alpha), x)
    assert np.allclose(moved, base, rtol=1e-12, atol=1e-12)


def test_scale_map_constructors_equal_explicit_factors():
    arch4 = Architecture((2, 3, 3, 3, 1), use_bias=True)
    for built, alphas in (
            (ScaleMap.first_last(ARCH2, 0.5), (0.5, 2.0)),
            (ScaleMap.first_last(arch4, 2.0), (2.0, 1.0, 1.0, 0.5)),
            (ScaleMap.many_directions(ARCH3, 10.0), (0.1, 0.1, 100.0))):
        explicit = ScaleMap(built.arch, alphas)
        assert built.alphas == alphas
        assert built.multipliers.tobytes() == explicit.multipliers.tobytes()
        assert built.inverse.tobytes() == explicit.inverse.tobytes()


# ---------------------------------------------------------------------------
# derivative laws


def test_multipliers_layout():
    arch = Architecture((2, 2, 1), use_bias=True)
    mult = ScaleMap(arch, (3.0, 1.0 / 3.0)).multipliers
    # weights layer by layer, then biases with cumulative products
    expected = np.concatenate([
        np.full(4, 3.0), np.full(2, 1.0 / 3.0),
        np.full(2, 3.0), np.full(1, 1.0),
    ])
    assert np.allclose(mult, expected)


def _per_layer_scaled(arch, params, alphas):
    """Oracle: each weight matrix times its factor, each bias times the
    running product of the factors up to its layer."""
    weights = tuple(w * a for w, a in zip(params.weights, alphas))
    biases = None
    if arch.use_bias:
        running = accumulate(alphas, operator.mul)
        biases = tuple(b * f for b, f in zip(params.biases, running))
    return ParamVector(weights, biases)


@pytest.mark.parametrize("seed", range(12))
def test_deep_scale_equals_per_layer_product_bitwise(seed):
    gen = SeededRng(seed, 45).generator()
    depth = 2 + seed % 3
    widths = tuple(int(w) for w in gen.integers(1, 6, depth)) + (1,)
    arch = Architecture(widths, use_bias=bool(seed % 2))
    params = uniform_params(arch, gen)
    head = tuple(float(a) for a in np.exp(gen.uniform(-3.0, 3.0, depth - 1)))
    alphas = head + (1.0 / float(np.prod(head)),)
    oracle = _per_layer_scaled(arch, params, alphas)
    moves = [ScaleMap(arch, alphas).apply(params),
             apply_transform(arch, params, AlphaScaleDeep(alphas))]
    if depth == 2:
        moves.append(alpha_scale_two_layer(arch, params, alphas[0]))
    data = _data(arch, seed)
    lo, go = loss_and_gradient(arch, oracle, data)
    for moved in moves:
        assert vec(arch, moved).tobytes() == vec(arch, oracle).tobytes()
        # the result's weights are views of one flat buffer; the calculus
        # must not see the difference from separate arrays
        assert (forward(arch, moved, data.inputs).tobytes()
                == forward(arch, oracle, data.inputs).tobytes())
        lm, gm = loss_and_gradient(arch, moved, data)
        assert lm == lo and gm.tobytes() == go.tobytes()


def _oracle_multipliers(arch, alphas):
    """Per-coordinate factors built block by block from the layout."""
    index = FlatIndex(arch)
    m = np.empty(index.total)
    for k, a in enumerate(alphas):
        m[index.weight_slice(k)] = a
    if arch.use_bias:
        for k, a in enumerate(accumulate(alphas, operator.mul)):
            m[index.bias_slice(k)] = a
    return m


@pytest.mark.parametrize("use_bias", (False, True))
def test_scale_map_holds_the_reciprocal_formulas_bit_for_bit(use_bias):
    # D = 1/m is stored and multiplied in: g * (1/m) rounds twice where
    # g / m rounds once, so a map that divided would move these bits
    arch = Architecture((3, 5, 4, 1), use_bias=use_bias)
    gen = SeededRng(6, 46).generator()
    alphas = (1.3, 0.7, 1.0 / (1.3 * 0.7))
    scale = ScaleMap(arch, alphas)
    m = _oracle_multipliers(arch, alphas)
    d = 1.0 / m
    assert scale.multipliers.tobytes() == m.tobytes()
    assert scale.inverse.tobytes() == d.tobytes()
    params = uniform_params(arch, gen)
    assert (vec(arch, scale.apply(params)).tobytes()
            == vec(arch, unvec(arch, vec(arch, params) * m)).tobytes())
    g = gen.normal(size=m.size)
    assert scale.gradient(g).tobytes() == (g * d).tobytes()
    assert (g * d).tobytes() != (g / m).tobytes()
    h = gen.normal(size=(m.size, m.size))
    h = h + h.T
    expected = d[:, None] * h * d[None, :]
    assert scale.hessian(h).tobytes() == expected.tobytes()
    assert expected.tobytes() != (h / (m[:, None] * m[None, :])).tobytes()


@pytest.mark.parametrize("use_bias", (False, True))
@pytest.mark.parametrize("widths", ((1, 4, 1), (2, 5, 1), (3, 2, 1),
                                    (3, 4, 4, 1), (2, 3, 5, 2, 1)))
def test_multiplier_counts_equal_flat_index_arithmetic(widths, use_bias):
    arch = Architecture(widths, use_bias=use_bias)
    index = FlatIndex(arch)
    sizes = [s.stop - s.start
             for s in map(index.weight_slice, range(arch.depth))]
    biases = list(arch.layer_widths[1:]) if use_bias else [0] * arch.depth
    # many_directions: the last weight block and the last bias stay unmoved
    mult = ScaleMap.many_directions(arch, 2.0).multipliers
    assert np.count_nonzero(mult >= 1.0) == sizes[-1] + biases[-1]
    if arch.depth == 2:
        # volume: the first block and its bias grow, the second block shrinks
        grow = ScaleMap(arch, (2.0, 0.5)).multipliers
        assert (np.count_nonzero(grow > 1.0) - np.count_nonzero(grow < 1.0)
                == sizes[0] + biases[0] - sizes[1])


def test_scale_map_inverse_inverts_multipliers():
    scale = ScaleMap(ARCH2, (2.0, 0.5))
    assert np.allclose(scale.inverse * scale.multipliers, 1.0)


@settings(max_examples=300, deadline=None)
@given(widths=st.lists(st.integers(1, 4), min_size=2, max_size=4),
       bias=st.booleans(), seed=st.integers(0, 2**16),
       exponents=st.lists(st.integers(-20, 20), min_size=3, max_size=3))
def test_power_of_two_scales_hold_every_law_bit_for_bit(widths, bias, seed,
                                                         exponents):
    # factors 2^k with product 1 round nothing, so the function, the
    # gradient law D g and the Hessian law D H D hold exactly
    arch = Architecture((*widths, 1), use_bias=bias)
    ks = exponents[:arch.depth - 1]
    assume(abs(sum(ks)) <= 20)
    alphas = tuple(2.0 ** k for k in ks) + (2.0 ** -sum(ks),)
    params, data = _params(arch, seed), _data(arch, seed)
    scale = ScaleMap(arch, alphas)
    moved = scale.apply(params)
    assert np.array_equal(forward(arch, moved, data.inputs),
                          forward(arch, params, data.inputs))
    assert np.array_equal(gradient(arch, moved, data),
                          scale.gradient(gradient(arch, params, data)))
    try:
        hess = hessian(arch, params, data)
        moved_hess = hessian(arch, moved, data)
    except KinkProximityError:
        assume(False)
    assert np.array_equal(moved_hess, scale.hessian(hess))


def test_scale_map_gradient_and_hessian_against_reevaluation():
    # seed chosen so both points clear the kink exclusion band
    params = _params(ARCH3, 0)
    data = _data(ARCH3, 0)
    alphas = (1.25, 0.8, 1.0 / (1.25 * 0.8))
    scale = ScaleMap(ARCH3, alphas)
    moved = scale.apply(params)
    g = scale.gradient(gradient(ARCH3, params, data))
    assert np.allclose(g, gradient(ARCH3, moved, data), rtol=1e-9, atol=1e-12)
    h = scale.hessian(hessian(ARCH3, params, data))
    h2 = hessian(ARCH3, moved, data)
    assert np.linalg.norm(h - h2) <= 1e-6 * max(np.linalg.norm(h2), 1.0)


def test_sharpening_alpha_certifies_target():
    arch = Architecture((2, 6, 1))
    gen = SeededRng(8, 37).generator()
    d = Dataset(gen.uniform(-1, 1, (24, 2)), gen.uniform(-1, 1, 24))
    params = _params(arch, 8)
    hess = hessian(arch, params, d)
    for target in (1e2, 1e5):
        alpha = sharpening_alpha(arch, hess, target)
        moved = ScaleMap.first_last(arch, alpha).hessian(hess)
        assert np.max(np.abs(np.linalg.eigvalsh(moved))) >= target


def test_sharpening_alpha_is_first_candidate_reaching_target():
    arch = Architecture((2, 6, 1))
    gen = SeededRng(8, 37).generator()
    d = Dataset(gen.uniform(-1, 1, (24, 2)), gen.uniform(-1, 1, 24))
    hess = hessian(arch, _params(arch, 8), d)

    def spectral_norm(alpha):
        moved = ScaleMap.first_last(arch, alpha).hessian(hess)
        return np.max(np.abs(symmetric_eigenspectrum(moved)))

    for target in (2.0 * spectral_norm(1.0), 1e2, 1e5):
        alpha = sharpening_alpha(arch, hess, target)
        assert alpha != 1.0
        factor = 0.5 if alpha < 1.0 else 2.0
        assert spectral_norm(alpha) >= target
        assert spectral_norm(alpha / factor) < target


def test_sharpening_alpha_rejects_zero_hessian():
    with pytest.raises(ValueError):
        sharpening_alpha(ARCH2, np.zeros((12, 12)), 1e3)


def test_epsilon_sharp_alpha_shrinks_first_layer_to_radius():
    params = _params(ARCH2, 9)
    eps = 1e-2
    alpha = epsilon_sharp_alpha(ARCH2, params, eps)
    moved = ScaleMap.first_last(ARCH2, alpha).apply(params)
    assert np.isclose(np.linalg.norm(moved.weights[0].ravel()), eps)


def test_zero_first_layer():
    params = _params(ARCH2, 10)
    zeroed = zero_first_layer(ARCH2, params)
    assert np.all(zeroed.weights[0] == 0.0)
    assert np.array_equal(zeroed.weights[1], params.weights[1])


def test_disjoint_box_alpha_formula():
    # the smallest power of two at or above 2 (t + r)/(t - r)
    theta1 = np.array([1.0, -2.0, 0.5])
    assert disjoint_box_alpha(theta1, 0.5) == 4.0  # bound 10/3
    assert disjoint_box_alpha(np.array([3.0]), 1.0) == 4.0  # bound exactly 4
    assert disjoint_box_alpha(np.array([1.0]), 2.0 ** -60) == 2.0  # bound 2
    assert disjoint_box_alpha(np.array([-1.0]), 0.75) == 16.0  # bound 14
    # bound 2**22 - 2
    assert disjoint_box_alpha(np.array([1.0]), 1.0 - 2.0 ** -20) == 2.0 ** 22
    for t, r in ((2.0, 0.5), (3.0, 1.0), (1.0, 2.0 ** -60), (5.0, 4.9)):
        alpha = disjoint_box_alpha(np.array([t]), r)
        assert np.frexp(alpha)[0] == 0.5  # a power of two
        assert alpha * (t - r) > t + r  # the boxes are disjoint
    with pytest.raises(ValueError):
        disjoint_box_alpha(theta1, 2.0)  # r must stay below max |entry|
    # 2 (t + r) overflows to inf: no finite power of two bounds it
    with pytest.raises(ValueError, match="float range"):
        disjoint_box_alpha(np.array([1e308]), 0.5e308)


# ---------------------------------------------------------------------------
# radial map


RADIAL = Radial(np.array([0.2, -0.1, 0.4]), delta=1.2, rho=0.5, rhat=0.8)


def test_psi_piecewise_values():
    # slope rho/rhat up to rhat, then linear to (delta, delta), then identity
    assert np.isclose(psi(0.4, RADIAL), 0.4 * 0.5 / 0.8)
    assert np.isclose(psi(0.8, RADIAL), 0.5)
    assert np.isclose(psi(1.2, RADIAL), 1.2)
    assert psi(2.0, RADIAL) == 2.0
    mid = 1.0
    expected = ((0.5 - 1.2) * (mid - 1.2) / (0.8 - 1.2)) + 1.2
    assert np.isclose(psi(mid, RADIAL), expected)


def test_psi_inverse_is_exact_inverse():
    for r in (0.1, 0.5, 0.79, 0.85, 1.1, 1.19, 1.3, 5.0):
        assert np.isclose(psi_inverse(psi(r, RADIAL), RADIAL), r,
                          rtol=1e-14, atol=1e-14)


def test_psi_monotone():
    grid = np.linspace(0.0, 2.0, 400)
    values = [psi(r, RADIAL) for r in grid]
    assert np.all(np.diff(values) > 0)


def test_radial_round_trip_and_center():
    gen = SeededRng(14, 38).generator()
    for _ in range(50):
        u = RADIAL.center + gen.normal(size=3)
        assert np.allclose(radial_inverse(radial_forward(u, RADIAL), RADIAL),
                           u, atol=1e-12)
    assert np.allclose(radial_forward(RADIAL.center.copy(), RADIAL),
                       RADIAL.center)


def test_radial_identity_outside_is_bitwise():
    u = RADIAL.center + np.array([1.5, 0.3, -0.2])
    assert np.linalg.norm(u - RADIAL.center) > RADIAL.delta
    assert np.array_equal(radial_forward(u, RADIAL), u)
    assert np.array_equal(radial_inverse(u, RADIAL), u)
    assert np.array_equal(radial_jacobian(u, RADIAL), np.eye(3))


def test_radial_jacobian_matches_standard_form():
    # printed coefficient form vs (psi/r) I + (psi' - psi/r) u u^T / r^2
    gen = SeededRng(15, 39).generator()
    for radius in (0.3, 0.75, 0.9, 1.1):
        direction = gen.normal(size=3)
        direction /= np.linalg.norm(direction)
        u = RADIAL.center + radius * direction
        d = u - RADIAL.center
        r = np.linalg.norm(d)
        standard = (psi(r, RADIAL) / r) * np.eye(3) + (
            psi_prime(r, RADIAL) - psi(r, RADIAL) / r
        ) * np.outer(d, d) / (r * r)
        assert np.allclose(radial_jacobian(u, RADIAL), standard, atol=1e-12)


def test_radial_jacobian_matches_fd():
    gen = SeededRng(16, 40).generator()
    for radius in (0.4, 1.0, 1.6):
        direction = gen.normal(size=3)
        direction /= np.linalg.norm(direction)
        u = RADIAL.center + radius * direction
        jac = radial_jacobian(u, RADIAL)
        step = 1e-7
        fd = np.zeros((3, 3))
        for j in range(3):
            e = np.zeros(3)
            e[j] = step
            fd[:, j] = (radial_forward(u + e, RADIAL)
                        - radial_forward(u - e, RADIAL)) / (2 * step)
        assert np.allclose(jac, fd, atol=1e-6)


# dyadic center and radii: the offsets of the axis points below, and so
# their norms, are exact
DYADIC = Radial(np.array([0.25, -0.5, 0.125, 0.0, 0.5, -0.25, 0.75]),
                delta=1.25, rho=0.5, rhat=0.75)


def _radial_stack():
    """The center, 40 points in each band, and r == rhat, r == delta exactly."""
    gen = SeededRng(17, 41).generator()
    d = DYADIC.center.size
    rows = [DYADIC.center.copy()]
    for lo, hi in ((0.0, 0.75), (0.75, 1.25), (1.25, 3.0)):
        for _ in range(40):
            direction = gen.normal(size=d)
            direction /= np.linalg.norm(direction)
            rows.append(DYADIC.center + gen.uniform(lo, hi) * direction)
    for radius in (DYADIC.rhat, DYADIC.delta):
        rows.append(DYADIC.center + radius * np.eye(d)[2])
    stack = np.stack(rows)
    radii = np.linalg.norm(stack - DYADIC.center, axis=1)
    assert radii[0] == 0.0 and radii[-2] == DYADIC.rhat and radii[-1] == DYADIC.delta
    return stack


def _one_point_forward(theta, spec, remap=psi):
    """Single-point radial map written out with ``np.linalg.norm``."""
    u = theta - spec.center
    r = float(np.linalg.norm(u))
    if r == 0.0:
        return spec.center.copy()
    if r >= spec.delta:
        return theta.copy()
    return spec.center + (remap(r, spec) / r) * u


def _one_point_jacobian(theta, spec):
    n = theta.size
    u = theta - spec.center
    r = float(np.linalg.norm(u))
    jac = psi_prime(r, spec) * np.eye(n)
    if spec.rhat < r <= spec.delta:
        coeff = spec.delta * (spec.rhat - spec.rho) / (spec.rhat - spec.delta)
        jac += (coeff / r) * np.eye(n)
        jac -= (coeff / r**3) * np.outer(u, u)
    return jac


def test_radial_maps_of_a_stack_equal_each_row_bitwise():
    stack = _radial_stack()
    oracles = (
        (radial_forward, _one_point_forward),
        (radial_inverse, lambda t, s: _one_point_forward(t, s, psi_inverse)),
        (radial_jacobian, _one_point_jacobian),
    )
    for fn, oracle in oracles:
        out = fn(stack, DYADIC)
        assert out.shape == (len(stack),) + (DYADIC.center.size,) * (
            2 if fn is radial_jacobian else 1)
        for row, got in zip(stack, out):
            assert np.array_equal(got, fn(row, DYADIC))
            assert np.array_equal(got, oracle(row, DYADIC))
    outer = stack[81:121]
    assert np.array_equal(radial_forward(outer, DYADIC), outer)
    assert np.array_equal(radial_inverse(outer, DYADIC), outer)


def test_radius_maps_are_elementwise():
    radii = np.linalg.norm(_radial_stack() - DYADIC.center, axis=1)
    for fn in (psi, psi_prime, psi_inverse):
        values = fn(radii, DYADIC)
        assert values.shape == radii.shape
        for r, value in zip(radii, values):
            one = fn(float(r), DYADIC)
            assert isinstance(one, float)
            assert value == one
        with pytest.raises(ValueError):
            fn(np.array([0.5, -1e-300]), DYADIC)


def test_radial_maps_keep_the_point_shape_and_check_width():
    point = DYADIC.center + 0.5
    d = point.size
    assert radial_forward(point, DYADIC).shape == (d,)
    assert radial_inverse(point, DYADIC).shape == (d,)
    assert radial_jacobian(point, DYADIC).shape == (d, d)
    for fn in (radial_forward, radial_inverse, radial_jacobian):
        for bad in (np.zeros(d + 1), np.zeros((4, d - 1)), np.zeros((2, 2, d)),
                    np.float64(0.5)):
            with pytest.raises(ValueError, match="center length"):
                fn(bad, DYADIC)


def test_radial_validation():
    with pytest.raises(ValueError):
        Radial(np.array([0.0]), delta=1.0, rho=1.5, rhat=0.5)  # rho >= delta
    with pytest.raises(ValueError):
        Radial(np.array([0.0]), delta=-1.0, rho=0.1, rhat=0.5)


# ---------------------------------------------------------------------------
# power stretch


STRETCH = PowerStretch(0.3, 1.5, 0.4)


def test_power_stretch_forward_by_hand():
    # eta is measured from the center, not shifted back
    u = 1.3 - 0.3
    expected = (u * u + 0.4) ** 1.5 * u
    assert np.isclose(power_stretch_forward(1.3, STRETCH), expected)


def test_power_stretch_derivatives_match_fd():
    for t in (-1.2, 0.1, 0.3, 0.9, 2.0):
        h = 1e-6
        fd1 = (power_stretch_forward(t + h, STRETCH)
               - power_stretch_forward(t - h, STRETCH)) / (2 * h)
        assert np.isclose(power_stretch_derivative(t, STRETCH), fd1,
                          rtol=1e-6, atol=1e-8)
        fd2 = (power_stretch_derivative(t + h, STRETCH)
               - power_stretch_derivative(t - h, STRETCH)) / (2 * h)
        assert np.isclose(power_stretch_second_derivative(t, STRETCH), fd2,
                          rtol=1e-5, atol=1e-6)


def _stretch_50_digits(t, spec):
    """Oracle: h, h' and h'' from the closed forms, in 50-digit decimals,
    whose exponent range holds u^2 for every finite u."""
    with localcontext() as ctx:
        ctx.prec = 50
        u = Decimal(t) - Decimal(spec.center)
        a, b = Decimal(spec.a), Decimal(spec.b)
        base = u * u + b
        eta = base ** a * u if base else u  # base is 0 only at u = b = 0
        first = base ** (a - 1) * ((2 * a + 1) * u * u + b)
        second = 2 * a * u * base ** (a - 2) * ((2 * a + 1) * u * u + 3 * b)
        return float(eta), float(first), float(second)


@pytest.mark.parametrize("spec", (PowerStretch(0.0, -0.3, 0.0),
                                  PowerStretch(0.0, 0.7, 0.0),
                                  PowerStretch(0.0, 0.7, 0.5)))
@pytest.mark.parametrize("t", (1e200, -1e200, 1e-200, -1e-200, 3e-162,
                               1e-160))
def test_power_stretch_where_u_squared_leaves_the_floats(spec, t):
    # u^2 overflows at |u| = 1e200, underflows to 0 at 1e-200 and is
    # subnormal at 3e-162 and 1e-160; with b = 0.5 only the overflow leaves
    # the ordinary formula
    eta, first, second = _stretch_50_digits(t, spec)
    assert power_stretch_forward(t, spec) == pytest.approx(eta, rel=1e-12,
                                                           abs=0.0)
    assert np.isclose(power_stretch_derivative(t, spec), first,
                      rtol=1e-12, atol=0.0)
    # h'' is subnormal at |u| = 1e200 with a < 0, where few bits remain
    assert np.isclose(power_stretch_second_derivative(t, spec), second,
                      rtol=1e-12, atol=1e-320)


@pytest.mark.parametrize("a", (-0.3, 0.0, 0.7))
@pytest.mark.parametrize("b", (0.0, 0.5, 5e-324, 1e300))
def test_power_stretch_derivatives_match_50_digits_on_a_log_grid(a, b):
    # every decade from 1e-300 to 1e300, both signs: u^2 + b subnormal or
    # out of range, and (2a + 1) u^2 or the power leaving the normal range,
    # all take the factored form, through u^2 or (the extreme b) through b;
    # 1e-12 is the ordinary form's own error, the rounding of the exponents
    # a - 1 and a - 2 times |log(u^2 + b)|
    spec = PowerStretch(0.0, a, b)
    grid = 10.0 ** np.arange(-300.0, 301.0)
    grid = np.concatenate([grid, -grid])
    got = (power_stretch_derivative(grid, spec),
           power_stretch_second_derivative(grid, spec))
    for i, t in enumerate(grid):
        for value, exact in zip((got[0][i], got[1][i]),
                                _stretch_50_digits(t, spec)[1:]):
            if np.isinf(exact):  # beyond the largest float
                assert value == exact, (t, value, exact)
            else:
                # subnormal results keep a few units of 2**-1074
                assert abs(value - exact) <= (1e-12 * abs(exact)
                                              + 4 * 2.0 ** -1074), (t, value,
                                                                    exact)


def test_power_stretch_derivatives_keep_their_values_at_the_center():
    for a, slope in ((-0.3, np.inf), (0.0, 1.0), (0.7, 0.0)):
        spec = PowerStretch(0.2, a, 0.0)
        assert power_stretch_derivative(0.2, spec) == slope
        assert power_stretch_second_derivative(0.2, spec) == 0.0


def test_power_stretch_monotone_on_grid():
    grid = np.linspace(-3, 3, 601)
    values = [power_stretch_forward(t, STRETCH) for t in grid]
    assert np.all(np.diff(values) > 0)
    assert all(power_stretch_derivative(t, STRETCH) > 0 for t in grid)


# the b > 0 specs of the curvature_congruence check and the bent-ruler
# notebook
DEMO_STRETCHES = (PowerStretch(0.0, 0.0, 1.0), PowerStretch(0.2, 1.0, 0.5),
                  PowerStretch(-0.3, 0.7, 0.8), PowerStretch(0.8, 1.0, 0.05))


def _adjacent_floats(points, k: int) -> np.ndarray:
    """Row i: the 2k + 1 consecutive floats centred on points[i], in order."""
    keys = _ordered(np.asarray(points, dtype=float))[:, None]
    return _ordered(keys + np.arange(-k, k + 1)).view(float)


@pytest.mark.parametrize("spec", (PowerStretch(0.0, -0.3, 0.0),
                                  PowerStretch(0.0, 0.7, 0.0))
                         + DEMO_STRETCHES)
def test_power_stretch_forward_is_monotone_over_adjacent_floats(spec):
    # with b = 0 where u^2 is subnormal (and at its edge, 1.5e-154), and at
    # the demo specs from u = -3 to 3, a thousand consecutive floats keep
    # their order, so the inverse's preimage is unique there
    points = ((3e-162, 1e-160, 1.5e-154) if spec.b == 0.0
              else spec.center + np.linspace(-3.0, 3.0, 25))
    images = power_stretch_forward(_adjacent_floats(points, 500), spec)
    assert np.all(np.diff(images, axis=-1) >= 0.0)


def test_power_stretch_inverse_brackets_where_forward_is_not_monotone():
    # a < 0 with b > 0: the ordinary form's rounding steps down between
    # some adjacent floats, so several floats bracket one eta and the
    # inverse may return another float than the one eta came from; the
    # bracket forward(t) <= eta < forward(next float) still holds
    spec = PowerStretch(0.0, -0.3, 0.5)
    floats = _adjacent_floats((0.5, 1.0, 2.5), 500)
    etas = power_stretch_forward(floats, spec)
    assert np.any(np.diff(etas, axis=-1) < 0.0)
    t = power_stretch_inverse(etas, spec)
    assert np.any(t != floats)
    assert np.all(power_stretch_forward(t, spec) <= etas)
    assert np.all(etas < power_stretch_forward(np.nextafter(t, np.inf), spec))


@pytest.mark.parametrize("a", (-0.3, 0.0, 0.7))
@pytest.mark.parametrize("b", (5e-324, 1e-320, 1e-310))
def test_power_stretch_forward_where_u_squared_plus_b_is_subnormal(a, b):
    # below |u| = sqrt(tiny - b), about 1.49e-154, u^2 + b is subnormal and
    # the map is factored through the larger of u^2 and b: 50 digits hold it
    # there (1.48e-162 was 11.6% off at b = 5e-324 evaluated directly), and
    # it keeps its order across that switch and across u^2 = b, over
    # adjacent floats at a >= 0 and every 16th float at a < 0, where the
    # ordinary form's own rounding already reorders adjacent floats
    spec = PowerStretch(0.0, a, b)
    grid = np.concatenate([10.0 ** np.linspace(-323.0, -150.0, 347),
                           [1.48e-162]])
    grid = np.concatenate([grid, -grid])
    for t, value in zip(grid, power_stretch_forward(grid, spec)):
        exact = _stretch_50_digits(t, spec)[0]
        assert abs(value - exact) <= (1e-12 * abs(exact)
                                      + 4 * 2.0 ** -1074), (t, value, exact)
    stride = 16 if a < 0 else 1
    for edge in (np.sqrt(np.finfo(float).tiny - b), np.sqrt(b)):
        floats = (np.float64(edge).view(np.int64)
                  + stride * np.arange(-2000, 2001)).view(float)
        assert np.all(np.diff(power_stretch_forward(floats, spec)) >= 0.0)


def test_power_stretch_validation():
    with pytest.raises(ValueError):
        PowerStretch(0.0, -0.6, 1.0)  # a must stay above -1/2
    with pytest.raises(ValueError):
        PowerStretch(0.0, 1.0, -0.1)


@settings(max_examples=300, deadline=None)
@given(center=st.floats(allow_nan=False, allow_infinity=False),
       a=st.floats(min_value=-0.5, max_value=3.0, exclude_min=True),
       b=st.floats(min_value=0.0, max_value=2.0),
       eta=st.floats(min_value=-1e6, max_value=1e6))
def test_power_stretch_inverse_brackets_eta(center, a, b, eta):
    spec = PowerStretch(center, a, b)
    top = np.finfo(float).max
    try:
        t = power_stretch_inverse(eta, spec)
    except ValueError:
        # refused only when no finite float maps past eta on both sides
        assert not (power_stretch_forward(-top, spec) <= eta
                    < power_stretch_forward(top, spec))
        return
    assert np.isfinite(t)
    assert (power_stretch_forward(t, spec) <= eta
            <= power_stretch_forward(np.nextafter(t, np.inf), spec))


@pytest.mark.parametrize("spec", (STRETCH, PowerStretch(-0.3, 0.7, 0.8),
                                  PowerStretch(0.2, -0.3, 0.0),
                                  PowerStretch(0.0, 2.0, 0.0),
                                  PowerStretch(0.0, -0.3, 0.0),
                                  PowerStretch(0.0, 0.7, 0.5)))
@pytest.mark.parametrize("fn", (power_stretch_forward,
                                power_stretch_derivative,
                                power_stretch_second_derivative,
                                power_stretch_inverse),
                         ids=lambda fn: fn.__name__)
def test_power_stretch_stack_gets_each_elements_bits(spec, fn):
    values = SeededRng(4, 44).generator().uniform(-3.0, 3.0, (40, 3))
    values[0] = (spec.center, 0.0, -0.0)
    if fn is not power_stretch_inverse:
        # u^2 overflows or underflows to 0 (the inverse refuses etas this
        # far out)
        values[1:3] = spec.center + np.array([[1e200, -1e200, 1e-200],
                                              [-1e-200, 2e154, -3e-170]])
    stacked = fn(values, spec)
    assert stacked.shape == values.shape
    alone = np.array([[fn(float(v), spec) for v in row] for row in values])
    assert isinstance(fn(float(values[1, 0]), spec), float)
    assert stacked.tobytes() == alone.tobytes()


def test_power_stretch_inverse_refuses_non_finite_eta():
    for eta in (np.nan, np.inf, -np.inf, np.array([0.5, np.nan])):
        with pytest.raises(ValueError, match="eta must be finite"):
            power_stretch_inverse(eta, STRETCH)


def test_power_stretch_inverse_is_exact_on_images():
    # the center maps to 0 and back, also where b^a overflows or 0^a is
    # infinite; a point's image inverts to the point itself
    for spec in (STRETCH, PowerStretch(0.3, 3.0, 1e308),
                 PowerStretch(0.3, -0.3, 0.0)):
        assert power_stretch_forward(0.3, spec) == 0.0
        assert power_stretch_inverse(0.0, spec) == 0.3
    for t in (-2.5, -1.0, 0.3, 0.30001, 1.7):
        assert power_stretch_inverse(power_stretch_forward(t, STRETCH),
                                     STRETCH) == t


# ---------------------------------------------------------------------------
# non-finite spec fields


VALID_FIELDS = {
    AlphaScaleTwoLayer: {"alpha": 2.0},
    AlphaScaleDeep: {"alphas": (2.0, 0.5)},
    Radial: {"center": np.zeros(3), "delta": 1.0, "rho": 0.5, "rhat": 0.5},
    PowerStretch: {"center": 0.0, "a": 1.0, "b": 0.5},
    InputAffine: {"matrix": np.eye(2), "shift": np.zeros(2)},
}


def _with_bad_entry(value, bad):
    """The field value with its first entry (or itself) replaced by bad."""
    if isinstance(value, tuple):
        return (bad,) + value[1:]
    if isinstance(value, np.ndarray):
        out = value.copy()
        out.flat[0] = bad
        return out
    return bad


@pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
@pytest.mark.parametrize("cls,name", [
    (cls, name) for cls, valid in VALID_FIELDS.items() for name in valid],
    ids=lambda v: getattr(v, "kind", v))
def test_specs_refuse_non_finite_fields(cls, name, bad):
    assert set(VALID_FIELDS) == set(get_args(TransformSpec))
    cls(**VALID_FIELDS[cls])
    fields_ = {**VALID_FIELDS[cls],
               name: _with_bad_entry(VALID_FIELDS[cls][name], bad)}
    with pytest.raises(ValueError, match=f"^{name} must "):
        cls(**fields_)


# ---------------------------------------------------------------------------
# input preprocessing


def test_fold_input_affine_realizes_composition():
    arch = Architecture((3, 4, 1), use_bias=True)
    params = _params(arch, 18)
    gen = SeededRng(18, 42).generator()
    spec = InputAffine(gen.normal(size=(3, 3)), gen.normal(size=3))
    folded = fold_input_affine(arch, params, spec)
    u = gen.uniform(-1, 1, (6, 3))
    assert np.allclose(forward(arch, folded, u),
                       forward(arch, params, u @ spec.matrix.T + spec.shift),
                       rtol=1e-12, atol=1e-12)


def test_fold_input_affine_needs_bias_for_shift():
    arch = Architecture((3, 4, 1))
    spec = InputAffine(np.eye(3), np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        fold_input_affine(arch, _params(arch, 19), spec)


def test_input_affine_rejects_singular_matrix():
    with pytest.raises(ValueError):
        InputAffine(np.zeros((2, 2)), np.zeros(2))


# ---------------------------------------------------------------------------
# spec codec


# one payload of the file format per kind: the "kind" tag, then every
# field of the kind's spec class, in order
CODEC_PAYLOADS = (
    {"kind": "alpha_scale_two_layer", "alpha": 2.5},
    {"kind": "alpha_scale_deep", "alphas": [2.0, 0.25, 2.0]},
    {"kind": "radial", "center": [0.1, 0.2], "delta": 1.0, "rho": 0.4,
     "rhat": 0.6},
    {"kind": "power_stretch", "center": 0.0, "a": 1.0, "b": 0.5},
    {"kind": "input_affine", "matrix": [[2.0, 0.0], [0.0, 1.0]],
     "shift": [0.5, -0.5]},
)


@pytest.mark.parametrize("raw", CODEC_PAYLOADS, ids=lambda raw: raw["kind"])
def test_transform_codec_round_trip(raw):
    spec = transform_from_dict(raw)
    assert type(spec) is _TRANSFORM_KINDS[raw["kind"]]
    # every field keeps the payload's numbers, as a float, a tuple of
    # floats or a float array
    for f in fields(spec):
        value = getattr(spec, f.name)
        expected = {"float": float, "tuple[float, ...]": tuple,
                    "np.ndarray": np.ndarray}[f.type]
        assert isinstance(value, expected)
        assert np.asarray(value).dtype == np.float64
    back = {name: np.asarray(getattr(spec, name)).tolist()
            for name in raw if name != "kind"}
    assert {"kind": spec.kind, **back} == raw


def test_each_kind_tag_is_a_class_attribute_not_a_field():
    assert sorted(_TRANSFORM_KINDS) == sorted(raw["kind"]
                                              for raw in CODEC_PAYLOADS)
    assert set(_TRANSFORM_KINDS.values()) == set(get_args(TransformSpec))
    for raw in CODEC_PAYLOADS:
        spec = transform_from_dict(raw)
        names = [f.name for f in fields(spec)]
        assert "kind" not in names
        assert _TRANSFORM_KINDS[type(spec).kind] is type(spec)
        assert list(raw) == ["kind", *names]


def test_codec_rejects_unknown_kind():
    # the weight-norm kind is gone, since it moved no point; a kind that is
    # not a string is refused by name, not raised as a TypeError
    for kind in ("mystery", "weight_norm", ["x"], {"a": 1}, None, 1, True):
        with pytest.raises(ValueError, match=re.escape(
                f"unknown transform kind {kind!r}")):
            transform_from_dict({"kind": kind, "layer": 0, "alpha": 2.0})


def test_codec_rejects_missing_and_extra_fields():
    with pytest.raises(ValueError):
        transform_from_dict({"kind": "alpha_scale_two_layer"})
    with pytest.raises(ValueError):
        transform_from_dict({"kind": "alpha_scale_two_layer", "alpha": 2.0,
                             "junk": 1})
    # a float field takes a finite number only: no booleans, no numeric
    # strings; a tuple field is a list of numbers, not a string to
    # iterate; an array field holds numbers only, in a regular nesting
    deep, radial = "alpha_scale_deep", "radial"
    ball = {"delta": 1.0, "rho": 0.5, "rhat": 0.5}
    for raw, field in (
            ({"kind": "alpha_scale_two_layer", "alpha": True}, "alpha"),
            ({"kind": "alpha_scale_two_layer", "alpha": "0.5"}, "alpha"),
            ({"kind": "alpha_scale_two_layer", "alpha": float("inf")},
             "alpha"),
            ({"kind": deep, "alphas": "11"}, "alphas"),
            ({"kind": deep, "alphas": [True, 1.0]}, "alphas"),
            ({"kind": deep, "alphas": ["2", 0.5]}, "alphas"),
            ({"kind": radial, "center": [True, 0.5], **ball}, "center"),
            ({"kind": "input_affine", "matrix": [[1.0, 0.0], [0.0]],
              "shift": [0.0, 0.0]}, "matrix"),
            ({"kind": "input_affine", "matrix": [[1.0, 0.0], [0.0, 1.0]],
              "shift": ["0", 0.0]}, "shift")):
        with pytest.raises(ValueError, match=f"'{field}'"):
            transform_from_dict(raw)
    assert transform_from_dict({"kind": "alpha_scale_two_layer",
                                "alpha": 2}).alpha == 2.0
    assert transform_from_dict({"kind": "alpha_scale_deep",
                                "alphas": [2, 0.5]}).alphas == (2.0, 0.5)
    center = transform_from_dict({"kind": radial, "center": [1, 0.5],
                                  **ball}).center
    assert center.dtype == np.float64 and center.tolist() == [1.0, 0.5]


def test_apply_transform_dispatch():
    params = _params(ARCH2, 20)
    data_x = SeededRng(20, 43).generator().uniform(-2, 2, (8, 2))
    base = forward(ARCH2, params, data_x)
    for spec in (AlphaScaleTwoLayer(0.5), AlphaScaleDeep((0.5, 2.0))):
        moved = apply_transform(ARCH2, params, spec)
        assert np.allclose(forward(ARCH2, moved, data_x), base,
                           rtol=1e-12, atol=1e-12)
    # coordinate maps move the point; they do not preserve the function,
    # only invertibility
    stretch = PowerStretch(0.0, 1.0, 0.5)
    moved = apply_transform(ARCH2, params, stretch)
    flat = vec(ARCH2, params)
    expected = np.array([power_stretch_forward(t, stretch) for t in flat])
    assert np.allclose(vec(ARCH2, moved), expected)
    # identities return the very same coordinates, bit for bit: a radial
    # ball far from the point, and unit deep scale factors
    for spec in (Radial(np.full(flat.size, 50.0), delta=0.5, rho=0.2,
                        rhat=0.3),
                 AlphaScaleDeep((1.0, 1.0))):
        moved = apply_transform(ARCH2, params, spec)
        assert vec(ARCH2, moved).tobytes() == flat.tobytes()
    affine = InputAffine(np.array([[2.0, 0.5], [0.0, 1.0]]), np.zeros(2))
    moved = apply_transform(ARCH2, params, affine)
    folded = fold_input_affine(ARCH2, params, affine)
    assert vec(ARCH2, moved).tobytes() == vec(ARCH2, folded).tobytes()


def test_apply_transform_refuses_a_non_spec():
    # a decoded payload must pass through transform_from_dict first; the
    # old weight-norm payload is no spec, whether raw or as a string
    params = _params(ARCH2, 20)
    for spec in ({"kind": "weight_norm", "layer": 0, "alpha": 2.0},
                 "weight_norm", None):
        with pytest.raises(TypeError, match=(
                f"^not a transform spec: {type(spec).__name__}$")):
            apply_transform(ARCH2, params, spec)
