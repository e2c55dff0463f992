import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatlab.linalg import symmetric_eigenspectrum
from flatlab.nets import (Architecture, Dataset, ParamVector, forward,
                          gradient, hessian, uniform_params, vec)
from flatlab.rng import SeededRng
from flatlab.transforms import (AlphaScaleDeep, AlphaScaleTwoLayer,
                                InputAffine, PowerStretch, Radial,
                                WeightNormScale, alpha_scale_deep,
                                alpha_scale_two_layer, apply_transform,
                                diagonal_scaling, disjoint_box_alpha,
                                epsilon_sharp_alpha, first_last_alphas,
                                fold_input_affine, input_affine_apply,
                                many_directions_alphas,
                                power_stretch_derivative,
                                power_stretch_forward,
                                power_stretch_second_derivative,
                                predicted_gradient, predicted_hessian,
                                preprocessed_input_gradient, psi, psi_inverse,
                                psi_prime, radial_forward, radial_inverse,
                                radial_jacobian, sharpening_alpha,
                                transform_from_dict, transform_multipliers,
                                transform_to_dict, weight_norm_decompose,
                                weight_norm_realize, weight_norm_scale,
                                zero_first_layer)

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
    moved = alpha_scale_deep(arch, params, alphas)
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
    with pytest.raises(ValueError):
        alpha_scale_deep(ARCH3, _params(ARCH3), (2.0, 2.0, 1.0))


def test_deep_scale_rejects_wrong_arity():
    with pytest.raises(ValueError):
        alpha_scale_deep(ARCH2, _params(ARCH2), (2.0, 1.0, 0.5))


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


def test_first_last_and_many_directions_helpers():
    assert first_last_alphas(2, 0.5) == (0.5, 2.0)
    assert first_last_alphas(4, 2.0) == (2.0, 1.0, 1.0, 0.5)
    alphas = many_directions_alphas(3, 10.0)
    assert alphas == (0.1, 0.1, 100.0)
    assert np.isclose(np.prod(alphas), 1.0, rtol=1e-12)


# ---------------------------------------------------------------------------
# derivative laws


def test_multipliers_layout():
    arch = Architecture((2, 2, 1), use_bias=True)
    mult = transform_multipliers(arch, (3.0, 1.0 / 3.0))
    # weights layer by layer, then biases with cumulative products
    expected = np.concatenate([
        np.full(4, 3.0), np.full(2, 1.0 / 3.0),
        np.full(2, 3.0), np.full(1, 1.0),
    ])
    assert np.allclose(mult, expected)


def test_diagonal_scaling_inverts_multipliers():
    mult = transform_multipliers(ARCH2, (2.0, 0.5))
    scaling = diagonal_scaling(ARCH2, (2.0, 0.5))
    assert np.allclose(scaling.multipliers * mult, 1.0)


def test_predicted_gradient_and_hessian_against_reevaluation():
    # seed chosen so both points clear the kink exclusion band
    params = _params(ARCH3, 0)
    data = _data(ARCH3, 0)
    alphas = (1.25, 0.8, 1.0 / (1.25 * 0.8))
    moved = alpha_scale_deep(ARCH3, params, alphas)
    scaling = diagonal_scaling(ARCH3, alphas)
    g = predicted_gradient(gradient(ARCH3, params, data), scaling)
    assert np.allclose(g, gradient(ARCH3, moved, data), rtol=1e-9, atol=1e-12)
    h = predicted_hessian(hessian(ARCH3, params, data), scaling)
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
        moved = predicted_hessian(hess,
                                  diagonal_scaling(arch,
                                                   first_last_alphas(2, alpha)))
        assert np.max(np.abs(np.linalg.eigvalsh(moved))) >= target


def test_sharpening_alpha_is_first_candidate_reaching_target():
    arch = Architecture((2, 6, 1))
    gen = SeededRng(8, 37).generator()
    d = Dataset(gen.uniform(-1, 1, (24, 2)), gen.uniform(-1, 1, 24))
    hess = hessian(arch, _params(arch, 8), d)

    def spectral_norm(alpha):
        moved = predicted_hessian(
            hess, diagonal_scaling(arch, first_last_alphas(2, alpha)))
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
    moved = alpha_scale_deep(ARCH2, params, first_last_alphas(2, alpha))
    assert np.isclose(np.linalg.norm(moved.weights[0].ravel()), eps)


def test_zero_first_layer():
    params = _params(ARCH2, 10)
    zeroed = zero_first_layer(ARCH2, params)
    assert np.all(zeroed.weights[0] == 0.0)
    assert np.array_equal(zeroed.weights[1], params.weights[1])


def test_disjoint_box_alpha_formula():
    theta1 = np.array([1.0, -2.0, 0.5])
    r = 0.5
    assert np.isclose(disjoint_box_alpha(theta1, r),
                      2.0 * (2.0 + 0.5) / (2.0 - 0.5))
    with pytest.raises(ValueError):
        disjoint_box_alpha(theta1, 2.0)  # r must stay below max |entry|


# ---------------------------------------------------------------------------
# weight normalization


def test_weight_norm_decompose_realize_round_trip():
    params = _params(ARCH2, 11)
    s, v = weight_norm_decompose(params, 0)
    assert np.isclose(s, np.linalg.norm(params.weights[0].ravel()))
    assert np.allclose(weight_norm_realize(s, v), params.weights[0])


def test_weight_norm_scale_positive_is_identity():
    params = _params(ARCH2, 12)
    moved = weight_norm_scale(ARCH2, params, 0, 3.7)
    assert np.array_equal(moved.weights[0], params.weights[0])
    assert np.array_equal(moved.weights[1], params.weights[1])


def test_weight_norm_scale_negative_flips_and_warns():
    params = _params(ARCH2, 13)
    with pytest.warns(UserWarning):
        moved = weight_norm_scale(ARCH2, params, 0, -2.0)
    assert np.allclose(moved.weights[0], -params.weights[0])


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


def test_power_stretch_monotone_on_grid():
    grid = np.linspace(-3, 3, 601)
    values = [power_stretch_forward(t, STRETCH) for t in grid]
    assert np.all(np.diff(values) > 0)
    assert all(power_stretch_derivative(t, STRETCH) > 0 for t in grid)


def test_power_stretch_validation():
    with pytest.raises(ValueError):
        PowerStretch(0.0, -0.6, 1.0)  # a must stay above -1/2
    with pytest.raises(ValueError):
        PowerStretch(0.0, 1.0, -0.1)


# ---------------------------------------------------------------------------
# input preprocessing


def test_input_affine_apply_and_gradient_rule():
    gen = SeededRng(17, 41).generator()
    matrix = gen.normal(size=(3, 3))
    shift = gen.normal(size=3)
    spec = InputAffine(matrix, shift)
    u = gen.normal(size=(5, 3))
    assert np.allclose(input_affine_apply(spec, u), u @ matrix.T + shift)
    df_dx = gen.normal(size=(5, 3))
    assert np.allclose(preprocessed_input_gradient(df_dx, spec),
                       df_dx @ matrix)


def test_fold_input_affine_realizes_composition():
    arch = Architecture((3, 4, 1), use_bias=True)
    params = _params(arch, 18)
    gen = SeededRng(18, 42).generator()
    spec = InputAffine(gen.normal(size=(3, 3)), gen.normal(size=3))
    folded = fold_input_affine(arch, params, spec)
    u = gen.uniform(-1, 1, (6, 3))
    assert np.allclose(forward(arch, folded, u),
                       forward(arch, params, input_affine_apply(spec, u)),
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


CODEC_CASES = (
    AlphaScaleTwoLayer(2.5),
    AlphaScaleDeep((2.0, 0.25, 2.0)),
    WeightNormScale(1, -0.5),
    Radial(np.array([0.1, 0.2]), delta=1.0, rho=0.4, rhat=0.6),
    PowerStretch(0.0, 1.0, 0.5),
    InputAffine(np.array([[2.0, 0.0], [0.0, 1.0]]), np.array([0.5, -0.5])),
)


@pytest.mark.parametrize("spec", CODEC_CASES, ids=lambda s: s.kind)
def test_transform_codec_round_trip(spec):
    back = transform_from_dict(transform_to_dict(spec))
    assert type(back) is type(spec)
    assert transform_to_dict(back) == transform_to_dict(spec)


def test_codec_rejects_unknown_kind():
    with pytest.raises(ValueError, match="kind"):
        transform_from_dict({"kind": "mystery", "alpha": 2.0})


def test_codec_rejects_missing_and_extra_fields():
    with pytest.raises(ValueError):
        transform_from_dict({"kind": "alpha_scale_two_layer"})
    with pytest.raises(ValueError):
        transform_from_dict({"kind": "alpha_scale_two_layer", "alpha": 2.0,
                             "junk": 1})
    # an integer field is never truncated, and a boolean is not an integer
    for layer in (1.7, True):
        with pytest.raises(ValueError, match="'layer'"):
            transform_from_dict({"kind": "weight_norm", "layer": layer,
                                 "alpha": 2.0})
    assert transform_from_dict({"kind": "weight_norm", "layer": 1.0,
                                "alpha": 2.0}).layer == 1


def test_apply_transform_dispatch():
    params = _params(ARCH2, 20)
    data_x = SeededRng(20, 43).generator().uniform(-2, 2, (8, 2))
    base = forward(ARCH2, params, data_x)
    for spec in (AlphaScaleTwoLayer(0.5),
                 AlphaScaleDeep((0.5, 2.0)),
                 WeightNormScale(0, 2.0)):
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
