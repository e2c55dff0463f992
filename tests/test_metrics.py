import itertools
import warnings
from dataclasses import asdict, fields
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flatlab import metrics, nets
from flatlab.metrics import (CSV_COLUMNS, FlatnessReport, SharpnessConfig,
                             SharpnessResult, VolumeCertificate,
                             epsilon_sharpness, flatness_report,
                             hessian_measures, second_order_sharpness,
                             volume_flatness_certificate)
from flatlab.linalg import symmetric_eigenspectrum
from flatlab.nets import (Architecture, Dataset, FlatIndex, Objective,
                          ParamVector, forward, hessian, loss, uniform_params,
                          unvec, vec)
from flatlab.rng import SeededRng
from flatlab.serialize import format_float
from flatlab.transforms import ScaleMap, disjoint_box_alpha
from test_nets import _exact_losses, _fraction


def _teacher_setup(widths=(2, 6, 1), seed=50, m=32, bias=False):
    from flatlab.experiments import make_teacher_student
    arch = Architecture(widths, use_bias=bias)
    data, teacher = make_teacher_student(arch, seed, m)
    return arch, data, teacher


# ---------------------------------------------------------------------------
# sharpness


def test_sharpness_nonnegative_and_deterministic():
    arch, data, teacher = _teacher_setup()
    cfg = SharpnessConfig(epsilon=1e-2, seed=3)
    a = epsilon_sharpness(arch, teacher, data, cfg)
    b = epsilon_sharpness(arch, teacher, data, cfg)
    assert a.value >= 0.0
    assert a.value == b.value
    assert np.array_equal(a.argmax_offset, b.argmax_offset)


def test_sharpness_jobs_match():
    # flatness_report still accepts jobs; it must not change a byte
    from flatlab.serialize import to_json
    arch, data, teacher = _teacher_setup(seed=51)
    cfg = SharpnessConfig(epsilon=1e-2, seed=4)
    serial = flatness_report(arch, teacher, data, cfg, jobs=1)
    jobs4 = flatness_report(arch, teacher, data, cfg, jobs=4)
    assert to_json(serial.to_dict()) == to_json(jobs4.to_dict())


def test_sharpness_against_grid_search_tiny_net():
    # two-parameter net: brute-force the ball on a fine polar grid
    arch = Architecture((1, 1, 1))
    params = ParamVector([np.array([[1.0]]), np.array([[1.0]])])
    gen = SeededRng(52).generator()
    data = Dataset(gen.uniform(0.5, 1.5, (12, 1)), gen.uniform(-1, 1, 12))
    eps = 0.3
    base = loss(arch, params, data)
    flat = vec(arch, params)
    best = 0.0
    for radius in np.linspace(0.0, eps, 41):
        for angle in np.linspace(0.0, 2 * np.pi, 181):
            offset = radius * np.array([np.cos(angle), np.sin(angle)])
            value = loss(arch, unvec(arch, flat + offset), data)
            best = max(best, (value - base) / (1.0 + base))
    cfg = SharpnessConfig(epsilon=eps, steps=80, seed=5)
    result = epsilon_sharpness(arch, params, data, cfg)
    assert result.value >= 0.95 * best
    assert result.value <= best * 1.05 + 1e-9


def test_sharpness_argmax_stays_in_ball():
    arch, data, teacher = _teacher_setup(seed=53)
    cfg = SharpnessConfig(epsilon=1e-2, seed=6)
    result = epsilon_sharpness(arch, teacher, data, cfg)
    assert np.linalg.norm(result.argmax_offset) <= 1e-2 * (1 + 1e-12)


def _ascend_one(objective, flat0, cfg, start_id):
    """One start of the ascent on its own, one evaluation per call: the
    reference the lockstep ascent must reproduce bit for bit."""
    dim = flat0.size
    if start_id == 0:
        z = np.zeros(dim)
    elif start_id == 1:
        _, g = objective.loss_grad(flat0 + np.zeros(dim))
        norm = np.linalg.norm(g)
        if norm == 0.0 or not np.isfinite(norm):
            z = np.zeros(dim)
        else:
            z = (cfg.epsilon / norm) * g
    else:
        gen = SeededRng.of(cfg.seed, "restart", start_id).generator()
        z = metrics._ball_point(gen, dim, cfg.epsilon)

    best_loss, g = objective.loss_grad(flat0 + z)
    if not np.isfinite(best_loss):
        return None
    best_z = z.copy()
    for _ in range(cfg.steps):
        norm = np.linalg.norm(g)
        if not np.isfinite(norm) or norm == 0.0:
            break
        z = z + (metrics._STEP_SIZE * cfg.epsilon / norm) * g
        znorm = np.linalg.norm(z)
        if znorm > cfg.epsilon:
            z = (cfg.epsilon / znorm) * z
        value, g = objective.loss_grad(flat0 + z)
        if not np.isfinite(value):
            return None
        if value > best_loss:
            best_loss = value
            best_z = z.copy()
    return best_loss, best_z


def _serial_sharpness(arch, params, data, cfg):
    flat0 = vec(arch, params)
    base_loss = loss(arch, params, data)
    objective = metrics.Objective(arch, data)
    best_loss, best_offset, discarded = base_loss, np.zeros(flat0.size), 0
    for sid in range(2 + metrics._RESTARTS):
        outcome = _ascend_one(objective, flat0, cfg, sid)
        if outcome is None:
            discarded += 1
        elif outcome[0] > best_loss:
            best_loss, best_offset = outcome
    value = (best_loss - base_loss) / (1.0 + base_loss)
    return SharpnessResult(max(value, 0.0), best_offset, discarded)


def _assert_same_sharpness(arch, params, data, cfg):
    lockstep = epsilon_sharpness(arch, params, data, cfg)
    serial = _serial_sharpness(arch, params, data, cfg)
    assert lockstep.value == serial.value
    assert type(lockstep.value) is type(serial.value)
    assert np.array_equal(lockstep.argmax_offset, serial.argmax_offset)
    assert lockstep.discarded == serial.discarded
    return lockstep


def _assert_stacked_equals_serial(arch, data, centers, cfg):
    """Each center of one stacked ascent equals its own serial reference:
    the value and its type, the offset bit for bit, the discard count."""
    [stacked] = metrics._ascend(
        metrics.Objective(arch, data),
        np.stack([vec(arch, p) for p in centers])[None], cfg.epsilon,
        cfg.steps, [cfg.seed])
    assert len(stacked) == len(centers)
    for result, params in zip(stacked, centers):
        serial = _serial_sharpness(arch, params, data, cfg)
        assert result.value == serial.value
        assert type(result.value) is type(serial.value)
        assert result.argmax_offset.tobytes() == serial.argmax_offset.tobytes()
        assert result.discarded == serial.discarded
    return stacked


@pytest.mark.parametrize("widths,bias", [((2, 6, 1), False),
                                         ((2, 4, 1), True),
                                         ((3, 4, 4, 1), False),
                                         ((2, 3, 3, 1), True)])
@pytest.mark.parametrize("restarts", [1, 8])
def test_lockstep_sharpness_equals_serial_starts(widths, bias, restarts,
                                                 monkeypatch):
    from flatlab.experiments import make_teacher_student
    monkeypatch.setattr(metrics, "_RESTARTS", restarts)
    arch = Architecture(widths, use_bias=bias)
    data, teacher = make_teacher_student(arch, 64, 24)
    moved = ParamVector(tuple(w * 1.3 for w in teacher.weights),
                        teacher.biases)
    for params in (teacher, moved):
        cfg = SharpnessConfig(epsilon=5e-2, steps=25, seed=12)
        result = _assert_same_sharpness(arch, params, data, cfg)
        assert result.discarded == 0


@pytest.mark.parametrize("widths,bias", [((2, 4, 1), False),
                                         ((2, 4, 1), True),
                                         ((3, 4, 4, 1), False),
                                         ((2, 3, 3, 1), True)])
@pytest.mark.parametrize("count", [1, 2, 3])
def test_stacked_centers_equal_serial_ascents(widths, bias, count):
    from flatlab.experiments import make_teacher_student
    arch = Architecture(widths, use_bias=bias)
    data, teacher = make_teacher_student(arch, 67, 24)
    centers = [ParamVector(tuple(w * f for w in teacher.weights),
                           teacher.biases) for f in (1.0, 1.3, 0.7)][:count]
    cfg = SharpnessConfig(epsilon=5e-2, steps=25, seed=15)
    _assert_stacked_equals_serial(arch, data, centers, cfg)


def test_lockstep_sharpness_all_units_dead():
    # every hidden preactivation is far below zero: the gradient vanishes on
    # the whole ball, so each start stops before its first step
    arch = Architecture((2, 3, 1))
    params = ParamVector([-np.ones((2, 3)), np.ones((3, 1))])
    gen = SeededRng(65).generator()
    data = Dataset(gen.uniform(0.5, 1.0, (10, 2)), gen.uniform(-1, 1, 10))
    cfg = SharpnessConfig(epsilon=1e-2, seed=13)
    result = _assert_same_sharpness(arch, params, data, cfg)
    assert result.value == 0.0
    assert result.discarded == 0
    assert not np.any(result.argmax_offset)
    # stacked beside a live center, in either order, each keeps its own stops
    live = ParamVector([np.ones((2, 3)), np.full((3, 1), 0.5)])
    for order in (1, -1):
        dead, alive = _assert_stacked_equals_serial(
            arch, data, (params, live)[::order], cfg)[::order]
        assert dead.value == 0.0 and not np.any(dead.argmax_offset)
        assert alive.value > 0.0


@pytest.mark.parametrize("coord,rise,seed,past", [
    (0, 1e-3, 8, 1),   # one random start is drawn past the limit
    (2, 3e-3, 2, 0)])  # none is: one start is poisoned mid-ascent
def test_lockstep_sharpness_discards_non_finite_start(coord, rise, seed, past,
                                                      monkeypatch):
    arch, data, teacher = _teacher_setup(seed=66)
    flat0 = vec(arch, teacher)
    limit = flat0[coord] + rise
    starts = [metrics._ball_point(SeededRng.of(seed, "restart", sid)
                                  .generator(), flat0.size, 1e-2)
              for sid in range(2, 2 + metrics._RESTARTS)]
    assert sum(flat0[coord] + z[coord] > limit for z in starts) == past

    class PoisonedObjective(Objective):
        """Non-finite loss wherever one coordinate passes ``limit``."""

        def loss_grad(self, flat, which=None):
            value, grad = super().loss_grad(flat, which)
            value = np.where(np.asarray(flat)[..., coord] > limit, np.inf, value)
            return (value if value.ndim else float(value)), grad

    monkeypatch.setattr(metrics, "Objective", PoisonedObjective)
    cfg = SharpnessConfig(epsilon=1e-2, seed=seed)
    result = _assert_same_sharpness(arch, teacher, data, cfg)
    assert result.discarded == 1
    # stacked beside a center whose whole ball stays below the limit, only
    # the poisoned center discards
    low = vec(arch, teacher)
    low[coord] -= 0.5
    stacked = _assert_stacked_equals_serial(
        arch, data, [teacher, unvec(arch, low)], cfg)
    assert [r.discarded for r in stacked] == [1, 0]


def _grouped_units(gen, poisoned_weight):
    """Four (2,3,1) units on datasets of one shape, two centers each (the
    second with its output layer scaled): live, dead (no hidden unit is
    ever active in the ball, so every gradient is zero), live with a first
    weight of ``poisoned_weight``, and live."""
    def dataset():
        return Dataset(gen.uniform(0.5, 1.0, (10, 2)), gen.uniform(-1, 1, 10))

    def live():
        return [gen.uniform(0.2, 1.0, (2, 3)), gen.uniform(-1, 1, (3, 1))]

    poisoned = live()
    poisoned[0][0, 0] = poisoned_weight
    layers = [live(), [-np.ones((2, 3)), np.ones((3, 1))], poisoned, live()]
    return [(dataset(), [ParamVector(w) for w in
                         (weights, [weights[0], 1.3 * weights[1]])])
            for weights in layers]


def test_grouped_ascent_equals_one_ascent_per_center(monkeypatch):
    # one ascent over four datasets, each with its own seed: every center
    # gets the result of epsilon_sharpness from it alone, also beside a
    # dead unit and a unit that discards a start
    arch = Architecture((2, 3, 1))
    units = _grouped_units(SeededRng(68).generator(), poisoned_weight=5.0)
    seeds = [21, 22, 23, 24]
    limit = 5.0 + 3e-3  # the poisoned unit's first weight, mid-ascent

    class PoisonedObjective(Objective):
        """Non-finite loss wherever the first coordinate passes ``limit``."""

        def loss_grad(self, flat, which=None):
            value, grad = super().loss_grad(flat, which)
            value = np.where(np.asarray(flat)[..., 0] > limit, np.inf, value)
            return (value if value.ndim else float(value)), grad

    monkeypatch.setattr(metrics, "Objective", PoisonedObjective)
    cfg = SharpnessConfig(epsilon=1e-2, steps=25)
    grouped = metrics._ascend(
        PoisonedObjective(arch, [data for data, _ in units]),
        np.stack([[vec(arch, p) for p in centers] for _, centers in units]),
        cfg.epsilon, cfg.steps, seeds)
    assert [len(results) for results in grouped] == [2, 2, 2, 2]
    for results, (data, centers), seed in zip(grouped, units, seeds):
        for result, params in zip(results, centers):
            alone = epsilon_sharpness(arch, params, data,
                                      SharpnessConfig(cfg.epsilon, cfg.steps,
                                                      seed))
            assert result.value == alone.value
            assert type(result.value) is type(alone.value)
            assert result.argmax_offset.tobytes() == alone.argmax_offset.tobytes()
            assert result.discarded == alone.discarded
    dead, poisoned = grouped[1], grouped[2]
    assert all(r.value == 0.0 and not r.argmax_offset.any() for r in dead)
    assert all(r.value > 0.0 for i in (0, 2, 3) for r in grouped[i])
    assert [[r.discarded > 0 for r in results] for results in grouped] == [
        [False, False], [False, False], [True, True], [False, False]]
    assert all(r.discarded < 2 + metrics._RESTARTS for r in poisoned)


def test_grouped_ascent_refuses_a_unit_whose_ball_overflows():
    # beside live units, one unit's inputs are so large that every random
    # restart overflows its loss, though its centers fit the data exactly:
    # the ascent still refuses, naming epsilon
    arch = Architecture((2, 3, 1))
    units = _grouped_units(SeededRng(69).generator(), poisoned_weight=1.0)
    data, centers = units[2]
    wide = Dataset(1e160 * data.inputs,
                   forward(arch, centers[0], 1e160 * data.inputs))
    units[2] = (wide, [centers[0], centers[0]])
    cfg = SharpnessConfig(epsilon=1e-2, steps=25, seed=25)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="epsilon 0.01 .* all 8 random"):
            epsilon_sharpness(arch, centers[0], wide, cfg)
        with pytest.raises(ValueError, match="epsilon 0.01 .* all 8 random"):
            metrics._ascend(
                Objective(arch, [d for d, _ in units]),
                np.stack([[vec(arch, p) for p in c] for _, c in units]),
                cfg.epsilon, cfg.steps, [25, 26, 27, 28])


def test_sharpness_refuses_ball_that_overflows_the_loss():
    # every random restart of the ascent overflows: a zero bound would read
    # as perfectly flat, so the ascent refuses, without a numpy warning
    arch, data, teacher = _teacher_setup(widths=(2, 8, 1), seed=1, m=48)
    cfg = SharpnessConfig(epsilon=1e150, seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="epsilon 1e\\+150 .* all 8 random"):
            epsilon_sharpness(arch, teacher, data, cfg)
        flat = vec(arch, teacher)
        with pytest.raises(ValueError, match="epsilon"):
            metrics._ascend(Objective(arch, data),
                            np.stack([flat, 2.0 * flat])[None], cfg.epsilon,
                            cfg.steps, [cfg.seed])


def test_sharpness_config_validation():
    with pytest.raises(ValueError):
        SharpnessConfig(epsilon=0.0)
    with pytest.raises(ValueError, match="steps"):
        SharpnessConfig(epsilon=1e-2, steps=0)
    for bad in (np.inf, np.nan, -np.inf):
        with pytest.raises(ValueError, match="epsilon must be finite"):
            SharpnessConfig(epsilon=bad)


def test_second_order_sharpness_formula():
    assert second_order_sharpness(8.0, 0.5, 1.0) == 8.0 * 0.25 / (2 * 2.0)
    with pytest.raises(ValueError, match="epsilon 1e\\+300"):
        second_order_sharpness(8.0, 1e300, 0.0)


# ---------------------------------------------------------------------------
# eigenvalue measures


def test_hessian_measures_on_known_matrix():
    diag = np.diag([4.0, -9.0, 1.0, 0.5])
    m = hessian_measures(diag, thresholds=(0.75, 2.0, 100.0))
    assert m.spectral_norm == 9.0
    assert np.isclose(m.trace, -3.5)
    assert m.counts_above == ((0.75, 2), (2.0, 1), (100.0, 0))
    assert np.allclose(sorted(m.eigenvalues), sorted([4.0, -9.0, 1.0, 0.5]))


def test_hessian_measures_strict_threshold():
    m = hessian_measures(np.diag([2.0, 2.0]), thresholds=(2.0,))
    assert m.counts_above == ((2.0, 0),)  # strictly greater only


def test_hessian_measures_rejects_asymmetric():
    with pytest.raises(ValueError, match="hessian"):
        hessian_measures(np.array([[0.0, 1.0], [0.0, 0.0]]))


# ---------------------------------------------------------------------------
# volume certificate


def test_volume_certificate_monotone_growth():
    arch, data, teacher = _teacher_setup(widths=(2, 5, 1), seed=55)
    cert = volume_flatness_certificate(arch, teacher, data, epsilon=1e-2,
                                       boxes=12, samples_per_box=32,
                                       rng=SeededRng(55, 60))
    assert cert.valid
    assert cert.disjointness_verified
    bounds = np.asarray(cert.lower_bounds)
    assert bounds.shape == (12,)
    assert np.all(np.diff(bounds) > 0)
    assert cert.volume_lower_bound == bounds[-1]
    assert 0.0 < cert.sampled_deviation < cert.deviation_bound < 1e-2


def test_volume_certificate_constant_increment_when_blocks_match():
    arch, data, teacher = _teacher_setup(widths=(1, 4, 1), seed=56)
    cert = volume_flatness_certificate(arch, teacher, data, epsilon=1e-2,
                                       boxes=10, samples_per_box=32,
                                       rng=SeededRng(56, 60))
    assert cert.valid
    increments = np.diff(np.concatenate(([0.0], np.asarray(cert.lower_bounds))))
    assert np.allclose(increments, cert.v, rtol=1e-9)


@pytest.mark.parametrize("bias", (False, True))
@pytest.mark.parametrize("widths", ((1, 4, 1), (2, 5, 1), (3, 2, 1)))
def test_volume_bounds_grow_by_the_flat_index_exponent(widths, bias):
    # oracle exponent from the block sizes: the first weight block and its
    # bias grow by alpha per box, the second block shrinks, the last bias
    # stays; every bound is then the running sum v alpha^(k e), bit for bit
    arch, data, teacher = _teacher_setup(widths=widths, seed=59, bias=bias)
    cert = volume_flatness_certificate(arch, teacher, data, epsilon=1e-2,
                                       boxes=5, samples_per_box=8,
                                       rng=SeededRng(59, 60))
    index = FlatIndex(arch)
    n1, n2 = (index.weight_slice(k).stop - index.weight_slice(k).start
              for k in (0, 1))
    exponent = n1 + (arch.layer_widths[1] if bias else 0) - n2
    assert ScaleMap.first_last(arch, 2.0).log2_det == exponent
    total, expected = 0.0, []
    for k in range(5):
        total += cert.v * cert.alpha ** (k * exponent)
        expected.append(total)
    assert cert.lower_bounds == tuple(expected)


def test_volume_certificate_alpha_matches_formula():
    arch, data, teacher = _teacher_setup(widths=(2, 4, 1), seed=57)
    cert = volume_flatness_certificate(arch, teacher, data, epsilon=1e-2,
                                       boxes=4, samples_per_box=16,
                                       rng=SeededRng(57, 60))
    t = np.max(np.abs(teacher.weights[0]))
    assert np.isclose(cert.alpha, disjoint_box_alpha(
        teacher.weights[0].ravel(), cert.r))
    assert cert.r < t


@pytest.mark.parametrize("widths", ((3, 4, 4, 1), (2, 8, 8, 1)))
def test_volume_certificate_covers_deep_teachers(widths):
    arch, data, teacher = _teacher_setup(widths=widths, seed=58)
    cert = volume_flatness_certificate(arch, teacher, data, epsilon=1e-2,
                                       boxes=6, samples_per_box=32,
                                       rng=SeededRng(58, 62))
    assert cert.valid and cert.disjointness_verified
    assert 0.0 < cert.sampled_deviation <= cert.deviation_bound < 1e-2
    # oracle exponent from the block sizes: only the outer weight blocks
    # move, the first growing by alpha per box and the last shrinking
    index = FlatIndex(arch)
    first, last = (index.weight_slice(k) for k in (0, arch.depth - 1))
    exponent = (first.stop - first.start) - (last.stop - last.start)
    assert cert.lower_bounds == tuple(np.cumsum(
        [cert.v * cert.alpha ** (k * exponent) for k in range(6)]).tolist())
    flat0 = vec(arch, teacher)
    gen = SeededRng(58, 63).generator()
    offsets = np.concatenate([gen.uniform(-1.0, 1.0, (100, flat0.size)),
                              gen.choice([-1.0, 1.0], (100, flat0.size))])
    deviations = _sampled_deviations(arch, teacher, data,
                                     flat0 + cert.r * offsets)
    assert np.max(deviations) <= cert.deviation_bound


def _sampled_deviations(arch, params, data, rows):
    """Each row's loss rise over the point's, one public loss call a row."""
    base = loss(arch, params, data)
    return np.array([loss(arch, unvec(arch, row), data) - base
                     for row in rows])


@pytest.mark.parametrize("widths,bias", [((2, 5, 1), False),
                                         ((2, 4, 1), True),
                                         ((3, 6, 1), False)])
def test_batched_sample_loops_equal_per_sample(widths, bias, monkeypatch):
    from flatlab.experiments import make_teacher_student
    # a small block budget, so the witness's samples span several stacks
    monkeypatch.setattr(nets, "_BLOCK_ELEMENTS", 2000)
    arch = Architecture(widths, use_bias=bias)
    data, teacher = make_teacher_student(arch, 67, 12)
    samples = 150
    assert nets._block_rows(Objective(arch, data)) < samples
    cert = volume_flatness_certificate(arch, teacher, data, epsilon=1e-2,
                                       boxes=3, samples_per_box=samples,
                                       rng=SeededRng(67, 69), r=0.4)
    assert cert.shrink_steps > 0
    flat0 = vec(arch, teacher)
    offsets = SeededRng(67, 69).generator().uniform(
        -1.0, 1.0, size=(samples, flat0.size))
    per_sample = _sampled_deviations(arch, teacher, data,
                                     flat0 + cert.r * offsets)
    assert cert.sampled_deviation == max(0.0, *per_sample.tolist())


@settings(max_examples=60, deadline=None)
@given(widths=st.tuples(st.integers(1, 4), st.integers(1, 8), st.just(1)),
       bias=st.booleans(), seed=st.integers(0, 2**16),
       teacher_targets=st.booleans(), log_fraction=st.floats(-6.0, -0.01))
# here the float rise at a float-rounded vertex, 2.6957551210848862e-05,
# exceeds the bound on the real rise, 2.695755121083105e-05
@example(widths=(1, 1, 1), bias=False, seed=1, teacher_targets=False,
         log_fraction=-3.125)
def test_volume_deviation_bound_holds_at_uniform_points_and_vertices(
        widths, bias, seed, teacher_targets, log_fraction):
    from flatlab.experiments import make_teacher_student
    arch = Architecture(widths, use_bias=bias)
    data, teacher = make_teacher_student(arch, seed, 12)
    if not teacher_targets:
        data = Dataset(data.inputs, SeededRng(seed, 70).generator().uniform(
            -1.0, 1.0, data.size))
    t = float(np.max(np.abs(teacher.weights[0])))
    r = t * 10.0 ** log_fraction
    # an infinite epsilon keeps r: the bound is taken at the radius drawn.
    # It bounds the real rise over the real box, so it is held against the
    # exact rise at exact vertices and inner points
    cert = volume_flatness_certificate(arch, teacher, data, np.inf, 1, 8,
                                       SeededRng(seed, 71), r=r)
    assert cert.r == r and cert.shrink_steps == 0
    flat0 = vec(arch, teacher)
    gen = SeededRng(seed, 72).generator()
    vertices = (np.array(list(itertools.product((-1, 1), repeat=flat0.size)))
                if flat0.size <= 5 else gen.choice([-1, 1], (32, flat0.size)))
    offsets = np.concatenate([_fraction(vertices), _fraction(
        gen.uniform(-1.0, 1.0, (8, flat0.size)))])
    rises = (_exact_losses(arch, _fraction(flat0) + Fraction(r) * offsets, data)
             - _exact_losses(arch, _fraction(flat0)[None], data)[0])
    assert max(rises) <= Fraction(cert.deviation_bound)
    assert cert.sampled_deviation <= cert.deviation_bound


def test_volume_deviation_bound_is_attained_at_a_vertex():
    # one example, every sign aligned: at the all-plus vertex each triangle
    # inequality of the proof is an equality (two inputs and two units, so
    # |x|_1 and the width count), and r = 1/4 keeps every float exact, so
    # the loss rise is the bound up to its outward rounding
    arch = Architecture((2, 2, 1), use_bias=True)
    point = ParamVector((np.ones((2, 2)), np.ones((2, 1))),
                        (np.full(2, 0.5), np.array([0.5])))
    data = Dataset(np.ones((1, 2)), np.array([0.0]))
    cert = volume_flatness_certificate(arch, point, data, np.inf, 1, 8,
                                       SeededRng(75), r=0.25)
    rise = _sampled_deviations(arch, point, data, [vec(arch, point) + 0.25])[0]
    assert rise == 8.875 ** 2 - 5.5 ** 2  # output 2 (1 + 1 + 0.5) + 0.5
    assert rise <= cert.deviation_bound <= rise * (1.0 + 1e-13)


@pytest.mark.parametrize("bias", (False, True))
def test_volume_deviation_bound_shrinks_to_its_float_floor(bias):
    # at a teacher every computed residual is 0, so the bound is the mean
    # square of R(r) + R(0), the output's interval radii: as r halves it
    # falls, down to the floor of the rounding radii alone, at r = 0
    arch, data, teacher = _teacher_setup(widths=(3, 6, 1), seed=58, bias=bias)
    acts, pre = nets._forward_full(teacher.weights, teacher.biases, data.inputs)
    assert np.all(acts[-1][:, 0] == data.targets)
    bounds = np.array([metrics._rise_bound(teacher, data, acts, pre, r)
                       for r in 0.5 ** np.arange(1, 90)])
    floor = metrics._rise_bound(teacher, data, acts, pre, 0.0)
    assert np.all(np.diff(bounds[:40]) < 0.0) and np.all(np.diff(bounds) <= 0.0)
    assert bounds[-1] == pytest.approx(floor, rel=1e-9, abs=0.0)
    # the floor is rounding-sized: far below the bound at a usable radius
    assert 0.0 < floor < 1e-24 * bounds[0]


def test_volume_witness_refuses_a_bound_it_contradicts(monkeypatch):
    arch, data, teacher = _teacher_setup(widths=(2, 5, 1), seed=55)
    # an interval pass that claims zero radii: the bound and the witness's
    # rounding envelope are 0, which the base box's samples contradict
    monkeypatch.setattr(nets, "_interval_forward", lambda weights, biases,
                        acts, pre, r: [np.zeros((len(acts[0]), w.shape[-1]))
                                       for w in weights])
    with pytest.raises(RuntimeError, match="exceeds the proved bound"):
        volume_flatness_certificate(arch, teacher, data, epsilon=1e-2,
                                    boxes=4, samples_per_box=8,
                                    rng=SeededRng(55, 60))


# ---------------------------------------------------------------------------
# combined report


def test_flatness_report_fields_and_csv():
    arch, data, teacher = _teacher_setup(widths=(2, 4, 1), seed=61)
    cfg = SharpnessConfig(epsilon=1e-2, seed=8)
    report = flatness_report(arch, teacher, data, cfg, thresholds=(1.0,),
                             volume_epsilon=1e-2)
    assert report.loss <= 1e-12
    assert report.grad_norm <= 1e-8
    assert report.spec_norm is not None
    assert report.volume is not None
    assert report.skipped == ()
    row = report.csv_row()
    assert len(row) == len(CSV_COLUMNS)
    assert all(cell != "" for cell in row)
    payload = report.to_dict()
    assert payload["counts_above"][0]["threshold"] == 1.0
    assert isinstance(payload["counts_above"][0]["count"], int)


def test_flatness_report_skips_hessian_near_kink():
    # zero preactivation on the first example forces the kink guard
    arch = Architecture((1, 2, 1))
    params = ParamVector([np.array([[0.0, 1.0]]), np.array([[1.0], [1.0]])])
    data = Dataset(np.array([[1.0], [2.0]]), np.array([0.0, 0.0]))
    cfg = SharpnessConfig(epsilon=1e-2, seed=9)
    report = flatness_report(arch, params, data, cfg)
    assert report.spec_norm is None
    assert report.sharp_2nd is None
    assert report.curvature_path is None
    assert report.to_dict()["curvature_path"] is None
    skipped_fields = {field for field, _ in report.skipped}
    assert "spec_norm" in skipped_fields
    row = report.csv_row()
    assert row[CSV_COLUMNS.index("spec_norm")] == ""
    assert row[CSV_COLUMNS.index("eps_sharp")] != ""


@pytest.mark.parametrize("volume_epsilon", [None, 1e-2])
def test_flatness_report_serializes_its_fields_in_order(volume_epsilon):
    arch, data, teacher = _teacher_setup(widths=(2, 4, 1), seed=61)
    cfg = SharpnessConfig(epsilon=1e-2, seed=8)
    report = flatness_report(arch, teacher, data, cfg, thresholds=(0.5, 2.0),
                             volume_epsilon=volume_epsilon)
    payload = report.to_dict()
    assert list(payload) == [f.name for f in fields(FlatnessReport)]
    assert payload["eigenvalues"] == report.eigenvalues
    assert payload["counts_above"] == [{"threshold": m, "count": c}
                                       for m, c in report.counts_above]
    if volume_epsilon is None:
        assert payload["volume"] is None
    else:
        assert list(payload["volume"]) == [
            f.name for f in fields(VolumeCertificate)]
        assert payload["volume"]["lower_bounds"] == report.volume.lower_bounds
    row = report.csv_row()
    assert CSV_COLUMNS[-1] == "vol_lb"
    for column, cell in zip(CSV_COLUMNS[:-1], row):
        assert cell == format_float(getattr(report, column))
    assert row[-1] == ("" if report.volume is None else
                       format_float(report.volume.volume_lower_bound))


def test_flatness_report_certifies_a_deep_net():
    arch = Architecture((2, 3, 3, 1))
    from flatlab.experiments import make_teacher_student
    data, teacher = make_teacher_student(arch, 62, 16)
    cfg = SharpnessConfig(epsilon=1e-2, seed=10)
    report = flatness_report(arch, teacher, data, cfg,
                             volume_epsilon=1e-2)
    assert report.skipped == ()
    cert = volume_flatness_certificate(
        arch, teacher, data, 1e-2, metrics._REPORT_BOXES,
        metrics._REPORT_SAMPLES_PER_BOX, SeededRng.of(10, "witness"))
    assert report.volume.valid and asdict(report.volume) == asdict(cert)


def test_flatness_report_skips_the_volume_of_a_one_layer_net():
    # no hidden layer, so no scale orbit to stack boxes along
    from flatlab.experiments import make_teacher_student
    arch = Architecture((3, 1))
    data, teacher = make_teacher_student(arch, 62, 8)
    report = flatness_report(arch, teacher, data, SharpnessConfig(1e-2),
                             volume_epsilon=1e-2)
    assert report.volume is None
    assert report.skipped == (("volume", "certificate requires a hidden layer"),)


def test_flatness_report_skips_a_volume_bound_that_overflows():
    # alpha >= 4 at every radius, so box 19's volume ratio
    # alpha ** (19 * 32) >= 2**1216 leaves the float range at
    # det_exponent 32; the certificate raises and the report skips it
    arch, data, teacher = _teacher_setup((2, 32, 1), seed=0, m=64)
    assert metrics._REPORT_BOXES == 20
    with pytest.raises(OverflowError):
        volume_flatness_certificate(arch, teacher, data, 1e-2, 20, 32,
                                    SeededRng(0, 3000))
    report = flatness_report(arch, teacher, data,
                             SharpnessConfig(epsilon=1e-2, seed=0),
                             volume_epsilon=1e-2)
    assert report.volume is None
    assert [field for field, _ in report.skipped] == ["volume"]
    assert "float range" in report.skipped[0][1]
    assert report.spec_norm is not None and report.csv_row()[-1] == ""


def test_flatness_report_internal_consistency():
    arch, data, teacher = _teacher_setup(widths=(2, 6, 1), seed=63)
    cfg = SharpnessConfig(epsilon=1e-2, seed=11)
    report = flatness_report(arch, teacher, data, cfg)
    evals = np.asarray(report.eigenvalues)
    assert np.isclose(report.trace, np.sum(evals), rtol=1e-6)
    assert np.isclose(report.spec_norm, np.max(np.abs(evals)), rtol=1e-6)
    hess = hessian(arch, teacher, data)
    assert np.isclose(report.spec_norm,
                      np.max(np.abs(np.linalg.eigvalsh(hess))), rtol=1e-8)


# ---------------------------------------------------------------------------
# curvature at zero-residual minima


def _gram_at(arch, params, data):
    acts, pre = nets._forward_full(params.weights, params.biases, data.inputs)
    assert np.all(acts[-1][:, 0] == data.targets)
    jac = nets._output_jacobian(FlatIndex(arch), params.weights,
                                params.biases, acts, pre)
    return metrics._gram_measures(jac, (1.0, 1e-9))


@pytest.mark.parametrize("widths, bias, m", [
    ((2, 8, 1), False, 48), ((2, 8, 1), True, 48), ((2, 8, 1), True, 16),
    ((3, 4, 4, 1), True, 48), ((4, 32, 1), False, 256),
    ((10, 192, 1), False, 64)])
def test_gram_spectrum_matches_dense_hessian(widths, bias, m):
    arch, data, teacher = _teacher_setup(widths, seed=70, m=m, bias=bias)
    hess = hessian(arch, teacher, data)
    dense = symmetric_eigenspectrum(hess)
    gram = _gram_at(arch, teacher, data)
    n = hess.shape[0]
    norm = float(np.max(np.abs(dense)))
    assert gram.eigenvalues.shape == (n,)
    assert np.all(np.diff(gram.eigenvalues) <= 0.0)
    assert np.max(np.abs(gram.eigenvalues - dense)) <= 1e-12 * norm
    assert abs(gram.spectral_norm - norm) <= 1e-12 * norm
    assert abs(gram.trace - float(np.trace(hess))) <= 1e-12 * norm
    assert gram.counts_above[0] == (1.0, int(np.sum(dense > 1.0)))
    if m < n:
        # the bulk is exactly zero, where the dense solve leaves noise
        assert np.count_nonzero(gram.eigenvalues == 0.0) >= n - m
        assert gram.counts_above[1][1] <= m


def test_report_at_teacher_takes_gram_path():
    arch, data, teacher = _teacher_setup(widths=(2, 8, 1), seed=71, m=16)
    cfg = SharpnessConfig(epsilon=1e-2, seed=12)
    report = flatness_report(arch, teacher, data, cfg, thresholds=(1.0,))
    gram = _gram_at(arch, teacher, data)
    assert report.curvature_path == "gram"
    assert report.to_dict()["curvature_path"] == "gram"
    assert report.eigenvalues == tuple(gram.eigenvalues.tolist())
    assert report.eigenvalues.count(0.0) >= 24 - 16
    assert (report.spec_norm, report.trace) == (gram.spectral_norm, gram.trace)
    assert report.counts_above == ((1.0, gram.counts_above[0][1]),)


def test_report_off_minimum_takes_dense_path_bit_identical():
    # one perturbed target: a nonzero residual, so the dense Hessian
    arch, data, teacher = _teacher_setup(widths=(2, 8, 1), seed=72, m=16)
    targets = data.targets.copy()
    targets[3] += 1e-3
    data = Dataset(data.inputs, targets)
    cfg = SharpnessConfig(epsilon=1e-2, seed=13)
    report = flatness_report(arch, teacher, data, cfg, thresholds=(0.5,))
    dense = hessian_measures(hessian(arch, teacher, data), (0.5,))
    assert report.curvature_path == "hessian"
    assert report.spec_norm == dense.spectral_norm
    assert report.trace == dense.trace
    assert report.eigenvalues == tuple(dense.eigenvalues.tolist())
    assert report.counts_above == dense.counts_above
    assert report.sharp_2nd == second_order_sharpness(
        dense.spectral_norm, cfg.epsilon, report.loss)


def test_dense_path_report_runs_one_kink_guard(monkeypatch):
    # scaled by 0.37 the teacher's outputs round off its targets, so the
    # report builds the dense Hessian, from its own pass past its own guard;
    # on either path the guard's one scan gives the report its kink distance
    arch, data, teacher = _teacher_setup(widths=(2, 8, 1), seed=3, m=48,
                                         bias=True)
    guard, argmin = nets._kink_guard, nets._kink_argmin
    guards, scans = [], []

    def spied_guard(*args):
        guards.append(guard(*args))
        return guards[-1]

    def spied_argmin(pre):
        scans.append(argmin(pre))
        return scans[-1]

    monkeypatch.setattr(nets, "_kink_guard", spied_guard)
    monkeypatch.setattr(nets, "_kink_argmin", spied_argmin)
    for alpha, path in ((1.0, "gram"), (0.37, "hessian")):
        guards.clear()
        scans.clear()
        point = ScaleMap.first_last(arch, alpha).apply(teacher)
        report = flatness_report(arch, point, data,
                                 SharpnessConfig(1e-2, seed=3))
        assert report.curvature_path == path
        assert len(guards) == len(scans) == 1
        assert report.kink_dist == guards[0] == scans[0][0]


def test_report_at_deep_teacher_builds_no_hessian(monkeypatch):
    arch, data, teacher = _teacher_setup(widths=(10, 64, 64, 1), seed=73,
                                         m=64)

    def refuse(*args, **kwargs):
        raise AssertionError("the n x n Hessian was built")

    monkeypatch.setattr(nets, "_hessian_at", refuse)
    cfg = SharpnessConfig(epsilon=1e-2, steps=2, seed=14)
    report = flatness_report(arch, teacher, data, cfg)
    assert report.curvature_path == "gram"
    assert report.skipped == ()
    assert len(report.eigenvalues) == 4800
    assert report.spec_norm > 0.0
    assert report.eigenvalues.count(0.0) >= 4800 - 64


def test_gram_path_keeps_the_kink_guard():
    # the output is exactly the target, but the one preactivation is
    # 5.55e-17, within its rounding band: curvature is skipped, not taken
    arch = Architecture((2, 1, 1), use_bias=True)
    params = ParamVector([np.array([[0.1], [0.2]]), np.array([[1.0]])],
                         [np.array([-0.3]), np.array([0.0])])
    x = np.array([[1.0, 1.0]])
    data = Dataset(x, forward(arch, params, x))
    report = flatness_report(arch, params, data,
                             SharpnessConfig(epsilon=1e-2, seed=15))
    assert report.loss == 0.0
    assert report.curvature_path is None
    assert report.spec_norm is None
    assert all(reason.startswith("kink proximity")
               for _, reason in report.skipped)
