import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
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
from flatlab.transforms import disjoint_box_alpha, transform_multipliers


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
        gen = SeededRng(cfg.seed, metrics._STREAM_SHARPNESS + start_id).generator()
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
    stacked = metrics._ascend(metrics.Objective(arch, data),
                              np.stack([vec(arch, p) for p in centers]), cfg)
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


@pytest.mark.parametrize("coord,rise", [(0, 1e-3),   # poisoned at its start
                                        (2, 3e-3)])  # poisoned mid-ascent
def test_lockstep_sharpness_discards_non_finite_start(coord, rise,
                                                      monkeypatch):
    arch, data, teacher = _teacher_setup(seed=66)
    limit = vec(arch, teacher)[coord] + rise

    class PoisonedObjective(Objective):
        """Non-finite loss wherever one coordinate passes ``limit``."""

        def loss_grad(self, flat):
            value, grad = super().loss_grad(flat)
            value = np.where(np.asarray(flat)[..., coord] > limit, np.inf, value)
            return (value if value.ndim else float(value)), grad

    monkeypatch.setattr(metrics, "Objective", PoisonedObjective)
    cfg = SharpnessConfig(epsilon=1e-2, seed=14)
    result = _assert_same_sharpness(arch, teacher, data, cfg)
    assert result.discarded == 1
    # stacked beside a center whose whole ball stays below the limit, only
    # the poisoned center discards
    low = vec(arch, teacher)
    low[coord] -= 0.5
    stacked = _assert_stacked_equals_serial(
        arch, data, [teacher, unvec(arch, low)], cfg)
    assert [r.discarded for r in stacked] == [1, 0]


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
                            np.stack([flat, 2.0 * flat]), cfg)


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
    assert cert.boxes_checked == 12
    assert cert.disjointness_verified
    bounds = np.asarray(cert.lower_bounds)
    assert bounds.shape == (12,)
    assert np.all(np.diff(bounds) > 0)
    assert cert.volume_lower_bound == bounds[-1]
    assert max(cert.max_deviations) < 1e-2


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
    total, expected = 0.0, []
    for k in range(cert.boxes_checked):
        total += cert.v * cert.alpha ** (k * exponent)
        expected.append(total)
    assert cert.boxes_checked == 5
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


def test_volume_certificate_needs_two_layers():
    arch = Architecture((2, 3, 3, 1))
    params = uniform_params(arch, SeededRng(58).generator())
    gen = SeededRng(58, 61).generator()
    data = Dataset(gen.uniform(-1, 1, (8, 2)), gen.uniform(-1, 1, 8))
    with pytest.raises(ValueError):
        volume_flatness_certificate(arch, params, data, epsilon=1e-2,
                                    boxes=2, samples_per_box=8,
                                    rng=SeededRng(58, 62))


@pytest.mark.parametrize("r", (None, 0.4))
def test_volume_certificate_samples_only_the_base_box(r, monkeypatch):
    # one row a block: a failing trial radius is sampled up to its first
    # sample that reaches epsilon, the accepted one in full, and no image
    # box k >= 1 at all, since the guard proves each is the base box's
    monkeypatch.setattr(nets, "_BLOCK_ELEMENTS", 1)
    arch, data, teacher = _teacher_setup(widths=(2, 5, 1), seed=55)
    stacks = []
    objective_loss = Objective.loss

    def recorded(self, flat):
        stacks.append(np.atleast_2d(flat))
        return objective_loss(self, flat)

    monkeypatch.setattr(Objective, "loss", recorded)
    boxes, samples, eps = 6, 32, 1e-2
    cert = volume_flatness_certificate(arch, teacher, data, epsilon=eps,
                                       boxes=boxes, samples_per_box=samples,
                                       rng=SeededRng(55, 60), r=r)
    monkeypatch.undo()
    assert cert.boxes_checked == boxes and cert.alpha == 4.0
    assert cert.max_deviations == (cert.max_deviations[0],) * boxes

    flat0 = vec(arch, teacher)
    offsets = SeededRng(55, 60).generator().uniform(
        -1.0, 1.0, size=(samples, flat0.size))
    base = loss(arch, teacher, data)
    radius = 0.5 * np.max(np.abs(teacher.weights[0])) if r is None else r
    expected = []
    for _ in range(cert.shrink_steps):
        for row in flat0 + radius * offsets:
            expected.append(row)
            if loss(arch, unvec(arch, row), data) - base >= eps:
                break
        radius *= 0.5
    assert radius == cert.r
    expected.extend(flat0 + radius * offsets)
    assert np.array_equal(np.concatenate(stacks), np.array(expected))
    if r is None:
        assert cert.shrink_steps > 0
        assert len(expected) < (cert.shrink_steps + 1) * samples


def _box_deviations_per_sample(arch, params, data, cert, samples, rng):
    """Each box's largest loss rise, one public loss call per sample."""
    flat0 = vec(arch, params)
    base = loss(arch, params, data)
    offsets = rng.generator().uniform(-1.0, 1.0, size=(samples, flat0.size))
    deviations = []
    for k in range(len(cert.max_deviations)):
        mult = transform_multipliers(arch, (cert.alpha ** k, cert.alpha ** (-k)))
        worst = 0.0
        for row in offsets:
            point = unvec(arch, (flat0 + cert.r * row) * mult)
            worst = max(worst, loss(arch, point, data) - base)
        deviations.append(worst)
    return tuple(deviations)


@pytest.mark.parametrize("widths,bias", [((2, 5, 1), False),
                                         ((2, 4, 1), True),
                                         ((3, 6, 1), False)])
def test_batched_sample_loops_equal_per_sample(widths, bias, monkeypatch):
    from flatlab.experiments import make_teacher_student
    # a small block budget, so the samples span several row blocks
    monkeypatch.setattr(nets, "_BLOCK_ELEMENTS", 2000)
    arch = Architecture(widths, use_bias=bias)
    data, teacher = make_teacher_student(arch, 67, 12)
    samples = 150
    assert nets._block_rows(Objective(arch, data)) < samples
    cert = volume_flatness_certificate(arch, teacher, data, epsilon=1e-2,
                                       boxes=3, samples_per_box=samples,
                                       rng=SeededRng(67, 69), r=0.4)
    assert cert.shrink_steps > 0
    assert cert.max_deviations == _box_deviations_per_sample(
        arch, teacher, data, cert, samples, SeededRng(67, 69))


@settings(max_examples=30, deadline=None)
@given(widths=st.tuples(st.integers(1, 4), st.integers(1, 8), st.just(1)),
       bias=st.booleans(), seed=st.integers(0, 2**16),
       boxes=st.integers(1, 12))
def test_derived_boxes_equal_the_per_sample_oracle(widths, bias, seed, boxes):
    from flatlab.experiments import make_teacher_student
    arch = Architecture(widths, use_bias=bias)
    data, teacher = make_teacher_student(arch, seed, 12)
    samples = 8
    cert = volume_flatness_certificate(arch, teacher, data, epsilon=1e-2,
                                       boxes=boxes, samples_per_box=samples,
                                       rng=SeededRng(seed, 69))
    flat0 = vec(arch, teacher)
    offsets = SeededRng(seed, 69).generator().uniform(
        -1.0, 1.0, size=(samples, flat0.size))
    # the derived path is the one under test: the guard holds here
    assert metrics._images_exact(
        FlatIndex(arch), data.inputs, flat0 + cert.r * offsets,
        transform_multipliers(arch, (cert.alpha ** (boxes - 1),
                                     cert.alpha ** -(boxes - 1))))
    assert cert.max_deviations == _box_deviations_per_sample(
        arch, teacher, data, cert, samples, SeededRng(seed, 69))


def test_images_exact_refuses_each_bound():
    arch = Architecture((2, 3, 1), use_bias=True)
    index = FlatIndex(arch)
    rows = SeededRng(73).generator().uniform(-1.0, 1.0, (4, index.total))
    inputs = SeededRng(74).generator().uniform(-1.0, 1.0, (5, 2))

    def exact(inputs, rows, s):
        mult = transform_multipliers(arch, (2.0 ** s, 2.0 ** -s))
        return metrics._images_exact(index, inputs, rows, mult)

    assert exact(inputs, rows, 10)
    # 1: a second-layer coordinate would drop bits below 2**-1074
    low = rows.copy()
    low[0, index.weight_slice(1).start] = 3 * 2.0 ** -1070
    assert exact(inputs, low, 3) and not exact(inputs, low, 10)
    # 2: a first-layer product below 2**-969, at any scale
    small = inputs.copy()
    small[0, 0] = 2.0 ** -970
    assert not exact(small, rows, 0)
    # 3: the first layer's bound reaches 2**1023 at the scale
    large = inputs * 2.0 ** 1010
    assert exact(large, rows, 5) and not exact(large, rows, 20)


def test_volume_certificate_samples_boxes_the_guard_refuses(monkeypatch):
    # a zero second-layer weight sampled at r = 2**-1000 shrinks below
    # 2**-1022 by box 29, where the scaled coordinate drops bits: the guard
    # refuses, and every box is sampled
    arch = Architecture((2, 3, 1))
    teacher = ParamVector((np.array([[1.0, -0.5, 0.25], [0.5, 1.0, -1.0]]),
                           np.array([[0.0], [1.0], [-2.0]])))
    inputs = SeededRng(71).generator().uniform(-1.0, 1.0, size=(16, 2))
    data = Dataset(inputs, forward(arch, teacher, inputs))
    boxes, samples = 30, 8
    rows = []
    objective_loss = Objective.loss

    def counted(self, flat):
        rows.append(np.atleast_2d(flat).shape[0])
        return objective_loss(self, flat)

    monkeypatch.setattr(Objective, "loss", counted)
    cert = volume_flatness_certificate(arch, teacher, data, epsilon=1e-2,
                                       boxes=boxes, samples_per_box=samples,
                                       rng=SeededRng(71, 72), r=2.0 ** -1000)
    monkeypatch.undo()
    assert cert.alpha == 2.0 and cert.shrink_steps == 0 and cert.valid
    assert sum(rows) == boxes * samples
    assert cert.max_deviations == _box_deviations_per_sample(
        arch, teacher, data, cert, samples, SeededRng(71, 72))


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


def test_flatness_report_volume_skipped_for_deep_net():
    arch = Architecture((2, 3, 3, 1))
    from flatlab.experiments import make_teacher_student
    data, teacher = make_teacher_student(arch, 62, 16)
    cfg = SharpnessConfig(epsilon=1e-2, seed=10)
    report = flatness_report(arch, teacher, data, cfg,
                             volume_epsilon=1e-2)
    assert report.volume is None
    assert any(field == "volume" for field, _ in report.skipped)


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


def test_report_at_deep_teacher_builds_no_hessian(monkeypatch):
    arch, data, teacher = _teacher_setup(widths=(10, 64, 64, 1), seed=73,
                                         m=64)

    def refuse(*args, **kwargs):
        raise AssertionError("the n x n Hessian was built")

    monkeypatch.setattr(nets, "hessian", refuse)
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
