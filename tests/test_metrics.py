import numpy as np
import pytest

from flatlab import metrics, nets
from flatlab.metrics import (CSV_COLUMNS, SharpnessConfig, SharpnessResult,
                             epsilon_sharpness, flatness_report,
                             hessian_measures, second_order_sharpness,
                             sublevel_volume_mc, volume_flatness_certificate)
from flatlab.nets import (Architecture, Dataset, Objective, ParamVector,
                          forward, hessian, loss, uniform_params, unvec, vec)
from flatlab.rng import SeededRng
from flatlab.transforms import disjoint_box_alpha, transform_multipliers


def _teacher_setup(widths=(2, 6, 1), seed=50, m=32):
    from flatlab.experiments import make_teacher_student
    arch = Architecture(widths)
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
    cfg = SharpnessConfig(epsilon=1e-2, restarts=6, seed=4)
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
    cfg = SharpnessConfig(epsilon=eps, restarts=10, steps=80, seed=5)
    result = epsilon_sharpness(arch, params, data, cfg)
    assert result.value >= 0.95 * best
    assert result.value <= best * 1.05 + 1e-9


def test_sharpness_argmax_stays_in_ball():
    arch, data, teacher = _teacher_setup(seed=53)
    cfg = SharpnessConfig(epsilon=1e-2, seed=6)
    result = epsilon_sharpness(arch, teacher, data, cfg)
    assert np.linalg.norm(result.argmax_offset) <= 1e-2 * (1 + 1e-12)


def test_sharpness_subspace_variant_runs():
    arch, data, teacher = _teacher_setup(seed=54)
    cfg = SharpnessConfig(epsilon=1e-2, subspace_dim=5, seed=7)
    result = epsilon_sharpness(arch, teacher, data, cfg)
    assert result.value >= 0.0


def _ascend_one(objective, flat0, cfg, basis, start_id):
    """One start of the ascent on its own, one evaluation per call: the
    reference the lockstep ascent must reproduce bit for bit."""
    dim = flat0.size
    inner = basis.shape[1] if basis is not None else dim

    def to_offset(z):
        return basis @ z if basis is not None else z

    def loss_grad_at(z):
        value, g = objective.loss_grad(flat0 + to_offset(z))
        return value, (basis.T @ g if basis is not None else g)

    if start_id == 0:
        z = np.zeros(inner)
    elif start_id == 1:
        _, g = loss_grad_at(np.zeros(inner))
        norm = np.linalg.norm(g)
        if norm == 0.0 or not np.isfinite(norm):
            z = np.zeros(inner)
        else:
            z = (cfg.epsilon / norm) * g
    else:
        gen = SeededRng(cfg.seed, metrics._STREAM_SHARPNESS + start_id).generator()
        z = metrics._ball_point(gen, inner, cfg.epsilon)

    best_loss, g = loss_grad_at(z)
    if not np.isfinite(best_loss):
        return None
    best_z = z.copy()
    for _ in range(cfg.steps):
        norm = np.linalg.norm(g)
        if not np.isfinite(norm) or norm == 0.0:
            break
        z = z + (cfg.step_size * cfg.epsilon / norm) * g
        znorm = np.linalg.norm(z)
        if znorm > cfg.epsilon:
            z = (cfg.epsilon / znorm) * z
        value, g = loss_grad_at(z)
        if not np.isfinite(value):
            return None
        if value > best_loss:
            best_loss = value
            best_z = z.copy()
    return best_loss, to_offset(best_z)


def _serial_sharpness(arch, params, data, cfg):
    flat0 = vec(arch, params)
    base_loss = loss(arch, params, data)
    basis = None
    if cfg.subspace_dim is not None:
        basis = metrics._subspace_basis(
            flat0.size, cfg.subspace_dim,
            SeededRng(cfg.seed, metrics._STREAM_SUBSPACE))
    objective = metrics.Objective(arch, data)
    best_loss, best_offset, discarded = base_loss, np.zeros(flat0.size), 0
    for sid in range(2 + cfg.restarts):
        outcome = _ascend_one(objective, flat0, cfg, basis, sid)
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


@pytest.mark.parametrize("widths,bias", [((2, 6, 1), False),
                                         ((2, 4, 1), True),
                                         ((3, 4, 4, 1), False),
                                         ((2, 3, 3, 1), True)])
@pytest.mark.parametrize("restarts,subspace_dim", [(1, None), (8, None),
                                                   (8, 5)])
def test_lockstep_sharpness_equals_serial_starts(widths, bias, restarts,
                                                 subspace_dim):
    from flatlab.experiments import make_teacher_student
    arch = Architecture(widths, use_bias=bias)
    data, teacher = make_teacher_student(arch, 64, 24)
    moved = ParamVector(tuple(w * 1.3 for w in teacher.weights),
                        teacher.biases)
    for params in (teacher, moved):
        cfg = SharpnessConfig(epsilon=5e-2, restarts=restarts, steps=25,
                              subspace_dim=subspace_dim, seed=12)
        result = _assert_same_sharpness(arch, params, data, cfg)
        assert result.discarded == 0


def test_lockstep_sharpness_all_units_dead():
    # every hidden preactivation is far below zero: the gradient vanishes on
    # the whole ball, so each start stops before its first step
    arch = Architecture((2, 3, 1))
    params = ParamVector([-np.ones((2, 3)), np.ones((3, 1))])
    gen = SeededRng(65).generator()
    data = Dataset(gen.uniform(0.5, 1.0, (10, 2)), gen.uniform(-1, 1, 10))
    cfg = SharpnessConfig(epsilon=1e-2, restarts=4, seed=13)
    result = _assert_same_sharpness(arch, params, data, cfg)
    assert result.value == 0.0
    assert result.discarded == 0
    assert not np.any(result.argmax_offset)


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
    cfg = SharpnessConfig(epsilon=1e-2, restarts=8, seed=14)
    result = _assert_same_sharpness(arch, teacher, data, cfg)
    assert result.discarded == 1


def test_sharpness_config_validation():
    with pytest.raises(ValueError):
        SharpnessConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        SharpnessConfig(epsilon=1e-2, restarts=-1)
    with pytest.raises(ValueError):
        SharpnessConfig(epsilon=1e-2, subspace_dim=0)


def test_second_order_sharpness_formula():
    assert second_order_sharpness(8.0, 0.5, 1.0) == 8.0 * 0.25 / (2 * 2.0)


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


def _mc_per_sample(arch, params, data, epsilon, halfwidth, samples, rng):
    flat0 = vec(arch, params)
    base = loss(arch, params, data)
    gen = rng.generator()
    hits = 0
    for _ in range(samples):
        point = flat0 + gen.uniform(-halfwidth, halfwidth, size=flat0.size)
        if loss(arch, unvec(arch, point), data) < base + epsilon:
            hits += 1
    fraction = hits / samples
    return fraction, float(np.sqrt(fraction * (1.0 - fraction) / samples))


@pytest.mark.parametrize("widths,bias", [((2, 5, 1), False),
                                         ((2, 4, 1), True),
                                         ((3, 4, 4, 1), False)])
def test_batched_sample_loops_equal_per_sample(widths, bias, monkeypatch):
    from flatlab.experiments import make_teacher_student
    # a small block budget, so the samples span several row blocks
    monkeypatch.setattr(nets, "_BLOCK_ELEMENTS", 2000)
    arch = Architecture(widths, use_bias=bias)
    data, teacher = make_teacher_student(arch, 67, 12)
    samples = 150
    assert nets._block_rows(Objective(arch, data)) < samples
    for halfwidth in (0.02, 0.2):
        batched = sublevel_volume_mc(arch, teacher, data, 1e-2, halfwidth,
                                     samples, SeededRng(67, 68))
        assert batched == _mc_per_sample(arch, teacher, data, 1e-2, halfwidth,
                                         samples, SeededRng(67, 68))
    if arch.depth != 2:
        return
    cert = volume_flatness_certificate(arch, teacher, data, epsilon=1e-2,
                                       boxes=3, samples_per_box=samples,
                                       rng=SeededRng(67, 69), r=0.4)
    assert cert.shrink_steps > 0
    assert cert.max_deviations == _box_deviations_per_sample(
        arch, teacher, data, cert, samples, SeededRng(67, 69))


def test_sublevel_volume_mc_quadratic_fraction():
    # f(x) = w2 relu(w1 x) on x > 0 grid: loss is a quadratic bowl in the
    # product, so the epsilon sublevel fraction in a big box is small and
    # the estimate should be stable across seeds
    arch = Architecture((1, 1, 1))
    params = ParamVector([np.array([[1.0]]), np.array([[1.0]])])
    data = Dataset(np.ones((4, 1)), np.ones(4))
    frac1, err1 = sublevel_volume_mc(arch, params, data, epsilon=0.05,
                                     halfwidth=0.5, samples=4000,
                                     rng=SeededRng(59, 63))
    frac2, _ = sublevel_volume_mc(arch, params, data, epsilon=0.05,
                                  halfwidth=0.5, samples=4000,
                                  rng=SeededRng(60, 63))
    assert 0.0 < frac1 < 1.0
    assert err1 > 0.0
    assert abs(frac1 - frac2) < 5 * (err1 + 1e-3)


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
    skipped_fields = {field for field, _ in report.skipped}
    assert "spec_norm" in skipped_fields
    row = report.csv_row()
    assert row[CSV_COLUMNS.index("spec_norm")] == ""
    assert row[CSV_COLUMNS.index("eps_sharp")] != ""


def test_flatness_report_volume_skipped_for_deep_net():
    arch = Architecture((2, 3, 3, 1))
    from flatlab.experiments import make_teacher_student
    data, teacher = make_teacher_student(arch, 62, 16)
    cfg = SharpnessConfig(epsilon=1e-2, seed=10)
    report = flatness_report(arch, teacher, data, cfg,
                             volume_epsilon=1e-2)
    assert report.volume is None
    assert any(field == "volume" for field, _ in report.skipped)


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
