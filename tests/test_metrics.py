import numpy as np
import pytest

from flatlab.metrics import (CSV_COLUMNS, SharpnessConfig, VolumeParams,
                             epsilon_sharpness, flatness_report,
                             hessian_measures, second_order_sharpness,
                             sublevel_volume_mc, volume_flatness_certificate)
from flatlab.nets import (Architecture, Dataset, ParamVector, forward,
                          hessian, loss, uniform_params, unvec, vec)
from flatlab.rng import SeededRng
from flatlab.transforms import disjoint_box_alpha


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
    with pytest.raises(ValueError):
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
                             volume=VolumeParams(epsilon=1e-2))
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
                             volume=VolumeParams(epsilon=1e-2))
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
