import json
import subprocess
import sys
import warnings
from dataclasses import astuple, fields

import numpy as np
import pytest

from flatlab import experiments, nets
from flatlab.errors import TrainingDivergedError
from flatlab.experiments import (MinimumCurvature, NonCriticalCheck,
                                 TrainConfig, alpha_sweep, demo_spec_from_dict,
                                 make_teacher_student, probe_inputs,
                                 reparam_demo_1d, train_sgd)
from flatlab.metrics import CSV_COLUMNS, SharpnessConfig
from flatlab.nets import (Architecture, Dataset, gradient, hessian,
                          kink_distance, loss, vec)
from flatlab.rng import SeededRng
from flatlab.transforms import PowerStretch, Radial


# ---------------------------------------------------------------------------
# teacher-student data


def test_teacher_is_exact_minimum():
    for widths in ((2, 4, 1), (2, 8, 1), (3, 4, 4, 1)):
        arch = Architecture(widths)
        data, teacher = make_teacher_student(arch, 70, 32)
        assert loss(arch, teacher, data) == 0.0
        assert np.linalg.norm(gradient(arch, teacher, data)) <= 1e-10


def test_teacher_hessian_is_psd():
    arch = Architecture((2, 6, 1))
    data, teacher = make_teacher_student(arch, 71, 32)
    evals = np.linalg.eigvalsh(hessian(arch, teacher, data))
    assert evals.min() >= -1e-6 * max(evals.max(), 1.0)


def test_teacher_data_clears_kink_margin():
    arch = Architecture((3, 4, 4, 1))
    data, teacher = make_teacher_student(arch, 72, 32, margin=0.02)
    assert kink_distance(arch, teacher, data) > 0.02


def test_teacher_deterministic():
    arch = Architecture((2, 5, 1), use_bias=True)
    d1, t1 = make_teacher_student(arch, 73, 16)
    d2, t2 = make_teacher_student(arch, 73, 16)
    assert np.array_equal(d1.inputs, d2.inputs)
    assert np.array_equal(d1.targets, d2.targets)
    for a, b in zip(t1.weights, t2.weights):
        assert np.array_equal(a, b)


def test_teacher_rejects_bad_counts():
    with pytest.raises(ValueError):
        make_teacher_student(Architecture((2, 3, 1)), 0, 0)


@pytest.mark.parametrize("margin", [float("nan"), float("inf"), -0.1])
def test_teacher_rejects_bad_margin(monkeypatch, margin):
    def refuse(*args, **kwargs):
        raise AssertionError("inputs were screened")

    monkeypatch.setattr(experiments, "_screened_inputs", refuse)
    with pytest.raises(ValueError, match="margin"):
        make_teacher_student(Architecture((2, 8, 1)), 0, 16, margin=margin)


def _per_row_teacher(arch, seed, m, margin, tries=500, attempts=200):
    """The one-candidate-at-a-time screening loop, kept as an oracle.

    Returns the dataset, the teacher and how many attempts ran out of
    tries on some row; raises ``ValueError`` when no attempt succeeds.
    """
    exhausted = 0
    for attempt in range(attempts):
        teacher = nets.uniform_params(
            arch, SeededRng.of(seed, "teacher", attempt).generator())
        gen = SeededRng.of(seed, "inputs", attempt).generator()
        rows = []
        for _ in range(m):
            for _ in range(tries):
                x = gen.uniform(-1.0, 1.0, size=arch.input_width)
                far = (np.inf if arch.depth == 1 else kink_distance(
                    arch, teacher, Dataset(x[None, :], np.zeros(1))))
                if far > margin:
                    rows.append(x)
                    break
            else:
                break
        if len(rows) < m:
            exhausted += 1
            continue
        inputs = np.stack(rows)
        targets = nets.forward(arch, teacher, inputs)
        if float(np.max(np.abs(targets))) < 1e-6:
            continue
        return Dataset(inputs, targets), teacher, exhausted
    raise ValueError("no usable teacher")


def _assert_same_teacher(got, want):
    (data, teacher), (ref_data, ref_teacher, _) = got, want
    assert data.inputs.tobytes() == ref_data.inputs.tobytes()
    assert data.targets.tobytes() == ref_data.targets.tobytes()
    for a, b in zip(teacher.weights + (teacher.biases or ()),
                    ref_teacher.weights + (ref_teacher.biases or ())):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("widths,bias,seed", [
    ((1, 256, 1), False, 0), ((1, 256, 1), False, 1),
    ((2, 8, 1), False, 2), ((2, 8, 1), True, 3), ((3, 4, 4, 1), False, 4),
    ((10, 192, 1), False, 5), ((3, 1), False, 6),
])
def test_blocked_screening_matches_per_row_loop(widths, bias, seed):
    arch = Architecture(widths, bias)
    want = _per_row_teacher(arch, seed, 64, experiments.KINK_MARGIN)
    _assert_same_teacher(make_teacher_student(arch, seed, 64), want)
    if widths == (1, 256, 1) and seed == 0:
        assert want[2] > 0  # attempts that ran out of their 500 tries


@pytest.mark.parametrize("budget", [1, 40, nets._BLOCK_ELEMENTS])
@pytest.mark.parametrize("widths,bias", [((2, 8, 1), False), ((2, 8, 1), True),
                                         ((3, 4, 4, 1), False)])
def test_blocked_screening_counts_each_rows_tries(monkeypatch, widths, bias,
                                                  budget):
    # a try limit of 3 at margin 0.05 runs some attempts out of tries and
    # lets others through with rows that needed exactly 3 draws
    monkeypatch.setattr(experiments, "_INPUT_TRIES", 3)
    monkeypatch.setattr(nets, "_BLOCK_ELEMENTS", budget)
    arch = Architecture(widths, bias)
    exhausted = 0
    for seed in range(6):
        want = _per_row_teacher(arch, seed, 16, 0.05, tries=3)
        _assert_same_teacher(make_teacher_student(arch, seed, 16, 0.05), want)
        exhausted += want[2]
    assert exhausted > 0


def test_blocked_screening_gives_up_like_per_row_loop(monkeypatch):
    # at margin 0.3 attempts 0-2 of this (2,8,1) seed exhaust their 500
    # tries and attempt 3 succeeds; with two attempts allowed, none does
    arch = Architecture((2, 8, 1))
    want = _per_row_teacher(arch, 0, 8, 0.3)
    assert want[2] == 3
    _assert_same_teacher(make_teacher_student(arch, 0, 8, 0.3), want)
    monkeypatch.setattr(experiments, "_TEACHER_ATTEMPTS", 2)
    with pytest.raises(ValueError):
        _per_row_teacher(arch, 0, 8, 0.3, attempts=2)
    with pytest.raises(ValueError, match="no usable teacher found in 2 attempts"):
        make_teacher_student(arch, 0, 8, 0.3)


# ---------------------------------------------------------------------------
# training


def test_train_config_validation():
    for bad in (-0.1, np.nan, np.inf):
        with pytest.raises(ValueError, match="learning_rate must be finite"):
            TrainConfig(learning_rate=bad, epochs=3)
    with pytest.raises(ValueError, match="epochs"):
        TrainConfig(learning_rate=0.1, epochs=0)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="stop_grad_norm must be finite"):
            TrainConfig(learning_rate=0.1, epochs=3, stop_grad_norm=bad)


def test_train_zero_rate_leaves_parameters():
    arch = Architecture((2, 3, 1))
    data, _ = make_teacher_student(arch, 74, 16)
    cfg = TrainConfig(learning_rate=0.0, epochs=3, seed=74)
    result = train_sgd(arch, data, cfg)
    from flatlab.nets import uniform_params
    init = uniform_params(arch, SeededRng.of(74, "init").generator(), -0.5,
                          0.5)
    for a, b in zip(result.params.weights, init.weights):
        assert np.array_equal(a, b)


def test_train_reaches_low_gradient():
    arch = Architecture((2, 8, 1))
    data, _ = make_teacher_student(Architecture((2, 4, 1)), 75, 24)
    cfg = TrainConfig(learning_rate=0.1, epochs=30000, seed=75,
                      stop_grad_norm=1e-6)
    result = train_sgd(arch, data, cfg)
    # plain full-batch descent stalls near the floor, not at it
    assert result.trace[-1][0] <= 1e-5
    assert result.trace[-1][1] <= 1e-3


def test_train_divergence_raises_with_epoch():
    arch = Architecture((2, 4, 1))
    data, _ = make_teacher_student(arch, 76, 16)
    # a rate of 1e200 overflows the forward pass: the error reports it, and
    # no numpy RuntimeWarning may escape first
    for rate in (50.0, 1e200):
        cfg = TrainConfig(learning_rate=rate, epochs=2000, seed=76)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainingDivergedError) as info:
                train_sgd(arch, data, cfg)
        assert info.value.epoch >= 0
        assert info.value.factor == experiments.DIVERGENCE_FACTOR
        assert f"exceeds {experiments.DIVERGENCE_FACTOR:g} x initial" in str(
            info.value)


def test_train_trace_monotone_near_minimum():
    # from a tiny perturbation of an exact minimum, small steps descend
    arch = Architecture((2, 4, 1))
    data, teacher = make_teacher_student(arch, 77, 24)
    flat = vec(arch, teacher)
    from flatlab.nets import unvec
    start = unvec(arch, flat + 1e-3 * SeededRng(77, 5).generator().normal(
        size=flat.size))
    cfg = TrainConfig(learning_rate=0.01, epochs=200, seed=77)
    result = train_sgd(arch, data, cfg, init=start)
    losses = [step[0] for step in result.trace]
    assert all(b <= a + 1e-15 for a, b in zip(losses, losses[1:]))


# ---------------------------------------------------------------------------
# sweep


def test_alpha_sweep_loss_constant_and_header():
    arch = Architecture((2, 4, 1))
    data, teacher = make_teacher_student(arch, 82, 24)
    cfg = SharpnessConfig(epsilon=1e-2, seed=82)
    csv = alpha_sweep(arch, teacher, data, (1.0, 0.5, 0.25), cfg)
    lines = csv.strip().split("\n")
    assert lines[0] == "alpha," + ",".join(CSV_COLUMNS)
    assert len(lines) == 4
    losses = [float(line.split(",")[1]) for line in lines[1:]]
    assert max(losses) <= 1e-9 * (1.0 + max(losses))


def test_alpha_sweep_gradient_slope_at_generic_point():
    arch = Architecture((2, 4, 1))
    from flatlab.nets import uniform_params
    params = uniform_params(arch, SeededRng(83, 6).generator())
    gen = SeededRng(83, 7).generator()
    data = Dataset(gen.uniform(-1, 1, (16, 2)), gen.uniform(-1, 1, 16))
    alphas = tuple(10.0 ** e for e in np.linspace(-1, -3, 5))
    csv = alpha_sweep(arch, params, data, alphas,
                      SharpnessConfig(epsilon=1e-2, seed=83))
    rows = [line.split(",") for line in csv.strip().split("\n")[1:]]
    grads = np.array([float(r[1 + CSV_COLUMNS.index("grad_norm")])
                      for r in rows])
    slope = np.polyfit(np.log(alphas), np.log(grads), 1)[0]
    assert abs(slope + 1.0) < 0.1


def test_alpha_sweep_rejects_bad_inputs():
    arch = Architecture((2, 4, 1))
    data, teacher = make_teacher_student(arch, 84, 16)
    cfg = SharpnessConfig(epsilon=1e-2, seed=84)
    with pytest.raises(ValueError):
        alpha_sweep(arch, teacher, data, (1.0, -2.0), cfg)
    deep = Architecture((2, 3, 3, 1))
    deep_data, deep_teacher = make_teacher_student(deep, 84, 16)
    with pytest.raises(ValueError):
        alpha_sweep(deep, deep_teacher, deep_data, (1.0,), cfg)


# ---------------------------------------------------------------------------
# one-dimensional demo


def test_demo_identity_curvature_unchanged():
    demo = reparam_demo_1d("quadratic", PowerStretch(0.0, 0.0, 1.0),
                           -2.0, 2.0, 401)
    assert len(demo.minima) == 1
    m = demo.minima[0]
    assert abs(m.eta) < 1e-6
    assert np.isclose(m.predicted_curvature, 2.0)
    assert m.rel_err <= 1e-3


def test_demo_stretch_scales_curvature():
    demo = reparam_demo_1d("double_well", PowerStretch(1.0, 1.0, 0.5),
                           -2.0, 2.0, 801)
    assert len(demo.minima) == 2
    for m in demo.minima:
        assert m.rel_err <= 1e-3
        # curvature prediction is (g')^2 L'' with L'' = 8 at both wells
        from flatlab.transforms import power_stretch_derivative
        expected = 8.0 / power_stretch_derivative(
            m.theta, PowerStretch(1.0, 1.0, 0.5)) ** 2
        assert np.isclose(m.predicted_curvature, expected, rtol=1e-9)
    assert len(demo.noncritical) >= 2
    assert all(c.rel_err <= 1e-3 for c in demo.noncritical)


def test_demo_radial_map_piecewise():
    spec = Radial(np.array([0.9]), delta=1.5, rho=0.6, rhat=0.9)
    demo = reparam_demo_1d("double_well", spec, -2.5, 2.5, 801)
    assert len(demo.minima) == 2
    inner = [m for m in demo.minima if abs(m.theta - 1.0) < 1e-6]
    outer = [m for m in demo.minima if abs(m.theta + 1.0) < 1e-6]
    assert np.isclose(inner[0].predicted_curvature, 8.0 * (0.9 / 0.6) ** 2)
    assert np.isclose(outer[0].predicted_curvature, 8.0)  # identity region


def test_demo_notes_when_no_interior_minimum():
    demo = reparam_demo_1d("quadratic", PowerStretch(0.0, 0.0, 1.0),
                           1.0, 2.0, 51)
    assert demo.minima == ()
    assert any("no interior minima" in note for note in demo.notes)


def test_demo_dict_carries_each_record_field():
    demo = reparam_demo_1d("double_well", PowerStretch(0.2, 1.0, 0.0),
                           -2.0, 2.0)
    payload = demo.to_dict()
    assert list(payload) == ["minima", "noncritical", "notes"]
    assert payload["minima"] and payload["noncritical"]
    for record, entry in zip(demo.minima, payload["minima"]):
        assert list(entry) == [f.name for f in fields(MinimumCurvature)]
        assert list(entry.values()) == list(astuple(record))
    for record, entry in zip(demo.noncritical, payload["noncritical"]):
        assert list(entry) == [f.name for f in fields(NonCriticalCheck)]
        assert list(entry.values()) == list(astuple(record))


def test_demo_curve_csv_shape():
    demo = reparam_demo_1d("quadratic", PowerStretch(0.0, 0.5, 1.0),
                           -1.0, 1.0, 21)
    lines = demo.curve_csv().strip().split("\n")
    assert lines[0] == "eta,loss"
    assert len(lines) == 22


def test_demo_rejects_unknown_loss():
    with pytest.raises(ValueError):
        reparam_demo_1d("septic_well", PowerStretch(0.0, 1.0, 1.0),
                        -1.0, 1.0, 51)


@pytest.mark.parametrize("count", (9, 401, 3001))
@pytest.mark.parametrize("spec", (PowerStretch(0.2, 1.0, 0.5),
                                  PowerStretch(0.2, 1.0, 0.0),
                                  Radial(np.array([0.9]), delta=1.5, rho=0.6,
                                         rhat=0.9)),
                         ids=("stretch", "stretch_joint", "radial"))
def test_demo_inverts_whole_stacks(spec, count, monkeypatch):
    calls = []

    def counted(inverse):
        def wrapper(eta, spec):
            calls.append(np.shape(eta))
            return inverse(eta, spec)
        return wrapper

    for name in ("power_stretch_inverse", "radial_inverse"):
        monkeypatch.setattr(experiments, name,
                            counted(getattr(experiments, name)))
    reparam_demo_1d("double_well", spec, -2.0, 2.0, count)
    assert 1 <= len(calls) <= 4
    assert (count,) in calls or (count, 1) in calls


@pytest.mark.parametrize("command", (
    ["demo-reparam"], ["verify", "--suite", "curvature_congruence"]))
def test_demo_runs_free_of_runtime_warnings(command, tmp_path, cli_env):
    spec = tmp_path / "demo.json"
    spec.write_text(json.dumps({
        "loss": "triple_well",
        "transform": {"kind": "power_stretch", "center": -0.3, "a": 0.7,
                      "b": 0.0},
        "grid": [-1.6, 1.6, 801]}))
    if command == ["demo-reparam"]:
        command = command + ["--spec", str(spec)]
    result = subprocess.run(
        [sys.executable, "-W", "error", "-m", "flatlab", *command],
        capture_output=True, text=True, env=cli_env)
    assert result.returncode == 0, result.stderr


def test_demo_spec_from_dict():
    raw = {"loss": "double_well",
           "transform": {"kind": "power_stretch", "center": 0.0, "a": 1.0,
                         "b": 0.5},
           "grid": [-2.0, 2.0, 401]}
    name, spec, lo, hi, count = demo_spec_from_dict(raw)
    assert name == "double_well"
    assert isinstance(spec, PowerStretch)
    assert (lo, hi, count) == (-2.0, 2.0, 401)
    with pytest.raises(ValueError):
        demo_spec_from_dict({"loss": "double_well", "grid": [0, 1, 9]})
    with pytest.raises(ValueError):
        demo_spec_from_dict({"loss": "double_well",
                             "transform": {"kind": "alpha_scale_two_layer",
                                           "alpha": 2.0},
                             "grid": [0, 1, 9]})
    # a grid count must be integral: no silent truncation, no booleans
    for count in (400.9, True):
        with pytest.raises(ValueError, match="grid count"):
            demo_spec_from_dict(dict(raw, grid=[-2.0, 2.0, count]))
    assert demo_spec_from_dict(dict(raw, grid=[-2.0, 2.0, 401.0]))[4] == 401
    # grid bounds are numbers: no booleans, no numeric strings
    for grid, which in (([False, True, 9], "lo"), ([-2.0, "2", 9], "hi")):
        with pytest.raises(ValueError, match=f"grid {which}"):
            demo_spec_from_dict(dict(raw, grid=grid))
    assert demo_spec_from_dict(dict(raw, grid=[-2, 2, 9]))[2:4] == (-2.0, 2.0)


def test_probe_inputs_deterministic_and_bounded():
    arch = Architecture((3, 4, 1))
    a = probe_inputs(arch, 85)
    b = probe_inputs(arch, 85)
    assert np.array_equal(a, b)
    assert a.shape == (256, 3)
    assert np.max(np.abs(a)) <= 2.0
