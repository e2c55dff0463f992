import json
import re
from dataclasses import fields

import numpy as np
import pytest

from flatlab import verify
from flatlab.cli import main
from flatlab.nets import vec
from flatlab.serialize import to_json
from flatlab.verify import (CHECK_ORDER, CHECKS, SUITES, CheckOutcome,
                            run_suite)


def test_suite_names_cover_checks():
    assert set(SUITES["all"]) == set(CHECKS)
    for name in CHECK_ORDER:
        assert SUITES[name] == (name,)


def test_unknown_suite_rejected():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("everything", 0)
    with pytest.raises(ValueError):
        run_suite("all", 0, jobs=0)


def test_run_seeds_whose_unit_seeds_leave_int64_are_refused():
    # unit seeds run from seed * 10**6 + 10**4 to seed * 10**6 + 99_999
    top = (2**63 - 1 - 99_999) // 10**6
    bottom = -((2**63 - 10**4) // 10**6)
    for seed in (bottom, top):
        assert run_suite("radial", seed).passed
    for seed in (bottom - 1, top + 1, 2**64 + 5):
        with pytest.raises(ValueError, match=f"run seed {seed} gives unit"):
            run_suite("curvature_congruence", seed)


def test_single_suite_runs_and_serializes():
    report = run_suite("radial", seed=1)
    assert report.suite == "radial"
    assert len(report.checks) == 1
    assert report.checks[0].name == "radial"
    assert report.checks[0].passed
    payload = json.loads(to_json(report.to_dict()))
    assert list(payload) == ["suite", "seed", "passed", "checks"]
    assert list(payload["checks"][0]) == [f.name for f in fields(CheckOutcome)]
    assert payload["passed"] is True
    assert payload["checks"][0]["stats"]["points_per_region"] == 500


def test_suite_deterministic_across_jobs():
    a = run_suite("equivalence", seed=2, jobs=1)
    b = run_suite("equivalence", seed=2, jobs=4)
    assert to_json(a.to_dict()) == to_json(b.to_dict())


@pytest.mark.parametrize("seed", (0, 1, 2))
def test_no_equivalence_unit_compares_a_point_with_itself(seed, monkeypatch):
    # a unit whose transform returned its input bit for bit would measure
    # a deviation of exactly 0.0 and test nothing
    pairs = []
    compare = verify.forward_deviation

    def spy(arch, before, after, probes):
        pairs.append((vec(arch, before).tobytes(), vec(arch, after).tobytes()))
        return compare(arch, before, after, probes)

    monkeypatch.setattr(verify, "forward_deviation", spy)
    assert run_suite("equivalence", seed).passed
    assert len(pairs) == verify._EQUIVALENCE_TRIPLES
    assert [i for i, (before, after) in enumerate(pairs)
            if before == after] == []


def test_equivalence_units_cycle_the_three_families(monkeypatch):
    # unit i draws from family i % 3: the two-layer scale, then the deep
    # scale without and with biases
    archs = []
    compare = verify.forward_deviation

    def spy(arch, before, after, probes):
        archs.append(arch)
        return compare(arch, before, after, probes)

    monkeypatch.setattr(verify, "forward_deviation", spy)
    assert run_suite("equivalence", 0).passed
    assert len(archs) == verify._EQUIVALENCE_TRIPLES
    assert [i for i, arch in enumerate(archs)
            if arch.use_bias != (i % 3 == 2)] == []
    assert {archs[i].depth for i in range(0, len(archs), 3)} == {2}
    assert {arch.depth for arch in archs[1::3]} == {2, 3, 4}


def test_progress_lines_one_per_check():
    lines = []
    report = run_suite("curvature_congruence", seed=3,
                       progress=lines.append)
    assert len(lines) == len(report.checks) == 1
    assert "curvature_congruence" in lines[0]


def test_ball_sharpness_ascends_both_centers_at_once(monkeypatch):
    # one ascent an architecture, from every unit's teacher and rescaled
    # point together: 3 ascents of at most 1 + 1 + 100 stacked steps, where
    # one ascent a unit would take 20, and 7 units of 2 centers of 10 starts
    # in the largest stack
    from flatlab import nets
    calls = []
    loss_grad = nets.Objective.loss_grad

    def counted(self, flat, which=None):
        calls.append(np.shape(flat))
        return loss_grad(self, flat, which)

    monkeypatch.setattr(nets.Objective, "loss_grad", counted)
    verify._check_ball_sharpness(1)
    assert len(calls) <= len(verify._BALL_ARCHS) * 102
    assert max(shape[0] for shape in calls) == 140


def test_seed_changes_measured_numbers():
    a = run_suite("gradient_blowup", seed=4)
    b = run_suite("gradient_blowup", seed=5)
    assert a.checks[0].stats["slopes"] != b.checks[0].stats["slopes"]



# every limit of every check: its label, relation and the named bound it reads
LIMITS = (
    ("equivalence", "max forward deviation", "<=", "_EQUIVALENCE_TOL"),
    ("derivative_laws", "max gradient law error", "<=", "_GRAD_LAW_TOL"),
    ("derivative_laws", "max curvature law error", "<=", "_HESS_LAW_TOL"),
    ("sharpening", "min spectral norm over target", ">=",
     "_SHARPEN_MIN_MARGIN"),
    ("sharpening", "max probe deviation", "<=", "_EQUIVALENCE_TOL"),
    ("many_directions", "min top eigenvalue", ">",
     "_MANY_MIN_TOP_EIGENVALUE"),
    ("many_directions", "min directions above target minus guarantee", ">=",
     "_MANY_MIN_SURPLUS"),
    ("many_directions", "max gradient norm", "<=", "_MANY_GRAD_TOL"),
    ("volume", "uncertified units", "<=", "_VOLUME_MAX_UNCERTIFIED"),
    ("volume", "min box increment", ">", "_VOLUME_MIN_INCREMENT"),
    ("volume", "max constant-volume deviation", "<=", "_VOLUME_CONSTANT_TOL"),
    ("ball_sharpness", "min sharpness over bound", ">=",
     "_BALL_MIN_BOUND_RATIO"),
    ("ball_sharpness", "min sharpness after over before", ">=",
     "_BALL_MIN_RISE"),
    ("ball_sharpness", "max probe deviation", "<=", "_EQUIVALENCE_TOL"),
    ("gradient_blowup", "max slope deviation from -1", "<=", "_SLOPE_TOL"),
    ("radial", "max round trip", "<=", "_RADIAL_ROUND_TRIP_TOL"),
    ("radial", "max Jacobian error", "<=", "_RADIAL_JACOBIAN_TOL"),
    ("radial", "outside points moved", "<=", "_RADIAL_MAX_OUTSIDE_MOVED"),
    ("curvature_congruence", "max minima miscount", "<=",
     "_CONGRUENCE_MAX_MISCOUNT"),
    ("curvature_congruence", "min noncritical points", ">=",
     "_CONGRUENCE_MIN_NONCRITICAL"),
    ("curvature_congruence", "max curvature error", "<=", "_CONGRUENCE_TOL"),
)

# a bound that no finite measurement meets under the relation
UNREACHABLE = {"<=": -np.inf, ">=": np.inf, ">": np.inf}


def _recording(monkeypatch, name):
    """Wrap one check so the test sees the limits it hands the suite."""
    seen = []
    original = CHECKS[name]

    def check(seed):
        seen.append(original(seed))
        return seen[-1]

    monkeypatch.setitem(CHECKS, name, check)
    return seen


def test_limit_table_names_every_check():
    assert {check for check, *_ in LIMITS} == set(CHECKS)


@pytest.mark.parametrize("check,label,relation,constant", LIMITS,
                         ids=[f"{c}:{b}" for c, _, _, b in LIMITS])
def test_one_failing_limit_fails_its_check(monkeypatch, check, label,
                                           relation, constant):
    seen = _recording(monkeypatch, check)
    bound = UNREACHABLE[relation]
    monkeypatch.setattr(verify, constant, bound)
    outcome = run_suite(check, seed=1).checks[0]
    (_, limits), = seen
    assert [(lab, rel) for lab, _, rel, _ in limits] == [
        (lab, rel) for c, lab, rel, _ in LIMITS if c == check]
    (measured, patched), = [(value, b) for lab, value, _, b in limits
                            if lab == label]
    assert patched == bound and np.isfinite(measured)
    assert outcome.passed is False
    # only this limit fails, and the detail names its value and bound
    assert outcome.detail == (
        f"{label} {measured} not {relation} {bound}")


@pytest.mark.parametrize("relation", sorted(UNREACHABLE))
def test_nan_measurement_fails_under_each_relation(monkeypatch, relation):
    monkeypatch.setitem(CHECKS, "radial", lambda seed: (
        {}, [("probe", np.nan, relation, 0.0)]))
    outcome = run_suite("radial", seed=0).checks[0]
    assert outcome.passed is False
    assert outcome.detail == f"probe nan not {relation} 0.0"


def test_cli_prints_failing_detail_and_exits_two(monkeypatch, capsys):
    monkeypatch.setattr(verify, "_RADIAL_JACOBIAN_TOL", -np.inf)
    assert main(["verify", "--suite", "radial", "--seed", "1"]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(r"check radial: FAIL \(max Jacobian error "
                        r"\S+ not <= -inf\)\n", err)
