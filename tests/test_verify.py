import concurrent.futures
import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

from flatlab import verify
from flatlab.cli import main
from flatlab.errors import KinkProximityError
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


can_fork = pytest.mark.skipif(
    not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")),
    reason="no fork: every suite runs in this process")


def _usable_cpus(monkeypatch, count: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


@pytest.fixture
def pools(monkeypatch):
    """The ``max_workers`` of every real process pool ``run_suite``
    builds; each must fork its workers."""
    built = []

    class Counted(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, mp_context=None):
            assert mp_context.get_start_method() == "fork"
            built.append(max_workers)
            super().__init__(max_workers, mp_context)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Counted)
    return built


class _Started(Exception):
    pass


@pytest.fixture
def executors(monkeypatch):
    """The ``max_workers`` of every pool ``run_suite`` asks for; the stand-in
    raises :class:`_Started` instead of starting a process."""
    asked = []

    class Recorder:
        def __init__(self, max_workers=None, mp_context=None):
            asked.append(max_workers)
            raise _Started

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
    return asked


def _stub_checks(monkeypatch) -> list:
    """Replace every check with a cheap one; returns the (name, seed, pid)
    of each call made in this process."""
    calls = []

    def stub(name):
        def check(seed):
            calls.append((name, seed, os.getpid()))
            return (np.array([(seed,)], [("seed", np.float64)]),
                    {"seed": seed}, [("seed", "seed", "min", ">=", 0)])
        return check

    for name in CHECK_ORDER:
        monkeypatch.setitem(verify.CHECKS, name, stub(name))
    return calls


@can_fork
@pytest.mark.parametrize("seed", (0, 1))
def test_suite_deterministic_across_jobs(seed, pools, monkeypatch):
    # with two usable CPUs, jobs=2 measures the checks in two forked
    # workers; the report and the progress lines keep every byte, and no
    # worker outlives the call
    _usable_cpus(monkeypatch, 2)
    reports, lines = {}, {1: [], 2: []}
    for jobs in (1, 2):
        reports[jobs] = to_json(run_suite(
            "all", seed, jobs=jobs, progress=lines[jobs].append).to_dict())
        assert multiprocessing.active_children() == []
    assert pools == [2]
    assert reports[2] == reports[1]
    assert lines[2] == lines[1]
    assert [line.split(":")[0] for line in lines[1]] == [
        f"check {name}" for name in CHECK_ORDER]


@can_fork
def test_workers_never_exceed_the_checks_or_the_usable_cpus(executors,
                                                            monkeypatch):
    cpus = len(os.sched_getaffinity(0))
    for usable, jobs, workers in ((cpus, 10**6, min(len(CHECK_ORDER), cpus)),
                                  (64, 10**6, len(CHECK_ORDER)),
                                  (3, 10**6, 3), (64, 2, 2)):
        if workers == 1:  # a one-CPU host: no pool at all
            continue
        _usable_cpus(monkeypatch, usable)
        with pytest.raises(_Started):
            run_suite("all", 0, jobs=jobs)
        assert executors.pop() == workers
    assert executors == []


@pytest.mark.parametrize("case", ("one_cpu", "jobs_1", "one_check",
                                  "no_affinity"))
def test_one_worker_runs_in_this_process(case, executors, monkeypatch):
    calls = _stub_checks(monkeypatch)
    _usable_cpus(monkeypatch, 1 if case == "one_cpu" else 64)
    if case == "no_affinity":  # macOS and Windows
        monkeypatch.delattr(os, "sched_getaffinity")
    suite = "radial" if case == "one_check" else "all"
    report = run_suite(suite, 5, jobs=1 if case == "jobs_1" else 8)
    assert report.passed
    assert executors == []
    assert calls == [(name, 5, os.getpid()) for name in SUITES[suite]]


@can_fork
@pytest.mark.parametrize("error", (
    RuntimeError("no smooth point found for unit 7"),
    KinkProximityError(1e-18, 2.5e-16, 3, 1, 2)))
def test_a_check_that_raises_in_a_worker_raises_here(error, pools,
                                                     monkeypatch):
    _stub_checks(monkeypatch)
    _usable_cpus(monkeypatch, 2)

    def fail(seed):
        raise error

    monkeypatch.setitem(verify.CHECKS, "sharpening", fail)
    with pytest.raises(type(error)) as raised:
        run_suite("all", 0, jobs=2)
    assert pools == [2]
    assert type(raised.value) is type(error)
    assert str(raised.value) == str(error)
    assert vars(raised.value) == vars(error)
    assert multiprocessing.active_children() == []


def test_import_flatlab_leaves_multiprocessing_unloaded(cli_env):
    # run_suite imports it only when it starts workers
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, flatlab; print('multiprocessing' in sys.modules)"],
        env=cli_env, capture_output=True, text=True, timeout=120, check=True)
    assert proc.stdout == "False\n"


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


# rows of each check's unit table
UNIT_ROWS = {
    "equivalence": verify._EQUIVALENCE_TRIPLES,
    "derivative_laws": verify._DERIVATIVE_POINTS,
    "sharpening": len(verify._SHARPEN_ARCHS) * len(verify._SHARPEN_TARGETS),
    "many_directions": len(verify._MANY_UNITS),
    "volume": len(verify._VOLUME_UNITS),
    "ball_sharpness": verify._BALL_UNITS,
    "gradient_blowup": verify._SLOPE_UNITS,
    "radial": 3,  # the inner, middle and outer bands
    "curvature_congruence": len(verify._CONGRUENCE_UNITS),
}


@pytest.mark.parametrize("name", CHECK_ORDER)
def test_check_reports_the_reductions_of_its_units(name, monkeypatch):
    seen = _recording(monkeypatch, name)
    stats = run_suite(name, 3).checks[0].stats
    (units, _, limits), = seen
    assert units.shape == (UNIT_ROWS[name],)
    assert units.dtype.names
    assert all(units.dtype[field] == np.float64
               for field in units.dtype.names)
    for stat, column, reduction, _, _ in limits:
        assert column in units.dtype.names
        assert reduction in ("max", "min", "sum")
        assert stats[stat] == verify._finite(
            getattr(np, reduction)(units[column]))
    if name == "sharpening":
        assert all(math.frexp(alpha)[0] == 0.5 for alpha in units["alpha"])


def test_sharpening_passes_at_forty_seeds():
    # alpha is chosen by a block bound, not by the eigensolve the check
    # measures with; the verdict must still hold seed after seed
    failing = {}
    for seed in range(40):
        check = run_suite("sharpening", seed).checks[0]
        if not check.passed:
            failing[seed] = check.detail
    assert failing == {}


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



# every limit of every check: its stat, relation and the named bound it reads
LIMITS = (
    ("equivalence", "max_deviation", "<=", "_EQUIVALENCE_TOL"),
    ("derivative_laws", "max_gradient_error", "<=", "_GRAD_LAW_TOL"),
    ("derivative_laws", "max_hessian_error", "<=", "_HESS_LAW_TOL"),
    ("sharpening", "min_spectral_margin", ">=", "_SHARPEN_MIN_MARGIN"),
    ("sharpening", "max_probe_deviation", "<=", "_EQUIVALENCE_TOL"),
    ("many_directions", "min_top_eigenvalue", ">",
     "_MANY_MIN_TOP_EIGENVALUE"),
    ("many_directions", "min_count_minus_guarantee", ">=",
     "_MANY_MIN_SURPLUS"),
    ("many_directions", "max_grad_norm", "<=", "_MANY_GRAD_TOL"),
    ("volume", "uncertified_units", "<=", "_VOLUME_MAX_UNCERTIFIED"),
    ("volume", "min_box_increment", ">", "_VOLUME_MIN_INCREMENT"),
    ("volume", "max_constant_deviation", "<=", "_VOLUME_CONSTANT_TOL"),
    ("ball_sharpness", "min_bound_ratio", ">=", "_BALL_MIN_BOUND_RATIO"),
    ("ball_sharpness", "min_rise", ">=", "_BALL_MIN_RISE"),
    ("ball_sharpness", "max_probe_deviation", "<=", "_EQUIVALENCE_TOL"),
    ("gradient_blowup", "max_slope_deviation", "<=", "_SLOPE_TOL"),
    ("radial", "max_round_trip", "<=", "_RADIAL_ROUND_TRIP_TOL"),
    ("radial", "max_jacobian_error", "<=", "_RADIAL_JACOBIAN_TOL"),
    ("radial", "outside_points_moved", "<=", "_RADIAL_MAX_OUTSIDE_MOVED"),
    ("curvature_congruence", "max_minima_miscount", "<=",
     "_CONGRUENCE_MAX_MISCOUNT"),
    ("curvature_congruence", "min_noncritical_points", ">=",
     "_CONGRUENCE_MIN_NONCRITICAL"),
    ("curvature_congruence", "max_curvature_error", "<=", "_CONGRUENCE_TOL"),
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


@pytest.mark.parametrize("check,stat,relation,constant", LIMITS,
                         ids=[f"{c}:{b}" for c, _, _, b in LIMITS])
def test_one_failing_limit_fails_its_check(monkeypatch, check, stat,
                                           relation, constant):
    seen = _recording(monkeypatch, check)
    bound = UNREACHABLE[relation]
    monkeypatch.setattr(verify, constant, bound)
    outcome = run_suite(check, seed=1).checks[0]
    (units, _, limits), = seen
    assert [(st, rel) for st, _, _, rel, _ in limits] == [
        (st, rel) for c, st, rel, _ in LIMITS if c == check]
    (measured, patched), = [(getattr(np, red)(units[col]), b)
                            for st, col, red, _, b in limits if st == stat]
    assert patched == bound and np.isfinite(measured)
    assert outcome.passed is False
    # only this limit fails, and the detail names its value and bound
    assert outcome.detail == (
        f"{stat} {measured} not {relation} {bound}")
    # the report carries the value, and the infinite bound as None
    assert outcome.stats[stat] == measured
    assert (stat, relation, None) in outcome.limits


def test_every_limit_is_reported_under_its_stat(monkeypatch):
    seen = {name: _recording(monkeypatch, name) for name in CHECK_ORDER}
    report = run_suite("all", seed=1)
    assert report.passed
    for outcome in report.checks:
        (units, facts, limits), = seen[outcome.name]
        stats = [stat for stat, *_ in limits]
        # a fact under a stat's key would be overwritten without a word
        assert not set(facts) & set(stats)
        assert list(outcome.stats) == list(facts) + stats
        assert all(outcome.stats[key] == value
                   for key, value in facts.items())
        assert [outcome.stats[stat] for stat in stats] == [
            verify._finite(getattr(np, reduction)(units[column]))
            for _, column, reduction, _, _ in limits]
        assert outcome.limits == tuple(
            (stat, relation, verify._finite(bound))
            for stat, _, _, relation, bound in limits)


@pytest.mark.parametrize("relation", sorted(UNREACHABLE))
def test_nan_measurement_fails_under_each_relation(monkeypatch, relation):
    monkeypatch.setitem(CHECKS, "radial", lambda seed: (
        np.array([(0.0,), (np.nan,)], [("probe", np.float64)]), {},
        [("probe", "probe", "max", relation, 0.0)]))
    outcome = run_suite("radial", seed=0).checks[0]
    assert outcome.passed is False
    assert outcome.detail == f"probe nan not {relation} 0.0"
    assert outcome.stats == {"probe": None}


def test_cli_prints_failing_detail_and_exits_two(monkeypatch, capsys):
    monkeypatch.setattr(verify, "_RADIAL_JACOBIAN_TOL", -np.inf)
    assert main(["verify", "--suite", "radial", "--seed", "1"]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(r"check radial: FAIL \(max_jacobian_error "
                        r"\S+ not <= -inf\)\n", err)
