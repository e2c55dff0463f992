"""Acceptance gate: every advertised property at its stated scale.

One line per criterion is printed so a log scrape shows the verdicts.
The first nine ride on the named verification checks at seed 7; the
tenth compares whole CLI runs byte for byte.
"""

import subprocess
import sys

import pytest

from flatlab.verify import run_suite

SEED = 7


@pytest.fixture(scope="module")
def suite_report():
    return run_suite("all", SEED, jobs=1)


@pytest.fixture(scope="module")
def verdict(pytestconfig):
    # bypass capture so the verdict lines land in the run log
    capman = pytestconfig.pluginmanager.getplugin("capturemanager")

    def _verdict(number, label, passed):
        line = f"[acceptance {number:02d}] {label}: {'PASS' if passed else 'FAIL'}"
        if capman is not None:
            with capman.global_and_fixture_disabled():
                print(line, flush=True)
        else:
            print(line, flush=True)
        assert passed

    return _verdict


def _outcome(report, name):
    for check in report.checks:
        if check.name == name:
            return check
    raise AssertionError(f"check {name} missing from suite report")


def test_scaling_families_preserve_function(suite_report, verdict):
    check = _outcome(suite_report, "equivalence")
    assert check.stats["triples"] == 1000
    assert check.stats["max_deviation"] <= 1e-9
    verdict(1, "1000 scale-family triples keep outputs within 1e-9",
             check.passed)


def test_derivatives_transform_as_predicted(suite_report, verdict):
    check = _outcome(suite_report, "derivative_laws")
    assert check.stats["points"] == 100
    assert check.stats["max_gradient_error"] <= 1e-8
    assert check.stats["max_hessian_error"] <= 1e-12
    verdict(2, "gradient/Hessian laws hold at 100 smooth points",
             check.passed)


def test_minima_sharpen_past_both_targets(suite_report, verdict):
    check = _outcome(suite_report, "sharpening")
    assert check.stats["targets"] == [1e3, 1e6]
    assert check.stats["min_spectral_margin"] >= 1.0
    assert check.stats["max_probe_deviation"] <= 1e-9
    verdict(3, "spectral norm driven past 1e3 and 1e6 at 20 minima",
             check.passed)


def test_most_directions_explode_in_deep_nets(suite_report, verdict):
    check = _outcome(suite_report, "many_directions")
    assert check.stats["min_count_minus_guarantee"] >= 0
    assert check.stats["max_grad_norm"] <= 1e-6
    verdict(4, "eigenvalue count beats rank minus smallest block",
             check.passed)


def test_volume_bound_grows_box_by_box(suite_report, verdict):
    check = _outcome(suite_report, "volume")
    assert check.stats["boxes"] == 20
    verdict(5, "volume certificates valid, monotone, constant-v case flat",
             check.passed)


def test_ball_sharpness_reaches_zero_layer_level(suite_report, verdict):
    check = _outcome(suite_report, "ball_sharpness")
    assert check.stats["minima"] == 20
    assert check.stats["min_bound_ratio"] >= 0.9 / 0.9  # bound already x0.9
    verdict(6, "ball sharpness reaches 0.9x the zero-layer bound, 20 seeds",
             check.passed)


def test_gradient_norm_slope_is_minus_one(suite_report, verdict):
    check = _outcome(suite_report, "gradient_blowup")
    assert check.stats["max_slope_deviation"] <= 0.05
    verdict(7, "gradient norm vs scale fits log-log slope -1 +/- 0.05",
             check.passed)


def test_radial_map_analytic_properties(suite_report, verdict):
    check = _outcome(suite_report, "radial")
    assert check.stats["points_per_region"] == 500
    assert check.stats["max_round_trip"] <= 1e-10
    assert check.stats["max_jacobian_error"] <= 1e-5
    assert check.stats["outside_identity_exact"] is True
    verdict(8, "radial round-trip/Jacobian/outside-identity at 500 pts",
             check.passed)


def test_curvature_congruence_on_demo_curves(suite_report, verdict):
    check = _outcome(suite_report, "curvature_congruence")
    assert check.stats["max_minimum_error"] <= 1e-3
    assert check.stats["max_noncritical_error"] <= 1e-3
    verdict(9, "1-D curvature matches congruence forms within 1e-3",
             check.passed)


def test_full_suite_runs_are_byte_identical(verdict, cli_env):
    def run(*extra):
        result = subprocess.run(
            [sys.executable, "-m", "flatlab", "verify", "--suite", "all",
             "--seed", str(SEED), *extra],
            capture_output=True, text=True, timeout=600, env=cli_env)
        assert result.returncode == 0, result.stderr
        return result.stdout

    first = run()
    second = run()
    third = run("--jobs", "8")
    passed = first == second == third and len(first) > 0
    verdict(10, "repeated runs and --jobs 8 produce identical bytes",
             passed)
