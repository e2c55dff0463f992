import json
from dataclasses import fields

import pytest

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


def test_progress_lines_one_per_check():
    lines = []
    report = run_suite("curvature_congruence", seed=3,
                       progress=lines.append)
    assert len(lines) == len(report.checks) == 1
    assert "curvature_congruence" in lines[0]


def test_seed_changes_measured_numbers():
    a = run_suite("gradient_blowup", seed=4)
    b = run_suite("gradient_blowup", seed=5)
    assert a.checks[0].stats["slopes"] != b.checks[0].stats["slopes"]
