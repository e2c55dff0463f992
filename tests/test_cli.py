import json
import subprocess
import sys
import warnings

import pytest

from flatlab import cli
from flatlab.cli import main
from flatlab.errors import KinkProximityError, TrainingDivergedError
from flatlab.nets import load_checkpoint


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_train_teacher_writes_checkpoint(tmp_path, capsys):
    out = tmp_path / "m.json"
    code, _, err = run_cli(capsys, "train", "--arch", "2,8,1", "--teacher",
                           "--m", "64", "--seed", "3", "--out", str(out))
    assert code == 0
    assert out.exists()
    arch, params = load_checkpoint(str(out))
    assert arch.layer_widths == (2, 8, 1)
    assert "teacher" in err


def test_train_to_stdout(capsys):
    code, out, _ = run_cli(capsys, "train", "--arch", "2,3,1", "--teacher",
                           "--m", "8", "--seed", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["layer_widths"] == [2, 3, 1]


def test_transform_then_metrics_losses_agree(tmp_path, capsys):
    ckpt = tmp_path / "m.json"
    moved = tmp_path / "m2.json"
    spec = tmp_path / "t.json"
    spec.write_text('{"kind": "alpha_scale_two_layer", "alpha": 0.5}\n')
    assert run_cli(capsys, "train", "--arch", "2,6,1", "--teacher", "--m",
                   "32", "--seed", "4", "--out", str(ckpt))[0] == 0
    assert run_cli(capsys, "transform", "--checkpoint", str(ckpt), "--spec",
                   str(spec), "--out", str(moved))[0] == 0
    code1, out1, _ = run_cli(capsys, "metrics", "--checkpoint", str(ckpt),
                             "--m", "32", "--seed", "4")
    code2, out2, _ = run_cli(capsys, "metrics", "--checkpoint", str(moved),
                             "--m", "32", "--seed", "4")
    assert code1 == 0 and code2 == 0
    r1, r2 = json.loads(out1), json.loads(out2)
    assert abs(r1["loss"] - r2["loss"]) <= 1e-9 * (1.0 + abs(r1["loss"]))


def test_metrics_repeated_byte_identical(tmp_path, capsys):
    ckpt = tmp_path / "m.json"
    run_cli(capsys, "train", "--arch", "2,4,1", "--teacher", "--m", "16",
            "--seed", "5", "--out", str(ckpt))
    _, out1, _ = run_cli(capsys, "metrics", "--checkpoint", str(ckpt),
                         "--m", "16", "--seed", "5")
    _, out2, _ = run_cli(capsys, "metrics", "--checkpoint", str(ckpt),
                         "--m", "16", "--seed", "5")
    assert out1 == out2


def test_metrics_keeps_curvature_of_deep_teacher(tmp_path, capsys):
    # the teacher's inputs clear kinks by 0.01, well outside rounding
    ckpt = tmp_path / "m.json"
    assert run_cli(capsys, "train", "--teacher", "--arch", "5,16,16,1",
                   "--out", str(ckpt))[0] == 0
    code, out, err = run_cli(capsys, "metrics", "--checkpoint", str(ckpt))
    assert code == 0
    report = json.loads(out)
    assert report["spec_norm"] is not None and report["spec_norm"] > 0.0
    assert not any("kink proximity" in skip["reason"]
                   for skip in report["skipped"])
    assert "kink proximity" not in err


def test_sweep_csv_header(tmp_path, capsys):
    ckpt = tmp_path / "m.json"
    run_cli(capsys, "train", "--arch", "2,4,1", "--teacher", "--m", "16",
            "--seed", "6", "--out", str(ckpt))
    code, out, _ = run_cli(capsys, "sweep", "--checkpoint", str(ckpt),
                           "--alpha", "1,0.5", "--m", "16", "--seed", "6")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == ("alpha,loss,grad_norm,kink_dist,spec_norm,trace,"
                        "eps_sharp,sharp_2nd,vol_lb")
    assert len(lines) == 3


def test_verify_single_suite_exit_zero(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, _, err = run_cli(capsys, "verify", "--suite", "radial", "--seed",
                           "1", "--out", str(out))
    assert code == 0
    assert "check radial: pass" in err
    payload = json.loads(out.read_text())
    assert payload["passed"] is True


def test_demo_reparam_outputs(tmp_path, capsys):
    spec = tmp_path / "demo.json"
    spec.write_text(json.dumps({
        "loss": "double_well",
        "transform": {"kind": "power_stretch", "center": 0.2, "a": 1.0,
                      "b": 0.5},
        "grid": [-2.0, 2.0, 401],
    }))
    curve = tmp_path / "curve.csv"
    code, out, _ = run_cli(capsys, "demo-reparam", "--spec", str(spec),
                           "--out", str(curve))
    assert code == 0
    payload = json.loads(out)
    assert len(payload["curve"]["eta"]) == 401
    assert len(payload["minima"]) == 2
    assert all(m["rel_err"] <= 1e-3 for m in payload["minima"])
    assert curve.read_text().startswith("eta,loss\n")


def test_invalid_inputs_exit_one(tmp_path, capsys):
    assert run_cli(capsys, "metrics", "--checkpoint",
                   str(tmp_path / "nope.json"))[0] == 1
    assert run_cli(capsys, "train", "--arch", "2,8")[0] == 1
    assert run_cli(capsys, "train", "--arch", "banana")[0] == 1
    assert run_cli(capsys, "verify", "--suite", "nope")[0] == 1
    assert run_cli(capsys, "wat")[0] == 1
    assert run_cli(capsys)[0] == 1
    # rejected when the arguments are parsed, naming the flag, before the
    # (valid) checkpoint is read
    ckpt = tmp_path / "m.json"
    run_cli(capsys, "train", "--arch", "2,3,1", "--teacher", "--m", "8",
            "--seed", "1", "--out", str(ckpt))
    read = ("--checkpoint", str(ckpt), "--m", "8", "--seed", "1")
    for argv, flag in ((("metrics", *read, "--jobs", "-3"), "--jobs"),
                       (("sweep", *read, "--alpha", "1", "--jobs", "0"), "--jobs"),
                       (("verify", "--suite", "radial", "--jobs", "0"), "--jobs"),
                       (("metrics", *read, "--eps", "inf"), "--eps"),
                       (("metrics", *read, "--thresholds", "nan"), "--thresholds"),
                       (("metrics", *read, "--thresholds", "1,inf"), "--thresholds"),
                       (("sweep", *read, "--alpha", "1,inf"), "--alpha"),
                       (("sweep", *read, "--alpha", "1", "--eps", "-inf"), "--eps")):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert f"argument {flag}: expected" in err
    # a finite epsilon whose square overflows stops at the curvature proxy,
    # before the ascent; one whose ball overflows the loss stops when every
    # random restart of the ascent is discarded; no numpy RuntimeWarning
    # escapes first
    wide = tmp_path / "wide.json"
    run_cli(capsys, "train", "--arch", "2,8,1", "--teacher", "--m", "48",
            "--seed", "1", "--out", str(wide))
    for eps in ("1e300", "1e150"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, "metrics", "--checkpoint",
                                     str(wide), "--m", "48", "--seed", "1",
                                     "--eps", eps)
        assert (code, out) == (1, "")
        assert "epsilon" in err and "RuntimeWarning" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "random restarts" in err


def test_seeds_that_would_wrap_exit_one(tmp_path, capsys):
    # 2**64 + 5 is seed 5 modulo 2**64: refused, never run as seed 5
    ckpt = tmp_path / "m.json"
    run_cli(capsys, "train", "--arch", "2,3,1", "--teacher", "--m", "8",
            "--seed", "1", "--out", str(ckpt))
    seed = ("--seed", str(2**64 + 5))
    read = ("--checkpoint", str(ckpt), "--m", "8", *seed)
    for argv in (("train", "--arch", "2,3,1", "--teacher", "--m", "8", *seed),
                 ("train", "--arch", "2,3,1", "--m", "8", *seed),
                 ("metrics", *read), ("sweep", *read, "--alpha", "1"),
                 ("verify", "--suite", "radial", *seed)):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert str(2**64 + 5) in err and "outside int64" in err


def test_error_messages_name_the_problem(tmp_path, capsys):
    code, _, err = run_cli(capsys, "metrics", "--checkpoint",
                           str(tmp_path / "missing.json"))
    assert code == 1
    assert "missing.json" in err


def test_module_entry_point_runs(cli_env):
    result = subprocess.run(
        [sys.executable, "-m", "flatlab", "train", "--arch", "2,3,1",
         "--teacher", "--m", "8", "--seed", "1"],
        capture_output=True, text=True, env=cli_env)
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["layer_widths"] == [2, 3, 1]


def test_transform_bad_spec_exit_one(tmp_path, capsys, cli_env):
    ckpt = tmp_path / "m.json"
    run_cli(capsys, "train", "--arch", "2,3,1", "--teacher", "--m", "8",
            "--seed", "2", "--out", str(ckpt))
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "mystery"}\n')
    code, _, err = run_cli(capsys, "transform", "--checkpoint", str(ckpt),
                           "--spec", str(bad))
    assert code == 1
    assert "mystery" in err
    # a list or object kind once escaped as a TypeError traceback; the
    # weight-norm kind, which moved no point, is gone
    grid = [-2.0, 2.0, 11]
    for kind in (["x"], {"a": 1}, "weight_norm"):
        transform = {"kind": kind, "layer": 0, "alpha": 2.0}
        for argv, payload in (
                (("transform", "--checkpoint", str(ckpt)), transform),
                (("demo-reparam",), {"loss": "double_well",
                                     "transform": transform, "grid": grid})):
            bad.write_text(json.dumps(payload))
            code, out, err = run_cli(capsys, *argv, "--spec", str(bad))
            assert (code, out) == (1, "")
            assert err == (f"flatlab {argv[0]}: unknown transform kind "
                           f"{kind!r}\n")
    # the same refusal from a fresh interpreter: one line, no traceback
    bad.write_text('{"kind": ["x"]}')
    result = subprocess.run(
        [sys.executable, "-m", "flatlab", "transform", "--checkpoint",
         str(ckpt), "--spec", str(bad)],
        capture_output=True, text=True, env=cli_env)
    assert (result.returncode, result.stdout) == (1, "")
    assert result.stderr == ("flatlab transform: unknown transform kind "
                             "['x']\n")


def test_metrics_reports_a_volume_bound_that_overflows_as_skipped(tmp_path,
                                                                  capsys):
    # a (2,32,1) certificate's bound leaves the float range: the command
    # still writes the report, without a volume, and says why
    ckpt = tmp_path / "m.json"
    assert run_cli(capsys, "train", "--arch", "2,32,1", "--teacher", "--m",
                   "64", "--seed", "0", "--out", str(ckpt))[0] == 0
    code, out, err = run_cli(capsys, "metrics", "--checkpoint", str(ckpt),
                             "--m", "64", "--seed", "0")
    assert code == 0
    assert json.loads(out)["volume"] is None
    assert "skipped volume: the volume bound leaves the float range" in err



@pytest.mark.parametrize("error", (
    KinkProximityError(1e-18, 2.5e-16, 3, 1, 2),
    TrainingDivergedError(4, 1e9, 1.0, 1e3)))
def test_library_errors_exit_one_with_their_message(error, capsys,
                                                    monkeypatch):
    # both are RuntimeErrors, which main reports as a failed command
    def fail(args):
        raise error

    monkeypatch.setitem(cli._HANDLERS, "verify", fail)
    code, _, err = run_cli(capsys, "verify", "--suite", "radial")
    assert code == 1
    assert err == f"flatlab verify: {error}\n"
