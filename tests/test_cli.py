import argparse
import dataclasses
import hashlib
import importlib
import os
import re
import shutil
import struct
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import smrd
from smrd import cli, config, priors
from smrd.cli import EXIT_CONFIG, EXIT_IO, EXIT_NUMERIC, EXIT_OK, _resolve_config, build_parser, main
from smrd.config import (
    FIELD_TYPES,
    MASK_KINDS,
    PRIORS,
    ExperimentConfig,
    build_forward_model,
    build_phantom,
)
from smrd.forward import apply_adjoint, apply_forward
from smrd.metrics import psnr
from smrd.sampler import METHODS
from smrd.sure import freeze_step, stop_window
from smrd.tensorfile import load_tensor, save_tensor
from tests.test_tensorfile import MALFORMED

FAST = [
    "--size", "32", "--coils", "2", "--steps", "30", "--accel", "4", "--seed", "5",
]


def run_cli(*args):
    return main([str(a) for a in args])


def read_keyvals(path):
    out = {}
    for line in Path(path).read_text().splitlines():
        key, value = line.split(" = ", 1)
        out[key] = value
    return out


def file_hashes(root):
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(Path(root).iterdir())
        if p.is_file()
    }


def test_simulate_outputs_and_noiseless_kspace(tmp_path):
    out = tmp_path / "sim"
    assert run_cli("simulate", *FAST, "--sigma", "0", "--out", out) == EXIT_OK
    for name in ("truth.smrd", "coils.smrd", "mask.smrd", "kspace.smrd", "manifest.txt"):
        assert (out / name).exists()
    manifest = read_keyvals(out / "manifest.txt")
    assert manifest["noise_std"] == "0.0"
    assert 3.6 <= float(manifest["realized_accel"]) <= 4.4
    # noiseless k-space is exactly the forward model output
    cfg = ExperimentConfig(size=32, coils=2, steps=30, accel=4.0, seed=5, sigma=0.0)
    truth = build_phantom(cfg)
    fm = build_forward_model(cfg)
    assert np.array_equal(load_tensor(out / "kspace.smrd"), apply_forward(fm, truth))


def test_simulate_reruns_identical(tmp_path):
    out = tmp_path / "sim"
    run_cli("simulate", *FAST, "--sigma", "0.01", "--out", out)
    first = file_hashes(out)
    run_cli("simulate", *FAST, "--sigma", "0.01", "--out", out)
    assert file_hashes(out) == first


def test_recon_zero_filled_matches_external_metric(tmp_path):
    out = tmp_path / "sim"
    run_cli("simulate", *FAST, "--sigma", "0.01", "--out", out)
    assert run_cli("recon", *FAST, "--sigma", "0.01", "--method", "zero_filled",
                   "--out", out) == EXIT_OK
    metrics = read_keyvals(out / "metrics_zero_filled.txt")
    truth = load_tensor(out / "truth.smrd")
    zf = apply_adjoint(
        build_forward_model(
            ExperimentConfig(size=32, coils=2, steps=30, accel=4.0, seed=5)
        ),
        load_tensor(out / "kspace.smrd"),
    )
    assert float(metrics["psnr"]) == pytest.approx(psnr(truth, zf), rel=1e-12)
    assert metrics["t_es"] == "0"


def test_recon_smrd_trace_shape(tmp_path):
    out = tmp_path / "sim"
    run_cli("simulate", *FAST, "--sigma", "0.02", "--out", out)
    assert run_cli("recon", *FAST, "--sigma", "0.02", "--method", "smrd",
                   "--out", out) == EXIT_OK
    lines = (out / "trace_smrd.csv").read_text().splitlines()
    assert lines[0] == "t,sure,lambda,mse,psnr"
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[0]) for r in rows] == list(range(len(rows)))
    # lambda constant from the freeze step on
    lams = [float(r[2]) for r in rows]
    assert len(set(lams[freeze_step(30):])) == 1


def test_recon_missing_inputs_is_io_error(tmp_path):
    assert run_cli("recon", *FAST, "--out", tmp_path / "empty") == EXIT_IO


def test_recon_deterministic_metrics(tmp_path):
    out = tmp_path / "sim"
    run_cli("simulate", *FAST, "--sigma", "0.01", "--out", out)
    run_cli("recon", *FAST, "--sigma", "0.01", "--method", "am_fixed", "--out", out)
    first = (out / "metrics_am_fixed.txt").read_bytes()
    run_cli("recon", *FAST, "--sigma", "0.01", "--method", "am_fixed", "--out", out)
    assert (out / "metrics_am_fixed.txt").read_bytes() == first


def test_sweep_grid_and_single_point_equivalence(tmp_path):
    out = tmp_path / "sweep"
    assert run_cli("sweep-lambda", *FAST, "--lambdas", "1,4", "--sigmas", "0,0.01",
                   "--out", out) == EXIT_OK
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "sigma,lambda,psnr,ssim"
    assert len(lines) == 1 + 4  # |lambda grid| x |sigma grid|
    best = (out / "sweep_best.txt").read_text().splitlines()
    assert best[0] == "sigma,best_lambda,best_psnr"
    assert len(best) == 3

    # one grid cell reproduces a plain recon run at the same settings
    sim = tmp_path / "cell"
    run_cli("simulate", *FAST, "--sigma", "0.01", "--out", sim)
    run_cli("recon", *FAST, "--sigma", "0.01", "--method", "am_fixed",
            "--lambda0", "4", "--out", sim)
    cell_psnr = float(read_keyvals(sim / "metrics_am_fixed.txt")["psnr"])
    rows = [line.split(",") for line in lines[1:]]
    sweep_psnr = next(float(r[2]) for r in rows if r[0] == "0.01" and r[1] == "4.0")
    assert sweep_psnr == pytest.approx(cell_psnr, rel=1e-12)


def test_sweep_rejects_empty_grid(tmp_path, capsys):
    for grid, message in (("", "lambda grid is empty"), ("1,abc", "bad lambda grid '1,abc'")):
        assert run_cli("sweep-lambda", *FAST, "--lambdas", grid, "--out", tmp_path) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("method", ["smrd", "csgm_es"])
def test_recon_trace_stop_marker_matches_oracle(tmp_path, method):
    out = tmp_path / "sim"
    run_cli("simulate", *FAST, "--sigma", "0.02", "--out", out)
    assert run_cli("recon", *FAST, "--sigma", "0.02", "--method", method,
                   "--out", out) == EXIT_OK
    lines = (out / f"trace_{method}.csv").read_text().splitlines()
    assert lines[0] == "t,sure,lambda,mse,psnr"
    t_es = int(read_keyvals(out / f"metrics_{method}.txt")["t_es"])
    assert len(lines) == 1 + t_es

    # re-scan the CSV with the rolling-mean rule to confirm the marker
    sures = [float(line.split(",")[1]) for line in lines[1:]]
    w = stop_window(30)
    fired = None
    for i in range(len(sures)):
        prefix = sures[: i + 1]
        if len(prefix) >= 2 * w and sum(prefix[-w:]) / w > sum(prefix[-2 * w : -w]) / w:
            fired = i + 1
            break
    want = fired if fired is not None else 30
    assert t_es == want


def test_compare_runs_all_methods_byte_identically(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        run_cli("simulate", *FAST, "--sigma", "0.01", "--out", out)
        assert run_cli("compare", *FAST, "--sigma", "0.01", "--out", out) == EXIT_OK
        outs.append(out)
    lines = (outs[0] / "compare.csv").read_text().splitlines()
    assert lines[0] == "method,psnr,ssim,t_es"
    assert [line.split(",")[0] for line in lines[1:]] == [
        "zero_filled", "csgm", "csgm_es", "am_fixed", "smrd",
    ]
    for name in ("compare.csv", "image_smrd.smrd", "image_csgm.smrd",
                 "image_am_fixed.smrd", "image_zero_filled.smrd"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_config_file_plus_flag_overrides(tmp_path):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(ExperimentConfig(size=32, coils=2, steps=30,
                                         accel=4.0, sigma=0.25, seed=5).to_text())
    out = tmp_path / "sim"
    assert run_cli("simulate", "--config", cfg_path, "--sigma", "0.0",
                   "--out", out) == EXIT_OK
    assert read_keyvals(out / "manifest.txt")["noise_std"] == "0.0"


def test_flags_can_mend_a_config_file(tmp_path):
    # the gate runs once, on the file merged with the flags
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text("lambda0 = 0\n")
    out = tmp_path / "sim"
    assert run_cli("simulate", *FAST, "--config", cfg_path, "--out", out) == EXIT_CONFIG
    assert not out.exists()
    assert run_cli("simulate", *FAST, "--config", cfg_path, "--lambda0", "1",
                   "--out", out) == EXIT_OK


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("name", [n for n, kind in FIELD_TYPES.items() if kind is float])
def test_nonfinite_float_is_config_error(tmp_path, capsys, name, value):
    flag = f"--{name.replace('_', '-')}"
    assert run_cli("simulate", *FAST, flag, value, "--out", tmp_path) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {name} must be finite, got {float(value)!r}\n"
    assert not (tmp_path / "kspace.smrd").exists()


@pytest.mark.parametrize("flag, value", [("--lambdas", "nan"), ("--sigmas", "inf")])
def test_nonfinite_sweep_grid_is_config_error(tmp_path, flag, value):
    assert run_cli("sweep-lambda", *FAST, flag, value, "--out", tmp_path) == EXIT_CONFIG
    assert not (tmp_path / "sweep.csv").exists()


def test_unwritable_output_is_io_error(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    assert run_cli("simulate", *FAST, "--out", blocker / "sub") == EXIT_IO


def test_unrealizable_accel_is_config_error(tmp_path, capsys):
    # 16 columns at R=6 keep round(16/6) = 3 columns: R=5.333, outside 10%
    code = run_cli("simulate", "--size", 16, "--accel", 6, "--coils", 2, "--out", tmp_path)
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: realized acceleration 5.333 outside 10% of requested 6.0")
    assert "Traceback" not in err


@pytest.mark.parametrize("verb", ["simulate", "sweep-lambda"])
def test_unrealizable_accel_leaves_no_output(tmp_path, verb):
    out = tmp_path / "out"
    code = run_cli(verb, "--size", 16, "--accel", 6, "--coils", 2, "--out", out)
    assert code == EXIT_CONFIG
    assert not out.exists()


# With the last level's step size raised to 1e8, the iterate's energy overflows
# at step 11 under every method; at 1e7, csgm_es's SURE value (a product with
# that energy) overflows first.
@pytest.mark.parametrize(
    "method, step, what",
    [("smrd", 11, "iterate energy"), ("am_fixed", 11, "iterate energy"),
     ("csgm", 11, "iterate energy"), ("csgm_es", 11, "SURE value")],
)
def test_divergence_fails_at_first_nonfinite_step(tmp_path, capsys, monkeypatch, method, step,
                                                   what):
    out = tmp_path / "sim"
    run_cli("simulate", *FAST, "--out", out)
    monkeypatch.setattr(priors, "EPS0", 1e7 if what == "SURE value" else 1e8)
    code = run_cli("recon", *FAST, "--method", method, "--out", out)
    assert code == EXIT_NUMERIC
    assert capsys.readouterr().err.endswith(f"{method}: non-finite {what} at step {step}\n")
    assert not (out / f"image_{method}.smrd").exists()


# loaded inputs are checked against the config ---------------------------

@pytest.mark.parametrize(
    "flags, bad_file",
    [(["--size", "48"], "truth.smrd"), (["--coils", "3"], "coils.smrd")],
    ids=["size", "coils"],
)
def test_recon_config_mismatch_is_io_error(tmp_path, capsys, flags, bad_file):
    out = tmp_path / "sim"
    run_cli("simulate", *FAST, "--out", out)
    assert run_cli("recon", *FAST, *flags, "--method", "am_fixed", "--out", out) == EXIT_IO
    assert bad_file in capsys.readouterr().err


@pytest.mark.parametrize("name, source", [
    ("mask", "truth"), ("mask", "u8 with a 2"), ("truth", "mask"), ("kspace", "u8 zeros"),
])
def test_recon_input_unlike_simulates_is_io_error(tmp_path, capsys, name, source):
    # right shape, but not the dtype or values simulate writes for that file
    out = tmp_path / "sim"
    run_cli("simulate", *FAST, "--out", out)
    path = out / f"{name}.smrd"
    if source in ("truth", "mask"):
        path.write_bytes((out / f"{source}.smrd").read_bytes())
    elif source == "u8 with a 2":
        mask = load_tensor(path)
        mask[mask == 1] = 2
        save_tensor(path, mask)
    else:
        save_tensor(path, np.zeros(load_tensor(path).shape, dtype=np.uint8))
    assert run_cli("recon", *FAST, "--method", "am_fixed", "--out", out) == EXIT_IO
    assert f"{name}.smrd" in capsys.readouterr().err
    assert not (out / "image_am_fixed.smrd").exists()


def test_recon_mask_shape_mismatch_is_io_error(tmp_path, capsys):
    out = tmp_path / "sim"
    run_cli("simulate", *FAST, "--out", out)
    save_tensor(out / "mask.smrd", np.ones((16, 16), dtype=np.uint8))
    assert run_cli("recon", *FAST, "--method", "am_fixed", "--out", out) == EXIT_IO
    assert "mask.smrd" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, method",
    [("kspace", "smrd"), ("kspace", "am_fixed"), ("coils", "smrd"),
     ("truth", "smrd"), ("truth", "zero_filled")],
)
def test_recon_nonfinite_input_is_io_error(tmp_path, capsys, name, method):
    out = tmp_path / "sim"
    run_cli("simulate", *FAST, "--sigma", "0.02", "--out", out)
    data = load_tensor(out / f"{name}.smrd")
    data.flat[0] = np.nan
    save_tensor(out / f"{name}.smrd", data)
    assert run_cli("recon", *FAST, "--sigma", "0.02", "--method", method,
                   "--out", out) == EXIT_IO
    assert f"{name}.smrd" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["smrd", "zero_filled", "csgm"])
def test_recon_overflowing_zero_filled_energy_is_numerical_error(tmp_path, capsys, method):
    # finite k-space whose zero-filled image energy overflows fails before step 0
    out = tmp_path / "sim"
    run_cli("simulate", *FAST, "--sigma", "0.02", "--out", out)
    save_tensor(out / "kspace.smrd", load_tensor(out / "kspace.smrd") * 1e160)
    assert run_cli("recon", *FAST, "--method", method, "--out", out) == EXIT_NUMERIC
    assert capsys.readouterr().err == f"error: {method}: non-finite zero-filled image energy\n"
    assert not (out / f"image_{method}.smrd").exists()


def test_recon_overflowing_dims_is_io_error(tmp_path, capsys):
    out = tmp_path / "sim"
    run_cli("simulate", *FAST, "--out", out)
    header = (out / "truth.smrd").read_bytes()[:12]  # magic, version, dtype tag
    (out / "truth.smrd").write_bytes(header + struct.pack("<5I", 4, *(65536,) * 4))
    assert run_cli("recon", *FAST, "--method", "am_fixed", "--out", out) == EXIT_IO
    assert "truncated payload" in capsys.readouterr().err


def test_recon_malformed_header_is_io_error(tmp_path, capsys):
    # every header fault in every input exits 3 with a message naming that file
    out = tmp_path / "sim"
    run_cli("simulate", *FAST, "--out", out)
    for name in ("truth", "coils", "mask", "kspace"):
        path = out / f"{name}.smrd"
        good = path.read_bytes()
        for fault, (blob, message) in MALFORMED.items():
            path.write_bytes(blob)
            assert run_cli("recon", *FAST, "--method", "zero_filled", "--out", out) == EXIT_IO
            assert capsys.readouterr().err == f"error: {path}: {message}\n", (name, fault)
        path.write_bytes(good)


def test_module_runs_as_a_script(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}

    def smrd_module(*args):
        cmd = [sys.executable, "-m", "smrd.cli", *map(str, args)]
        return subprocess.run(cmd, env=env, capture_output=True, text=True).returncode

    out = tmp_path / "sim"
    assert smrd_module("simulate", *FAST, "--out", out) == EXIT_OK
    assert (out / "kspace.smrd").exists()
    assert smrd_module("recon", *FAST, "--out", tmp_path / "empty") == EXIT_IO


# CLI flags are derived from the config fields ----------------------------

# a valid non-default value for each text field and for the numeric fields
# whose default + 1 is out of range; other numeric fields use default + 1
NON_DEFAULT = {
    "phantom": "blob_grid", "mask": "poisson", "prior": "none",
    "method": "am_fixed", "out": "elsewhere", "steps": 600,
}


@pytest.mark.parametrize("field", dataclasses.fields(ExperimentConfig), ids=lambda f: f.name)
def test_every_config_field_has_a_typed_flag(field):
    default = getattr(ExperimentConfig(), field.name)
    value = NON_DEFAULT[field.name] if field.name in NON_DEFAULT else default + 1
    flag = f"--{field.name.replace('_', '-')}"
    cfg = _resolve_config(build_parser().parse_args(["recon", flag, str(value)]))
    got = getattr(cfg, field.name)
    assert type(got) is type(default)
    assert got == value


def exit_code(*args):
    try:
        return run_cli(*args)
    except SystemExit as exc:  # argparse rejects an unknown flag
        return exc.code


def test_removed_settings_are_rejected(tmp_path):
    # no old spelling comes back, with its old meaning or a new one
    # the controller's constants, the schedule's constants, tau2 and phase are fixed
    fixed = {"phase": "smooth", "tau2": "1e-5", "beta_min": "0.003", "beta_max": "1.0",
             "levels": "10", "eps0": "1",
             "cg_iters": "5", "alpha": "0.2", "freeze_fraction": "0.43", "window": "0",
             "probes": "1", "eps_rel": "1e-3"}
    out = tmp_path / "sim"
    for flags in (["--prior", "smoothness"], ["--prior", "gaussian"], ["--prior", "zero"],
                  ["--prior", "smoothed_truth"], ["--prior", "zero_mean"],
                  ["--prior-mean", "zero"], ["--steps-per-level", "3"], ["--dc-weight", "1"],
                  ["--gamma", "1"], ["--mean-blur", "1"], ["--acs-fraction", "1"],
                  *([f"--{name.replace('_', '-')}", value] for name, value in fixed.items())):
        assert exit_code("simulate", *FAST, *flags, "--out", out) == EXIT_CONFIG, flags
    cfg_path = tmp_path / "old.cfg"
    for line in ("prior_mean = zero", "prior = zero_mean", "steps_per_level = 3",
                 *(f"{name} = {value}" for name, value in fixed.items())):
        cfg_path.write_text(line + "\n")
        assert exit_code("simulate", *FAST, "--config", cfg_path, "--out", out) == EXIT_CONFIG
    assert not out.exists()


def test_steps_flag_and_config_key_agree(tmp_path):
    base = ["--size", "32", "--coils", "2", "--seed", "5", "--sigma", "0.02"]
    cfg_path = tmp_path / "steps.cfg"
    cfg_path.write_text("steps = 60\n")
    runs = {"flag": ["--steps", "60"], "file": ["--config", str(cfg_path)]}
    configs = [_resolve_config(build_parser().parse_args(["recon", *base, *extra]))
               for extra in runs.values()]
    assert configs[0] == configs[1] and configs[0].steps == 60
    hashes = []
    for name, extra in runs.items():
        out = tmp_path / name
        assert run_cli("simulate", *base, "--out", out) == EXIT_OK
        assert run_cli("recon", *base, *extra, "--method", "smrd", "--out", out) == EXIT_OK
        hashes.append(file_hashes(out))
    assert hashes[0] == hashes[1]
    assert len((tmp_path / "flag" / "trace_smrd.csv").read_text().splitlines()) <= 1 + 60


@pytest.mark.parametrize("where", ["flag", "file"])
def test_steps_must_be_a_multiple_of_levels(tmp_path, capsys, where):
    cfg_path = tmp_path / "steps.cfg"
    cfg_path.write_text("steps = 31\n")
    steps = ["--steps", "31"] if where == "flag" else ["--config", cfg_path]
    out = tmp_path / "sim"
    assert run_cli("simulate", *steps, "--out", out) == EXIT_CONFIG
    assert capsys.readouterr().err == "error: steps must be a positive multiple of 30, got 31\n"
    assert not out.exists()


# the config gate ------------------------------------------------------------

# one rejected value per field; every other field is listed as unconstrained,
# so a new field cannot skip the gate
REJECTED = {
    "phantom": "nope", "size": 8, "coils": 0, "mask": "radial", "accel": 0.5,
    "sigma": -0.5, "prior": "nope", "steps": 0,
    "method": "nope", "lambda0": 0.0, "calib": 999, "out": "runs/a #b",
}
UNCONSTRAINED = {"seed"}
# the settings that became constants, each with the value the gate rejected
# while it was a field: an old command line that still passes one is refused
REMOVED = {
    "phase": "nope", "tau2": -1.0, "beta_min": 2.0, "beta_max": 0.001, "cg_iters": 0,
    "alpha": 0.0, "freeze_fraction": 2.0, "window": -1, "probes": 0, "eps_rel": -1.0,
    "levels": 0, "eps0": 0.0,
}


def rejected_flags(name):
    return [f"--{name.replace('_', '-')}", (REJECTED | REMOVED)[name]]


def test_gate_table_covers_every_field():
    assert set(REJECTED) | UNCONSTRAINED == set(FIELD_TYPES)
    assert not set(REJECTED) & UNCONSTRAINED
    assert not set(REMOVED) & set(FIELD_TYPES)


# the rejected flag comes last, so a rejected `out` (a relative path, hence
# the chdir) overrides the test's own
@pytest.mark.parametrize("name", sorted(REJECTED))
def test_rejected_value_exits_before_any_output(tmp_path, capsys, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    assert run_cli("simulate", *FAST, "--out", "sim", *rejected_flags(name)) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and name in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("flags, text, key", [
    (["--out", ""], "", "out"),
    ([], "out =\n", "out"),
    ([], "accel = 4\naccel = 8\n", "accel"),
], ids=["empty-out-flag", "empty-out-file", "repeated-key"])
def test_config_slip_exits_before_any_write(tmp_path, capsys, monkeypatch, flags, text, key):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(text)
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    assert run_cli("simulate", *FAST, "--config", cfg_path, *flags) == EXIT_CONFIG
    assert key in capsys.readouterr().err
    assert not any(work.iterdir())


@pytest.mark.parametrize("name", sorted(REJECTED | REMOVED))
def test_rejected_value_exits_before_any_read(tmp_path, monkeypatch, name):
    # a missing input would be an I/O error (3); the gate runs first, and
    # argparse refuses a removed setting's flag before that
    monkeypatch.chdir(tmp_path)
    code = exit_code("recon", *FAST, "--out", "empty", *rejected_flags(name))
    assert code == EXIT_CONFIG


@pytest.mark.parametrize("flags", [
    ["--method", "zero_filled", "--lambda0", "0"],
    ["--mask", "equispaced", "--calib", "-1"],
    ["--mask", "poisson", "--calib", "33"],
    *(["--method", method, "--lambda0", value]
      for method in METHODS for value in ("5e-5", "2e4")),  # outside [LAMBDA_MIN, LAMBDA_MAX]
])
def test_value_unread_under_another_setting_is_still_rejected(tmp_path, capsys, flags):
    out = tmp_path / "sim"
    assert run_cli("simulate", *FAST, *flags, "--out", out) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"error: {flags[-2].lstrip('-')} must be")
    assert not out.exists()


@pytest.mark.parametrize("flag, grid", [
    ("--lambdas", "1,0"), ("--sigmas", "0,-0.5"), ("--lambdas", "1,1e5"),
])
def test_sweep_checks_every_cell_before_any_run(tmp_path, monkeypatch, flag, grid):
    calls = count_runs(monkeypatch)
    out = tmp_path / "sweep"
    assert run_cli("sweep-lambda", *FAST, flag, grid, "--out", out) == EXIT_CONFIG
    assert calls == []
    assert not out.exists()


def count_runs(monkeypatch):
    """Record each reconstruction at the binding `config.reconstruct` calls."""
    calls = []
    run = config.run_reconstruction
    monkeypatch.setattr(config, "run_reconstruction", lambda *a, **k: calls.append(a) or run(*a, **k))
    return calls


def test_every_run_passes_the_counted_binding(tmp_path, monkeypatch):
    # without this count, "no call" above would also hold for runs made elsewhere
    calls = count_runs(monkeypatch)
    assert run_cli("sweep-lambda", *FAST, "--lambdas", "1,2", "--sigmas", "0,0.02",
                   "--out", tmp_path / "sweep") == EXIT_OK
    assert len(calls) == 4
    sim = tmp_path / "sim"
    run_cli("simulate", *FAST, "--out", sim)
    assert run_cli("compare", *FAST, "--out", sim) == EXIT_OK
    assert len(calls) == 4 + 5


def test_a_run_never_reads_the_configs_sigma(tmp_path):
    # sigma describes the simulation; a reconstruction sees the noise only through y
    sim = tmp_path / "sim"
    run_cli("simulate", *FAST, "--sigma", "0.02", "--out", sim)
    hashes = []
    for sigma in ("0.02", "0.5"):
        out = tmp_path / sigma
        shutil.copytree(sim, out)
        assert run_cli("recon", *FAST, "--sigma", sigma, "--method", "smrd", "--out", out) == EXIT_OK
        assert run_cli("compare", *FAST, "--sigma", sigma, "--out", out) == EXIT_OK
        hashes.append(file_hashes(out))
    assert hashes[0] == hashes[1]

    cfg = _resolve_config(build_parser().parse_args(["recon", *FAST, "--sigma", "0.02"]))
    truth, fm, y = config.simulate(cfg)
    reports = [config.reconstruct(c, "smrd", truth, fm, y) for c in (cfg, cfg.replace(sigma=0.5))]
    assert reports[0].final.tobytes() == reports[1].final.tobytes()
    assert repr(reports[0].trace) == repr(reports[1].trace)


# the docs name exactly the verbs, flags and kinds the parser offers --------

def test_docs_name_the_parsers_verbs():
    docstring = cli.__doc__.split("Verbs:\n", 1)[1].split("\n\n", 1)[0]
    documented = {line.split()[0] for line in docstring.splitlines()}
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    examples = set(re.findall(r"^smrd ([a-z-]+)", readme, flags=re.MULTILINE))
    assert documented == set(sub.choices) == examples

    options = {
        opt for verb in sub.choices.values() for a in verb._actions for opt in a.option_strings
    }
    assert set(re.findall(r"--[a-z][a-z0-9-]*", readme)) <= options

    kinds = dict(re.findall(r"`(--[a-z-]+) ([a-z_]+(?:\|[a-z_]+)+)`", readme))
    for flag, allowed in (("--mask", MASK_KINDS), ("--prior", PRIORS)):
        assert set(kinds[flag].split("|")) == set(allowed)


def test_readme_python_examples_run():
    # the second block reuses the first block's names
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["x_next"].shape == namespace["truth"].shape


ROOT_EXPORTS = {
    # what the README and perfbench reach as `smrd.<name>`
    "ExperimentConfig", "ForwardModel", "NoiseSpec", "NormalOperator", "PhantomSpec",
    "SamplerConfig", "add_kspace_noise", "apply_adjoint", "apply_forward", "cg_solve",
    "csgm_step", "make_equispaced_mask", "make_phantom", "make_synth_coils", "psnr",
    "run_reconstruction", "write_trace_csv",
    # the types, errors and siblings a caller of those needs
    "SamplingMask", "ScorePrior", "NoiseSchedule", "TttConfig", "ReconReport", "NumericalError",
    "TensorFileError", "make_poisson_disc_mask", "ssim", "load_tensor", "save_tensor", "METHODS",
}
MODULE_ONLY = {
    "sure": ("TttState", "draw_probe", "early_stop_check", "grad_sure_lambda", "mc_sure",
             "sure_known_sigma", "update_lambda"),
    "sampler": ("langevin_step", "TraceRow"),
    "priors": ("score",),
    "fourier": ("fft2c", "ifft2c", "norm2"),
    "phantom": ("coil_lobe_centers",),
    "config": ("derive_seed", "load_config", "parse_config_text"),
}


def test_root_exports_only_the_documented_library():
    bound = {
        name for name, value in vars(smrd).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert bound == ROOT_EXPORTS
    missing = [
        f"smrd.{module}.{name}" for module, names in MODULE_ONLY.items() for name in names
        if not hasattr(importlib.import_module(f"smrd.{module}"), name)
    ]
    assert missing == []
