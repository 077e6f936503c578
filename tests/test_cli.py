import dataclasses
import hashlib
from pathlib import Path

import numpy as np
import pytest

from smrd.cli import EXIT_CONFIG, EXIT_IO, EXIT_NUMERIC, EXIT_OK, _resolve_config, build_parser, main
from smrd.config import ExperimentConfig, build_forward_model, build_phantom
from smrd.forward import apply_adjoint, apply_forward
from smrd.metrics import psnr
from smrd.tensorfile import load_tensor, save_tensor

FAST = [
    "--size", "32", "--coils", "2", "--levels", "10", "--steps-per-level", "3",
    "--accel", "4", "--seed", "5",
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
    cfg = ExperimentConfig(size=32, coils=2, levels=10, steps_per_level=3,
                           accel=4.0, seed=5, sigma=0.0)
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
            ExperimentConfig(size=32, coils=2, levels=10, steps_per_level=3,
                             accel=4.0, seed=5)
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
    # lambda constant from the freeze step on (0.43 * 30 -> 13)
    lams = [float(r[2]) for r in rows]
    assert len(set(lams[13:])) == 1


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


def test_sweep_rejects_empty_grid(tmp_path):
    assert run_cli("sweep-lambda", *FAST, "--lambdas", "", "--out", tmp_path) == EXIT_CONFIG


def test_trace_columns_marker_and_oracle(tmp_path):
    out = tmp_path / "sim"
    run_cli("simulate", *FAST, "--sigma", "0.02", "--out", out)
    assert run_cli("trace", *FAST, "--sigma", "0.02", "--out", out) == EXIT_OK
    lines = (out / "trace.csv").read_text().splitlines()
    assert lines[0] == "t,sure,mse,psnr"
    meta = read_keyvals(out / "trace_meta.txt")
    steps = int(meta["steps"])
    assert len(lines) == 1 + steps

    # re-scan the CSV with the rolling-mean rule to confirm the marker
    sures = [float(line.split(",")[1]) for line in lines[1:]]
    w = 5  # ceil(0.14 * 30)
    fired = None
    for i in range(len(sures)):
        prefix = sures[: i + 1]
        if len(prefix) >= 2 * w and sum(prefix[-w:]) / w > sum(prefix[-2 * w : -w]) / w:
            fired = i + 1
            break
    want = fired if fired is not None else 30
    assert int(meta["t_es"]) == want


def test_trace_requires_simulation(tmp_path):
    assert run_cli("trace", *FAST, "--out", tmp_path / "none") == EXIT_IO


def test_trace_rejects_non_sure_method(tmp_path):
    out = tmp_path / "sim"
    run_cli("simulate", *FAST, "--out", out)
    assert run_cli("trace", *FAST, "--method", "am_fixed", "--out", out) == EXIT_CONFIG


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
    ExperimentConfig(size=32, coils=2, levels=10, steps_per_level=3, accel=4.0,
                     sigma=0.25, seed=5).save(cfg_path)
    out = tmp_path / "sim"
    assert run_cli("simulate", "--config", cfg_path, "--sigma", "0.0",
                   "--out", out) == EXIT_OK
    assert read_keyvals(out / "manifest.txt")["noise_std"] == "0.0"


def test_bad_method_is_config_error(tmp_path):
    assert run_cli("recon", *FAST, "--method", "nope", "--out", tmp_path) == EXIT_CONFIG


def test_indivisible_steps_is_config_error(tmp_path):
    assert run_cli("simulate", *FAST, "--steps", "31", "--out", tmp_path) == EXIT_CONFIG


def test_unwritable_output_is_io_error(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    assert run_cli("simulate", *FAST, "--out", blocker / "sub") == EXIT_IO


def test_divergent_run_is_numerical_error(tmp_path):
    out = tmp_path / "sim"
    run_cli("simulate", *FAST, "--out", out)
    code = run_cli("recon", *FAST, "--method", "am_fixed", "--eps0", "1e8",
                   "--out", out)
    assert code == EXIT_NUMERIC


# The iterate's energy overflows at step 11 under every method; csgm_es's
# SURE value (a product with that energy) overflows one step earlier.
@pytest.mark.parametrize(
    "method, step, what",
    [("smrd", 11, "iterate energy"), ("am_fixed", 11, "iterate energy"),
     ("csgm", 11, "iterate energy"), ("csgm_es", 10, "SURE value")],
)
def test_divergence_fails_at_first_nonfinite_step(tmp_path, capsys, method, step, what):
    out = tmp_path / "sim"
    run_cli("simulate", *FAST, "--out", out)
    code = run_cli("recon", *FAST, "--method", method, "--eps0", "1e8", "--out", out)
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


def test_recon_mask_shape_mismatch_is_io_error(tmp_path, capsys):
    out = tmp_path / "sim"
    run_cli("simulate", *FAST, "--out", out)
    save_tensor(out / "mask.smrd", np.ones((16, 16), dtype=np.uint8))
    assert run_cli("recon", *FAST, "--method", "am_fixed", "--out", out) == EXIT_IO
    assert "mask.smrd" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, method", [("kspace", "smrd"), ("kspace", "am_fixed"), ("coils", "smrd")]
)
def test_recon_nonfinite_input_is_io_error(tmp_path, capsys, name, method):
    out = tmp_path / "sim"
    run_cli("simulate", *FAST, "--sigma", "0.02", "--out", out)
    data = load_tensor(out / f"{name}.smrd")
    data[0, 0, 0] = np.nan
    save_tensor(out / f"{name}.smrd", data)
    assert run_cli("recon", *FAST, "--sigma", "0.02", "--method", method,
                   "--out", out) == EXIT_IO
    assert f"{name}.smrd" in capsys.readouterr().err


# CLI flags are derived from the config fields ----------------------------

# a valid non-default value for each text field; numeric fields use default + 1
TEXT_VALUES = {
    "phantom": "blob_grid", "phase": "smooth", "mask": "poisson", "prior": "smoothness",
    "prior_mean": "zero", "method": "am_fixed", "out": "elsewhere",
}


@pytest.mark.parametrize("field", dataclasses.fields(ExperimentConfig), ids=lambda f: f.name)
def test_every_config_field_has_a_typed_flag(field):
    default = getattr(ExperimentConfig(), field.name)
    value = TEXT_VALUES[field.name] if isinstance(default, str) else default + 1
    flag = f"--{field.name.replace('_', '-')}"
    cfg = _resolve_config(build_parser().parse_args(["recon", flag, str(value)]))
    got = getattr(cfg, field.name)
    assert type(got) is type(default)
    assert got == value


@pytest.mark.parametrize("flag", ["--phantom", "--phase", "--mask", "--prior",
                                  "--prior-mean", "--method"])
def test_bad_kind_value_is_config_error(tmp_path, flag):
    assert run_cli("simulate", *FAST, flag, "nope", "--out", tmp_path) == EXIT_CONFIG
