"""The benchmark's three workloads.

Each workload is one closed-loop client: it issues the reconstructions of
its grid back to back and starts the next grid only after the previous one
returned. `setup` builds every input from the workload seed through smrd's
own builders (or its CLI), `grid` runs one grid, and `check` judges what
the grid returned. Why each workload exists is written in README.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from probes import Recon

SIZE_64 = 64
SIZE_128 = 128
COILS = 4
ACCEL = 4.0
SIGMA = 0.02
TUNED_DATASETS = 2
# 4 steps per noise level instead of 10, so that several compare grids fit
# in one run and its times are medians, not single samples.
COMPARE_STEPS = 120
SWEEP_LAMBDAS = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0)
SWEEP_SIGMAS = (0.0, 0.02)


def derive(seed: int, label: str) -> int:
    """Config seed for one input of a workload, fixed by the workload seed."""
    digest = hashlib.sha256(f"perfbench:{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


@dataclass
class Expected:
    """One reconstruction a grid must return, with what it is checked against."""

    method: str
    truth: np.ndarray
    zf_psnr: float
    image_file: Path | None = None


@dataclass
class Outcome:
    method: str
    wall_s: float
    steps: int
    psnr: float
    digest: str
    failure: str | None


@dataclass
class State:
    """What one set-up built: the grid to run and how to check it."""

    grid: Callable[[], int]
    expected: list[Expected]
    out_dir: Path | None = None
    input_files: dict[str, tuple[int, ...]] = field(default_factory=dict)
    table: str | None = None  # CSV the grid writes, with a psnr column per reconstruction


def _quiet(fn, *args):
    # The CLI prints one progress line per verb; keep the benchmark's own
    # output readable.
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


def _config(smrd, **fields):
    return smrd.config.ExperimentConfig(coils=COILS, accel=ACCEL, **fields).validate()


def setup_tuned_eq64(smrd, seed: int, work: Path) -> State:
    cfg_mod, fwd = smrd.config, smrd.forward
    items, expected = [], []
    for i in range(TUNED_DATASETS):
        cfg = _config(
            smrd, size=SIZE_64, mask="equispaced", sigma=SIGMA, seed=derive(seed, f"tuned_eq64:{i}")
        )
        truth = cfg_mod.build_phantom(cfg)
        fm = cfg_mod.build_forward_model(cfg)
        y = fwd.add_kspace_noise(fwd.apply_forward(fm, truth), fm.mask, cfg_mod.build_noise_spec(cfg))
        prior = cfg_mod.build_prior(cfg, truth)
        scfg = cfg_mod.build_sampler_config(cfg, "smrd")
        ttt, es, sure_cfg = cfg_mod.build_controller_configs(cfg)
        items.append((y, fm, prior, scfg, ttt, es, sure_cfg, truth))
        expected.append(Expected("smrd", truth, _zf_psnr(smrd, truth, fm, y)))

    def grid() -> int:
        for y, fm, prior, scfg, ttt, es, sure_cfg, truth in items:
            try:
                smrd.sampler.run_reconstruction(y, fm, prior, scfg, ttt, es, sure_cfg, truth=truth)
            except Exception:  # the tap recorded it; the client goes on
                pass
        return 0

    return State(grid=grid, expected=expected)


def _cli_args(out: Path, cfg_seed: int, **flags) -> list[str]:
    args = ["--out", str(out), "--seed", str(cfg_seed), "--coils", str(COILS), "--accel", str(ACCEL)]
    for key, value in flags.items():
        args += [f"--{key.replace('_', '-')}", str(value)]
    return args


def setup_compare_poisson128(smrd, seed: int, work: Path) -> State:
    out = work / "compare_poisson128"
    shutil.rmtree(out, ignore_errors=True)
    args = _cli_args(
        out, derive(seed, "compare_poisson128"),
        size=SIZE_128, mask="poisson", calib=16, sigma=SIGMA, steps=COMPARE_STEPS,
    )
    rc = _quiet(smrd.cli.main, ["simulate", *args])
    if rc != 0:
        raise RuntimeError(f"smrd simulate exited with {rc}")
    load = smrd.tensorfile.load_tensor
    truth, sens = load(out / "truth.smrd"), load(out / "coils.smrd")
    keep, y = load(out / "mask.smrd").astype(bool), load(out / "kspace.smrd")
    fm = smrd.forward.ForwardModel(sens=sens, mask=smrd.forward.SamplingMask(keep=keep, accel=ACCEL))
    zf = _zf_psnr(smrd, truth, fm, y)
    expected = [
        Expected(m, truth, zf, out / f"image_{m}.smrd") for m in smrd.cli.COMPARE_ORDER
    ]
    image = (SIZE_128, SIZE_128)
    stack = (COILS, *image)
    return State(
        grid=lambda: _quiet(smrd.cli.main, ["compare", *args]),
        expected=expected,
        out_dir=out,
        input_files={"truth.smrd": image, "coils.smrd": stack, "mask.smrd": image, "kspace.smrd": stack},
        table="compare.csv",
    )


def setup_sweep_fixed64(smrd, seed: int, work: Path) -> State:
    out = work / "sweep_fixed64"
    shutil.rmtree(out, ignore_errors=True)
    cfg_seed = derive(seed, "sweep_fixed64")
    args = _cli_args(
        out, cfg_seed, size=SIZE_64, mask="equispaced", method="am_fixed",
        lambdas=",".join(map(repr, SWEEP_LAMBDAS)), sigmas=",".join(map(repr, SWEEP_SIGMAS)),
    )
    # The sweep simulates its own data; the same builders give the truth
    # and the zero-filled floor that each of its reconstructions must beat.
    cfg_mod, fwd = smrd.config, smrd.forward
    cfg = _config(smrd, size=SIZE_64, mask="equispaced", method="am_fixed", seed=cfg_seed)
    truth = cfg_mod.build_phantom(cfg)
    fm = cfg_mod.build_forward_model(cfg)
    y_clean = fwd.apply_forward(fm, truth)
    noise_seed = cfg_mod.derive_seed(cfg_seed, "noise")
    expected = []
    for sigma in SWEEP_SIGMAS:
        y = fwd.add_kspace_noise(y_clean, fm.mask, fwd.NoiseSpec(sigma=sigma, seed=noise_seed))
        zf = _zf_psnr(smrd, truth, fm, y)
        expected += [Expected("am_fixed", truth, zf) for _ in SWEEP_LAMBDAS]
    return State(
        grid=lambda: _quiet(smrd.cli.main, ["sweep-lambda", *args]),
        expected=expected,
        out_dir=out,
        table="sweep.csv",
    )


WORKLOADS = {
    "tuned_eq64": (setup_tuned_eq64, "smrd"),
    "compare_poisson128": (setup_compare_poisson128, "smrd"),
    "sweep_fixed64": (setup_sweep_fixed64, "am_fixed"),
}


def _zf_psnr(smrd, truth: np.ndarray, fm, y: np.ndarray) -> float:
    return smrd.metrics.psnr(truth, smrd.forward.apply_adjoint(fm, y))


def clear_outputs(state: State) -> None:
    """Remove what the previous grid wrote, so a file it fails to write
    cannot pass the checks."""
    if state.out_dir is None:
        return
    stale = [e.image_file for e in state.expected if e.image_file is not None]
    if state.table:
        stale.append(state.out_dir / state.table)
    for path in stale:
        path.unlink(missing_ok=True)


def check(smrd, state: State, recons: list[Recon], rc: int) -> list[Outcome]:
    """Judge one grid: one Outcome per expected reconstruction.

    A reconstruction fails if it raised or never ran, returned a
    non-finite or misshapen image, scored below the zero-filled PSNR of
    the same data, or if a file the grid wrote for it does not reload with
    the expected shape or disagrees with it.
    """
    psnr = smrd.metrics.psnr
    grid_failure = None if rc == 0 else f"grid exited with {rc}"
    for name, shape in state.input_files.items():
        grid_failure = grid_failure or _reload_failure(smrd, state.out_dir / name, shape)
    table = _table_psnrs(state) if state.table else None
    if isinstance(table, str):
        grid_failure = grid_failure or table
    if len(recons) > len(state.expected):
        grid_failure = grid_failure or f"{len(recons)} reconstructions, expected {len(state.expected)}"

    outcomes = []
    for i, exp in enumerate(state.expected):
        if i >= len(recons):
            outcomes.append(Outcome(exp.method, math.nan, 0, math.nan, "", grid_failure or "never ran"))
            continue
        rec = recons[i]
        failure, value, digest = rec.error, math.nan, ""
        if rec.final is not None:
            digest = hashlib.sha256(np.ascontiguousarray(rec.final).tobytes()).hexdigest()
            if rec.method != exp.method:
                failure = f"method {rec.method}, expected {exp.method}"
            elif rec.final.shape != exp.truth.shape:
                failure = f"image shape {rec.final.shape}, expected {exp.truth.shape}"
            elif not np.all(np.isfinite(rec.final.view(float))):
                failure = "non-finite image"
            else:
                value = psnr(exp.truth, rec.final)
                if value < exp.zf_psnr:
                    failure = f"PSNR {value:.3f} below zero-filled {exp.zf_psnr:.3f}"
        if failure is None and exp.image_file is not None:
            failure = _reload_failure(smrd, exp.image_file, exp.truth.shape)
        if failure is None and isinstance(table, list) and repr(table[i]) != repr(value):
            failure = f"{state.table} PSNR {table[i]!r} differs from the image's {value!r}"
        outcomes.append(Outcome(rec.method, rec.wall_s, rec.steps, value, digest, failure or grid_failure))
    return outcomes


def _reload_failure(smrd, path: Path, shape: tuple[int, ...]) -> str | None:
    try:
        data = smrd.tensorfile.load_tensor(path)
    except (OSError, smrd.tensorfile.TensorFileError) as exc:
        return f"{path.name} does not reload: {exc!r}"
    if data.shape != tuple(shape):
        return f"{path.name} has shape {data.shape}, expected {tuple(shape)}"
    return None


def _table_psnrs(state: State) -> list[float] | str:
    """The psnr column of the grid's CSV, one value per expected
    reconstruction, or the reason it cannot be read."""
    path = state.out_dir / state.table
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        return f"{state.table} missing: {exc!r}"
    header = lines[0].split(",") if lines else []
    if "psnr" not in header or len(lines) - 1 != len(state.expected):
        return f"{state.table} has {len(lines) - 1} rows, expected {len(state.expected)}"
    col = header.index("psnr")
    try:
        return [float(line.split(",")[col]) for line in lines[1:]]
    except (IndexError, ValueError) as exc:
        return f"{state.table} is malformed: {exc!r}"
