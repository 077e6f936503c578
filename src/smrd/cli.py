"""Command-line front end.

Verbs:
    simulate      write ground truth, coil maps, mask and noisy k-space
    recon         reconstruct with one method, write image + trace + metrics
    sweep-lambda  grid of fixed-lambda reconstructions over (sigma, lambda)
    compare       run all five methods, write a comparison table

Every command is a pure function of (config, input files): reruns with the
same seed produce byte-identical outputs at any BLAS thread count, though
not across CPUs or numpy builds.
Exit codes: 0 ok, 2 config error (ValueError), 3 I/O error (OSError),
4 numerical failure (NumericalError: a run turned non-finite; the message
names the method and step).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import metrics
from .config import FIELD_TYPES, ExperimentConfig, format_keyvals, load_config, reconstruct, simulate
from .forward import ForwardModel, SamplingMask
from .sampler import ReconReport, write_trace_csv
from .sure import NumericalError
from .tensorfile import TensorFileError, atomic_write, load_tensor, save_tensor

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4

COMPARE_ORDER = ("zero_filled", "csgm", "csgm_es", "am_fixed", "smrd")


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", default=None, help="flat key=value config file")
    for name, kind in FIELD_TYPES.items():
        parser.add_argument(f"--{name.replace('_', '-')}", type=kind, default=None)


def _resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    cfg = ExperimentConfig() if args.config is None else load_config(args.config)
    overrides = {k: v for k, v in vars(args).items() if k in FIELD_TYPES and v is not None}
    return cfg.replace(**overrides).validate()


def _parse_grid(raw: str, name: str) -> list[float]:
    try:
        values = [float(v) for v in raw.split(",") if v.strip()]
    except ValueError as exc:
        raise ValueError(f"bad {name} grid {raw!r}") from exc
    if not values:
        raise ValueError(f"{name} grid is empty")
    return values


def _load_sim(cfg: ExperimentConfig) -> tuple[np.ndarray, ForwardModel, np.ndarray]:
    """Load the simulated inputs, checked against the config: every file
    must have the config's shape, the dtype `simulate` writes (complex128,
    u8 for the mask) and finite values, and the mask must be 0s and 1s."""
    out = Path(cfg.out)
    image = (cfg.size, cfg.size)
    stack = (cfg.coils, *image)
    loaded = {}
    for name, shape, dtype in (("truth", image, "complex128"), ("coils", stack, "complex128"),
                               ("mask", image, "uint8"), ("kspace", stack, "complex128")):
        path = out / f"{name}.smrd"
        data = load_tensor(path)
        if data.shape != shape:
            raise TensorFileError(f"{path}: shape {data.shape}, expected {shape} from the config")
        if data.dtype != dtype:
            raise TensorFileError(f"{path}: dtype {data.dtype}, expected {dtype}")
        if not np.all(np.isfinite(data)):
            raise TensorFileError(f"{path}: contains non-finite values")
        if name == "mask" and np.any(data > 1):
            raise TensorFileError(f"{path}: not a u8 mask of 0s and 1s")
        loaded[name] = data
    mask = SamplingMask(keep=loaded["mask"].astype(bool), accel=cfg.accel)
    return loaded["truth"], ForwardModel(sens=loaded["coils"], mask=mask), loaded["kspace"]


def _run_method(
    cfg: ExperimentConfig, method: str, truth: np.ndarray, fm: ForwardModel, y: np.ndarray
) -> tuple[ReconReport, float, float]:
    report = reconstruct(cfg, method, truth, fm, y)
    return report, metrics.psnr(truth, report.final), metrics.ssim(truth, report.final)


def cmd_simulate(cfg: ExperimentConfig) -> int:
    # the mask's own rules run here, before anything is written
    truth, fm, y = simulate(cfg)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    save_tensor(out / "truth.smrd", truth)
    save_tensor(out / "coils.smrd", fm.sens)
    save_tensor(out / "mask.smrd", fm.mask.keep.astype(np.uint8))
    save_tensor(out / "kspace.smrd", y)
    realized = fm.mask.realized_accel
    atomic_write(
        out / "manifest.txt",
        format_keyvals(
            [
                ("height", cfg.size),
                ("width", cfg.size),
                ("coils", cfg.coils),
                ("mask_kind", cfg.mask),
                ("accel", float(cfg.accel)),
                ("realized_accel", float(realized)),
                ("kept", int(np.count_nonzero(fm.mask.keep))),
                ("noise_std", float(cfg.sigma)),
                ("seed", cfg.seed),
            ]
        ),
    )
    print(f"simulate: {out} realized_accel={realized:.3f} noise_std={cfg.sigma!r}")
    return EXIT_OK


def cmd_recon(cfg: ExperimentConfig) -> int:
    out = Path(cfg.out)
    truth, fm, y = _load_sim(cfg)
    report, psnr_v, ssim_v = _run_method(cfg, cfg.method, truth, fm, y)
    save_tensor(out / f"image_{cfg.method}.smrd", report.final)
    write_trace_csv(report, out / f"trace_{cfg.method}.csv")
    atomic_write(
        out / f"metrics_{cfg.method}.txt",
        format_keyvals(
            [
                ("method", cfg.method),
                ("psnr", psnr_v),
                ("ssim", ssim_v),
                ("t_es", report.stop_step),
                ("final_lambda", report.final_lambda),
            ]
        ),
    )
    print(f"recon[{cfg.method}]: psnr={psnr_v:.2f} ssim={ssim_v:.4f} t_es={report.stop_step}")
    return EXIT_OK


def cmd_sweep_lambda(cfg: ExperimentConfig, lambdas: list[float], sigmas: list[float]) -> int:
    # each grid cell is a config of its own; all pass the gate, and every
    # sigma's data is simulated, before any run or write
    grid = [[cfg.replace(sigma=s, lambda0=lam).validate() for lam in lambdas] for s in sigmas]
    data = [simulate(cells[0]) for cells in grid]
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)

    rows = ["sigma,lambda,psnr,ssim"]
    best_lines = ["sigma,best_lambda,best_psnr"]
    for sigma, cells, (truth, fm, y) in zip(sigmas, grid, data):
        scores = []
        for lam, cell in zip(lambdas, cells):
            _, psnr_v, ssim_v = _run_method(cell, "am_fixed", truth, fm, y)
            rows.append(f"{sigma!r},{lam!r},{psnr_v!r},{ssim_v!r}")
            scores.append((lam, psnr_v))
        best = max(scores, key=lambda pair: pair[1])  # the first of equal maxima
        best_lines.append(f"{sigma!r},{best[0]!r},{best[1]!r}")
        print(f"sweep: sigma={sigma!r} best_lambda={best[0]!r} psnr={best[1]:.2f}")
    atomic_write(out / "sweep.csv", "\n".join(rows) + "\n")
    atomic_write(out / "sweep_best.txt", "\n".join(best_lines) + "\n")
    return EXIT_OK


def cmd_compare(cfg: ExperimentConfig) -> int:
    out = Path(cfg.out)
    truth, fm, y = _load_sim(cfg)
    rows = ["method,psnr,ssim,t_es"]
    for method in COMPARE_ORDER:
        report, psnr_v, ssim_v = _run_method(cfg, method, truth, fm, y)
        save_tensor(out / f"image_{method}.smrd", report.final)
        rows.append(f"{method},{psnr_v!r},{ssim_v!r},{report.stop_step}")
        print(f"compare[{method}]: psnr={psnr_v:.2f} ssim={ssim_v:.4f} t_es={report.stop_step}")
    atomic_write(out / "compare.csv", "\n".join(rows) + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smrd",
        description="Risk-tuned Langevin reconstruction experiments on synthetic phantoms",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("simulate", "recon", "compare"):
        _add_config_flags(sub.add_parser(name))
    sweep = sub.add_parser("sweep-lambda")
    _add_config_flags(sweep)
    sweep.add_argument("--lambdas", default="0.5,1,2,4,8,16")
    sweep.add_argument("--sigmas", default="0,0.02")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _resolve_config(args)
        if args.command == "simulate":
            return cmd_simulate(cfg)
        if args.command == "recon":
            return cmd_recon(cfg)
        if args.command == "sweep-lambda":
            return cmd_sweep_lambda(
                cfg, _parse_grid(args.lambdas, "lambda"), _parse_grid(args.sigmas, "sigma")
            )
        return cmd_compare(cfg)
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
