"""Command-line front end.

Verbs:
    simulate      write ground truth, coil maps, mask and noisy k-space
    recon         reconstruct with one method, write image + trace + metrics
    sweep-lambda  grid of fixed-lambda reconstructions over (sigma, lambda)
    trace         per-step SURE vs true-MSE trace with the stop marker
    compare       run all five methods, write a comparison table

Every command is a pure function of (config, input files): reruns with the
same seed produce byte-identical outputs. Exit codes: 0 ok, 2 config error,
3 I/O error, 4 numerical failure (a run turned non-finite; the message
names the method and step).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import metrics
from .config import (
    FIELD_TYPES,
    ConfigError,
    ExperimentConfig,
    build_controller_configs,
    build_forward_model,
    build_noise_spec,
    build_phantom,
    build_prior,
    build_sampler_config,
    derive_seed,
    format_keyvals,
    load_config,
)
from .forward import ForwardModel, NoiseSpec, SamplingMask, add_kspace_noise, apply_forward
from .sampler import ReconReport, run_reconstruction, write_trace_csv
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
    parser.add_argument(
        "--steps", type=int, default=None,
        help="total sampling steps (must be a multiple of --levels)",
    )


def _resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    cfg = ExperimentConfig()
    if args.config is not None:
        cfg = load_config(args.config, cfg)
    overrides = {
        name: getattr(args, name)
        for name in FIELD_TYPES
        if getattr(args, name) is not None
    }
    cfg = cfg.replace(**overrides)
    if args.steps is not None:
        if args.steps % cfg.levels:
            raise ConfigError(
                f"--steps {args.steps} is not a multiple of levels={cfg.levels}"
            )
        cfg = cfg.replace(steps_per_level=args.steps // cfg.levels)
    return cfg.validate()


def _parse_grid(raw: str, name: str) -> list[float]:
    try:
        values = [float(v) for v in raw.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad {name} grid {raw!r}") from exc
    if not values:
        raise ConfigError(f"{name} grid is empty")
    return values


def _load_sim(cfg: ExperimentConfig) -> tuple[np.ndarray, ForwardModel, np.ndarray]:
    """Load the simulated inputs, checked against the config: every file
    must have the config's shape, and coils and k-space must be finite."""
    out = Path(cfg.out)
    image = (cfg.size, cfg.size)
    stack = (cfg.coils, *image)
    loaded = {}
    for name, shape in (("truth", image), ("coils", stack), ("mask", image), ("kspace", stack)):
        path = out / f"{name}.smrd"
        data = load_tensor(path)
        if data.shape != shape:
            raise TensorFileError(f"{path}: shape {data.shape}, expected {shape} from the config")
        if name in ("coils", "kspace") and not np.all(np.isfinite(data)):
            raise TensorFileError(f"{path}: contains non-finite values")
        loaded[name] = data
    mask = SamplingMask(keep=loaded["mask"].astype(bool), accel=cfg.accel)
    return loaded["truth"], ForwardModel(sens=loaded["coils"], mask=mask), loaded["kspace"]


def _run_method(
    cfg: ExperimentConfig,
    method: str,
    truth: np.ndarray,
    fm: ForwardModel,
    y: np.ndarray,
    lambda0: float | None = None,
) -> tuple[ReconReport, float, float]:
    prior = build_prior(cfg, truth)
    scfg = build_sampler_config(cfg, method)
    ttt, es, sure_cfg = build_controller_configs(cfg, lambda0=lambda0)
    rng = np.random.default_rng(scfg.seed)
    report = run_reconstruction(y, fm, prior, scfg, ttt, es, sure_cfg, rng, truth=truth)
    return report, metrics.psnr(truth, report.final), metrics.ssim(truth, report.final)


def cmd_simulate(cfg: ExperimentConfig) -> int:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    truth = build_phantom(cfg)
    fm = build_forward_model(cfg)
    y = add_kspace_noise(apply_forward(fm, truth), fm.mask, build_noise_spec(cfg))
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
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    truth = build_phantom(cfg)
    fm = build_forward_model(cfg)
    y_clean = apply_forward(fm, truth)
    noise_seed = derive_seed(cfg.seed, "noise")

    rows = ["sigma,lambda,psnr,ssim"]
    best_lines = ["sigma,best_lambda,best_psnr"]
    for sigma in sigmas:
        y = add_kspace_noise(y_clean, fm.mask, NoiseSpec(sigma=sigma, seed=noise_seed))
        best: tuple[float, float] | None = None
        for lam in lambdas:
            _, psnr_v, ssim_v = _run_method(cfg, "am_fixed", truth, fm, y, lambda0=lam)
            rows.append(f"{sigma!r},{lam!r},{psnr_v!r},{ssim_v!r}")
            if best is None or psnr_v > best[1]:
                best = (lam, psnr_v)
        assert best is not None
        best_lines.append(f"{sigma!r},{best[0]!r},{best[1]!r}")
        print(f"sweep: sigma={sigma!r} best_lambda={best[0]!r} psnr={best[1]:.2f}")
    atomic_write(out / "sweep.csv", "\n".join(rows) + "\n")
    atomic_write(out / "sweep_best.txt", "\n".join(best_lines) + "\n")
    return EXIT_OK


def cmd_trace(cfg: ExperimentConfig) -> int:
    if cfg.method not in ("smrd", "csgm_es"):
        raise ConfigError(f"trace needs a SURE-producing method, got {cfg.method!r}")
    out = Path(cfg.out)
    truth, fm, y = _load_sim(cfg)
    report, psnr_v, _ = _run_method(cfg, cfg.method, truth, fm, y)
    lines = ["t,sure,mse,psnr"]
    for row in report.trace:
        lines.append(f"{row.t},{row.sure!r},{row.mse!r},{row.psnr!r}")
    atomic_write(out / "trace.csv", "\n".join(lines) + "\n")
    atomic_write(
        out / "trace_meta.txt",
        format_keyvals([("t_es", report.stop_step), ("steps", len(report.trace))]),
    )
    print(f"trace: t_es={report.stop_step} steps={len(report.trace)} psnr={psnr_v:.2f}")
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
    for name in ("simulate", "recon", "trace", "compare"):
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
        if args.command == "trace":
            return cmd_trace(cfg)
        return cmd_compare(cfg)
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, TensorFileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def entrypoint() -> None:
    raise SystemExit(main())
