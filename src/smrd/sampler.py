"""Annealed Langevin sampling with a conjugate-gradient data-consistency
step, risk-tuned regularization and early stopping, plus the baseline
samplers used for method comparisons.

One reconstruction step of the tuned method is:

    x_plus = x_t + eta_t * score(x_t, t) + sqrt(2 eta_t) * zeta
    x_next = argmin_z ||A z - y||^2 + lam * ||z - x_plus||^2      (CG)
    SURE(t) from the same update with frozen zeta
    lam    <- adaptive-moment step on d SURE / d lam (until frozen)
    stop when the SURE moving average turns upward

Baselines: `am_fixed` keeps lam constant with no stopping, `csgm` /
`csgm_es` take a single posterior-score gradient step instead of the inner
solve, and `zero_filled` returns the adjoint image.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import metrics
from .forward import ForwardModel, apply_adjoint, apply_forward
from .fourier import norm2
from .priors import ScorePrior, eta, score
from .sure import (
    EarlyStopConfig,
    NumericalError,
    SureConfig,
    TttConfig,
    TttState,
    early_stop_check,
    grad_sure_lambda,
    mc_sure,
    update_lambda,
)
from .tensorfile import atomic_write

METHODS = ("smrd", "am_fixed", "csgm", "csgm_es", "zero_filled")

_AXES = (-2, -1)


@dataclass(frozen=True)
class SamplerConfig:
    """Reconstruction driver settings."""

    method: str = "smrd"
    cg_iters: int = 5
    dc_weight: float = 1.0  # posterior-score baselines only
    seed: int = 0

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}, expected one of {METHODS}")
        if self.cg_iters < 1:
            raise ValueError("cg_iters must be >= 1")


@dataclass
class TraceRow:
    """Per-step diagnostics; nan marks fields a method does not produce."""

    t: int
    sure: float
    lam: float
    mse: float
    psnr: float


@dataclass
class ReconReport:
    """Final image plus the per-step trace and the stop iteration."""

    final: np.ndarray
    stop_step: int
    trace: list[TraceRow] = field(default_factory=list)

    @property
    def final_lambda(self) -> float:
        return self.trace[-1].lam if self.trace else float("nan")


def _complex_normal(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    # unit variance per real/imag component
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _require_finite(value: float, what: str, method: str, t: int | None = None) -> None:
    if not math.isfinite(value):
        where = "" if t is None else f" at step {t}"
        raise NumericalError(f"{method}: non-finite {what}{where}")


def langevin_step(x: np.ndarray, prior: ScorePrior, t: int, zeta: np.ndarray) -> np.ndarray:
    """One annealed Langevin step: x + eta_t * score + sqrt(2 eta_t) * zeta."""
    et = eta(prior.schedule, t)
    return x + et * score(prior, x, t) + math.sqrt(2.0 * et) * zeta


def cg_solve(
    fm: ForwardModel,
    lam: float,
    x_zf: np.ndarray,
    x_plus: np.ndarray,
    iters: int,
    residuals: list[float] | None = None,
) -> np.ndarray:
    """Run `iters` conjugate-gradient iterations on
    (A^H A + lam I) z = x_zf + lam * x_plus, warm-started at z0 = x_plus.

    lam must be strictly positive (A^H A alone is singular under
    undersampling). Pass a list as `residuals` to collect the true residual
    norm after the start and each iteration (test instrumentation; costs an
    extra operator apply per entry).
    """
    if lam <= 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    if x_zf.shape != fm.shape or x_plus.shape != fm.shape:
        raise ValueError("x_zf / x_plus shapes do not match the forward model")

    # The centered-FFT shifts are permutations, so the whole solve runs in
    # natural FFT order with one shift at each boundary.
    sens = np.fft.ifftshift(fm.sens, axes=_AXES)
    sens_h = np.conj(sens)
    keep = np.fft.ifftshift(fm.mask.keep, axes=_AXES)

    def normal_op(z: np.ndarray) -> np.ndarray:
        ksp = np.fft.fft2(sens * z, axes=_AXES, norm="ortho") * keep
        return np.sum(sens_h * np.fft.ifft2(ksp, axes=_AXES, norm="ortho"), axis=0) + lam * z

    b = np.fft.ifftshift(x_zf + lam * x_plus, axes=_AXES)
    z = np.fft.ifftshift(np.asarray(x_plus, dtype=np.complex128), axes=_AXES)
    r = b - normal_op(z)
    p = r.copy()
    rz = float(np.vdot(r, r).real)
    if residuals is not None:
        residuals.append(math.sqrt(norm2(b - normal_op(z))))
    for _ in range(iters):
        if rz == 0.0:
            break
        ap = normal_op(p)
        pap = float(np.vdot(p, ap).real)
        if pap <= 0.0:
            break
        alpha = rz / pap
        z = z + alpha * p
        r = r - alpha * ap
        rz_new = float(np.vdot(r, r).real)
        p = r + (rz_new / rz) * p
        rz = rz_new
        if residuals is not None:
            residuals.append(math.sqrt(norm2(b - normal_op(z))))
    return np.fft.fftshift(z, axes=_AXES)


def csgm_step(
    x: np.ndarray,
    prior: ScorePrior,
    fm: ForwardModel,
    y: np.ndarray,
    t: int,
    zeta: np.ndarray,
    dc_weight: float = 1.0,
) -> np.ndarray:
    """Posterior-score Langevin baseline: one gradient step on
    score + dc_weight * A^H (y - A x), no inner solve."""
    et = eta(prior.schedule, t)
    grad = score(prior, x, t)
    if dc_weight != 0.0:
        grad = grad + dc_weight * apply_adjoint(fm, y - apply_forward(fm, x))
    return x + et * grad + math.sqrt(2.0 * et) * zeta


def run_reconstruction(
    y: np.ndarray,
    fm: ForwardModel,
    prior: ScorePrior,
    sampler_cfg: SamplerConfig | None = None,
    ttt: TttConfig | None = None,
    es: EarlyStopConfig | None = None,
    sure_cfg: SureConfig | None = None,
    rng: np.random.Generator | None = None,
    truth: np.ndarray | None = None,
) -> ReconReport:
    """Run the configured method end to end and return the report.

    The trace holds one row per executed step; rows carry true MSE/PSNR
    only when `truth` is given. Fully deterministic for a given rng state.
    Raises NumericalError, naming the method and step, at the first
    non-finite image energy, SURE value or lambda gradient.
    """
    cfg = sampler_cfg or SamplerConfig()
    ttt = ttt or TttConfig()
    es = es or EarlyStopConfig()
    sure_cfg = sure_cfg or SureConfig()
    rng = rng if rng is not None else np.random.default_rng(cfg.seed)

    x_zf = apply_adjoint(fm, y)
    # images are checked by energy, which also overflows on finite but huge entries
    _require_finite(norm2(x_zf), "zero-filled image energy", cfg.method)
    if cfg.method == "zero_filled":
        return ReconReport(final=x_zf, stop_step=0, trace=[])

    total = prior.total_steps
    window = es.resolve_window(total)
    freeze = ttt.freeze_step(total)
    use_ttt = cfg.method == "smrd"
    use_sure = cfg.method in ("smrd", "csgm_es")  # SURE also drives early stopping
    am_path = cfg.method in ("smrd", "am_fixed")

    x = _complex_normal(rng, fm.shape)
    state = TttState(lam=ttt.lambda0)
    trace: list[TraceRow] = []
    stop_step = total

    for t in range(total):
        lam_t = state.lam
        zeta = _complex_normal(rng, x.shape)

        if am_path:
            x_plus = langevin_step(x, prior, t, zeta)

            # h as a function of the zero-filled input, with the Langevin
            # iterate frozen: truncating the recursion through x_t leaves
            # only this step's explicit dependence on x_zf.
            def h(v: np.ndarray, lmb: float) -> np.ndarray:
                return cg_solve(fm, lmb, v, x_plus, cfg.cg_iters)

            v_t = x_zf
        else:
            def h(v: np.ndarray, lmb: float) -> np.ndarray:
                return csgm_step(v, prior, fm, y, t, zeta, cfg.dc_weight)

            v_t = x
        x_next = h(v_t, lam_t)
        _require_finite(norm2(x_next), "iterate energy", cfg.method, t)

        sure_val = float("nan")
        if use_sure:
            sure_val = mc_sure(h, v_t, x_zf, lam_t, sure_cfg, rng, h_at_x=x_next)
            _require_finite(sure_val, "SURE value", cfg.method, t)
            state.sure_history.append(sure_val)
        if use_ttt and t < freeze:
            grad = grad_sure_lambda(h, x_zf, x_zf, lam_t, sure_cfg, rng)
            _require_finite(grad, "lambda gradient", cfg.method, t)
            update_lambda(state, grad, ttt)

        if truth is not None:
            mse = float(np.mean(np.abs(x_next - truth) ** 2))
            step_psnr = metrics.psnr(truth, x_next)
        else:
            mse = float("nan")
            step_psnr = float("nan")
        trace.append(
            TraceRow(
                t=t,
                sure=sure_val,
                lam=lam_t if am_path else float("nan"),
                mse=mse,
                psnr=step_psnr,
            )
        )

        x = x_next
        if use_sure and early_stop_check(state.sure_history, window):
            stop_step = t + 1
            break

    return ReconReport(final=x, stop_step=stop_step, trace=trace)


def write_trace_csv(report: ReconReport, path) -> None:
    """Serialize the per-step trace as CSV (t, sure, lambda, mse, psnr).

    Floats are written with repr (shortest round trip), so identical runs
    produce identical bytes.
    """
    lines = ["t,sure,lambda,mse,psnr"]
    for row in report.trace:
        lines.append(
            f"{row.t},{float(row.sure)!r},{float(row.lam)!r},"
            f"{float(row.mse)!r},{float(row.psnr)!r}"
        )
    atomic_write(path, "\n".join(lines) + "\n")
