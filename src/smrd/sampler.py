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

Each reconstruction prepares one `forward.NormalOperator`, whose one
apply gives A^H A: every CG solve adds `lam z` to it, and every CSGM step
forms its data term `x_zf - A^H A x` from it. The operator goes with the
run and is cached nowhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import metrics
from .forward import ForwardModel, NormalOperator, apply_adjoint
from .fourier import complex_normal, norm2, real_inner
from .priors import ScorePrior, score
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

CG_ITERS = 5  # CG iterations per data-consistency solve
METHODS = ("smrd", "am_fixed", "csgm", "csgm_es", "zero_filled")


@dataclass(frozen=True)
class SamplerConfig:
    """Reconstruction driver settings."""

    method: str = "smrd"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}, expected one of {METHODS}")


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
    """Final image plus the per-step trace, one row per executed step."""

    final: np.ndarray
    trace: list[TraceRow] = field(default_factory=list)

    @property
    def stop_step(self) -> int:
        """Steps executed: 0 for `zero_filled`, t + 1 after an early stop at
        step t, else the schedule's total."""
        return len(self.trace)

    @property
    def final_lambda(self) -> float:
        return self.trace[-1].lam if self.trace else float("nan")


def _require_finite(value: float, what: str, method: str, t: int | None = None) -> None:
    if not math.isfinite(value):
        where = "" if t is None else f" at step {t}"
        raise NumericalError(f"{method}: non-finite {what}{where}")


def langevin_step(x: np.ndarray, prior: ScorePrior, t: int, zeta: np.ndarray) -> np.ndarray:
    """One annealed Langevin step: x + eta_t * score + sqrt(2 eta_t) * zeta."""
    et = prior.schedule.eta(t)
    return x + et * score(prior, x, t) + math.sqrt(2.0 * et) * zeta


def cg_solve(
    op: NormalOperator,
    lam: float,
    x_zf: np.ndarray,
    x_plus: np.ndarray,
    iters: int,
) -> np.ndarray:
    """Run `iters` conjugate-gradient iterations on
    (A^H A + lam I) z = x_zf + lam * x_plus, warm-started at z0 = x_plus,
    with the operator `op` prepared from the forward model.

    lam must be strictly positive (A^H A alone is singular under
    undersampling) and iters nonnegative. The iteration is deterministic, so
    `iters = k` returns the k-th iterate of one and the same CG sequence
    (`iters = 0` returns a copy of x_plus). The inputs are never written to.
    The solve runs in `op.cg` and allocates only the iterate it returns, so
    one operator serves one solve at a time.
    """
    if lam <= 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    if iters < 0:
        raise ValueError(f"iters must be nonnegative, got {iters}")
    if x_zf.shape != op.shape or x_plus.shape != op.shape:
        raise ValueError("x_zf / x_plus shapes do not match the forward model")

    # complex products are not bitwise commutative: keep the textbook operand order
    r, p, ap, tmp = op.cg
    z = np.array(x_plus, dtype=np.complex128)
    np.add(x_zf, np.multiply(lam, x_plus, out=tmp), out=r)
    np.subtract(r, np.add(op.gram(z, out=ap), np.multiply(lam, z, out=tmp), out=ap), out=r)
    np.copyto(p, r)
    rz = norm2(r)
    for _ in range(iters):
        if rz == 0.0:
            break
        np.add(op.gram(p, out=ap), np.multiply(lam, p, out=tmp), out=ap)
        pap = real_inner(p, ap)
        if pap <= 0.0:
            break
        alpha = rz / pap
        z += np.multiply(alpha, p, out=tmp)
        r -= np.multiply(alpha, ap, out=tmp)
        rz_new = norm2(r)
        np.add(r, np.multiply(rz_new / rz, p, out=p), out=p)
        rz = rz_new
    return z


def csgm_step(
    x: np.ndarray,
    prior: ScorePrior,
    op: NormalOperator,
    x_zf: np.ndarray,
    t: int,
    zeta: np.ndarray,
) -> np.ndarray:
    """Posterior-score Langevin baseline: one gradient step on
    score + A^H (y - A x), no inner solve. The data term is computed as
    x_zf - A^H A x, with x_zf = A^H y and `op` prepared from the forward
    model."""
    if x.shape != op.shape or x_zf.shape != op.shape:
        raise ValueError("x / x_zf shapes do not match the forward model")
    et = prior.schedule.eta(t)
    grad = score(prior, x, t) + (x_zf - op.gram(x))
    return x + et * grad + math.sqrt(2.0 * et) * zeta


def run_reconstruction(
    y: np.ndarray,
    fm: ForwardModel,
    prior: ScorePrior,
    sampler_cfg: SamplerConfig | None = None,
    ttt: TttConfig | None = None,
    es: EarlyStopConfig | None = None,
    sure_cfg: SureConfig | None = None,
    truth: np.ndarray | None = None,
) -> ReconReport:
    """Run the configured method end to end and return the report.

    The trace holds one row per executed step; rows carry true MSE/PSNR
    only when `truth` is given. Fully deterministic for a given `sampler_cfg.seed`.
    Raises NumericalError, naming the method and step, at the first
    non-finite image energy, SURE value or lambda gradient.
    """
    cfg = sampler_cfg or SamplerConfig()
    ttt = ttt or TttConfig()
    es = es or EarlyStopConfig()
    sure_cfg = sure_cfg or SureConfig()
    rng = np.random.default_rng(cfg.seed)

    x_zf = apply_adjoint(fm, y)
    # images are checked by energy, which also overflows on finite but huge entries
    _require_finite(norm2(x_zf), "zero-filled image energy", cfg.method)
    if cfg.method == "zero_filled":
        return ReconReport(final=x_zf)

    total = prior.schedule.steps
    window = es.resolve_window(total)
    freeze = ttt.freeze_step(total)
    use_ttt = cfg.method == "smrd"
    use_sure = cfg.method in ("smrd", "csgm_es")  # SURE also drives early stopping
    am_path = cfg.method in ("smrd", "am_fixed")
    op = NormalOperator(fm)

    x = complex_normal(rng, fm.shape)
    state = TttState(lam=ttt.lambda0)
    trace: list[TraceRow] = []

    for t in range(total):
        lam_t = state.lam
        zeta = complex_normal(rng, x.shape)

        if am_path:
            x_plus = langevin_step(x, prior, t, zeta)

            # h as a function of the zero-filled input, with the Langevin
            # iterate frozen: truncating the recursion through x_t leaves
            # only this step's explicit dependence on x_zf.
            def h(v: np.ndarray, lmb: float) -> np.ndarray:
                return cg_solve(op, lmb, v, x_plus, CG_ITERS)

            v_t = x_zf
        else:
            def h(v: np.ndarray, lmb: float) -> np.ndarray:
                return csgm_step(v, prior, op, x_zf, t, zeta)

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
            update_lambda(state, grad)

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
            break

    return ReconReport(final=x, trace=trace)


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
