"""Acceptance gate: every criterion below prints one PASS/FAIL line and
asserts at its stated tolerance and runtime budget. Each line ends with
its headroom, the distance of each measured value to its bound, so a
criterion that passes by a hair shows it."""

import time

import numpy as np
import pytest

import smrd
from smrd.config import ExperimentConfig, reconstruct, simulate
from smrd.cli import main
from smrd.forward import (
    ForwardModel,
    NormalOperator,
    apply_adjoint,
    apply_forward,
    make_equispaced_mask,
    make_poisson_disc_mask,
)
from smrd.metrics import psnr
from smrd.phantom import make_synth_coils
from smrd.sampler import cg_solve
from smrd.sure import draw_probe, early_stop_check, sure_known_sigma


def report(num: int, ok: bool, detail: str, headroom: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} — {detail}; headroom: {headroom}")
    assert ok, f"criterion {num} failed: {detail}"


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.fixture(scope="module")
def shared_runs():
    """Reconstructions keyed by (accel, sigma, seed, method, lambda0), shared
    by criteria 5, 6 and 7. Each fetches its runs through
    reuse_or_reconstruct, which computes a run no earlier criterion stored,
    so each criterion also passes on its own."""
    return {}


def reuse_or_reconstruct(runs, accel, sigma, seed, method, lambda0):
    key = (accel, sigma, seed, method, lambda0)
    if key not in runs:
        cfg = ExperimentConfig(accel=accel, sigma=sigma, seed=seed, lambda0=lambda0)
        truth, fm, y = simulate(cfg)
        runs[key] = truth, reconstruct(cfg, method, truth, fm, y)
    return runs[key]


def test_criterion_1_adjoint_suite():
    start = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    for trial in range(100):
        size = int(rng.choice([16, 32, 64]))
        coils = int(rng.choice([1, 2, 4]))
        if trial % 10 == 0 and size <= 32:
            mask = make_poisson_disc_mask(size, size, 4.0, calib=size // 4, seed=trial)
        else:
            mask = make_equispaced_mask(size, size, float(rng.choice([2, 4])), 0.04, seed=trial)
        fm = ForwardModel(sens=make_synth_coils(size, size, coils, trial), mask=mask)
        x = random_complex(rng, (size, size))
        y = random_complex(rng, (coils, size, size))
        ax = apply_forward(fm, x)
        lhs = np.vdot(ax, y)
        rhs = np.vdot(x, apply_adjoint(fm, y))
        rel = abs(lhs - rhs) / (np.linalg.norm(ax) * np.linalg.norm(y))
        worst = max(worst, rel)
    elapsed = time.time() - start
    ok = worst <= 1e-10 and elapsed < 5.0
    report(1, ok, f"adjoint identity worst rel err {worst:.2e} over 100 draws in {elapsed:.1f}s",
           f"err x{1e-10 / worst:.1e} under bound 1e-10, {elapsed:.1f}s of 5s")


def test_criterion_2_cg_oracle():
    start = time.time()
    h = w = 8
    mask = make_equispaced_mask(h, w, 2.0, 0.0, seed=3)
    fm = ForwardModel(sens=make_synth_coils(h, w, 1, 3), mask=mask)
    op = NormalOperator(fm)
    rng = np.random.default_rng(102)
    x_zf = random_complex(rng, (h, w))
    x_plus = random_complex(rng, (h, w))

    n = h * w
    gram = np.zeros((n, n), dtype=complex)
    for k in range(n):
        e = np.zeros(n, dtype=complex)
        e[k] = 1.0
        gram[:, k] = apply_adjoint(fm, apply_forward(fm, e.reshape(h, w))).ravel()

    worst_rel = 0.0
    monotone = True
    worst_rise = -np.inf  # largest (r_{k+1} - r_k (1 + 1e-10)) / r_0, monotone iff <= 1e-12
    for lam in (0.1, 1.0, 10.0):
        dense = np.linalg.solve(
            gram + lam * np.eye(n), (x_zf + lam * x_plus).ravel()
        ).reshape(h, w)
        got = cg_solve(op, lam, x_zf, x_plus, 64)
        worst_rel = max(worst_rel, np.linalg.norm(got - dense) / np.linalg.norm(dense))
        # true residual of the k-th CG iterate, k = 0..5
        resid = [
            np.linalg.norm(x_zf + lam * x_plus - apply_adjoint(fm, apply_forward(fm, z)) - lam * z)
            for z in (cg_solve(op, lam, x_zf, x_plus, k) for k in range(6))
        ]
        for a, b in zip(resid, resid[1:]):
            if b > a * (1 + 1e-10) + 1e-12 * resid[0]:
                monotone = False
            worst_rise = max(worst_rise, (b - a * (1 + 1e-10)) / resid[0])
    elapsed = time.time() - start
    ok = worst_rel <= 1e-8 and monotone and elapsed < 10.0
    report(2, ok, f"CG vs dense solve rel err {worst_rel:.2e}, residuals monotone={monotone}, {elapsed:.1f}s",
           f"err x{1e-8 / worst_rel:.1e} under bound 1e-08, largest residual rise "
           f"{worst_rise:.1e} r0 vs bound 1e-12 r0, {elapsed:.1f}s of 10s")


def test_criterion_3_trace_estimator():
    start = time.time()
    n = 256
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(5):
        w = np.diag(rng.uniform(0.5, 1.5, size=n)) + 0.05 * (
            rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        )
        mus = draw_probe(rng, (10_000, n))
        quad = np.einsum("pi,pi->p", np.conj(mus), mus @ w.T).real
        rel = abs(quad.mean() - np.trace(w).real) / abs(np.trace(w).real)
        worst = max(worst, rel)
    elapsed = time.time() - start
    ok = worst <= 0.02 and elapsed < 10.0
    report(3, ok, f"trace estimator worst rel err {worst:.3f} over 5 maps in {elapsed:.1f}s",
           f"err {0.02 - worst:.3f} under bound 0.02, {elapsed:.1f}s of 10s")


def test_criterion_4_sure_unbiasedness():
    start = time.time()
    n = 256
    rng = np.random.default_rng(104)
    x = random_complex(rng, (16, 16)) / np.sqrt(2)
    sigma = 0.5
    worst = 0.0
    for c in (0.3, 0.7, 1.0):
        sures = np.empty(10_000)
        mses = np.empty(10_000)
        for i in range(10_000):
            z = (sigma / np.sqrt(2)) * random_complex(rng, x.shape)
            y = x + z
            x_hat = c * y
            sures[i] = sure_known_sigma(x_hat, y, sigma, divergence=2 * n * c)
            mses[i] = float(np.vdot(x_hat - x, x_hat - x).real)
        rel = abs(sures.mean() - mses.mean()) / mses.mean()
        worst = max(worst, rel)
    elapsed = time.time() - start
    ok = worst <= 0.03 and elapsed < 30.0
    report(4, ok, f"known-sigma SURE vs MSE worst rel bias {worst:.3f} in {elapsed:.1f}s",
           f"bias {0.03 - worst:.3f} under bound 0.03, {elapsed:.1f}s of 30s")


def test_criterion_5_sure_tracks_mse(shared_runs):
    start = time.time()
    passing = 0
    details = []
    corrs, gaps = [], []
    lam0 = ExperimentConfig().lambda0  # criterion 6 runs the same five smrd cells
    for seed in range(5):
        truth, rep = reuse_or_reconstruct(shared_runs, 4.0, 0.02, seed, "smrd", lam0)
        sure = np.array([r.sure for r in rep.trace])
        mse = np.array([r.mse for r in rep.trace])
        corr = float(np.corrcoef(sure, mse)[0, 1])
        window = 2 * 42  # 2w at T=300
        gap = abs(rep.stop_step - int(np.argmin(mse)))
        seed_ok = corr >= 0.8 and gap <= window
        passing += seed_ok
        corrs.append(corr)
        gaps.append(gap)
        details.append(f"seed{seed}: corr={corr:.2f} gap={gap}")
    elapsed = time.time() - start
    ok = passing >= 4 and elapsed < 120.0
    report(5, ok, f"{passing}/5 seeds ({'; '.join(details)}) in {elapsed:.0f}s",
           f"{passing}/5 seeds vs 4 needed, lowest corr {min(corrs):.2f} vs bound 0.8, "
           f"largest gap {max(gaps)} vs bound {window}, {elapsed:.0f}s of 120s")


def test_criterion_6_robustness_ordering(shared_runs):
    start = time.time()
    lam0 = ExperimentConfig().lambda0
    ok = True
    details = []
    worst_clean = worst_noisy = np.inf
    for accel in (4.0, 8.0):
        for sigma in (0.0, 0.01, 0.02):
            smrd_vals, am_vals = [], []
            for seed in range(5):
                for method, vals in (("smrd", smrd_vals), ("am_fixed", am_vals)):
                    truth, rep = reuse_or_reconstruct(shared_runs, accel, sigma, seed, method, lam0)
                    vals.append(psnr(truth, rep.final))
            margin = float(np.mean(smrd_vals) - np.mean(am_vals))
            if sigma == 0.0:
                cell_ok = margin >= -1.0
                worst_clean = min(worst_clean, margin)
            else:
                cell_ok = margin >= 1.0
                worst_noisy = min(worst_noisy, margin)
            ok = ok and cell_ok
            details.append(f"R={accel:g},s={sigma:g}: {margin:+.1f}dB")
    elapsed = time.time() - start
    ok = ok and elapsed < 600.0
    report(6, ok, f"smrd-vs-am margins {'; '.join(details)} in {elapsed:.0f}s",
           f"worst noise-free margin {worst_clean:+.1f} dB vs bound -1.0, "
           f"worst noisy margin {worst_noisy:+.1f} dB vs bound +1.0, {elapsed:.0f}s of 600s")


def test_criterion_7_lambda_shift(shared_runs):
    grid = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0)
    lam0 = ExperimentConfig().lambda0  # criterion 6 runs smrd and am_fixed at it
    shift_hits = 0
    for seed in range(5):
        best = {}
        for sigma in (0.0, 0.02):
            scores = []
            for lam in grid:
                truth, rep = reuse_or_reconstruct(shared_runs, 4.0, sigma, seed, "am_fixed", lam)
                scores.append(psnr(truth, rep.final))
            best[sigma] = grid[int(np.argmax(scores))]
        shift_hits += best[0.02] >= best[0.0]
    finals = {}
    for sigma in (0.0, 0.02):
        finals[sigma] = [
            reuse_or_reconstruct(shared_runs, 4.0, sigma, seed, "smrd", lam0)[1].final_lambda
            for seed in range(5)
        ]
    mean_clean = float(np.mean(finals[0.0]))
    mean_noisy = float(np.mean(finals[0.02]))
    ok = shift_hits >= 4 and mean_noisy > mean_clean
    report(
        7,
        ok,
        f"sweep argmax shift in {shift_hits}/5 seeds; tuned lambda mean "
        f"{mean_noisy:.6f} (noisy) vs {mean_clean:.6f} (clean)",
        f"{shift_hits}/5 seeds vs 4 needed, tuned lambda gap {mean_noisy - mean_clean:.1e} > 0",
    )


def test_criterion_8_early_stop_suite():
    start = time.time()

    def oracle(history, w):
        if len(history) < 2 * w:
            return False
        return sum(history[-w:]) / w > sum(history[-2 * w : -w]) / w

    rng = np.random.default_rng(108)
    mismatches = 0
    for _ in range(1000):
        length = int(rng.integers(0, 60))
        w = int(rng.integers(1, 9))
        history = list(rng.normal(size=length))
        for end in range(length + 1):
            if early_stop_check(history[:end], w) != oracle(history[:end], w):
                mismatches += 1

    # all-decreasing never fires
    w = 6
    down = list(np.linspace(10.0, 1.0, 5 * w))
    never = all(not early_stop_check(down[: i + 1], w) for i in range(len(down)))

    # step-up fires within w of the jump
    jump_at = 30
    stepped = list(np.linspace(5.0, 4.0, jump_at)) + [50.0] * (4 * w)
    first = next(
        (i + 1 for i in range(len(stepped)) if early_stop_check(stepped[: i + 1], w)), None
    )
    step_ok = first is not None and jump_at <= first <= jump_at + w

    elapsed = time.time() - start
    ok = mismatches == 0 and never and step_ok and elapsed < 5.0
    lag = None if first is None else first - jump_at
    report(8, ok, f"oracle mismatches={mismatches}, decreasing never fires={never}, "
                  f"step-up fired at {first} (jump {jump_at}), {elapsed:.1f}s",
           f"mismatches {mismatches} vs bound 0, step-up fired {lag} steps after the jump "
           f"vs bound 0..{w}, {elapsed:.1f}s of 5s")


def test_criterion_9_compare_determinism(tmp_path):
    args = ["--sigma", "0.01", "--accel", "4", "--seed", "3"]
    outs = []
    for name in ("run_a", "run_b"):
        out = tmp_path / name
        assert main(["simulate", *args, "--out", str(out)]) == 0
        assert main(["compare", *args, "--out", str(out)]) == 0
        outs.append(out)
    artifacts = sorted(p.name for p in outs[0].iterdir())
    differing = [
        name for name in artifacts
        if (outs[0] / name).read_bytes() != (outs[1] / name).read_bytes()
    ]
    same = not differing
    ok = same and "compare.csv" in artifacts
    report(9, ok, f"{len(artifacts)} artifacts byte-identical across reruns: {same}",
           f"{len(differing)} differing artifacts vs bound 0")
