import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from smrd import sampler
from smrd.config import MASK_KINDS, ExperimentConfig, build_prior, reconstruct, simulate
from smrd.forward import (
    ForwardModel,
    NormalOperator,
    SamplingMask,
    apply_adjoint,
    apply_forward,
    make_equispaced_mask,
    make_poisson_disc_mask,
)
from smrd.fourier import real_inner
from smrd.metrics import psnr
from smrd.phantom import PhantomSpec, make_phantom, make_synth_coils
from smrd.priors import ScorePrior, score
from smrd.sampler import (
    CG_ITERS,
    METHODS,
    SamplerConfig,
    cg_solve,
    csgm_step,
    langevin_step,
    run_reconstruction,
)
from smrd.sure import LAMBDA_MAX, LAMBDA_MIN, TttConfig, early_stop_check, freeze_step, stop_window
from tests.test_fourier import random_complex


def unit_model(h, w, accel=1.0, acs=0.0, seed=0):
    if accel == 1.0:
        mask = SamplingMask(keep=np.ones((h, w), dtype=bool), accel=1.0)
    else:
        mask = make_equispaced_mask(h, w, accel, acs, seed)
    return ForwardModel(sens=np.ones((1, h, w), dtype=complex), mask=mask)


def materialize_normal(fm, lam):
    """Dense (A^H A + lam I) built column by column via the public ops."""
    h, w = fm.shape
    n = h * w
    mat = np.zeros((n, n), dtype=complex)
    for k in range(n):
        e = np.zeros(n, dtype=complex)
        e[k] = 1.0
        col = apply_adjoint(fm, apply_forward(fm, e.reshape(h, w))) + lam * e.reshape(h, w)
        mat[:, k] = col.ravel()
    return mat


# langevin ---------------------------------------------------------------

def test_langevin_zero_prior_zero_noise_is_identity():
    prior = ScorePrior()
    rng = np.random.default_rng(0)
    x = random_complex(rng, (8, 8))
    out = langevin_step(x, prior, 0, np.zeros_like(x))
    assert np.array_equal(out, x)


def test_langevin_deterministic():
    prior = ScorePrior(mean=np.zeros((8, 8)), tau2=1.0)
    rng = np.random.default_rng(1)
    x = random_complex(rng, (8, 8))
    zeta = random_complex(np.random.default_rng(42), x.shape)
    a = langevin_step(x, prior, 3, zeta)
    b = langevin_step(x, prior, 3, zeta.copy())
    assert np.array_equal(a, b)


def test_langevin_scalar_closed_form():
    # gaussian prior (mean 0, tau2 1) at step 0 (beta = BETA_MAX = 1): 2 + eta * (-1)
    prior = ScorePrior(mean=np.zeros((1, 1)), tau2=1.0)
    eta = prior.schedule.eta(0)
    assert eta == pytest.approx(0.2)  # EPS0 / BETA_MIN^2
    out = langevin_step(np.array([[2.0 + 0j]]), prior, 0, np.zeros((1, 1)))
    assert out[0, 0] == pytest.approx(2.0 - eta)


# cg_solve ---------------------------------------------------------------

def test_cg_full_mask_single_coil_one_iteration_exact():
    fm = unit_model(8, 8)
    rng = np.random.default_rng(2)
    x_zf = random_complex(rng, (8, 8))
    x_plus = random_complex(rng, (8, 8))
    lam = 2.0
    got = cg_solve(NormalOperator(fm), lam, x_zf, x_plus, 1)
    want = (x_zf + lam * x_plus) / (1 + lam)
    assert np.max(np.abs(got - want)) < 1e-10


def test_cg_large_lambda_returns_x_plus():
    fm = unit_model(8, 8, accel=2.0)
    rng = np.random.default_rng(3)
    x_zf = random_complex(rng, (8, 8))
    x_plus = random_complex(rng, (8, 8))
    got = cg_solve(NormalOperator(fm), 1e6, x_zf, x_plus, 5)
    assert np.linalg.norm(got - x_plus) / np.linalg.norm(x_plus) <= 1e-5


def _odd_random_mask_model():
    h, w = 15, 17
    keep = np.random.default_rng(11).random((h, w)) < 0.4
    return ForwardModel(sens=make_synth_coils(h, w, 3, 2), mask=SamplingMask(keep=keep, accel=2.5))


def _odd_column_mask_model():
    h, w = 15, 17
    cols = np.random.default_rng(12).random(w) < 0.4
    keep = np.broadcast_to(cols, (h, w)).copy()
    return ForwardModel(sens=make_synth_coils(h, w, 3, 3), mask=SamplingMask(keep=keep, accel=2.5))


CG_MODELS = {
    "equispaced_64x64x4": lambda: ForwardModel(
        sens=make_synth_coils(64, 64, 4, 0), mask=make_equispaced_mask(64, 64, 4.0, 0.08, 1)),
    "poisson_32x32x2": lambda: ForwardModel(
        sens=make_synth_coils(32, 32, 2, 0), mask=make_poisson_disc_mask(32, 32, 4.0, 8, 1)),
    "random_15x17x3": _odd_random_mask_model,
    "column_15x17x3": _odd_column_mask_model,
}

# the bitwise guards also run at the largest benchmark size
BITWISE_MODELS = {
    **CG_MODELS,
    "poisson_128x128x4": lambda: ForwardModel(
        sens=make_synth_coils(128, 128, 4, 0), mask=make_poisson_disc_mask(128, 128, 4.0, 16, 1)),
    "equispaced_128x128x4": lambda: ForwardModel(
        sens=make_synth_coils(128, 128, 4, 0), mask=make_equispaced_mask(128, 128, 4.0, 0.08, 1)),
}


# the models where the operator's apply and the reference composition differ
# in rounding: odd sizes, and column masks, whose apply transforms one axis
ROUNDING_MODELS = {"random_15x17x3", "column_15x17x3", "equispaced_64x64x4",
                   "equispaced_128x128x4"}


def reference_gram(fm, v):
    return apply_adjoint(fm, apply_forward(fm, v))


def transform_axes(keep):
    """The image axes along which a mask is not constant; both axes for a
    constant (fully sampled or empty) mask."""
    return tuple(ax for ax in (-2, -1) if not (keep == keep.take([0], axis=ax)).all()) or (-2, -1)


def shift_free_gram(fm, v):
    """sum_c conj(S_c) * ifft(M' * fft(S_c * v)) out of place, with M' the
    mask shifted once and both transforms along the axes where the mask
    varies: the formula `NormalOperator.gram` applies in place."""
    keep = np.fft.ifftshift(fm.mask.keep)
    axes = transform_axes(keep)
    kspace = np.fft.fft2(fm.sens * v, axes=axes, norm="ortho") * keep
    return np.sum(np.conj(fm.sens) * np.fft.ifftn(kspace, axes=axes, norm="ortho"), axis=0)


def assert_matches_references(name, got, build):
    """`build(gram)` computes the expected result from an out-of-place Gram
    apply. `got` is bitwise the shift-free formula's result on every model and
    the reference composition's on the models that transform both axes at a
    power-of-two size; on the others it agrees with the reference composition
    to 1e-14 relative (max-abs)."""
    assert np.array_equal(got, build(shift_free_gram))
    want = build(reference_gram)
    if name in ROUNDING_MODELS:
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    else:
        assert np.array_equal(got, want)


def reference_cg(fm, lam, x_zf, x_plus, iters, gram=shift_free_gram):
    """Textbook CG on (A^H A + lam I) z = x_zf + lam x_plus from z0 = x_plus,
    with `gram` an out-of-place Gram apply."""
    def normal(v):
        return gram(fm, v) + lam * v

    z = x_plus.astype(complex)
    r = x_zf + lam * x_plus - normal(z)
    p = r.copy()
    rz = real_inner(r, r)
    for _ in range(iters):
        ap = normal(p)
        alpha = rz / real_inner(p, ap)
        z = z + alpha * p
        r = r - alpha * ap
        rz_new = real_inner(r, r)
        p = r + (rz_new / rz) * p
        rz = rz_new
    return z


@pytest.mark.parametrize("name", sorted(BITWISE_MODELS))
def test_cg_is_bitwise_the_reference(name):
    fm = BITWISE_MODELS[name]()
    rng = np.random.default_rng(19)
    x_zf = random_complex(rng, fm.shape)
    x_plus = random_complex(rng, fm.shape)
    op = NormalOperator(fm)
    for lam in (0.5, 4.0):
        assert_matches_references(name, cg_solve(op, lam, x_zf, x_plus, 5),
                                  lambda gram: reference_cg(fm, lam, x_zf, x_plus, 5, gram))


def test_cg_runs_in_its_operators_arrays():
    # a solve's peak memory does not grow with its iteration count, and the
    # only memory it keeps is the iterate it returns
    _, fm, y = simulate(ExperimentConfig(size=32))
    op = NormalOperator(fm)
    x_zf = apply_adjoint(fm, y)
    x_plus = random_complex(np.random.default_rng(22), fm.shape)
    image = x_zf.nbytes
    cg_solve(op, 2.0, x_zf, x_plus, 20)  # fills numpy's FFT and small-array caches
    peaks = []
    for iters in (0, 20):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            z = cg_solve(op, 2.0, x_zf, x_plus, iters)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak - base)
        assert abs(kept - base - z.nbytes) <= 0.25 * image
    assert abs(peaks[1] - peaks[0]) <= 0.25 * image


def test_cg_interleaved_calls_match_fresh_calls():
    # two models of one shape: a solve must not see another solve's state
    other = ForwardModel(sens=make_synth_coils(64, 64, 4, 5),
                         mask=make_equispaced_mask(64, 64, 2.0, 0.08, 6))
    fms = [CG_MODELS["equispaced_64x64x4"](), other]
    rng = np.random.default_rng(14)
    x_zf = random_complex(rng, (64, 64))
    x_plus = random_complex(rng, (64, 64))
    cells = [(0, 0.5), (1, 4.0), (0, 4.0), (1, 0.5), (0, 0.5)]
    ops = [NormalOperator(fm) for fm in fms]
    fresh = {cell: cg_solve(NormalOperator(fms[cell[0]]), cell[1], x_zf, x_plus, 5)
             for cell in cells}
    for cell in reversed(cells):
        got = cg_solve(ops[cell[0]], cell[1], x_zf, x_plus, 5)
        assert np.array_equal(got, fresh[cell])
        assert np.array_equal(got, reference_cg(fms[cell[0]], cell[1], x_zf, x_plus, 5))


# one 128^2 Poisson solve and its SURE value, printed as a digest; 16384
# pixels is past the size where a threaded BLAS reduction splits its sum
THREAD_PROBE = """
import hashlib
import numpy as np
from smrd.forward import ForwardModel, NormalOperator, apply_adjoint, make_poisson_disc_mask
from smrd.phantom import make_synth_coils
from smrd.sampler import cg_solve
from smrd.sure import mc_sure

fm = ForwardModel(sens=make_synth_coils(128, 128, 4, 0),
                  mask=make_poisson_disc_mask(128, 128, 4.0, 16, 1))
rng = np.random.default_rng(20)
y = rng.standard_normal(fm.sens.shape) + 1j * rng.standard_normal(fm.sens.shape)
x_zf = apply_adjoint(fm, y)
x_plus = rng.standard_normal(fm.shape) + 1j * rng.standard_normal(fm.shape)
op = NormalOperator(fm)
z = cg_solve(op, 2.0, x_zf, x_plus, 5)
sure = mc_sure(lambda v, lam: cg_solve(op, lam, v, x_plus, 5), x_zf, x_zf, 2.0, rng)
print(hashlib.sha256(z.tobytes()).hexdigest(), repr(sure))
"""


def test_solver_bits_do_not_depend_on_the_blas_thread_count():
    src = Path(sampler.__file__).resolve().parents[1]
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": str(src)}
        run = subprocess.run([sys.executable, "-c", THREAD_PROBE], env=env, capture_output=True,
                             text=True, timeout=300, check=True)
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1]


def test_cg_rejects_nonpositive_lambda():
    fm = unit_model(4, 4)
    z = np.zeros((4, 4), dtype=complex)
    for lam in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match=f"^lambda must be positive and finite, got {lam}$"):
            cg_solve(NormalOperator(fm), lam, z, z, 5)


def test_cg_rejects_negative_iters():
    op = NormalOperator(unit_model(4, 4))
    z = np.zeros((4, 4), dtype=complex)
    with pytest.raises(ValueError):
        cg_solve(op, 1.0, z, z, -3)


# the prepared operator, shared by cg_solve and csgm_step -------------

def _operator_inputs(fm, seed):
    rng = np.random.default_rng(seed)
    x = random_complex(rng, fm.shape)
    y = random_complex(rng, fm.sens.shape)
    return x, y, random_complex(rng, fm.shape), random_complex(rng, fm.shape)


@pytest.mark.parametrize("name", sorted(BITWISE_MODELS))
def test_gram_is_bitwise_the_shifted_reference_composition(name):
    # "shifted": the reference composition with the mask shifted once
    fm = BITWISE_MODELS[name]()
    x, _, _, _ = _operator_inputs(fm, 15)
    assert_matches_references(name, NormalOperator(fm).gram(x), lambda gram: gram(fm, x))


@pytest.mark.parametrize("name", sorted(BITWISE_MODELS))
def test_csgm_step_is_bitwise_the_reference_formula(name):
    fm = BITWISE_MODELS[name]()
    x, y, zeta, _ = _operator_inputs(fm, 16)
    x_zf = apply_adjoint(fm, y)
    prior = ScorePrior(mean=np.zeros(fm.shape), tau2=1.0)
    t = 7
    et = prior.schedule.eta(t)

    def want(gram):
        grad = score(prior, x, t) + (x_zf - gram(fm, x))
        return x + et * grad + math.sqrt(2.0 * et) * zeta

    assert_matches_references(name, csgm_step(x, prior, NormalOperator(fm), x_zf, t, zeta), want)


def test_csgm_step_rejects_mismatched_shapes():
    op = NormalOperator(unit_model(4, 4))
    prior = ScorePrior()
    z = np.zeros((4, 4), dtype=complex)
    for x, x_zf in ((z[:1], z), (z, z[:, :1])):
        with pytest.raises(ValueError):
            csgm_step(x, prior, op, x_zf, 0, z)
        with pytest.raises(ValueError, match="^x_zf / x_plus shapes do not match the forward model$"):
            cg_solve(op, 2.0, x_zf, x, 1)


@pytest.mark.parametrize("name", sorted(CG_MODELS))
def test_one_operator_serves_interleaved_solves_and_data_terms(name):
    fm = CG_MODELS[name]()
    x, _, x_zf, x_plus = _operator_inputs(fm, 17)
    prior = ScorePrior(mean=np.zeros(fm.shape), tau2=1.0)
    zeta = np.zeros(fm.shape, dtype=complex)
    op = NormalOperator(fm)
    for lam in (0.5, 4.0, 0.5):
        got = cg_solve(op, lam, x_zf, x_plus, 5)
        assert np.array_equal(got, cg_solve(NormalOperator(fm), lam, x_zf, x_plus, 5))
        assert np.array_equal(got, reference_cg(fm, lam, x_zf, x_plus, 5))
        assert np.array_equal(csgm_step(x, prior, op, x_zf, 7, zeta),
                              csgm_step(x, prior, NormalOperator(fm), x_zf, 7, zeta))


@pytest.mark.parametrize("name", sorted(CG_MODELS))
def test_operator_leaves_inputs_alone_and_returns_its_own_arrays(name):
    fm = CG_MODELS[name]()
    x, y, x_zf, x_plus = _operator_inputs(fm, 18)
    inputs = (fm.sens, fm.mask.keep, y, x_zf, x_plus, x)
    before = [a.copy() for a in inputs]
    op = NormalOperator(fm)
    prior = ScorePrior(mean=np.zeros(fm.shape), tau2=1.0)
    results = [cg_solve(op, 1.5, x_zf, x_plus, k) for k in (0, 3)]
    solved = results[1].copy()
    results.append(op.gram(x))
    results.append(csgm_step(x, prior, op, x_zf, 7, x_plus))
    results.append(cg_solve(op, 4.0, x_plus, x_zf, 3))
    assert np.array_equal(results[1], solved)
    for a, b in zip(before, inputs):
        assert np.array_equal(a, b)
    for got in results:
        for held in (op.sens, op.sens_h, op.keep, op.work, op.cg, *inputs):
            assert not np.shares_memory(got, held)


# 8x8 masks of every shape the Gram apply distinguishes, with the axes its
# transforms run along
GRAM_MASKS = {
    "full": (lambda: np.ones((8, 8), dtype=bool), (-2, -1)),
    "empty": (lambda: np.zeros((8, 8), dtype=bool), (-2, -1)),
    "column": (lambda: make_equispaced_mask(8, 8, 2.0).keep, (-1,)),
    "row": (lambda: make_equispaced_mask(8, 8, 2.0).keep.T.copy(), (-2,)),
    "poisson": (lambda: make_poisson_disc_mask(8, 8, 2.0, 2, 0).keep, (-2, -1)),
}


def _gram_mask_model(kind):
    keep = GRAM_MASKS[kind][0]()
    return ForwardModel(sens=make_synth_coils(8, 8, 2, 0), mask=SamplingMask(keep=keep, accel=2.0))


def dense_gram(fm):
    """A^H A = sum_c diag(conj s_c) F^H diag(m) F diag(s_c) as a dense matrix,
    with F the centered orthonormal 2D DFT built from its entries, not by an FFT."""
    def centered_dft(n):
        k = np.arange(n) - n // 2
        return np.exp(-2j * np.pi * np.outer(k, k) / n) / math.sqrt(n)

    h, w = fm.shape
    f = np.kron(centered_dft(h), centered_dft(w))
    fhmf = f.conj().T @ (fm.mask.keep.ravel()[:, None] * f)
    return sum(np.conj(s.ravel())[:, None] * fhmf * s.ravel()[None, :] for s in fm.sens)


@pytest.mark.parametrize("kind", sorted(GRAM_MASKS))
def test_gram_matches_the_dense_normal_matrix(kind):
    fm = _gram_mask_model(kind)
    op = NormalOperator(fm)
    got = np.stack([op.gram(e.reshape(8, 8)).ravel() for e in np.eye(64)], axis=1)
    scale = np.max(np.abs(fm.sens)) ** 2
    assert np.max(np.abs(got - materialize_normal(fm, 0.0))) <= 1e-14 * scale
    assert np.max(np.abs(got - dense_gram(fm))) <= 1e-14 * scale
    if kind == "empty":
        assert not got.any()


@pytest.mark.parametrize("kind", sorted(GRAM_MASKS))
def test_gram_transforms_only_where_the_mask_varies(monkeypatch, kind):
    calls = []
    for name in ("fft2", "ifftn"):
        def spy(a, *args, _name=name, _real=getattr(np.fft, name), **kwargs):
            calls.append((_name, kwargs["axes"]))
            return _real(a, *args, **kwargs)
        monkeypatch.setattr(np.fft, name, spy)
    op = NormalOperator(_gram_mask_model(kind))
    x = random_complex(np.random.default_rng(21), (8, 8))
    axes = GRAM_MASKS[kind][1]
    want = op.gram(x)
    buf = np.empty((8, 8), dtype=complex)
    for out in (None, None, buf):
        calls.clear()
        got = op.gram(x, out=out)
        assert calls == [("fft2", axes), ("ifftn", axes)]
        assert np.array_equal(got, want)
    assert got is buf


@pytest.mark.parametrize("method", ["smrd", "am_fixed", "csgm", "csgm_es", "zero_filled"])
def test_one_operator_build_per_reconstruction(monkeypatch, method):
    builds = []

    class Counted(NormalOperator):
        def __init__(self, fm):
            builds.append(fm)
            super().__init__(fm)

    monkeypatch.setattr(sampler, "NormalOperator", Counted)
    truth, fm, y, prior = small_setup()
    run_reconstruction(y, fm, prior, SamplerConfig(method=method))
    assert len(builds) == (0 if method == "zero_filled" else 1)
    assert all(b is fm for b in builds)


def run_work(method, stop, total):
    # (cg_solve calls, Gram applies) of a `total`-step run that stopped at step `stop`:
    # smrd solves 6 times per step before the freeze and twice after, am_fixed once
    # per step, each solve applies the Gram once to warm-start and once per CG
    # iteration, and csgm/csgm_es apply it once per step and once per SURE value
    tuned = min(freeze_step(total), stop)
    solves = {"smrd": 6 * tuned + 2 * (stop - tuned), "am_fixed": stop}.get(method, 0)
    extra = {"csgm": stop, "csgm_es": 2 * stop}.get(method, 0)
    return solves, (1 + CG_ITERS) * solves + extra


def test_run_work_is_fixed_by_the_stop_step(monkeypatch):
    # perfbench pins the formula's counts of a 300-step run that does not stop early
    assert run_work("smrd", 300, 300) == (1116, 6696)
    assert run_work("am_fixed", 300, 300) == (300, 1800)

    counts = {"solves": 0, "applies": 0}
    solve, gram = sampler.cg_solve, NormalOperator.gram

    def counted_solve(*args, **kwargs):
        counts["solves"] += 1
        return solve(*args, **kwargs)

    def counted_gram(self, *args, **kwargs):
        counts["applies"] += 1
        return gram(self, *args, **kwargs)

    monkeypatch.setattr(sampler, "cg_solve", counted_solve)
    monkeypatch.setattr(NormalOperator, "gram", counted_gram)
    base = ExperimentConfig(size=32, coils=4, steps=60, calib=8, sigma=0.02)
    for mask in MASK_KINDS:
        cfg = base.replace(mask=mask).validate()
        truth, fm, y = simulate(cfg)
        for method in METHODS:
            counts.update(solves=0, applies=0)
            rep = reconstruct(cfg, method, truth, fm, y)
            want = run_work(method, rep.stop_step, cfg.steps)
            assert (counts["solves"], counts["applies"]) == want, (mask, method, rep.stop_step)


# data-consistency update: cg_solve on the zero-filled image A^H y ------

def test_am_update_inverts_fully_sampled_data():
    h = w = 32
    mask = SamplingMask(keep=np.ones((h, w), dtype=bool), accel=1.0)
    fm = ForwardModel(sens=make_synth_coils(h, w, 4, 0), mask=mask)
    truth = make_phantom(PhantomSpec(size=h), 0)
    y = apply_forward(fm, truth)
    out = cg_solve(NormalOperator(fm), 1e-6, apply_adjoint(fm, y), np.zeros_like(truth), 10)
    assert psnr(truth, out) >= 80.0


def test_am_update_affine_in_inputs_when_converged():
    # single-coil spectra are {lam, 1 + lam}; CG converges within 5 iterations,
    # and the converged solve is affine in (y, x_plus)
    fm = unit_model(8, 8, accel=2.0, seed=8)
    rng = np.random.default_rng(7)
    y1 = random_complex(rng, (1, 8, 8)) * fm.mask.keep
    y2 = random_complex(rng, (1, 8, 8)) * fm.mask.keep
    p1 = random_complex(rng, (8, 8))
    p2 = random_complex(rng, (8, 8))
    a, b = 0.6, 0.4

    op = NormalOperator(fm)

    def am_update(y, x_plus):
        return cg_solve(op, 2.0, apply_adjoint(fm, y), x_plus, 5)

    lhs = am_update(a * y1 + b * y2, a * p1 + b * p2)
    rhs = a * am_update(y1, p1) + b * am_update(y2, p2)
    assert np.max(np.abs(lhs - rhs)) < 1e-10 * max(1.0, np.max(np.abs(rhs)))


def test_normal_equation_residual_small_when_converged():
    fm = unit_model(8, 8, accel=2.0, seed=9)
    rng = np.random.default_rng(8)
    x_zf = random_complex(rng, (8, 8))
    x_plus = random_complex(rng, (8, 8))
    lam = 0.7
    z = cg_solve(NormalOperator(fm), lam, x_zf, x_plus, 64)
    resid = x_zf + lam * x_plus - (apply_adjoint(fm, apply_forward(fm, z)) + lam * z)
    assert np.linalg.norm(resid) <= 1e-8 * np.linalg.norm(x_zf + lam * x_plus)


# csgm -------------------------------------------------------------------

def test_csgm_data_term_vanishes_on_consistent_iterate():
    h = w = 16
    mask = SamplingMask(keep=np.ones((h, w), dtype=bool), accel=1.0)
    fm = ForwardModel(sens=make_synth_coils(h, w, 2, 1), mask=mask)
    truth = make_phantom(PhantomSpec(size=h), 1)
    y = apply_forward(fm, truth)
    prior = ScorePrior()
    zeta = random_complex(np.random.default_rng(0), truth.shape)
    out = csgm_step(truth, prior, NormalOperator(fm), apply_adjoint(fm, y), 0, zeta)
    assert np.array_equal(out, langevin_step(truth, prior, 0, zeta))


def test_csgm_scalar_recursion():
    # full 1x1 mask, unit sens, zero noise: x + eta * (score + (y - x))
    fm = unit_model(1, 1)
    prior = ScorePrior(mean=np.zeros((1, 1)), tau2=1.0)  # beta_0 = 1
    x = np.array([[2.0 + 0j]])
    y = np.array([[[1.0 + 0j]]])
    out = csgm_step(x, prior, NormalOperator(fm), apply_adjoint(fm, y), 0, np.zeros((1, 1)))
    want = 2.0 + prior.schedule.eta(0) * (-1.0 + (1.0 - 2.0))
    assert out[0, 0] == pytest.approx(want)


# run_reconstruction -----------------------------------------------------

def small_setup(sigma=0.0, seed=0):
    cfg = ExperimentConfig(size=32, coils=2, accel=4.0, sigma=sigma, seed=seed, steps=30)
    truth, fm, y = simulate(cfg)
    return truth, fm, y, build_prior(cfg, truth)


def test_zero_filled_method():
    truth, fm, y, prior = small_setup()
    rep = run_reconstruction(y, fm, prior, SamplerConfig(method="zero_filled"))
    assert np.array_equal(rep.final, apply_adjoint(fm, y))
    assert rep.stop_step == 0
    assert rep.trace == []


def test_no_run_stops_before_two_windows():
    # the stop compares two trailing windows, so no run stops before it has 2w SURE
    # values, and each run stops at the first step where its own SURE trace fires
    stops = []
    for sigma, seed in ((0.0, 0), (0.02, 1), (0.05, 2)):
        truth, fm, y, prior = small_setup(sigma, seed)
        total = prior.schedule.steps
        window = stop_window(total)
        for method in ("smrd", "csgm_es"):
            rep = run_reconstruction(y, fm, prior, SamplerConfig(method=method, seed=seed),
                                     truth=truth)
            sure = [row.sure for row in rep.trace]
            fired = [t + 1 for t in range(total) if early_stop_check(sure[: t + 1], window)]
            assert 2 * window <= rep.stop_step == min(fired, default=total), (sigma, method)
            stops.append(rep.stop_step)
    assert min(stops) < total  # some run stops early


def test_controller_slots_are_never_read():
    # perfbench passes build_controller_configs's triple by position, so the es and
    # sure_cfg slots stay; a run must not read them, whatever they hold
    truth, fm, y, prior = small_setup(sigma=0.02, seed=1)

    def report_bytes(es, sure_cfg, method):
        rep = run_reconstruction(y, fm, prior, SamplerConfig(method=method, seed=5), TttConfig(),
                                 es, sure_cfg, truth=truth)
        rows = np.array([[r.t, r.sure, r.lam, r.mse, r.psnr] for r in rep.trace])
        return rep.final.tobytes(), rows.tobytes()

    for method in ("smrd", "csgm_es"):
        assert report_bytes(object(), object(), method) == report_bytes(None, None, method)


def test_smrd_beats_zero_filled_on_phantom():
    cfg = ExperimentConfig(accel=4.0, sigma=0.0, seed=0)
    truth, fm, y = simulate(cfg)
    rep = reconstruct(cfg, "smrd", truth, fm, y)
    zf_psnr = psnr(truth, apply_adjoint(fm, y))
    assert psnr(truth, rep.final) >= zf_psnr + 3.0


def test_lambda_frozen_in_trace():
    truth, fm, y, prior = small_setup(sigma=0.01)
    ttt = TttConfig()
    rep = run_reconstruction(y, fm, prior, SamplerConfig(method="smrd", seed=12), ttt=ttt,
                             truth=truth)
    freeze = freeze_step(prior.schedule.steps)
    lams = [r.lam for r in rep.trace]
    frozen = lams[freeze:]
    assert all(v == frozen[0] for v in frozen)
    assert all(LAMBDA_MIN <= v <= LAMBDA_MAX for v in lams)


def test_trace_rows_well_formed():
    truth, fm, y, prior = small_setup(sigma=0.02)
    rep = run_reconstruction(y, fm, prior, SamplerConfig(method="csgm_es", seed=13),
                             truth=truth)
    assert len(rep.trace) == rep.stop_step
    assert [r.t for r in rep.trace] == list(range(rep.stop_step))
    for row in rep.trace:
        assert np.isfinite(row.sure)
        assert np.isfinite(row.mse)
        assert np.isnan(row.lam)  # no lambda on the posterior-score path


def test_composite_step_contracts_on_full_mask():
    # gaussian prior + fixed lambda: the deterministic composite step is
    # affine in x_t with spectral radius < 1 on the fully sampled system
    h = w = 4
    fm = unit_model(h, w)
    prior = ScorePrior(mean=np.zeros((h, w)), tau2=1.0)  # step 0: eta = 0.2, beta = 1
    rng = np.random.default_rng(14)
    x_zf = random_complex(rng, (h, w))
    t = 0
    op = NormalOperator(fm)

    for lam in (0.1, 1.0, 100.0, 1000.0):
        def step(v):
            return cg_solve(op, lam, x_zf, langevin_step(v, prior, t, np.zeros((h, w))), 8)

        origin = step(np.zeros((h, w), dtype=complex))
        v = random_complex(rng, (h, w))
        for _ in range(60):
            v = step(v) - origin
            norm = np.linalg.norm(v)
            v /= norm
        radius = np.linalg.norm(step(v) - origin)
        assert radius < 1.0


def test_sampler_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(method="nope")
