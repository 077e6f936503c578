import numpy as np
import pytest

from smrd.forward import (
    ForwardModel,
    NoiseSpec,
    SamplingMask,
    add_kspace_noise,
    apply_adjoint,
    apply_forward,
    make_equispaced_mask,
    make_poisson_disc_mask,
    poisson_local_radii,
)
from smrd.fourier import fft2c, ifft2c, inner
from smrd.phantom import make_phantom, make_synth_coils, PhantomSpec
from tests.test_fourier import dft2c_brute, random_complex


def full_model(h, w, coils=1, seed=0):
    mask = SamplingMask(keep=np.ones((h, w), dtype=bool), accel=1.0)
    sens = make_synth_coils(h, w, coils, seed)
    return ForwardModel(sens=sens, mask=mask)


# masks ------------------------------------------------------------------

def test_equispaced_r1_is_full():
    m = make_equispaced_mask(16, 16, 1.0, 0.0, seed=3)
    assert m.keep.all()


def test_equispaced_exact_column_count():
    m = make_equispaced_mask(64, 64, 4.0, 0.0, seed=1)
    cols = m.keep[0]
    assert int(cols.sum()) == 16
    assert (m.keep == cols).all()  # column mask repeated over rows


def test_equispaced_with_acs_matches_column_oracle():
    h = w = 384
    accel, frac = 8.0, 0.04
    m = make_equispaced_mask(h, w, accel, frac, seed=9)
    # column-enumeration oracle: ACS block plus evenly spread extras
    n_acs = int(np.ceil(frac * w))
    c0 = (w - n_acs) // 2
    expected = set(range(c0, c0 + n_acs))
    outside = [c for c in range(w) if c not in expected]
    n_extra = int(round(w / accel)) - n_acs
    spacing = len(outside) / n_extra
    offset = int(np.random.default_rng(9).integers(0, max(1, int(round(spacing)))))
    for k in range(n_extra):
        expected.add(outside[int(np.floor(offset + spacing * k)) % len(outside)])
    got = set(np.flatnonzero(m.keep[0]).tolist())
    assert got == expected
    assert 7.2 <= m.realized_accel <= 8.8


def test_equispaced_rejects_excess_accel():
    with pytest.raises(ValueError):
        make_equispaced_mask(16, 16, 17.0)


def test_poisson_r1_is_full():
    m = make_poisson_disc_mask(32, 32, 1.0, calib=8, seed=0)
    assert m.keep.all()


def test_poisson_deterministic():
    a = make_poisson_disc_mask(64, 64, 12.0, calib=16, seed=5)
    b = make_poisson_disc_mask(64, 64, 12.0, calib=16, seed=5)
    assert np.array_equal(a.keep, b.keep)
    assert 0.9 * 12 <= a.realized_accel <= 1.1 * 12


def test_poisson_respects_local_radius_bound():
    size, calib = 256, 16
    m = make_poisson_disc_mask(size, size, 12.0, calib=calib, seed=2)
    radii = poisson_local_radii(size, size, m.poisson_radius)
    r0 = c0 = (size - calib) // 2
    keep = m.keep.copy()
    # distance rule applies outside the calibration block
    keep[r0 : r0 + calib, c0 : c0 + calib] = False
    pts = np.argwhere(keep)
    rs = radii[keep]
    # brute-force pairwise scan
    d2 = (
        (pts[:, None, 0] - pts[None, :, 0]) ** 2
        + (pts[:, None, 1] - pts[None, :, 1]) ** 2
    ).astype(float)
    bound = np.minimum(rs[:, None], rs[None, :]) ** 2
    np.fill_diagonal(d2, np.inf)
    assert (d2 >= bound - 1e-9).all()


def test_poisson_infeasible_accel():
    with pytest.raises(ValueError):
        make_poisson_disc_mask(32, 32, 0.5, calib=8)
    with pytest.raises(ValueError):
        make_poisson_disc_mask(32, 32, 64.0, calib=16)


def test_mask_idempotent():
    m = make_equispaced_mask(32, 32, 4.0, 0.08, seed=0)
    rng = np.random.default_rng(0)
    y = random_complex(rng, (32, 32))
    once = y * m.keep
    assert np.array_equal(once * m.keep, once)


# forward / adjoint ------------------------------------------------------

def test_forward_full_single_coil_unit_sens_is_fft():
    h = w = 16
    fm = full_model(h, w)
    fm = ForwardModel(sens=np.ones((1, h, w), dtype=complex), mask=fm.mask)
    rng = np.random.default_rng(1)
    x = random_complex(rng, (h, w))
    assert np.max(np.abs(apply_forward(fm, x)[0] - fft2c(x))) < 1e-12


def test_forward_zero_image():
    fm = full_model(8, 8, coils=2)
    y = apply_forward(fm, np.zeros((8, 8), dtype=complex))
    assert not y.any()


def test_forward_masked_entries_exactly_zero():
    mask = make_equispaced_mask(16, 16, 4.0, 0.0, seed=1)
    fm = ForwardModel(sens=make_synth_coils(16, 16, 2, 0), mask=mask)
    rng = np.random.default_rng(2)
    y = apply_forward(fm, random_complex(rng, (16, 16)))
    assert np.array_equal(y[:, :, ~mask.keep[0]], np.zeros_like(y[:, :, ~mask.keep[0]]))


def test_forward_matches_composed_brute_force_oracle():
    h = w = 8
    rng = np.random.default_rng(3)
    sens = random_complex(rng, (2, h, w))
    mask = make_equispaced_mask(h, w, 2.0, 0.0, seed=4)
    fm = ForwardModel(sens=sens, mask=mask)
    x = random_complex(rng, (h, w))
    got = apply_forward(fm, x)
    for c in range(2):
        want = dft2c_brute(sens[c] * x) * mask.keep
        assert np.max(np.abs(got[c] - want)) < 1e-10


def test_adjoint_full_single_coil_unit_sens_is_ifft():
    h = w = 16
    mask = SamplingMask(keep=np.ones((h, w), dtype=bool), accel=1.0)
    fm = ForwardModel(sens=np.ones((1, h, w), dtype=complex), mask=mask)
    rng = np.random.default_rng(5)
    y = random_complex(rng, (1, h, w))
    assert np.max(np.abs(apply_adjoint(fm, y) - ifft2c(y[0]))) < 1e-12


def test_adjoint_identity_random_models():
    rng = np.random.default_rng(6)
    for trial in range(20):
        h = w = int(rng.choice([8, 16]))
        coils = int(rng.choice([1, 2, 4]))
        mask = make_equispaced_mask(h, w, 2.0, 0.0, seed=trial)
        fm = ForwardModel(sens=random_complex(rng, (coils, h, w)), mask=mask)
        x = random_complex(rng, (h, w))
        y = random_complex(rng, (coils, h, w))
        lhs = inner(apply_forward(fm, x), y)
        rhs = inner(x, apply_adjoint(fm, y))
        scale = np.linalg.norm(apply_forward(fm, x)) * np.linalg.norm(y)
        assert abs(lhs - rhs) <= 1e-10 * max(scale, 1.0)


def test_normal_operator_is_contraction_for_sos_coils():
    h = w = 32
    mask = make_equispaced_mask(h, w, 4.0, 0.08, seed=7)
    fm = ForwardModel(sens=make_synth_coils(h, w, 4, 7), mask=mask)
    rng = np.random.default_rng(8)
    v = random_complex(rng, (h, w))
    # power iteration on A^H A
    for _ in range(50):
        v = apply_adjoint(fm, apply_forward(fm, v))
        v /= np.linalg.norm(v)
    top = inner(v, apply_adjoint(fm, apply_forward(fm, v))).real
    assert top <= 1 + 1e-8


def test_forward_adjoint_linear():
    fm = full_model(8, 8, coils=2, seed=9)
    rng = np.random.default_rng(9)
    x1, x2 = random_complex(rng, (8, 8)), random_complex(rng, (8, 8))
    a, b = 0.3 - 1.1j, 2.0 + 0.5j
    lhs = apply_forward(fm, a * x1 + b * x2)
    rhs = a * apply_forward(fm, x1) + b * apply_forward(fm, x2)
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(1.0, np.max(np.abs(rhs)))


def test_gram_self_adjoint_psd():
    mask = make_equispaced_mask(16, 16, 2.0, 0.0, seed=10)
    fm = ForwardModel(sens=make_synth_coils(16, 16, 2, 10), mask=mask)
    rng = np.random.default_rng(11)
    for _ in range(10):
        z = random_complex(rng, (2, 16, 16))
        q = inner(z, apply_forward(fm, apply_adjoint(fm, z)))
        assert abs(q.imag) < 1e-10 * max(abs(q), 1.0)
        assert q.real >= -1e-10


def test_shape_mismatch_errors():
    fm = full_model(8, 8)
    with pytest.raises(ValueError):
        apply_forward(fm, np.zeros((4, 4)))
    with pytest.raises(ValueError):
        apply_adjoint(fm, np.zeros((1, 4, 4)))
    with pytest.raises(ValueError):
        ForwardModel(sens=np.zeros((1, 4, 4)), mask=fm.mask)


# noise ------------------------------------------------------------------

def test_noise_sigma_zero_bit_exact():
    fm = full_model(16, 16, coils=2)
    x = make_phantom(PhantomSpec(size=16), 0)
    y = apply_forward(fm, x)
    noised = add_kspace_noise(y, fm.mask, NoiseSpec(sigma=0.0, seed=1))
    assert np.array_equal(noised, y)


def test_noise_masked_out_stays_zero():
    mask = make_equispaced_mask(32, 32, 4.0, 0.0, seed=1)
    fm = ForwardModel(sens=make_synth_coils(32, 32, 2, 1), mask=mask)
    y = apply_forward(fm, make_phantom(PhantomSpec(size=32), 0))
    noised = add_kspace_noise(y, mask, NoiseSpec(sigma=0.01, seed=2))
    assert not noised[:, :, ~mask.keep[0]].any()


def test_noise_empirical_std():
    h = w = 64
    mask = SamplingMask(keep=np.ones((h, w), dtype=bool), accel=1.0)
    y = np.zeros((4, h, w), dtype=complex)
    noised = add_kspace_noise(y, mask, NoiseSpec(sigma=0.005, seed=3))
    samples = np.concatenate([noised.real.ravel(), noised.imag.ravel()])
    assert np.std(samples) == pytest.approx(0.005, rel=0.03)


def test_noise_deterministic():
    mask = SamplingMask(keep=np.ones((8, 8), dtype=bool), accel=1.0)
    y = np.zeros((2, 8, 8), dtype=complex)
    a = add_kspace_noise(y, mask, NoiseSpec(sigma=0.1, seed=4))
    b = add_kspace_noise(y, mask, NoiseSpec(sigma=0.1, seed=4))
    assert np.array_equal(a, b)


def test_noise_negative_sigma_rejected():
    with pytest.raises(ValueError):
        NoiseSpec(sigma=-1.0)

