import numpy as np
import pytest

from smrd.phantom import (
    SHEPP_LOGAN_ELLIPSES,
    PhantomSpec,
    coil_lobe_centers,
    make_phantom,
    make_synth_coils,
)


def test_phantom_real_and_normalized():
    img = make_phantom(PhantomSpec(size=64), seed=0)
    assert np.max(np.abs(img.imag)) == 0
    assert np.max(np.abs(img)) == pytest.approx(1.0)


def test_phantom_deterministic():
    a = make_phantom(PhantomSpec(kind="blob_grid", size=32), seed=3)
    b = make_phantom(PhantomSpec(kind="blob_grid", size=32), seed=3)
    assert np.array_equal(a, b)


def test_phantom_matches_per_pixel_ellipse_oracle():
    size = 32
    img = make_phantom(PhantomSpec(size=size), seed=0)
    coords = np.linspace(-1.0, 1.0, size)
    raw = np.zeros((size, size))
    for i in range(size):
        for j in range(size):
            y, x = coords[i], coords[j]
            total = 0.0
            for amp, a, b, x0, y0, phi_deg in SHEPP_LOGAN_ELLIPSES:
                phi = np.deg2rad(phi_deg)
                xr = (x - x0) * np.cos(phi) + (y - y0) * np.sin(phi)
                yr = -(x - x0) * np.sin(phi) + (y - y0) * np.cos(phi)
                if (xr / a) ** 2 + (yr / b) ** 2 <= 1.0:
                    total += amp
            raw[i, j] = total
    want = raw / np.max(np.abs(raw))
    assert np.max(np.abs(img - want)) < 1e-12


def test_blob_grid_depends_on_seed():
    a = make_phantom(PhantomSpec(kind="blob_grid", size=32), seed=0)
    b = make_phantom(PhantomSpec(kind="blob_grid", size=32), seed=1)
    assert np.max(np.abs(a)) == pytest.approx(1.0)
    assert not np.array_equal(a, b)


def test_phantom_rejects_small_size():
    with pytest.raises(ValueError):
        PhantomSpec(size=8)


def test_single_coil_has_unit_magnitude():
    sens = make_synth_coils(32, 32, 1, seed=0)
    assert np.max(np.abs(np.abs(sens[0]) - 1.0)) < 1e-12


def test_coils_sos_normalized():
    sens = make_synth_coils(48, 40, 6, seed=1)
    sos = np.sum(np.abs(sens) ** 2, axis=0)
    assert np.max(np.abs(sos - 1.0)) <= 1e-10


def test_coil_centers_match_geometry():
    h = w = 64
    centers = coil_lobe_centers(h, w, 4)
    # independent trig recomputation: radius min(h,w)/2, angles 0/90/180/270
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    want = [
        (cy, cx + 32.0),
        (cy + 32.0, cx),
        (cy, cx - 32.0),
        (cy - 32.0, cx),
    ]
    for (gr, gc), (wr, wc) in zip(centers, want):
        assert gr == pytest.approx(wr, abs=1e-9)
        assert gc == pytest.approx(wc, abs=1e-9)


def test_coils_deterministic():
    a = make_synth_coils(24, 24, 3, seed=7)
    b = make_synth_coils(24, 24, 3, seed=7)
    assert np.array_equal(a, b)


def test_coils_reject_zero():
    with pytest.raises(ValueError):
        make_synth_coils(16, 16, 0)
