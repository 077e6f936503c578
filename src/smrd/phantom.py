"""Synthetic ground truth: phantoms and sum-of-squares-normalized coil maps.

The Shepp-Logan phantom uses the canonical 10-ellipse parameters on the
[-1, 1]^2 grid; blob_grid is a seeded lattice of Gaussian bumps. Both are
real-valued and normalized to unit maximum magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PHANTOM_KINDS = ("shepp_logan", "blob_grid")

# (amplitude, half-axis a, half-axis b, x0, y0, angle degrees)
SHEPP_LOGAN_ELLIPSES = (
    (2.0, 0.69, 0.92, 0.0, 0.0, 0.0),
    (-0.98, 0.6624, 0.8740, 0.0, -0.0184, 0.0),
    (-0.02, 0.1100, 0.3100, 0.22, 0.0, -18.0),
    (-0.02, 0.1600, 0.4100, -0.22, 0.0, 18.0),
    (0.01, 0.2100, 0.2500, 0.0, 0.35, 0.0),
    (0.01, 0.0460, 0.0460, 0.0, 0.1, 0.0),
    (0.01, 0.0460, 0.0460, 0.0, -0.1, 0.0),
    (0.01, 0.0460, 0.0230, -0.08, -0.605, 0.0),
    (0.01, 0.0230, 0.0230, 0.0, -0.606, 0.0),
    (0.01, 0.0230, 0.0460, 0.06, -0.605, 0.0),
)


@dataclass(frozen=True)
class PhantomSpec:
    kind: str = "shepp_logan"
    size: int = 64

    def __post_init__(self) -> None:
        if self.kind not in PHANTOM_KINDS:
            raise ValueError(f"unknown phantom kind {self.kind!r}")
        if self.size < 16:
            raise ValueError(f"unsupported size {self.size}, need >= 16")


def _grid(size: int) -> tuple[np.ndarray, np.ndarray]:
    coords = np.linspace(-1.0, 1.0, size)
    return np.meshgrid(coords, coords, indexing="ij")  # (Y, X) by row, col


def _shepp_logan(size: int) -> np.ndarray:
    yy, xx = _grid(size)
    img = np.zeros((size, size))
    for amp, a, b, x0, y0, phi_deg in SHEPP_LOGAN_ELLIPSES:
        phi = np.deg2rad(phi_deg)
        xr = (xx - x0) * np.cos(phi) + (yy - y0) * np.sin(phi)
        yr = -(xx - x0) * np.sin(phi) + (yy - y0) * np.cos(phi)
        img += amp * (((xr / a) ** 2 + (yr / b) ** 2) <= 1.0)
    return img


def _blob_grid(size: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng([seed, 101])
    yy, xx = _grid(size)
    img = np.zeros((size, size))
    centers = np.linspace(-0.6, 0.6, 4)
    width = 0.12
    for cy in centers:
        for cx in centers:
            amp = rng.uniform(0.3, 1.0)
            img += amp * np.exp(-(((xx - cx) ** 2 + (yy - cy) ** 2) / (2 * width**2)))
    return img


def make_phantom(spec: PhantomSpec, seed: int = 0) -> np.ndarray:
    """Complex phantom with unit maximum magnitude, deterministic in
    (spec, seed)."""
    if spec.kind == "shepp_logan":
        img = _shepp_logan(spec.size)
    else:
        img = _blob_grid(spec.size, seed)
    img = img / np.max(np.abs(img))
    return img.astype(np.complex128)


def coil_lobe_centers(h: int, w: int, coils: int) -> list[tuple[float, float]]:
    """Geometric (row, col) lobe centers: evenly spaced angles on a circle
    of radius min(h, w) / 2 around the field of view center."""
    radius = 0.5 * min(h, w)
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    centers = []
    for c in range(coils):
        angle = 2.0 * np.pi * c / coils
        centers.append((cy + radius * np.sin(angle), cx + radius * np.cos(angle)))
    return centers


def make_synth_coils(h: int, w: int, coils: int, seed: int = 0) -> np.ndarray:
    """Gaussian-profile coil lobes with smooth per-coil phase, normalized so
    sum_c |S_c|^2 = 1 at every pixel. Returns shape (coils, h, w)."""
    if coils < 1:
        raise ValueError("coils must be >= 1")
    yy, xx = np.mgrid[0:h, 0:w].astype(float)
    width = 0.5 * min(h, w)
    stack = np.empty((coils, h, w), dtype=np.complex128)
    for c, (cy, cx) in enumerate(coil_lobe_centers(h, w, coils)):
        profile = np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2.0 * width**2))
        rng = np.random.default_rng([seed, 303, c])
        px, py, p0 = rng.uniform(-np.pi / 4, np.pi / 4, size=3)
        phase = px * (xx / w) + py * (yy / h) + p0
        stack[c] = profile * np.exp(1j * phase)
    sos = np.sqrt(np.sum(np.abs(stack) ** 2, axis=0))
    return stack / sos
