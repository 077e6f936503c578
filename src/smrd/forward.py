"""Multicoil undersampled Fourier acquisition model.

The forward operator applies, per coil, a sensitivity weighting, the
centered orthonormal FFT and a binary k-space sampling mask:

    forward(x)[c] = mask * fft2c(sens[c] * x)
    adjoint(y)    = sum_c conj(sens[c]) * ifft2c(mask * y[c])

Masks carry the declared acceleration and an optional fully sampled
calibration region; generators keep the realized acceleration within 10%
of the request. Measurement noise is complex Gaussian added only at kept
k-space locations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fourier import fft2c, ifft2c


@dataclass(frozen=True)
class SamplingMask:
    """Binary k-space sampling pattern.

    Attributes:
        keep: boolean (h, w) array, True where k-space is acquired.
        accel: declared acceleration factor R.
        calib: fully sampled calibration block as (r0, r1, c0, c1) row/col
            bounds, or None when the pattern has no calibration region.
        poisson_radius: base dart-throwing radius selected by the Poisson
            disc generator (None for other mask kinds).
    """

    keep: np.ndarray
    accel: float
    calib: tuple[int, int, int, int] | None = None
    poisson_radius: float | None = None

    @property
    def shape(self) -> tuple[int, int]:
        return self.keep.shape  # type: ignore[return-value]

    @property
    def realized_accel(self) -> float:
        kept = int(np.count_nonzero(self.keep))
        return self.keep.size / kept if kept else float("inf")


@dataclass(frozen=True)
class NoiseSpec:
    """Measurement-noise model: per-component Gaussian std and a seed."""

    sigma: float
    seed: int = 0

    def __post_init__(self) -> None:
        if self.sigma < 0:
            raise ValueError(f"sigma must be nonnegative, got {self.sigma}")


@dataclass(frozen=True)
class ForwardModel:
    """Bundles coil sensitivities (coils, h, w) with a sampling mask."""

    sens: np.ndarray
    mask: SamplingMask

    def __post_init__(self) -> None:
        sens = np.asarray(self.sens)
        if sens.ndim != 3:
            raise ValueError(f"sens must have shape (coils, h, w), got {sens.shape}")
        if sens.shape[1:] != self.mask.shape:
            raise ValueError(
                f"sensitivity shape {sens.shape[1:]} does not match mask {self.mask.shape}"
            )

    @property
    def coils(self) -> int:
        return self.sens.shape[0]

    @property
    def shape(self) -> tuple[int, int]:
        return self.mask.shape


def _check_realized(keep: np.ndarray, accel: float) -> None:
    realized = keep.size / max(int(np.count_nonzero(keep)), 1)
    if not (0.9 * accel <= realized <= 1.1 * accel):
        raise RuntimeError(
            f"realized acceleration {realized:.3f} outside 10% of requested {accel}"
        )


def make_equispaced_mask(
    h: int, w: int, accel: float, acs_fraction: float = 0.0, seed: int = 0
) -> SamplingMask:
    """1D equispaced column undersampling with a centered calibration block.

    Keeps ceil(acs_fraction * w) center columns plus round(w / accel) minus
    that many columns spread evenly (seeded integer phase offset) over the
    remaining width, so the total kept count realizes `accel` within 10%
    even for small widths. With acs_fraction=0 this is literally every
    accel-th column.
    """
    if h < 1 or w < 1:
        raise ValueError("mask dimensions must be positive")
    if accel < 1:
        raise ValueError(f"acceleration must be >= 1, got {accel}")
    if accel > w:
        raise ValueError(f"acceleration {accel} exceeds width {w}")
    if not 0 <= acs_fraction < 1:
        raise ValueError(f"acs_fraction must be in [0, 1), got {acs_fraction}")

    n_acs = int(np.ceil(acs_fraction * w))
    calib = None
    cols = np.zeros(w, dtype=bool)
    if n_acs > 0:
        c0 = (w - n_acs) // 2
        cols[c0 : c0 + n_acs] = True
        calib = (0, h, c0, c0 + n_acs)

    n_target = int(round(w / accel))
    if n_acs > np.ceil(1.1 * n_target):
        raise ValueError("calibration region alone exceeds the sampling budget")
    n_extra = max(0, n_target - n_acs)
    outside = np.flatnonzero(~cols)
    n_extra = min(n_extra, outside.size)
    if n_extra > 0:
        spacing = outside.size / n_extra
        rng = np.random.default_rng(seed)
        offset = int(rng.integers(0, max(1, int(round(spacing)))))
        picks = np.floor(offset + spacing * np.arange(n_extra)).astype(int)
        cols[outside[picks % outside.size]] = True

    keep = np.broadcast_to(cols, (h, w)).copy()
    _check_realized(keep, accel)
    return SamplingMask(keep=keep, accel=float(accel), calib=calib)


def poisson_local_radii(h: int, w: int, base: float) -> np.ndarray:
    """Per-pixel dart-throwing radius: base * (0.25 + 0.75 * d / d_max).

    d is the distance from the k-space center, so sampling is densest at
    low frequencies.
    """
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    yy, xx = np.mgrid[0:h, 0:w]
    d = np.hypot(yy - cy, xx - cx)
    return base * (0.25 + 0.75 * d / d.max())


def _dart_throw(order: np.ndarray, radii: np.ndarray, h: int, w: int) -> list[tuple[int, int]]:
    """Greedy dart throwing: accept p iff dist(p, q) >= min(r(p), r(q)) for
    all previously accepted q. `order` is a flat index permutation."""
    base_max = float(radii.max())
    cell = max(base_max, 1e-9)
    grid: dict[tuple[int, int], list[tuple[int, int, float]]] = {}
    accepted: list[tuple[int, int]] = []
    flat = radii.ravel()
    for idx in order:
        i, j = divmod(int(idx), w)
        r_p = flat[idx]
        ci, cj = int(i / cell), int(j / cell)
        ok = True
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                for qi, qj, r_q in grid.get((ci + di, cj + dj), ()):
                    m = r_p if r_p < r_q else r_q
                    if (i - qi) * (i - qi) + (j - qj) * (j - qj) < m * m:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            accepted.append((i, j))
            grid.setdefault((ci, cj), []).append((i, j, r_p))
    return accepted


def make_poisson_disc_mask(
    h: int, w: int, accel: float, calib: int = 16, seed: int = 0
) -> SamplingMask:
    """Variable-density Poisson disc undersampling with a calib x calib
    fully sampled center block.

    The base dart radius is bisected (at most 30 steps) until the realized
    acceleration is within 10% of the request. Deterministic for a given
    seed: the candidate order is drawn once and reused across bisection
    trials.
    """
    if h < 1 or w < 1:
        raise ValueError("mask dimensions must be positive")
    if calib < 0 or calib > min(h, w):
        raise ValueError(f"calib must be in [0, min(h, w)], got {calib}")
    if accel < 1:
        raise ValueError(f"infeasible acceleration {accel}: more points than pixels")

    r0 = (h - calib) // 2
    c0 = (w - calib) // 2
    calib_region = (r0, r0 + calib, c0, c0 + calib) if calib > 0 else None

    if accel == 1:
        keep = np.ones((h, w), dtype=bool)
        return SamplingMask(keep=keep, accel=1.0, calib=calib_region, poisson_radius=0.0)

    target = h * w / accel
    if calib * calib > 1.1 * target:
        raise ValueError(
            f"calibration block {calib}x{calib} exceeds the budget for accel {accel}"
        )

    in_calib = np.zeros((h, w), dtype=bool)
    if calib_region is not None:
        in_calib[r0 : r0 + calib, c0 : c0 + calib] = True

    rng = np.random.default_rng(seed)
    order = rng.permutation(h * w)
    order = order[~in_calib.ravel()[order]]

    def build(base: float) -> np.ndarray:
        keep = in_calib.copy()
        if base <= 0:
            keep[:] = True
            return keep
        radii = poisson_local_radii(h, w, base)
        for i, j in _dart_throw(order, radii, h, w):
            keep[i, j] = True
        return keep

    lo, hi = 0.0, max(1.0, float(np.sqrt(accel)))
    keep = build(hi)
    tries = 0
    while np.count_nonzero(keep) > target and tries < 20:
        hi *= 2.0
        keep = build(hi)
        tries += 1

    def in_band(mask_arr: np.ndarray) -> bool:
        # aim inside the +/-10% contract with some slack to spare
        realized = mask_arr.size / max(int(np.count_nonzero(mask_arr)), 1)
        return 0.93 * accel <= realized <= 1.07 * accel

    best, base_used = keep, hi
    for _ in range(30):
        if in_band(best):
            break
        mid = 0.5 * (lo + hi)
        keep = build(mid)
        if np.count_nonzero(keep) > target:
            lo = mid
        else:
            hi = mid
        best, base_used = keep, mid

    _check_realized(best, accel)
    return SamplingMask(
        keep=best, accel=float(accel), calib=calib_region, poisson_radius=float(base_used)
    )


def apply_forward(fm: ForwardModel, x: np.ndarray) -> np.ndarray:
    """A x: per-coil masked k-space of the sensitivity-weighted image."""
    x = np.asarray(x)
    if x.shape != fm.shape:
        raise ValueError(f"image shape {x.shape} does not match model {fm.shape}")
    return fft2c(fm.sens * x[None, :, :]) * fm.mask.keep


def apply_adjoint(fm: ForwardModel, y: np.ndarray) -> np.ndarray:
    """A^H y: coil-combined image of the masked k-space (zero-filled recon)."""
    y = np.asarray(y)
    if y.shape != fm.sens.shape:
        raise ValueError(f"k-space shape {y.shape} does not match model {fm.sens.shape}")
    return np.sum(np.conj(fm.sens) * ifft2c(y * fm.mask.keep), axis=0)


def add_kspace_noise(y: np.ndarray, mask: SamplingMask, spec: NoiseSpec) -> np.ndarray:
    """Add complex Gaussian noise (std `spec.sigma` per real/imag component)
    at kept k-space locations only. Noise streams are derived from
    (seed, coil index), so per-coil generation order never matters."""
    y = np.asarray(y)
    if y.shape[-2:] != mask.shape:
        raise ValueError(f"k-space shape {y.shape} does not match mask {mask.shape}")
    if spec.sigma == 0:
        return y.copy()
    out = np.empty_like(y, dtype=np.complex128)
    for c in range(y.shape[0]):
        rng = np.random.default_rng([spec.seed, c])
        noise = spec.sigma * (
            rng.standard_normal(mask.shape) + 1j * rng.standard_normal(mask.shape)
        )
        out[c] = y[c] + noise * mask.keep
    return out

