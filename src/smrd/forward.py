"""Multicoil undersampled Fourier acquisition model.

The forward operator applies, per coil, a sensitivity weighting, the
centered orthonormal FFT and a binary k-space sampling mask:

    forward(x)[c] = mask * fft2c(sens[c] * x)
    adjoint(y)    = sum_c conj(sens[c]) * ifft2c(mask * y[c])

`apply_forward` and `apply_adjoint` are the out-of-place reference
operators. `NormalOperator` prepares their composition A^H A once per
reconstruction: one in-place apply, with the reference operators'
operand order, that both update rules share. F^H M F acts only along
the axes where the mask varies, so a column mask's apply runs 1D FFTs
along the last axis and none along the first (see its docstring).

Mask generators acquire an optional fully sampled calibration region and
keep the realized acceleration within 10% of the request. Measurement
noise is complex Gaussian added only at kept k-space locations.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .fourier import complex_normal, fft2c, ifft2c


@dataclass(frozen=True)
class SamplingMask:
    """Binary k-space sampling pattern.

    Attributes:
        keep: boolean (h, w) array, True where k-space is acquired.
        accel: declared acceleration factor R.
        poisson_radius: base dart-throwing radius selected by the Poisson
            disc generator (None for other mask kinds).
    """

    keep: np.ndarray
    accel: float
    poisson_radius: float | None = None

    @property
    def shape(self) -> tuple[int, int]:
        return self.keep.shape  # type: ignore[return-value]

    @property
    def realized_accel(self) -> float:
        return _realized_accel(self.keep)


@dataclass(frozen=True)
class NoiseSpec:
    """Measurement-noise model: Gaussian std `sigma` and a seed. The package's
    one sigma convention: sigma is the std of the real and of the imaginary
    part of a noise entry, so the entry's complex variance E|n|^2 is 2 sigma^2."""

    sigma: float
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.sigma < np.inf:
            raise ValueError(f"sigma must be finite and nonnegative, got {self.sigma}")


@dataclass(frozen=True)
class ForwardModel:
    """Bundles coil sensitivities (coils, h, w) with a sampling mask."""

    sens: np.ndarray
    mask: SamplingMask

    def __post_init__(self) -> None:
        sens = np.asarray(self.sens)
        object.__setattr__(self, "sens", sens)
        if sens.ndim != 3:
            raise ValueError(f"sens must have shape (coils, h, w), got {sens.shape}")
        if sens.shape[1:] != self.mask.shape:
            raise ValueError(
                f"sensitivity shape {sens.shape[1:]} does not match mask {self.mask.shape}"
            )

    @property
    def shape(self) -> tuple[int, int]:
        return self.mask.shape


def _realized_accel(keep: np.ndarray) -> float:
    """Pixels per kept sample; inf for an empty mask."""
    kept = int(np.count_nonzero(keep))
    return keep.size / kept if kept else float("inf")


def _check_realized(keep: np.ndarray, accel: float) -> None:
    realized = _realized_accel(keep)
    if not (0.9 * accel <= realized <= 1.1 * accel):
        raise ValueError(
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
    if not 1 <= accel < np.inf:
        raise ValueError(f"acceleration must be in [1, inf), got {accel}")
    if accel > w:
        raise ValueError(f"acceleration {accel} exceeds width {w}")
    if not 0 <= acs_fraction < 1:
        raise ValueError(f"acs_fraction must be in [0, 1), got {acs_fraction}")

    n_acs = int(np.ceil(acs_fraction * w))
    cols = np.zeros(w, dtype=bool)
    c0 = (w - n_acs) // 2
    cols[c0 : c0 + n_acs] = True

    n_target = int(round(w / accel))
    if n_acs > np.ceil(1.1 * n_target):
        raise ValueError("calibration region alone exceeds the sampling budget")
    # accel >= 1 gives n_extra <= outside.size, so every pick lands in `outside`
    n_extra = max(0, n_target - n_acs)
    outside = np.flatnonzero(~cols)
    if n_extra > 0:
        spacing = outside.size / n_extra
        rng = np.random.default_rng(seed)
        offset = int(rng.integers(0, int(round(spacing))))
        picks = np.floor(offset + spacing * np.arange(n_extra)).astype(int)
        cols[outside[picks]] = True

    keep = np.broadcast_to(cols, (h, w)).copy()
    _check_realized(keep, accel)
    return SamplingMask(keep=keep, accel=float(accel))


def poisson_local_radii(h: int, w: int, base: float) -> np.ndarray:
    """Per-pixel dart-throwing radius: base * (0.25 + 0.75 * d / d_max).

    d is the distance from the k-space center, so sampling is densest at
    low frequencies.
    """
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    yy, xx = np.ogrid[0:h, 0:w]
    d = np.hypot(yy - cy, xx - cx)
    return base * (0.25 + 0.75 * d / (d.max() or 1.0))  # a 1x1 grid has d.max() == 0


# Stencil entries (candidates x neighbour offsets) handled at once; bounds
# the per-chunk temporaries so memory stays O(h * w).
_STENCIL_BATCH = 1 << 14


def _dart_throw(order: np.ndarray, radii: np.ndarray, h: int, w: int) -> np.ndarray:
    """Greedy dart throwing: walking `order` (a flat index permutation),
    accept p iff dist(p, q) >= min(r(p), r(q)) for every previously
    accepted q. Returns the accepted flat indices in acceptance order.

    The greedy result is the lexicographically first maximal independent
    set of the conflict graph, computed exactly in array rounds (Blelloch,
    Fineman & Shun, SPAA 2012). The order is cut into chunks that double
    in size, from about one candidate per stencil offset, and are cut
    short where their survivors would exceed `_STENCIL_BATCH` stencil
    entries. A chunk's candidates conflicting with pixels accepted in
    earlier chunks are dropped through a `blocked` map painted around each
    accepted pixel; the survivors' conflicts among themselves are settled
    in rounds: a survivor is accepted once every earlier survivor it
    conflicts with is rejected, and rejected once one of them is accepted.
    Conflicts compare the integer d^2 with min(r(p), r(q))^2 in float64,
    as a pairwise loop would. Radii are looked up on a zero-padded grid,
    so stencil offsets never leave the array and padding never conflicts.
    """
    reach = float(radii.max())
    pad = min(int(np.ceil(reach)), max(h, w))
    di, dj = np.mgrid[-pad : pad + 1, -pad : pad + 1]
    d2 = (di * di + dj * dj).ravel().astype(float)
    near = (d2 > 0) & (d2 < reach * reach)
    wp = w + 2 * pad
    offsets = (di.ravel() * wp + dj.ravel())[near]
    d2 = d2[near]
    if offsets.size == 0:
        return order.copy()

    r2 = np.zeros((h + 2 * pad, wp))
    r2[pad : pad + h, pad : pad + w] = radii
    r2 = r2.ravel()
    r2 *= r2
    cand = order // w
    cand *= 2 * pad
    cand += order + pad * (wp + 1)
    blocked = np.zeros(r2.size, dtype=bool)
    local = np.full(r2.size, -1, dtype=np.int32)
    max_live = max(1, _STENCIL_BATCH // offsets.size)
    accepted = [np.empty(0, dtype=np.int64)]
    start, size = 0, max(1, cand.size // offsets.size)
    while start < cand.size:
        chunk = cand[start : start + size]
        pick = np.flatnonzero(~blocked[chunk])
        if pick.size > max_live:
            pick = pick[:max_live]
            start += int(pick[-1]) + 1
        else:
            start += size
            size *= 2
        live = chunk[pick]
        n = live.size
        if n == 0:
            continue

        # conflict edges (earlier survivor ea, later survivor eb)
        local[live] = np.arange(n)
        nb = local[live[:, None] + offsets]
        rows, cols = np.nonzero((nb >= 0) & (nb < np.arange(n)[:, None]))
        local[live] = -1
        ea = nb[rows, cols]
        hit = d2[cols] < np.minimum(r2[live[rows]], r2[live[ea]])
        ea, eb = ea[hit], rows[hit]

        state = np.zeros(n, dtype=np.int8)  # 0 open, 1 accepted, 2 rejected
        while ea.size:
            waiting = np.zeros(n, dtype=bool)
            waiting[eb] = True
            free = (state == 0) & ~waiting
            state[free] = 1
            state[eb[free[ea]]] = 2
            still = state == 0
            keep = still[ea] & still[eb]
            ea, eb = ea[keep], eb[keep]
        won = live[state != 2]
        accepted.append(won)

        around = won[:, None] + offsets
        hit = d2 < np.minimum(r2[around], r2[won][:, None])
        blocked[around[hit]] = True

    ai, aj = np.divmod(np.concatenate(accepted), wp)
    return (ai - pad) * w + (aj - pad)


def make_poisson_disc_mask(
    h: int, w: int, accel: float, calib: int, seed: int = 0
) -> SamplingMask:
    """Variable-density Poisson disc undersampling with a calib x calib
    fully sampled center block.

    Pixels outside the block are dart-thrown (`_dart_throw`) in one seeded
    random order with radii `poisson_local_radii(h, w, base)`. The base
    radius starts at max(1, sqrt(accel)) and doubles while too many
    pixels are kept, then is bisected (at most 30 steps) until the realized
    acceleration is within 7% of the request, inside the checked 10%. A
    base radius already thrown is not thrown again. At accel 1 the first
    base radius, 1.0, conflicts no pair, so every pixel is kept and
    `poisson_radius` is 1.0. Deterministic for a given seed.
    """
    if h < 1 or w < 1:
        raise ValueError("mask dimensions must be positive")
    if calib < 0 or calib > min(h, w):
        raise ValueError(f"calib must be in [0, min(h, w)], got {calib}")
    if not 1 <= accel < np.inf:
        raise ValueError(f"acceleration must be in [1, inf), got {accel}")

    target = h * w / accel
    if calib * calib > 1.1 * target:
        raise ValueError(
            f"calibration block {calib}x{calib} exceeds the budget for accel {accel}"
        )

    r0 = (h - calib) // 2
    c0 = (w - calib) // 2
    in_calib = np.zeros((h, w), dtype=bool)
    in_calib[r0 : r0 + calib, c0 : c0 + calib] = True

    rng = np.random.default_rng(seed)
    order = rng.permutation(h * w)
    order = order[~in_calib.ravel()[order]]

    @functools.cache
    def build(base: float) -> np.ndarray:
        keep = in_calib.copy()
        radii = poisson_local_radii(h, w, base)
        keep.flat[_dart_throw(order, radii, h, w)] = True
        return keep

    lo, hi = 0.0, max(1.0, float(np.sqrt(accel)))
    keep = build(hi)
    tries = 0
    while np.count_nonzero(keep) > target and tries < 20:
        hi *= 2.0
        keep = build(hi)
        tries += 1

    best, base_used = keep, hi
    for _ in range(30):
        # aim inside the +/-10% contract with some slack to spare
        if 0.93 * accel <= _realized_accel(best) <= 1.07 * accel:
            break
        mid = 0.5 * (lo + hi)
        keep = build(mid)
        if np.count_nonzero(keep) > target:
            lo = mid
        else:
            hi = mid
        best, base_used = keep, mid

    _check_realized(best, accel)
    return SamplingMask(keep=best, accel=float(accel), poisson_radius=float(base_used))


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


class NormalOperator:
    """The Gram operator A^H A of one forward model, prepared for in-place
    applies. `cg_solve` adds its `lam z` and the CSGM step forms its data
    term `x_zf - A^H A x` from it.

    F^H M F is a circular convolution, so it commutes with circular shifts
    and the centering shifts of `fft2c` and `ifft2c` cancel around it: an
    apply is `sum_c conj(S_c) * ifft(M' * fft(S_c * z))`, with `M'` the
    mask shifted once, here, and images in the reference operators' order.

    A mask that is constant along an axis is separable: a column mask is
    `M = 1_h (x) m_w`, so `F^H M F = I (x) F_w^H diag(m_w) F_w` and the
    transform along axis -2 cancels exactly. So both transforms run only
    along `axes`, the axes along which the mask varies: `(-1,)` for a column
    mask, `(-2, -1)` for a Poisson disc mask. `keep` holds the shifted mask
    reduced to those axes, e.g. (1, w), and broadcasts over the others. A
    mask constant along both axes (fully sampled or empty) keeps both
    transforms, so its apply keeps the reference operators' bits.

    Each apply runs in one complex (coils, h, w) work array and allocates
    at most its (h, w) result: none when `gram(z, out=)` is given an array.
    The operator also owns `cg`, the four (h, w) arrays `cg_solve` runs in.
    The forward transform is `fft2` over `axes`; the inverse is `ifftn`
    because numpy 2.4's `ifft2` ignores `out=`. `keep` is cast to complex128
    once, here, not by every apply, with the same product bits (`1+0j`/`0j`
    either way): on 2 vCPUs with numpy 2.4 one mask multiply takes 59 us,
    not 128, at 128^2 Poisson (26, not 32, at 64^2 equispaced), for at most
    240 KB more per 128^2 operator.

    numpy's SIMD complex product is not bitwise commutative, so every
    product keeps the reference operators' operand order: `sens * z`,
    `(.) * mask`, then `conj(sens) * (.)`. When both axes are transformed,
    `gram(z)` is bitwise `apply_adjoint(fm, apply_forward(fm, z))` at
    power-of-two sizes; otherwise it agrees with it to rounding.

    Build one per reconstruction and let it go with the run: it holds the
    conjugate coil stack, and caching it on a `ForwardModel` would keep it
    resident for as long as the model lives. The work and solve arrays are
    shared by every apply and solve, so one operator must not be used from
    two threads at once.
    """

    def __init__(self, fm: ForwardModel) -> None:
        self.shape = fm.shape
        self.sens = fm.sens
        self.sens_h = np.conj(fm.sens)
        keep = np.fft.ifftshift(fm.mask.keep)
        varies = tuple(ax for ax in (-2, -1) if (keep != keep.take([0], axis=ax)).any())
        self.axes = varies or (-2, -1)
        kept = tuple(slice(None) if ax in self.axes else slice(1) for ax in (-2, -1))
        self.keep = keep[kept].astype(np.complex128)
        self.work = np.empty(fm.sens.shape, dtype=np.complex128)
        # cg_solve's residual, search direction, (A^H A + lam I) p and temporary
        self.cg = np.empty((4, *fm.shape), dtype=np.complex128)

    def gram(self, z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """A^H A z for an (h, w) image z, summed into `out` (and returned)
        when it is given, else into a new array."""
        work = self.work
        np.multiply(self.sens, z, out=work)
        np.fft.fft2(work, axes=self.axes, norm="ortho", out=work)
        np.multiply(work, self.keep, out=work)
        np.fft.ifftn(work, axes=self.axes, norm="ortho", out=work)
        np.multiply(self.sens_h, work, out=work)
        return np.sum(work, axis=0, out=out)


def add_kspace_noise(y: np.ndarray, mask: SamplingMask, spec: NoiseSpec) -> np.ndarray:
    """Add complex Gaussian noise of std `spec.sigma` (per component, see
    `NoiseSpec`) at kept k-space locations only. Noise streams are derived
    from (seed, coil index), so per-coil generation order never matters."""
    y = np.asarray(y)
    if y.ndim != 3:
        raise ValueError(f"k-space must have shape (coils, h, w), got {y.shape}")
    if y.shape[-2:] != mask.shape:
        raise ValueError(f"k-space shape {y.shape} does not match mask {mask.shape}")
    if spec.sigma == 0:
        return y.copy()
    out = np.empty_like(y, dtype=np.complex128)
    for c in range(y.shape[0]):
        rng = np.random.default_rng([spec.seed, c])
        out[c] = y[c] + spec.sigma * complex_normal(rng, mask.shape) * mask.keep
    return out

