"""Centered orthonormal 2D Fourier transforms, real inner products and
complex normal draws.

k-space follows the MRI convention: the zero-frequency bin sits at
(h // 2, w // 2). Both transforms are unitary (norm preserving) and exact
inverses of each other. They act on the last two axes, so coil stacks of
shape (coils, h, w) go through in one call.
"""

from __future__ import annotations

import numpy as np

_AXES = (-2, -1)


def _check_2d(x: np.ndarray, name: str) -> np.ndarray:
    x = np.asarray(x)
    if x.ndim < 2:
        raise ValueError(f"{name} must have at least 2 dimensions, got {x.ndim}")
    if x.shape[-1] == 0 or x.shape[-2] == 0:
        raise ValueError(f"{name} has a zero-sized dimension: {x.shape}")
    return x


def fft2c(img: np.ndarray) -> np.ndarray:
    """Centered orthonormal 2D FFT over the last two axes."""
    img = _check_2d(img, "img")
    shifted = np.fft.ifftshift(img, axes=_AXES)
    return np.fft.fftshift(np.fft.fft2(shifted, axes=_AXES, norm="ortho"), axes=_AXES)


def ifft2c(ksp: np.ndarray) -> np.ndarray:
    """Inverse of :func:`fft2c` (centered orthonormal 2D IFFT)."""
    ksp = _check_2d(ksp, "ksp")
    shifted = np.fft.ifftshift(ksp, axes=_AXES)
    return np.fft.fftshift(np.fft.ifft2(shifted, axes=_AXES, norm="ortho"), axes=_AXES)


def complex_normal(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Complex normal draw with unit variance per real/imag component. The
    real part is drawn before the imaginary part; seeded outputs rely on it."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def real_inner(a: np.ndarray, b: np.ndarray) -> float:
    """Re sum(conj(a) * b) of two same-shape arrays as a python float.

    It is the dot product of the arrays' float64 views, summed by einsum's
    own loop, which calls no BLAS and starts no threads, so its bits do not
    depend on the BLAS thread count.
    """
    a = np.ascontiguousarray(a, dtype=np.complex128)
    b = np.ascontiguousarray(b, dtype=np.complex128)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    ra, rb = (v.reshape(-1).view(np.float64) for v in (a, b))
    return float(np.einsum("i,i->", ra, rb))


def norm2(a: np.ndarray) -> float:
    """Squared Euclidean norm sum(|a|^2) as a python float."""
    return real_inner(a, a)
