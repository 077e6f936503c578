"""Pluggable score functions with their annealing schedules.

These analytic priors stand in for a learned score network so the whole
sampler stays a verifiable (affine) system:

* gaussian:   score of N(mean, tau2*I) convolved with the schedule's
              N(0, beta_t^2 * I) noise, i.e. (mean - x) / (tau2 + beta_t^2).
* zero:       no prior; the sampler reduces to data consistency plus noise.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .fourier import fft2c, ifft2c

PRIOR_KINDS = ("gaussian", "zero")


@dataclass(frozen=True)
class NoiseSchedule:
    """Geometric noise levels beta and Langevin step sizes eta.

    beta_l = beta_max * (beta_min / beta_max)^(l / (levels - 1)) for level
    l = 0..levels-1 (strictly decreasing), and each level runs
    `steps_per_level` steps, so total steps T = levels * steps_per_level.
    eta_t = eps0 * beta_{l(t)}^2 / beta_{levels-1}^2.
    """

    levels: int = 30
    beta_max: float = 1.0
    beta_min: float = 0.003
    steps_per_level: int = 10
    eps0: float = 1.8e-6

    def __post_init__(self) -> None:
        if self.levels < 1 or self.steps_per_level < 1:
            raise ValueError("levels and steps_per_level must be positive")
        if not 0 < self.beta_min < self.beta_max:
            raise ValueError("need 0 < beta_min < beta_max")
        if self.eps0 <= 0:
            raise ValueError("eps0 must be positive")

    @property
    def total_steps(self) -> int:
        return self.levels * self.steps_per_level

    def betas(self) -> np.ndarray:
        return _geometric_betas(self.levels, self.beta_max, self.beta_min)

    def level(self, t: int) -> int:
        self._check_step(t)
        return t // self.steps_per_level

    def beta(self, t: int) -> float:
        return float(self.betas()[self.level(t)])

    def _check_step(self, t: int) -> None:
        if not 0 <= t < self.total_steps:
            raise ValueError(f"step {t} outside [0, {self.total_steps})")


@functools.lru_cache(maxsize=128)
def _geometric_betas(levels: int, beta_max: float, beta_min: float) -> np.ndarray:
    # read-only: every equal schedule shares this cached array
    if levels == 1:
        betas = np.array([beta_min])
    else:
        betas = beta_max * (beta_min / beta_max) ** (np.arange(levels) / (levels - 1))
    betas.flags.writeable = False
    return betas


def eta(schedule: NoiseSchedule, t: int) -> float:
    """Langevin step size at step t: eps0 * (beta_t / beta_last)^2."""
    beta_t = schedule.beta(t)
    beta_last = float(schedule.betas()[-1])
    return schedule.eps0 * (beta_t / beta_last) ** 2


@dataclass(frozen=True)
class ScorePrior:
    """Analytic score function f(x, t) with its noise schedule."""

    kind: str = "gaussian"
    schedule: NoiseSchedule = NoiseSchedule()
    mean: np.ndarray | None = None  # gaussian: prior mean image (None = zero)
    tau2: float = 1e-5              # gaussian: prior variance (positive under every kind)

    def __post_init__(self) -> None:
        if self.kind not in PRIOR_KINDS:
            raise ValueError(f"unknown prior kind {self.kind!r}, expected one of {PRIOR_KINDS}")
        if self.tau2 <= 0:
            raise ValueError(f"tau2 must be positive, got {self.tau2}")

    @property
    def total_steps(self) -> int:
        return self.schedule.total_steps


def score(prior: ScorePrior, x: np.ndarray, t: int) -> np.ndarray:
    """Evaluate the prior score at noise level t (acts on real and
    imaginary channels identically)."""
    x = np.asarray(x)
    prior.schedule._check_step(t)
    if prior.kind == "zero":
        return np.zeros_like(x, dtype=np.complex128)
    beta = prior.schedule.beta(t)
    mean = 0.0 if prior.mean is None else prior.mean
    return (mean - x) / (prior.tau2 + beta * beta)


def gaussian_blur(img: np.ndarray, sigma_px: float) -> np.ndarray:
    """Gaussian low-pass with std sigma_px pixels (periodic boundary);
    handy for building coarse-scale prior means from a reference image."""
    if sigma_px <= 0:
        return np.asarray(img).copy()
    h, w = img.shape
    fy = (np.arange(h) - h // 2) / h
    fx = (np.arange(w) - w // 2) / w
    transfer = np.exp(
        -2.0 * np.pi**2 * sigma_px**2 * (fy[:, None] ** 2 + fx[None, :] ** 2)
    )
    return ifft2c(fft2c(img) * transfer)
