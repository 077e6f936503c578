"""The analytic score prior with its annealing schedule.

The prior stands in for a learned score network so the whole sampler
stays a verifiable (affine) system. A prior with a mean image is the
Gaussian N(mean, tau2*I) convolved with the schedule's N(0, beta_t^2 * I)
noise, whose score is (mean - x) / (tau2 + beta_t^2). Without a mean
there is no prior: the score is zero and the sampler reduces to data
consistency plus noise.

`NoiseSchedule(levels, steps, eps0)` owns step timing: step t of `steps`
reads its noise level from `schedule.beta(t)` and its Langevin step size
from `schedule.eta(t)`. Its noise levels fall geometrically from the
module constants `BETA_MAX` to `BETA_MIN`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

BETA_MAX = 1.0  # noise level of a schedule's first level
BETA_MIN = 0.003  # and of its last


@dataclass(frozen=True)
class NoiseSchedule:
    """Geometric noise levels beta and Langevin step sizes eta over `steps`.

    betas[l] = BETA_MAX * (BETA_MIN / BETA_MAX)^(l / (levels - 1)) for level
    l = 0..levels-1 (strictly decreasing, read-only; [BETA_MIN] for one
    level). `steps` is a multiple of `levels` and each level runs
    steps // levels of them, so step t has beta_t = betas[t // (steps //
    levels)] and eta_t = eps0 * beta_t^2 / betas[-1]^2.
    """

    levels: int = 30
    steps: int = 300
    eps0: float = 1.8e-6
    betas: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.levels < 1 or self.steps < 1 or self.steps % self.levels:
            raise ValueError("steps must be a positive multiple of levels >= 1, "
                             f"got steps={self.steps}, levels={self.levels}")
        if not 0 < self.eps0 < np.inf:
            raise ValueError("eps0 must be positive")
        if self.levels == 1:
            betas = np.array([BETA_MIN])
        else:
            ratio = BETA_MIN / BETA_MAX
            betas = BETA_MAX * ratio ** (np.arange(self.levels) / (self.levels - 1))
        betas.flags.writeable = False
        object.__setattr__(self, "betas", betas)

    def beta(self, t: int) -> float:
        """Noise level of step t; a step outside [0, steps) is a ValueError."""
        if not 0 <= t < self.steps:
            raise ValueError(f"step {t} outside [0, {self.steps})")
        return float(self.betas[t // (self.steps // self.levels)])

    def eta(self, t: int) -> float:
        """Langevin step size at step t: eps0 * (beta_t / beta_last)^2."""
        return self.eps0 * (self.beta(t) / float(self.betas[-1])) ** 2


@dataclass(frozen=True)
class ScorePrior:
    """Analytic score function f(x, t) with its noise schedule."""

    schedule: NoiseSchedule = NoiseSchedule()
    mean: np.ndarray | None = None  # Gaussian prior mean image; None = no prior
    tau2: float = 1e-5              # Gaussian prior variance (positive even without a mean)

    def __post_init__(self) -> None:
        if not 0 < self.tau2 < np.inf:
            raise ValueError(f"tau2 must be positive, got {self.tau2}")


def score(prior: ScorePrior, x: np.ndarray, t: int) -> np.ndarray:
    """Evaluate the prior score at noise level t (acts on real and
    imaginary channels identically)."""
    beta = prior.schedule.beta(t)
    x = np.asarray(x)
    if prior.mean is None:
        return np.zeros_like(x, dtype=np.complex128)
    return (prior.mean - x) / (prior.tau2 + beta * beta)
