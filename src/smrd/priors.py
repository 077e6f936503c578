"""The analytic score prior with its annealing schedule.

The prior stands in for a learned score network so the whole sampler
stays a verifiable (affine) system. A prior with a mean image is the
Gaussian N(mean, tau2*I) convolved with the schedule's N(0, beta_t^2 * I)
noise, whose score is (mean - x) / (tau2 + beta_t^2). Without a mean
there is no prior: the score is zero and the sampler reduces to data
consistency plus noise.

`NoiseSchedule(steps)` owns step timing: step t of `steps` reads its
noise level from `schedule.beta(t)` and its Langevin step size from
`schedule.eta(t)`. The levels are fixed by the score model, not
settings: `LEVELS` of them fall geometrically from `BETA_MAX` to
`BETA_MIN` (the table `BETAS`), and the last runs at step size `EPS0`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BETA_MAX = 1.0  # noise level of a schedule's first level
BETA_MIN = 0.003  # and of its last
LEVELS = 30  # noise levels per schedule
EPS0 = 1.8e-6  # Langevin step size of the last level

BETAS = BETA_MAX * (BETA_MIN / BETA_MAX) ** (np.arange(LEVELS) / (LEVELS - 1))
BETAS.flags.writeable = False


@dataclass(frozen=True)
class NoiseSchedule:
    """The `LEVELS` noise levels `BETAS` over `steps` steps, a multiple of
    `LEVELS`: each level runs steps // LEVELS of them, so step t has
    beta_t = BETAS[t // (steps // LEVELS)] and Langevin step size
    eta_t = EPS0 * beta_t^2 / BETAS[-1]^2.
    """

    steps: int = 300

    def __post_init__(self) -> None:
        if self.steps < 1 or self.steps % LEVELS:
            raise ValueError(f"steps must be a positive multiple of {LEVELS}, got {self.steps}")

    def beta(self, t: int) -> float:
        """Noise level of step t; a step outside [0, steps) is a ValueError."""
        if not 0 <= t < self.steps:
            raise ValueError(f"step {t} outside [0, {self.steps})")
        return float(BETAS[t // (self.steps // LEVELS)])

    def eta(self, t: int) -> float:
        """Langevin step size at step t: EPS0 * (beta_t / beta_last)^2."""
        return EPS0 * (self.beta(t) / float(BETAS[-1])) ** 2


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
