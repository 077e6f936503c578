"""Monte-Carlo SURE estimation, risk-gradient tuning of the regularization
weight, and moving-average early stopping.

The controller's only setting is `TttConfig.lambda0`; the rest are this
module's constants. A run of T steps updates lambda before step
`freeze_step(T)` = ceil(43% of T) and stops early on a window of
`stop_window(T)` = ceil(14% of T) SURE values, both exact integer ceilings.

The running loss is the variance-free form

    SURE(t) = ||h(x_t, lam) - x_zf||^2 / (N * eps)
              * Re<mu, h(x_t + eps*mu, lam) - h(x_t, lam)>

with eps = max(EPS_REL * max|x_t|, EPS_FLOOR) and one standard complex
normal probe mu per SURE value (E|mu_i|^2 = 1, so the probe term is an
unbiased estimate of Re tr of the update's Jacobian; average independent
values for a lower-variance one). `h` must be deterministic for the
duration of a call: the caller freezes the Langevin noise so both
evaluations walk the same path and the difference isolates the probe.

`sure_known_sigma` is the known-variance form kept for unbiasedness
oracles; it is not used by the sampling loop. Its conventions: its
sigma^2 is the per-entry complex noise variance E|z_i|^2, which is 2 sigma^2
for a `forward.NoiseSpec` sigma (see its docstring), and `divergence` is the
Jacobian trace over real and imaginary coordinates (identity map -> 2N).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fourier import complex_normal, norm2, real_inner

LAMBDA_MIN = 1e-4
LAMBDA_MAX = 1e4
ALPHA = 0.2  # Adam step size on lambda
FREEZE_PERCENT = 43  # no lambda updates from ceil(43% of T) on
STOP_PERCENT = 14  # early-stop window of ceil(14% of T) steps
EPS_REL = 1e-3  # probe scale relative to max |x_t|
EPS_FLOOR = 1e-8  # absolute floor on the probe scale, keeps eps > 0 on tiny iterates
# Adam's constants (Kingma & Ba, ICLR 2015)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

UpdateFn = Callable[[np.ndarray, float], np.ndarray]


def freeze_step(total_steps: int) -> int:
    """First step of a `total_steps` run with no lambda update."""
    return -(-FREEZE_PERCENT * total_steps // 100)


def stop_window(total_steps: int) -> int:
    """Early-stop window, in SURE values, of a `total_steps` run."""
    return -(-STOP_PERCENT * total_steps // 100)


class NumericalError(ArithmeticError):
    """A reconstruction or its controller produced a non-finite value."""


@dataclass(frozen=True)
class TttConfig:
    """Test-time tuning of the regularization weight lambda, which starts at
    `lambda0` and stays in [LAMBDA_MIN, LAMBDA_MAX] at every step."""

    lambda0: float = 2.0

    def __post_init__(self) -> None:
        if not LAMBDA_MIN <= self.lambda0 <= LAMBDA_MAX:
            raise ValueError(f"lambda0 must be in [{LAMBDA_MIN}, {LAMBDA_MAX}], got {self.lambda0}")


@dataclass
class TttState:
    """Evolving lambda and its Adam moments for one run."""

    lam: float
    m: float = 0.0
    v: float = 0.0
    steps_taken: int = 0


def draw_probe(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Standard complex normal probe: real/imag each N(0, 1/2), E|mu|^2 = 1."""
    return math.sqrt(0.5) * complex_normal(rng, shape)


def _probe(x_t: np.ndarray, rng: np.random.Generator) -> tuple[float, np.ndarray]:
    """One probe at x_t: its scale eps, checked before the draw, and mu."""
    eps = max(EPS_REL * float(np.max(np.abs(x_t))), EPS_FLOOR)
    if not np.isfinite(eps):
        raise NumericalError(f"degenerate perturbation scale {eps}")
    return eps, draw_probe(rng, x_t.shape)


def _sure(
    h: UpdateFn, x_t: np.ndarray, x_zf: np.ndarray, lam: float, eps: float, mu: np.ndarray,
    h0: np.ndarray | None = None,
) -> float:
    """Variance-free SURE of h at (x_t, lam) with the probe (eps, mu)."""
    h0 = h(x_t, lam) if h0 is None else h0
    base = norm2(h0 - x_zf)
    h1 = h(x_t + eps * mu, lam)
    probe_term = real_inner(mu, h1 - h0) / eps
    # 0.0 + turns a -0.0 into 0.0, so no trace holds a signed zero
    return 0.0 + base * probe_term / x_t.size


def mc_sure(
    h: UpdateFn,
    x_t: np.ndarray,
    x_zf: np.ndarray,
    lam: float,
    rng: np.random.Generator,
    h_at_x: np.ndarray | None = None,
) -> float:
    """Monte-Carlo SURE of the update h at (x_t, lam).

    `h_at_x` optionally supplies the already-committed h(x_t, lam) so the
    loss is evaluated on exactly the update that was applied.
    """
    return _sure(h, x_t, x_zf, lam, *_probe(x_t, rng), h0=h_at_x)


def sure_known_sigma(
    x_hat: np.ndarray, x_zf: np.ndarray, sigma: float, divergence: float
) -> float:
    """Known-variance SURE: ||x_hat - x_zf||^2 - N*sigma^2 + sigma^2 * div.

    N counts complex entries; see the module docstring for the sigma and
    divergence conventions that make this unbiased for E||x_hat - x||^2.
    """
    if not 0 <= sigma < math.inf:
        raise ValueError(f"sigma must be finite and nonnegative, got {sigma}")
    n = np.asarray(x_hat).size
    return norm2(x_hat - x_zf) - n * sigma**2 + sigma**2 * divergence


def grad_sure_lambda(
    h: UpdateFn,
    x_t: np.ndarray,
    x_zf: np.ndarray,
    lam: float,
    rng: np.random.Generator,
) -> float:
    """d SURE / d lambda as the secant over lam +/- delta, each end clipped
    to [LAMBDA_MIN, LAMBDA_MAX], where lam must lie.

    Both evaluations share one frozen probe (and whatever noise h has
    captured), so the difference isolates lambda.
    """
    delta = max(1e-4, 1e-2 * lam)
    eps, mu = _probe(x_t, rng)
    up, down = min(delta, LAMBDA_MAX - lam), min(delta, lam - LAMBDA_MIN)
    sure_up = _sure(h, x_t, x_zf, lam + up, eps, mu)
    return (sure_up - _sure(h, x_t, x_zf, lam - down, eps, mu)) / (up + down)


def update_lambda(state: TttState, grad: float) -> TttState:
    """One adaptive-moment descent step of size ALPHA on lambda, clamped to
    [LAMBDA_MIN, LAMBDA_MAX]. Mutates and returns `state`; a non-finite
    gradient raises NumericalError and leaves `state` untouched.
    """
    if not math.isfinite(grad):
        raise NumericalError(f"non-finite lambda gradient {grad}")
    state.steps_taken += 1
    k = state.steps_taken
    state.m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * grad
    state.v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * grad * grad
    m_hat = state.m / (1.0 - ADAM_BETA1**k)
    v_hat = state.v / (1.0 - ADAM_BETA2**k)
    state.lam -= ALPHA * m_hat / (math.sqrt(v_hat) + ADAM_EPS)
    state.lam = min(max(state.lam, LAMBDA_MIN), LAMBDA_MAX)
    return state


def early_stop_check(history: list[float], w: int) -> bool:
    """True iff the mean of the last w losses strictly exceeds the mean of
    the w before them. Always False with fewer than 2w entries."""
    if w < 1:
        raise ValueError("window must be positive")
    if len(history) < 2 * w:
        return False
    recent = sum(history[-w:]) / w
    previous = sum(history[-2 * w : -w]) / w
    return bool(recent > previous)
