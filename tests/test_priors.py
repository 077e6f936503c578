import numpy as np
import pytest

from smrd.priors import BETA_MAX, BETA_MIN, BETAS, EPS0, LEVELS, NoiseSchedule, ScorePrior, score


def test_schedule_endpoints_and_monotonicity():
    assert LEVELS == len(BETAS) == 30
    assert BETAS[0] == BETA_MAX == 1.0
    assert BETAS[-1] == pytest.approx(BETA_MIN, rel=1e-12)
    assert BETA_MIN == 0.003
    assert (np.diff(BETAS) < 0).all()
    s = NoiseSchedule()
    etas = [s.eta(t) for t in range(s.steps)]
    assert all(e > 0 for e in etas)
    assert all(b <= a for a, b in zip(etas, etas[1:]))


def test_eta_last_level_is_eps0():
    s = NoiseSchedule()
    assert s.eta(s.steps - 1) == EPS0 == 1.8e-6


def test_betas_are_read_only():
    with pytest.raises(ValueError):
        BETAS[0] = 99.0
    assert NoiseSchedule().eta(0) == pytest.approx(0.2, rel=1e-12)
    assert BETAS[0] == 1.0


def test_eta_out_of_range():
    s = NoiseSchedule(steps=30)
    with pytest.raises(ValueError):
        s.eta(30)
    with pytest.raises(ValueError):
        s.eta(-1)


@pytest.mark.parametrize("steps", [10, 31, 0, -30])
def test_schedule_steps_must_be_a_multiple_of_levels(steps):
    with pytest.raises(ValueError) as info:
        NoiseSchedule(steps=steps)
    assert str(info.value) == f"steps must be a positive multiple of 30, got {steps}"


def test_steps_run_levels_in_order():
    # 30 levels of 2 steps each: beta steps down once every 2 steps, by 0.003^(1/29)
    s = NoiseSchedule(steps=60)
    want = [BETA_MIN ** (l / 29) for l in range(30)]
    assert [s.beta(t) for t in range(0, 60, 2)] == pytest.approx(want, rel=1e-12)
    assert [s.beta(t) for t in range(60)] == [float(b) for b in BETAS for _ in range(2)]
    want = [EPS0 * BETA_MIN ** (2 * l / 29 - 2) for l in range(30) for _ in range(2)]
    assert [s.eta(t) for t in range(60)] == pytest.approx(want, rel=1e-12)


def test_gaussian_score_vanishes_at_mean():
    mean = np.full((8, 8), 0.3 + 0.1j)
    prior = ScorePrior(mean=mean, tau2=0.5)
    assert np.max(np.abs(score(prior, mean.copy(), 0))) == 0


def test_gaussian_score_scalar_case():
    # mean 0, tau2 1, beta 1 at t=0, x = 2 -> (0 - 2) / (1 + 1) = -1
    prior = ScorePrior(mean=np.zeros((1, 1)), tau2=1.0)
    out = score(prior, np.array([[2.0 + 0.0j]]), 0)
    assert out[0, 0] == pytest.approx(-1.0)


def test_zero_prior():
    prior = ScorePrior()
    rng = np.random.default_rng(0)
    x = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    assert not score(prior, x, 5).any()


def test_gaussian_score_affine_in_x():
    rng = np.random.default_rng(1)
    mean = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    prior = ScorePrior(mean=mean, tau2=0.3)
    x1 = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    x2 = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    a = 0.35
    lhs = score(prior, a * x1 + (1 - a) * x2, 3)
    rhs = a * score(prior, x1, 3) + (1 - a) * score(prior, x2, 3)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_gaussian_fixed_point_is_mean():
    # noiseless Langevin iteration contracts to the prior mean
    rng = np.random.default_rng(2)
    mean = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    s = NoiseSchedule(steps=3000)  # 100 steps per level: contracts by ~1e-22
    prior = ScorePrior(schedule=s, mean=mean, tau2=0.75)
    x = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    for t in range(s.steps):
        x = x + s.eta(t) * score(prior, x, t)
    assert np.max(np.abs(x - mean)) < 1e-10


def test_score_rejects_bad_step():
    prior = ScorePrior()
    with pytest.raises(ValueError):
        score(prior, np.zeros((4, 4)), prior.schedule.steps)


def test_prior_validation():
    with pytest.raises(ValueError):
        ScorePrior(mean=np.zeros((4, 4)), tau2=0.0)
    for tau2 in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            ScorePrior(tau2=tau2)  # unused without a mean, still checked
