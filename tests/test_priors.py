import numpy as np
import pytest

from smrd.priors import BETA_MAX, BETA_MIN, NoiseSchedule, ScorePrior, score


def test_schedule_endpoints_and_monotonicity():
    s = NoiseSchedule(levels=30, steps=300)
    betas = s.betas
    assert betas[0] == BETA_MAX == 1.0
    assert betas[-1] == pytest.approx(BETA_MIN, rel=1e-12)
    assert BETA_MIN == 0.003
    assert (np.diff(betas) < 0).all()
    etas = [s.eta(t) for t in range(s.steps)]
    assert all(e > 0 for e in etas)
    assert all(b <= a for a, b in zip(etas, etas[1:]))


def test_eta_last_level_is_eps0():
    s = NoiseSchedule(levels=5, steps=15, eps0=7e-4)
    assert s.eta(s.steps - 1) == pytest.approx(7e-4, rel=1e-12)


def test_eta_closed_form_two_levels():
    s = NoiseSchedule(levels=2, steps=8, eps0=1e-3)
    assert s.eta(0) == pytest.approx(1e-3 / 0.003**2, rel=1e-12)  # eps0 * (1 / 0.003)^2
    assert s.eta(4) == 1e-3


def test_betas_are_read_only():
    s = NoiseSchedule()
    with pytest.raises(ValueError):
        s.betas[0] = 99.0
    assert s.eta(0) == pytest.approx(0.2, rel=1e-12)
    assert s.betas[0] == 1.0


def test_eta_out_of_range():
    s = NoiseSchedule(levels=2, steps=4)
    with pytest.raises(ValueError):
        s.eta(4)
    with pytest.raises(ValueError):
        s.eta(-1)


def test_schedule_validation():
    for eps0 in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            NoiseSchedule(eps0=eps0)


@pytest.mark.parametrize("levels, steps", [(4, 10), (0, 300), (30, 0), (2, -2)])
def test_schedule_steps_must_be_a_multiple_of_levels(levels, steps):
    want = ("steps must be a positive multiple of levels >= 1, "
            f"got steps={steps}, levels={levels}")
    with pytest.raises(ValueError) as info:
        NoiseSchedule(levels=levels, steps=steps)
    assert str(info.value) == want


def test_steps_run_levels_in_order():
    # 3 levels of 2 steps each: beta steps down once every 2 steps, by sqrt(0.003)
    s = NoiseSchedule(levels=3, steps=6)
    assert s.betas == pytest.approx([1.0, 0.003**0.5, 0.003], rel=1e-12)
    assert [s.beta(t) for t in range(6)] == [float(b) for b in s.betas for _ in range(2)]
    want = [s.eps0 / 0.003**2] * 2 + [s.eps0 / 0.003] * 2 + [s.eps0] * 2
    assert [s.eta(t) for t in range(6)] == pytest.approx(want, rel=1e-12)


def test_gaussian_score_vanishes_at_mean():
    mean = np.full((8, 8), 0.3 + 0.1j)
    prior = ScorePrior(mean=mean, tau2=0.5)
    assert np.max(np.abs(score(prior, mean.copy(), 0))) == 0


def test_gaussian_score_scalar_case():
    # mean 0, tau2 1, beta 1 at t=0, x = 2 -> (0 - 2) / (1 + 1) = -1
    s = NoiseSchedule(levels=2, steps=2)
    prior = ScorePrior(schedule=s, mean=np.zeros((1, 1)), tau2=1.0)
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
    s = NoiseSchedule(levels=1, steps=400, eps0=0.3)
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
