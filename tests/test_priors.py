import numpy as np
import pytest

from smrd.priors import NoiseSchedule, ScorePrior, eta, gaussian_blur, score


def test_schedule_endpoints_and_monotonicity():
    s = NoiseSchedule(levels=30, beta_max=1.0, beta_min=0.01, steps_per_level=10)
    betas = s.betas()
    assert betas[0] == pytest.approx(1.0)
    assert betas[-1] == pytest.approx(0.01)
    assert (np.diff(betas) < 0).all()
    etas = [eta(s, t) for t in range(s.total_steps)]
    assert all(e > 0 for e in etas)
    assert all(b <= a for a, b in zip(etas, etas[1:]))


def test_eta_last_level_is_eps0():
    s = NoiseSchedule(levels=5, beta_max=1.0, beta_min=0.1, steps_per_level=3, eps0=7e-4)
    assert eta(s, s.total_steps - 1) == pytest.approx(7e-4, rel=1e-12)


def test_eta_closed_form_two_levels():
    s = NoiseSchedule(levels=2, beta_max=1.0, beta_min=0.1, steps_per_level=4, eps0=1e-3)
    assert eta(s, 0) == pytest.approx(0.1, rel=1e-12)  # 1e-3 * (1 / 0.01)


def test_cached_betas_are_read_only():
    # equal schedules share one cached array; a write must not leak into them
    with pytest.raises(ValueError):
        NoiseSchedule().betas()[0] = 99.0
    assert eta(NoiseSchedule(), 0) == pytest.approx(0.2, rel=1e-12)
    assert NoiseSchedule().betas()[0] == 1.0


def test_eta_out_of_range():
    s = NoiseSchedule(levels=2, steps_per_level=2)
    with pytest.raises(ValueError):
        eta(s, 4)
    with pytest.raises(ValueError):
        eta(s, -1)


def test_schedule_validation():
    with pytest.raises(ValueError):
        NoiseSchedule(beta_max=0.01, beta_min=0.01)
    with pytest.raises(ValueError):
        NoiseSchedule(eps0=0.0)


def test_gaussian_score_vanishes_at_mean():
    mean = np.full((8, 8), 0.3 + 0.1j)
    prior = ScorePrior(kind="gaussian", mean=mean, tau2=0.5)
    assert np.max(np.abs(score(prior, mean.copy(), 0))) == 0


def test_gaussian_score_scalar_case():
    # mean 0, tau2 1, beta 1 at t=0, x = 2 -> (0 - 2) / (1 + 1) = -1
    s = NoiseSchedule(levels=2, beta_max=1.0, beta_min=0.5, steps_per_level=1)
    prior = ScorePrior(kind="gaussian", schedule=s, mean=None, tau2=1.0)
    out = score(prior, np.array([[2.0 + 0.0j]]), 0)
    assert out[0, 0] == pytest.approx(-1.0)


def test_zero_prior():
    prior = ScorePrior(kind="zero")
    rng = np.random.default_rng(0)
    x = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    assert not score(prior, x, 5).any()


def test_gaussian_score_affine_in_x():
    rng = np.random.default_rng(1)
    mean = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    prior = ScorePrior(kind="gaussian", mean=mean, tau2=0.3)
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
    s = NoiseSchedule(levels=1, beta_max=1.0, beta_min=0.5, steps_per_level=400, eps0=0.3)
    prior = ScorePrior(kind="gaussian", schedule=s, mean=mean, tau2=0.75)
    x = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    for t in range(s.total_steps):
        x = x + eta(s, t) * score(prior, x, t)
    assert np.max(np.abs(x - mean)) < 1e-10


def test_score_rejects_bad_step():
    prior = ScorePrior(kind="zero")
    with pytest.raises(ValueError):
        score(prior, np.zeros((4, 4)), prior.total_steps)


def test_prior_validation():
    with pytest.raises(ValueError):
        ScorePrior(kind="mystery")
    with pytest.raises(ValueError):
        ScorePrior(kind="gaussian", tau2=0.0)
    with pytest.raises(ValueError):
        ScorePrior(kind="zero", tau2=-1.0)  # unused by the zero prior, still checked
    with pytest.raises(ValueError):
        ScorePrior(kind="smoothness")


def test_gaussian_blur_preserves_dc_and_smooths():
    rng = np.random.default_rng(3)
    img = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
    out = gaussian_blur(img, 2.0)
    assert np.mean(out) == pytest.approx(np.mean(img), rel=1e-10)
    assert np.var(out.real) < np.var(img.real)
    assert np.array_equal(gaussian_blur(img, 0.0), img)
