import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smrd.fourier import norm2
from smrd.sure import (
    ALPHA,
    LAMBDA_MAX,
    LAMBDA_MIN,
    NumericalError,
    TttConfig,
    TttState,
    draw_probe,
    early_stop_check,
    freeze_step,
    grad_sure_lambda,
    mc_sure,
    stop_window,
    sure_known_sigma,
    update_lambda,
)
from tests.test_fourier import random_complex


def mean_sure(h, x_t, x_zf, count, rng):
    # the mean of `count` one-probe SURE values drawn in turn from one generator
    h0 = h(x_t, 1.0)
    return sum(mc_sure(h, x_t, x_zf, 1.0, rng, h_at_x=h0) for _ in range(count)) / count


# mc_sure ----------------------------------------------------------------

def test_mc_sure_constant_update_is_zero():
    rng = np.random.default_rng(0)
    x_t = random_complex(rng, (8, 8))
    x_zf = random_complex(rng, (8, 8))
    fixed = random_complex(rng, (8, 8))
    val = mc_sure(lambda v, lam: fixed, x_t, x_zf, 1.0, np.random.default_rng(1))
    assert val == 0.0


def test_mc_sure_zero_is_unsigned():
    # a zero residual times a negative probe term is -0.0; no trace holds a signed zero
    x_t = random_complex(np.random.default_rng(0), (4, 4))
    val = mc_sure(lambda v, lam: -v, x_t, -x_t, 1.0, np.random.default_rng(1))
    assert val == 0.0 and math.copysign(1.0, val) == 1.0


def test_mc_sure_identity_matches_exact_trace():
    rng = np.random.default_rng(2)
    x_t = random_complex(rng, (16, 16))
    x_zf = random_complex(rng, (16, 16))
    val = mean_sure(lambda v, lam: v, x_t, x_zf, 1000, np.random.default_rng(3))
    # identity divergence is exactly N, so the expectation is ||x_t - x_zf||^2
    assert val == pytest.approx(norm2(x_t - x_zf), rel=0.02)


def test_mc_sure_divergence_matches_materialized_trace():
    n = 256
    rng = np.random.default_rng(4)
    w = np.eye(n) + 0.1 * rng.standard_normal((n, n))
    x_t = random_complex(rng, (16, 16))
    x_zf = random_complex(rng, (16, 16))

    def h(v, lam):
        return np.einsum("ij,j->i", w, v.ravel()).reshape(v.shape)  # numpy's loops, no BLAS threads

    val = mean_sure(h, x_t, x_zf, 10_000, np.random.default_rng(5))
    div_est = val * n / norm2(h(x_t, 1.0) - x_zf)
    assert div_est == pytest.approx(np.trace(w), rel=0.02)


def test_mc_sure_deterministic_given_rng():
    rng = np.random.default_rng(7)
    x_t = random_complex(rng, (8, 8))
    x_zf = random_complex(rng, (8, 8))
    a = mc_sure(lambda v, lam: 0.5 * v, x_t, x_zf, 1.0, np.random.default_rng(8))
    b = mc_sure(lambda v, lam: 0.5 * v, x_t, x_zf, 1.0, np.random.default_rng(8))
    assert a == b


def test_sure_values_draw_exactly_one_probe():
    # mc_sure and grad_sure_lambda take one probe from the generator and nothing
    # else, so a change to the controller moves no later draw of the run
    rng = np.random.default_rng(30)
    x_t = random_complex(rng, (4, 4))
    x_zf = random_complex(rng, (4, 4))

    def h(v, lam):
        return v / (1.0 + lam)

    for sure_value in (mc_sure, grad_sure_lambda):
        used, fresh = np.random.default_rng(31), np.random.default_rng(31)
        sure_value(h, x_t, x_zf, 2.0, used)
        draw_probe(fresh, x_t.shape)
        assert np.array_equal(used.standard_normal(8), fresh.standard_normal(8))


def test_probe_distribution_unit_entry_variance():
    mu = draw_probe(np.random.default_rng(9), (200, 200))
    assert np.mean(np.abs(mu) ** 2) == pytest.approx(1.0, rel=0.02)


# sure_known_sigma -------------------------------------------------------

def test_known_sigma_identity_with_n_divergence_is_zero():
    rng = np.random.default_rng(10)
    x = random_complex(rng, (8, 8))
    assert sure_known_sigma(x, x, 0.3, divergence=x.size) == pytest.approx(0.0, abs=1e-12)


def test_known_sigma_zero_noise_reduces_to_residual():
    rng = np.random.default_rng(11)
    x_hat = random_complex(rng, (8, 8))
    x_zf = random_complex(rng, (8, 8))
    assert sure_known_sigma(x_hat, x_zf, 0.0, divergence=123.0) == pytest.approx(
        norm2(x_hat - x_zf)
    )


def test_known_sigma_rejects_negative_or_nonfinite_sigma():
    x = np.zeros((4, 4), dtype=complex)
    for sigma in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match=f"^sigma must be finite and nonnegative, got {sigma}$"):
            sure_known_sigma(x, x, sigma, divergence=1.0)


# grad_sure_lambda -------------------------------------------------------

def test_grad_zero_when_h_ignores_lambda():
    rng = np.random.default_rng(13)
    x_t = random_complex(rng, (8, 8))
    x_zf = random_complex(rng, (8, 8))
    g = grad_sure_lambda(lambda v, lam: 0.3 * v, x_t, x_zf, 2.0, np.random.default_rng(14))
    assert abs(g) <= 1e-9


def test_grad_matches_scalar_closed_form():
    # 1x1 system with A = 1: h(v, lam) = (x_zf + lam * v) / (1 + lam).
    # With one probe mu, SURE(lam) = |mu|^2 |x_t - x_zf|^2 lam^3 / (1+lam)^3.
    x_t = np.array([[1.4 - 0.6j]])
    x_zf = np.array([[0.2 + 0.3j]])
    lam = 1.0

    def h(v, lam_):
        return (x_zf + lam_ * v) / (1.0 + lam_)

    seed = 15
    g = grad_sure_lambda(h, x_t, x_zf, lam, np.random.default_rng(seed))
    mu = draw_probe(np.random.default_rng(seed), x_t.shape)
    k = float(np.abs(mu[0, 0]) ** 2 * np.abs(x_t[0, 0] - x_zf[0, 0]) ** 2)
    want = k * 3.0 * lam**2 / (1.0 + lam) ** 4
    assert g == pytest.approx(want, abs=1e-4)


def test_grad_negative_when_sure_decreases_in_lambda():
    # h(v, lam) = v / (1 + lam): both the residual and the divergence shrink
    # with lam, so SURE is decreasing; verify against a grid of evaluations.
    rng = np.random.default_rng(16)
    x_t = random_complex(rng, (8, 8))
    x_zf = np.zeros_like(x_t)

    def h(v, lam):
        return v / (1.0 + lam)

    grid = [mc_sure(h, x_t, x_zf, lam, np.random.default_rng(17)) for lam in (0.5, 1.0, 2.0, 4.0)]
    assert all(b < a for a, b in zip(grid, grid[1:]))
    g = grad_sure_lambda(h, x_t, x_zf, 1.0, np.random.default_rng(17))
    assert g < 0


def test_grad_is_central_difference_of_mc_sure_bitwise():
    # grad_sure_lambda and mc_sure evaluate their probe with the same arithmetic,
    # so with the same probe stream the gradient is exactly the central
    # difference of two mc_sure values
    rng = np.random.default_rng(22)
    x_t = random_complex(rng, (8, 8))
    x_zf = random_complex(rng, (8, 8))
    w = 1.0 + 0.1 * random_complex(rng, (8, 8))

    def h(v, lam):
        return (x_zf + lam * w * v) / (1.0 + lam * np.abs(w))

    lam = 2.0
    delta = max(1e-4, 1e-2 * lam)
    for seed in range(21, 26):
        g = grad_sure_lambda(h, x_t, x_zf, lam, np.random.default_rng(seed))
        hi = mc_sure(h, x_t, x_zf, lam + delta, np.random.default_rng(seed))
        lo = mc_sure(h, x_t, x_zf, lam - delta, np.random.default_rng(seed))
        assert g == (hi - lo) / (2.0 * delta)


def test_grad_one_sided_at_bounds():
    # where lam -/+ delta leaves [LAMBDA_MIN, LAMBDA_MAX], the gradient is
    # exactly the one-sided difference of two same-seeded mc_sure values
    rng = np.random.default_rng(18)
    x_t = random_complex(rng, (4, 4))
    x_zf = random_complex(rng, (4, 4))
    w = 1.0 + 0.1 * random_complex(rng, (4, 4))

    def h(v, lam):
        return (x_zf + lam * w * v) / (1.0 + lam * np.abs(w))

    for seed in (19, 20):
        def sure(lam):
            return mc_sure(h, x_t, x_zf, lam, np.random.default_rng(seed))

        def grad(lam):
            return grad_sure_lambda(h, x_t, x_zf, lam, np.random.default_rng(seed))

        delta_min = 1e-4  # max(1e-4, 1e-2 * LAMBDA_MIN): LAMBDA_MIN - delta < LAMBDA_MIN
        assert grad(LAMBDA_MIN) == (sure(LAMBDA_MIN + delta_min) - sure(LAMBDA_MIN)) / delta_min
        delta_max = 1e-2 * LAMBDA_MAX  # LAMBDA_MAX + delta > LAMBDA_MAX
        assert grad(LAMBDA_MAX) == (sure(LAMBDA_MAX) - sure(LAMBDA_MAX - delta_max)) / delta_max


def test_grad_is_clipped_secant_near_bounds():
    # within delta of a bound, the secant's near end is clipped to the bound
    rng = np.random.default_rng(27)
    x_t = random_complex(rng, (4, 4))
    x_zf = random_complex(rng, (4, 4))
    w = 1.0 + 0.1 * random_complex(rng, (4, 4))

    def h(v, lam):
        return (x_zf + lam * w * v) / (1.0 + lam * np.abs(w))

    for seed in (28, 29):
        def sure(lam):
            return mc_sure(h, x_t, x_zf, lam, np.random.default_rng(seed))

        for lam in (LAMBDA_MIN + 5e-5, LAMBDA_MAX - 50.0):  # about delta / 2 inside each bound
            delta = max(1e-4, 1e-2 * lam)
            up, down = min(delta, LAMBDA_MAX - lam), min(delta, lam - LAMBDA_MIN)
            assert 0 < min(up, down) < delta
            g = grad_sure_lambda(h, x_t, x_zf, lam, np.random.default_rng(seed))
            assert g == (sure(lam + up) - sure(lam - down)) / (up + down)


def test_grad_evaluates_h_twice_per_sure():
    # two SURE values, each h at x_t and at x_t plus the probe, wherever lam lies
    x_t = np.ones((4, 4), dtype=complex)
    for lam in (LAMBDA_MIN, LAMBDA_MIN + 5e-5, 2.0, LAMBDA_MAX - 50.0, LAMBDA_MAX):
        calls = []

        def h(v, lam_):
            calls.append(lam_)
            return v / (1.0 + lam_)

        grad_sure_lambda(h, x_t, x_t, lam, np.random.default_rng(0))
        assert len(calls) == 4


# update_lambda ----------------------------------------------------------

def test_update_lambda_zero_grad_noop():
    state = TttState(lam=2.0)
    update_lambda(state, 0.0)
    assert state.lam == 2.0


def test_update_lambda_first_adam_step():
    state = TttState(lam=2.0)
    update_lambda(state, 1.0)
    want = 2.0 - ALPHA * 1.0 / (1.0 + 1e-8)  # bias-corrected first step
    assert state.lam == pytest.approx(want, abs=1e-6)


def test_update_lambda_clamps():
    # each step moves lambda by ~ALPHA against the gradient's sign
    low = TttState(lam=LAMBDA_MIN + 0.5)
    high = TttState(lam=LAMBDA_MAX - 0.5)
    for _ in range(10):
        update_lambda(low, 1.0)
        update_lambda(high, -1.0)
    assert low.lam == LAMBDA_MIN
    assert high.lam == LAMBDA_MAX


@pytest.mark.parametrize("grad", [float("nan"), float("inf")])
def test_update_lambda_rejects_nonfinite_grad(grad):
    state = TttState(lam=2.0)
    with pytest.raises(NumericalError):
        update_lambda(state, grad)
    assert (state.lam, state.m, state.v, state.steps_taken) == (2.0, 0.0, 0.0, 0)


def test_mc_sure_nonfinite_iterate_is_numerical_error():
    # the probe scale is checked before the probe is drawn, so a failed SURE value
    # leaves the generator where it was
    x_t = np.ones((4, 4), dtype=complex)
    x_t[0, 0] = np.inf
    for sure_value in (mc_sure, grad_sure_lambda):
        rng = np.random.default_rng(0)
        with pytest.raises(NumericalError):
            sure_value(lambda v, lam: v, x_t, x_t, 1.0, rng)
        assert np.array_equal(rng.standard_normal(8), np.random.default_rng(0).standard_normal(8))


# early_stop_check -------------------------------------------------------

def oracle_stop(history, w):
    if len(history) < 2 * w:
        return False
    recent = sum(history[len(history) - w :]) / w
    previous = sum(history[len(history) - 2 * w : len(history) - w]) / w
    return recent > previous


def test_early_stop_needs_two_windows():
    assert early_stop_check([1.0] * 5, 3) is False
    with pytest.raises(ValueError, match="^window must be positive$"):
        early_stop_check([1.0] * 5, 0)


def test_early_stop_step_up_fires():
    w = 4
    history = [1.0] * w + [2.0] * w
    assert early_stop_check(history, w) is True


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=0, max_size=50),
    st.integers(min_value=1, max_value=8),
)
def test_early_stop_matches_oracle(history, w):
    assert early_stop_check(history, w) == oracle_stop(history, w)


# config validation ------------------------------------------------------

def test_config_validation():
    for lambda0 in (0.0, float("nan"), LAMBDA_MIN / 2, 2 * LAMBDA_MAX):
        with pytest.raises(ValueError, match="lambda0 must be in"):
            TttConfig(lambda0=lambda0)
    assert TttConfig(lambda0=LAMBDA_MIN).lambda0 == LAMBDA_MIN
    assert TttConfig(lambda0=LAMBDA_MAX).lambda0 == LAMBDA_MAX
    # the exact integer ceilings; a bare math.ceil(0.14 * T) is one too many at T = 50, 100,
    # 150 and 300, where float dust lands the product just above an integer
    for total in (1, 7, 50, 60, 100, 120, 150, 300):
        assert stop_window(total) == -(-14 * total // 100)
        assert freeze_step(total) == -(-43 * total // 100)
