"""Fast checks of the benchmark's reference values against known closed forms."""

import math

import numpy as np
import pytest

import exact

NO_JUMPS = ((0.0, 0.0), (0.0, 0.0))


def test_poisson_bank_has_constant_rates():
    t = np.linspace(0.0, 20.0, 9)
    lam, count = exact.first_moments((2.0, 1.0), NO_JUMPS, (1.0, 3.0), t)
    np.testing.assert_allclose(lam, np.broadcast_to([2.0, 1.0], lam.shape), rtol=1e-12)
    np.testing.assert_allclose(count, np.outer(t, [2.0, 1.0]), rtol=1e-12, atol=1e-12)


def test_univariate_mean_and_steady_state():
    lam0, alpha, beta = 1.5, 1.0, 2.0
    t = np.array([0.0, 0.5, 3.0, 60.0])
    lam, count = exact.first_moments((lam0,), ((alpha,),), (beta,), t)
    steady = beta * lam0 / (beta - alpha)
    closed = steady - alpha * lam0 / (beta - alpha) * np.exp(-(beta - alpha) * t)
    np.testing.assert_allclose(lam[:, 0], closed, rtol=1e-10)
    assert lam[-1, 0] == pytest.approx(steady, rel=1e-12)
    closed_count = steady * t - alpha * lam0 / (beta - alpha) ** 2 * (1 - np.exp(-(beta - alpha) * t))
    np.testing.assert_allclose(count[:, 0], closed_count, rtol=1e-10, atol=1e-12)


def test_cross_bank_tends_to_stationary_balance():
    base, alphas, betas = (1.0, 0.8), ((0.4, 0.6), (0.4, 0.6)), (1.0, 1.5)
    k = np.array(alphas) / np.array(betas)  # k[j, i] = alpha_ji / beta_i
    stationary = np.linalg.solve(np.eye(2) - k.T, base)
    lam, _ = exact.first_moments(base, alphas, betas, [400.0])
    np.testing.assert_allclose(lam[0], stationary, rtol=1e-9)


def test_poisson_critical_fitness_and_site_cdf():
    f_c = exact.poisson_critical_fitness((2.0, 1.0, 1.0))
    assert f_c == 0.5
    np.testing.assert_allclose(exact.limit_site_cdf([0.0, 0.5, 0.75, 1.0], f_c),
                               [0.0, 0.0, 0.5, 1.0])


def test_generator_of_a_poisson_bank():
    base = (2.0, 1.0, 0.5)
    open_gate = exact.generator_values(base, NO_JUMPS, (1.0, 1.0), 0.0, 1.0, (2, 1, 1), (0, 0, 0))
    assert open_gate == {"1": 0.0, "n1+n2-n3": 2.5, "l1": 0.0, "l1*l2": 0.0, "n3*l3": 0.25}
    closed_gate = exact.generator_values(base, NO_JUMPS, (1.0, 1.0), 0.0, 1.0, (1, 0, 1), (0, 0, 0))
    assert closed_gate["n1+n2-n3"] == 3.0
    assert closed_gate["n3*l3"] == 0.0


def test_generator_at_the_empty_state_is_the_initial_slope_of_the_mean():
    base, alphas, betas = (1.0, 0.8, 1.2), ((0.4, 0.6), (0.4, 0.6)), (1.0, 1.5)
    gen = exact.generator_values(base, alphas, betas, 0.4, 1.0, (0, 0, 0), (0.0, 0.0, 0.0))
    h = 1e-6
    lam, _ = exact.first_moments(base[:2], alphas, betas, [h])
    assert gen["l1"] == pytest.approx((lam[0, 0] - base[0]) / h, rel=1e-5)
    assert gen["n1+n2-n3"] == pytest.approx(base[0] + base[1])


def test_drift_window_correction_is_the_secant_gap_of_the_flow():
    base, betas, xi, h = (1.0, 0.8, 1.2), (1.0, 1.5), (0.3, 0.2, 0.1), 1e-3
    corr = exact.drift_window_correction(base, betas, 1.0, (2, 1, 1), xi, h)
    expected_l1 = xi[0] * (math.exp(-betas[0] * h) - 1.0) / h + betas[0] * xi[0]
    assert corr["l1"] == pytest.approx(expected_l1, rel=1e-9)
    assert corr["1"] == corr["n1+n2-n3"] == 0.0
    small = exact.drift_window_correction(base, betas, 1.0, (2, 1, 1), xi, h * 1e-2)
    assert abs(small["l1*l2"]) < abs(corr["l1*l2"]) * 0.02
