"""Reference values the benchmark checks hawkes_evolve against.

Written from the model's definition with numpy and scipy only; nothing
here imports hawkes_evolve, so a fault in the package cannot leak into
the values it is checked against.

Parameters are plain numbers: ``alphas[j][i]`` is the jump of intensity
i+1 at a type-(j+1) event and ``betas[i]`` the decay rate of intensity
i+1, as in ``KernelBank.exponential``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm

TEST_FUNCTIONS = ("1", "n1+n2-n3", "l1", "l1*l2", "n3*l3")


def first_moments(base, alphas, betas, t_grid):
    """Exact mean intensities and mean counts of a linear exponential Hawkes system.

    The mean shot noise x solves x' = (A^T - diag beta) x + A^T lambda0
    with x(0) = 0; the mean intensity is lambda0 + x and the mean count
    its integral.  One matrix exponential of the system augmented with
    the counts and the constant gives both.  Returns two arrays of shape
    (len(t_grid), d).
    """
    lam0 = np.asarray(base, dtype=float)
    a = np.asarray(alphas, dtype=float)
    d = lam0.size
    m = np.zeros((2 * d + 1, 2 * d + 1))
    m[:d, :d] = a.T - np.diag(np.asarray(betas, dtype=float))
    m[:d, -1] = a.T @ lam0
    m[d:2 * d, :d] = np.eye(d)
    m[d:2 * d, -1] = lam0
    e = np.zeros(2 * d + 1)
    e[-1] = 1.0
    ys = np.array([expm(m * t) @ e for t in np.asarray(t_grid, dtype=float)])
    return lam0 + ys[:, :d], ys[:, d:2 * d]


def poisson_critical_fitness(base) -> float:
    """Critical fitness of a bank without excitation: lambda03 / lambda01."""
    return base[2] / base[0]


def limit_site_cdf(f, f_c):
    """Limiting terminal site distribution max(f - f_c, 0) / (1 - f_c)."""
    return np.maximum(np.asarray(f, dtype=float) - f_c, 0.0) / (1.0 - f_c)


def _test_function(name: str, z) -> float:
    n1, l1, n2, l2, n3, l3 = z
    return {"1": 1.0, "n1+n2-n3": n1 + n2 - n3, "l1": l1,
            "l1*l2": l1 * l2, "n3*l3": n3 * l3}[name]


def _state(base, counts, xi):
    return (counts[0], base[0] + xi[0], counts[1], base[1] + xi[1], counts[2], base[2] + xi[2])


def _drift_terms(base, betas, death_beta, counts, xi) -> dict:
    """Event-free part of the generator: the gradient along dl_i/dt = beta_i (lambda0_i - l_i)."""
    _, l1, _, l2, n3, l3 = _state(base, counts, xi)
    v1, v2, v3 = betas[0] * (base[0] - l1), betas[1] * (base[1] - l2), death_beta * (base[2] - l3)
    return {"1": 0.0, "n1+n2-n3": 0.0, "l1": v1, "l1*l2": v1 * l2 + v2 * l1, "n3*l3": n3 * v3}


def generator_values(base, alphas, betas, death_alpha, death_beta, counts, xi) -> dict:
    """Generator of (n1, l1, n2, l2, n3, l3) applied to the five test functions.

    Between events l_i decays to lambda0_i at rate beta_i; a type-j birth
    (rate l_j) adds 1 to n_j and alpha_ji to l_i; a death (rate l3, only
    while N = n1 + n2 - n3 > 0) adds 1 to n3 and death_alpha to l3.  A
    path started from the empty state opens with a mutant birth, so
    there the clone rate moves the state as a mutant does.
    """
    n1, l1, n2, l2, n3, l3 = _state(base, counts, xi)
    a11, a12 = alphas[0]
    a21, a22 = alphas[1]
    if tuple(counts) == (0, 0, 0):
        a21, a22 = a11, a12
    g = 1.0 if n1 + n2 - n3 > 0 else 0.0
    jumps = {
        "1": 0.0,
        "n1+n2-n3": l1 + l2 - g * l3,
        "l1": l1 * a11 + l2 * a21,
        "l1*l2": l1 * (a11 * l2 + a12 * l1 + a11 * a12) + l2 * (a21 * l2 + a22 * l1 + a21 * a22),
        "n3*l3": g * l3 * (l3 + death_alpha * (n3 + 1)),
    }
    drift = _drift_terms(base, betas, death_beta, counts, xi)
    return {name: drift[name] + jumps[name] for name in TEST_FUNCTIONS}


def drift_window_correction(base, betas, death_beta, counts, xi, h: float) -> dict:
    """Exact O(h) gap between the event-free flow's secant over [0, h] and its tangent.

    A drift estimate (F(Z_h) - F(Z_0)) / h differs from the generator by
    O(h).  Where F jumps at an event this gap is far below the Monte
    Carlo error; where it does not (a constant, or n3*l3 while deaths are
    off), the estimate has almost no spread and the gap is all that
    separates it from the generator.  The flow is closed form:
    l_i(t) = lambda0_i + xi_i exp(-beta_i t).
    """
    rates = (betas[0], betas[1], death_beta)
    z0 = _state(base, counts, xi)
    zh = _state(base, counts, [xi[k] * math.exp(-rates[k] * h) for k in range(3)])
    tangent = _drift_terms(base, betas, death_beta, counts, xi)
    return {name: (_test_function(name, zh) - _test_function(name, z0)) / h - tangent[name]
            for name in TEST_FUNCTIONS}
