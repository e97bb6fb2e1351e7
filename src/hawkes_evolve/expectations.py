"""Analytic layer: mean intensities, the critical fitness and the regime.

Two parallel routes to the first moments are kept side by side.  The
"paper" route evaluates the closed forms stated for the exponential
model; the "renewal" route solves the standard first-moment equation
y = lambda0 + Phi^T * y exactly, as the linear ODE it becomes for
exponential kernels.  The two routes disagree for nonzero excitation
(their steady states differ), so both are exposed and Monte Carlo
arbitrates between them; nothing is reconciled silently.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import DegenerateParametersError, KernelBank


class NoStationaryRateError(ValueError):
    """The branching structure admits no finite stationary mean rate."""


def _check_index(i: int) -> None:
    if i not in (1, 2, 3):
        raise ValueError(f"index must be 1, 2 or 3, got {i}")


def _paper_limit(bank: KernelBank, i: int) -> float:
    """t -> inf limit c of the paper mean of intensity i.

    For i in {1, 2}, with j the partner index, c = l0i + (l0i a_ii +
    l0j a_ji) / b_i - (a_ii a_jj - a_ij a_ji) l0i / (b_i b_j), which stays
    finite at equal decay rates.
    """
    # a[j][i] is alpha_{ji}: effect of a type-j event on intensity i.
    a, betas = bank.jumps, bank.betas
    if i == 3:
        return bank.base_rates[2] * (1.0 + a[2][2] / betas[2])
    ii, jj = i - 1, 2 - i
    bi, bj = betas[ii], betas[jj]
    l0i, l0j = bank.base_rates[ii], bank.base_rates[jj]
    a_ii, a_ij, a_ji, a_jj = a[ii][ii], a[ii][jj], a[jj][ii], a[jj][jj]
    return l0i + (l0i * a_ii + l0j * a_ji) / bi - (a_ii * a_jj - a_ij * a_ji) * l0i / (bi * bj)


@dataclass(frozen=True)
class ABCCoefficients:
    """Coefficients of the closed-form birth-intensity mean for one index."""

    a: float
    b: float
    c: float


def abc_coefficients(bank: KernelBank, i: int) -> ABCCoefficients:
    """Closed-form curve coefficients for intensity i in {1, 2}.

    The mean intensity is c + a*exp(-beta_i t) + b*exp(-beta_j t) with j
    the partner index; a + b + c equals the baseline rate by construction.
    """
    if i not in (1, 2):
        raise ValueError(f"index must be 1 or 2, got {i}")
    c = _paper_limit(bank, i)
    a, betas = bank.jumps, bank.betas
    ii, jj = i - 1, 2 - i
    bi, bj = betas[ii], betas[jj]
    l0i = bank.base_rates[ii]
    a_ii, a_ij, a_ji, a_jj = a[ii][ii], a[ii][jj], a[jj][ii], a[jj][jj]
    if bi == bj:
        if a_ii == a_ij == a_ji == a_jj == 0:
            return ABCCoefficients(0.0, 0.0, c)
        raise DegenerateParametersError(
            "equal decay rates make the closed form singular; use the renewal curve"
        )
    b = (l0i / bj) * (a_ii * a_jj - a_ij * a_ji) / (bi - bj)
    return ABCCoefficients(l0i - b - c, b, c)


def _paper_mean(bank: KernelBank, i: int) -> tuple[float, tuple[float, ...], tuple[float, ...]]:
    """(c, weights, rates) of the paper mean lambda_i(t) = c + sum w exp(-r t)."""
    betas = bank.betas
    if i == 3:
        c = _paper_limit(bank, 3)
        return c, (-bank.base_rates[2] * bank.jumps[2][2] / betas[2],), (betas[2],)
    coef = abc_coefficients(bank, i)
    return coef.c, (coef.a, coef.b), (betas[i - 1], betas[2 - i])


def expected_intensity_paper(bank: KernelBank, i: int, t) -> float | np.ndarray:
    """Closed-form mean intensity of process i at time t (ungated for i=3).

    A float for a scalar t, an array of t's shape otherwise.
    """
    _check_index(i)
    t = np.asarray(t, dtype=float)
    if not np.all(t >= 0):
        raise ValueError("t must be >= 0")
    out, weights, rates = _paper_mean(bank, i)
    for w, r in zip(weights, rates):
        out = out + w * np.exp(-r * t)
    return float(out) if np.ndim(out) == 0 else out


def univariate_remark_intensity(lam0: float, alpha: float, beta: float, t) -> np.ndarray:
    """Mean intensity of a univariate exponential Hawkes process.

    Steady state beta*lam0/(beta-alpha) for alpha < beta; this is the
    standard first-moment solution and disagrees with the closed form
    above whenever alpha > 0.
    """
    t = np.asarray(t, dtype=float)
    if alpha == beta:
        return lam0 * (1.0 + beta * t)
    g = alpha - beta
    return beta * lam0 / g * (np.exp(g * t) - 1.0) + lam0 * np.exp(g * t)


def _renewal_moments(bank: KernelBank, t) -> tuple[np.ndarray, np.ndarray]:
    """Exact renewal mean intensities and mean counts of the three processes at t.

    With A = ``bank.jumps`` and phi_ji(t) = A_ji exp(-beta_i t), the
    first-moment equation y = lambda0 + Phi^T * y is a linear ODE in the
    mean shot noise x and the mean counts c: x' = -diag(beta) x + A^T y,
    c' = y, with y = lambda0 + x.  The state (x, c, 1) starts at
    (0, 0, 1), so its value at a finite t is the last column of
    expm(M t).  M is defective (the counts grow linearly), which rules
    out diagonalizing it.  Returns (y, c), each with a last axis of 3.
    ``scipy.linalg`` is imported here, on the first solve, so that
    importing the package and every command off the renewal route load
    numpy alone.
    """
    from scipy.linalg import expm  # deferred: 0.3 s and 28 MiB at import
    t = np.asarray(t, dtype=float)
    if not np.all((t >= 0) & (t < np.inf)):
        raise ValueError("t must be finite and >= 0")
    lam0 = np.array(bank.base_rates)
    a = np.array(bank.jumps)
    m = np.zeros((7, 7))
    m[:3, :3] = a.T - np.diag(bank.betas)
    m[:3, -1] = a.T @ lam0
    m[3:6, :3] = np.eye(3)
    m[3:6, -1] = lam0
    z = expm(t[..., None, None] * m)[..., -1]
    return lam0 + z[..., :3], z[..., 3:6]


def expected_intensity_renewal(bank: KernelBank, i: int, t_grid) -> np.ndarray:
    """Exact first-moment intensity of process i at each time of t_grid.

    ``t_grid`` is any array of finite times >= 0, of any shape and in any
    order: each time is solved on its own.  ``expm``'s scaling and squaring
    loses digits as t grows: on the tests' ``CROSS_BANK`` (stationary lambda1
    4.6) lambda1 is off by a relative 2.4e-11 at t = 1e5, 1.7e-9 at 1e7,
    9.3e-8 at 1e9 and 6.6e-5 at 1e12.
    """
    _check_index(i)
    return _renewal_moments(bank, t_grid)[0][..., i - 1]


def expected_count(bank: KernelBank, i: int, t: float, method: str = "paper") -> float:
    """Mean event count of process i on [0, t] for the selected curve.

    The renewal count loses digits as t grows, as ``expected_intensity_renewal`` says."""
    _check_index(i)
    if method not in ("paper", "renewal"):
        raise ValueError(f"unknown method {method!r}")
    if not 0 <= t < math.inf:
        raise ValueError(f"t must be finite and >= 0, got {t}")
    if t == 0:
        return 0.0
    if method == "paper":
        c, weights, rates = _paper_mean(bank, i)
        return c * t + sum(w * (1.0 - math.exp(-r * t)) / r for w, r in zip(weights, rates))
    return float(_renewal_moments(bank, t)[1][i - 1])


def asymptotic_rates(bank: KernelBank, method: str = "paper") -> tuple[float, float, float]:
    """Long-run mean rates (Lambda1, Lambda2, Lambda3).

    The paper route takes the t -> inf limits of the closed forms; the
    renewal route solves the stationary balance Lambda = lambda0 + K^T
    Lambda of the three processes at once, with K[j, i] = alpha_ji /
    beta_i the kernels' L1 norms.  That needs a subcritical K.
    """
    if method == "paper":
        return (_paper_limit(bank, 1), _paper_limit(bank, 2), _paper_limit(bank, 3))
    if method == "renewal":
        k = np.array(bank.jumps) / np.array(bank.betas)
        if np.max(np.abs(np.linalg.eigvals(k))) >= 1:
            raise NoStationaryRateError("branching matrix is not subcritical")
        lam = np.linalg.solve(np.eye(3) - k.T, np.array(bank.base_rates))
        return tuple(lam.tolist())
    raise ValueError(f"unknown method {method!r}")


def critical_fitness(bank: KernelBank, method: str = "paper") -> float:
    """Critical fitness Lambda3 / Lambda1 from ``asymptotic_rates(bank, method)``.

    The limiting ratio of the mean death rate to the mean mutant rate.
    On the paper route a value outside [l03 / (2 l01 + l02), 2 l03 / l01]
    warns when every jump is at most its decay rate.
    """
    lam = asymptotic_rates(bank, method)
    if lam[0] == 0:
        raise DegenerateParametersError("the mutant rate limit is zero")
    fc = lam[2] / lam[0]
    if method == "paper":
        l01, l02, l03 = bank.base_rates
        if all(a <= b for row in bank.jumps for a, b in zip(row, bank.betas)):
            lo = l03 / (2 * l01 + l02)
            hi = 2 * l03 / l01
            if not (lo <= fc <= hi):
                warnings.warn(
                    f"critical fitness {fc} violates the bounds [{lo}, {hi}]",
                    RuntimeWarning,
                )
    return fc


class RegimeKind(enum.Enum):
    SUBCRITICAL = "subcritical"
    PHASE_TRANSITION = "phase_transition"
    CONCENTRATION_AT_ONE = "concentration_at_one"


@dataclass(frozen=True)
class RegimeReport:
    """Asymptotic rates, critical fitness and the population regime."""

    lambda_asym_paper: tuple[float, float, float]
    lambda_asym_renewal: tuple[float, float, float]
    fc_paper: float
    fc_renewal: float
    regime: RegimeKind

    def to_dict(self) -> dict:
        return {
            "lambda_asym_paper": list(self.lambda_asym_paper),
            "lambda_asym_renewal": list(self.lambda_asym_renewal),
            "fc_paper": self.fc_paper,
            "fc_renewal": self.fc_renewal,
            "regime": self.regime.value,
        }


def classify_regime(bank: KernelBank) -> RegimeReport:
    """Trichotomy of the long-run population behaviour, from the renewal rates.

    Subcritical when deaths dominate births in the mean; otherwise a
    phase transition at the critical fitness when it lies in (0, 1], and
    concentration of the population near fitness 1 when it exceeds 1.
    Raises NoStationaryRateError when the renewal rates do not exist:
    the births then explode, which the paper limits cannot show.
    """
    lam = asymptotic_rates(bank, "renewal")
    fc = critical_fitness(bank, "renewal")
    if lam[2] >= lam[0] + lam[1]:
        regime = RegimeKind.SUBCRITICAL
    elif fc <= 1:
        regime = RegimeKind.PHASE_TRANSITION
    else:
        regime = RegimeKind.CONCENTRATION_AT_ONE
    return RegimeReport(asymptotic_rates(bank, "paper"), lam,
                        critical_fitness(bank, "paper"), fc, regime)
