"""Analytic layer: mean intensities, stability and the critical fitness.

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

from .core import (
    DegenerateParametersError,
    KernelBank,
    l1_norm,
    require_zero_offsets,
)


class NoStationaryRateError(ValueError):
    """The branching structure admits no finite stationary mean rate."""


def _exp_params(bank: KernelBank):
    """(alpha[j][i], beta[i], alpha3, beta3) of a zero-offset bank."""
    require_zero_offsets(bank, "the closed forms")
    alphas = tuple(tuple(bank.birth_kernels[j][i].alpha for i in range(2)) for j in range(2))
    b1, b2, b3 = bank.betas
    return alphas, (b1, b2), bank.death_kernel.alpha, b3


def _paper_limit(bank: KernelBank, i: int) -> float:
    """t -> inf limit c of the paper mean of intensity i.

    For i in {1, 2}, with j the partner index, c = l0i + (l0i a_ii +
    l0j a_ji) / b_i - (a_ii a_jj - a_ij a_ji) l0i / (b_i b_j), which stays
    finite at equal decay rates.
    """
    alphas, betas, a3, b3 = _exp_params(bank)
    if i == 3:
        return bank.base_rates[2] * (1.0 + a3 / b3)
    ii, jj = i - 1, 2 - i
    bi, bj = betas[ii], betas[jj]
    l0i, l0j = bank.base_rates[ii], bank.base_rates[jj]
    # alphas[j][i] is alpha_{ji}: effect of a type-j event on intensity i.
    a_ii, a_ij, a_ji, a_jj = alphas[ii][ii], alphas[ii][jj], alphas[jj][ii], alphas[jj][jj]
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
    alphas, betas, _, _ = _exp_params(bank)
    ii, jj = i - 1, 2 - i
    bi, bj = betas[ii], betas[jj]
    l0i = bank.base_rates[ii]
    c = _paper_limit(bank, i)
    a_ii, a_ij, a_ji, a_jj = alphas[ii][ii], alphas[ii][jj], alphas[jj][ii], alphas[jj][jj]
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
    if i == 3:
        _, _, a3, b3 = _exp_params(bank)
        return _paper_limit(bank, 3), (-bank.base_rates[2] * a3 / b3,), (b3,)
    coef = abc_coefficients(bank, i)
    _, betas, _, _ = _exp_params(bank)
    return coef.c, (coef.a, coef.b), (betas[i - 1], betas[2 - i])


def expected_intensity_paper(bank: KernelBank, i: int, t) -> float:
    """Closed-form mean intensity of process i at time t (ungated for i=3)."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
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


def _renewal_moments(bank: KernelBank, i: int, t) -> tuple[np.ndarray, np.ndarray]:
    """Exact renewal mean intensity and mean count of process i at times t.

    With phi_ji(t) = delta_ji + alpha_ji exp(-beta_i t) the first-moment
    equation y = lambda0 + Phi^T * y is a linear ODE in the mean shot
    noise x and the mean counts c: x' = -diag(beta) x + A^T y, c' = y,
    with y = lambda0 + x + Delta^T c.  The state (x, c, 1) starts at
    (0, 0, 1), so its value at t is the last column of expm(M t).  M is
    defective (the counts grow linearly), which rules out diagonalizing it.
    ``scipy.linalg`` is imported here, on the first solve, so that
    importing the package and every command off the renewal route load
    numpy alone.
    """
    from scipy.linalg import expm  # deferred: 0.3 s and 28 MiB at import
    if i in (1, 2):
        kernels, lam0, comp = bank.birth_kernels, np.array(bank.base_rates[:2]), i - 1
    elif i == 3:
        kernels, lam0, comp = ((bank.death_kernel,),), np.array(bank.base_rates[2:]), 0
    else:
        raise ValueError(f"index must be 1, 2 or 3, got {i}")
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("t must be >= 0")
    d = lam0.size
    a = np.array([[k.alpha for k in row] for row in kernels])
    delta = np.array([[k.delta for k in row] for row in kernels])
    beta = np.array([k.beta for k in kernels[0]])
    m = np.zeros((2 * d + 1, 2 * d + 1))
    m[:d, :d] = a.T - np.diag(beta)
    m[:d, d:2 * d] = a.T @ delta.T
    m[:d, -1] = a.T @ lam0
    m[d:2 * d, :d] = np.eye(d)
    m[d:2 * d, d:2 * d] = delta.T
    m[d:2 * d, -1] = lam0
    z = expm(t[..., None, None] * m)[..., -1]
    x, c = z[..., :d], z[..., d:2 * d]
    y = lam0 + x + c @ delta
    return y[..., comp], c[..., comp]


def expected_intensity_renewal(bank: KernelBank, i: int, t_grid) -> np.ndarray:
    """Exact first-moment intensity of process i on t_grid."""
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size == 0 or t_grid[0] != 0 or np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must increase from 0")
    return _renewal_moments(bank, i, t_grid)[0]


def expected_count(bank: KernelBank, i: int, t: float, method: str = "paper") -> float:
    """Mean event count of process i on [0, t] for the selected curve."""
    if t < 0:
        raise ValueError("t must be >= 0")
    if t == 0:
        return 0.0
    if method == "paper":
        c, weights, rates = _paper_mean(bank, i)
        return c * t + sum(w * (1.0 - math.exp(-r * t)) / r for w, r in zip(weights, rates))
    if method == "renewal":
        return float(_renewal_moments(bank, i, t)[1])
    raise ValueError(f"unknown method {method!r}")


def _branching_matrix(bank: KernelBank) -> np.ndarray:
    """K[j, i] = L1 norm of the kernel from type j onto intensity i."""
    return np.array([[l1_norm(bank.birth_kernels[j][i]) for i in range(2)] for j in range(2)])


def asymptotic_rates(bank: KernelBank, method: str = "paper") -> tuple[float, float, float]:
    """Long-run mean rates (Lambda1, Lambda2, Lambda3).

    The paper route takes the t -> inf limits of the closed forms; the
    renewal route solves the stationary balance Lambda = lambda0 + K^T
    Lambda, which requires a subcritical branching matrix.
    """
    if method == "paper":
        return (_paper_limit(bank, 1), _paper_limit(bank, 2), _paper_limit(bank, 3))
    if method == "renewal":
        k = _branching_matrix(bank)
        if not np.all(np.isfinite(k)):
            raise NoStationaryRateError("a birth kernel has infinite L1 norm")
        if np.max(np.abs(np.linalg.eigvals(k))) >= 1:
            raise NoStationaryRateError("branching matrix is not subcritical")
        lam12 = np.linalg.solve(np.eye(2) - k.T, np.array(bank.base_rates[:2]))
        psi_norm = l1_norm(bank.death_kernel)
        if psi_norm >= 1:
            raise NoStationaryRateError("death kernel L1 norm must be < 1")
        l3 = bank.base_rates[2] / (1.0 - psi_norm)
        return (float(lam12[0]), float(lam12[1]), l3)
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
        alphas, betas, a3, b3 = _exp_params(bank)
        l01, l02, l03 = bank.base_rates
        subcritical_jumps = a3 <= b3 and all(
            alphas[j][i] <= betas[i] for j in range(2) for i in range(2)
        )
        if subcritical_jumps:
            lo = l03 / (2 * l01 + l02)
            hi = 2 * l03 / l01
            if not (lo <= fc <= hi):
                warnings.warn(
                    f"critical fitness {fc} violates the bounds [{lo}, {hi}]",
                    RuntimeWarning,
                )
    return fc


class Stability(enum.Enum):
    STABLE = "stable"
    UNSTABLE = "unstable"
    CRITICAL = "critical"


_CRITICAL_WINDOW = 1e-12


def _classify(lam: tuple[float, float, float]) -> Stability:
    births, deaths = lam[0] + lam[1], lam[2]
    if abs(births - deaths) < _CRITICAL_WINDOW * deaths:
        return Stability.CRITICAL
    return Stability.STABLE if deaths > births else Stability.UNSTABLE


def stability_check(bank: KernelBank) -> Stability:
    """Compare long-run birth and death rates.

    Uses the renewal rates when they exist; a supercritical branching
    matrix means the births explode, which is unstable outright.
    """
    try:
        lam = asymptotic_rates(bank, "renewal")
    except NoStationaryRateError:
        return Stability.UNSTABLE
    return _classify(lam)


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
