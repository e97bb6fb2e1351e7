"""Monte Carlo harness and statistical verdicts.

Every estimate carries a standard error; where the two analytic routes
disagree, the reports show both z-scores and flag which curve the data
matched instead of hard-failing on either.  Replications use independent
derived RNG streams.  A sweep or rho replication returns one named record,
whose fields ``_replicate`` stacks by name in index order, so results are
reproducible bit for bit for a given seed and independent of the worker
count; both loops count the runs capped at ``max_events`` (``n_capped``).
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from functools import partial
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .core import IntensityState, KernelBank
from .expectations import (
    NoStationaryRateError,
    critical_fitness,
    expected_intensity_paper,
    expected_intensity_renewal,
)
from .population import (
    rho_limit,
    simulate_epsilon_chain,
    simulate_population,
    theoretical_site_cdf,
)
# Nothing here calls simulate_markov; the name stays importable from this
# module because the benchmark's tracer (perfbench/spans.py) looks it up
# here with no default.
from .simulate import (SimConfig, SimPath, check_grid, simulate_markov,
                       simulate_markov_batch, time_rescale_residuals)


def _replicate(worker: Callable, n_runs: int, threads: int):
    """Records worker(0), ..., worker(n_runs - 1), run in a pool when threads > 1,
    stacked into one record of the same NamedTuple: each field an array in index order."""
    if n_runs < 1:
        raise ValueError(f"n_runs must be >= 1, got {n_runs}")
    if threads <= 1:
        runs = list(map(worker, range(n_runs)))
    else:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            runs = list(pool.map(worker, range(n_runs), chunksize=max(1, n_runs // (4 * threads))))
    return type(runs[0])(*map(np.array, zip(*runs)))


def _report_dict(report) -> dict:
    """A report's fields but ``n_capped``, arrays as lists, for its JSON artifact."""
    values = {f.name: getattr(report, f.name) for f in fields(report) if f.name != "n_capped"}
    return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in values.items()}


@dataclass(frozen=True)
class CurveComparison:
    """Grid z-scores of the MC mean against one analytic curve."""

    method: str
    target: np.ndarray
    z: np.ndarray

    @property
    def max_abs_z(self) -> float:
        return float(np.max(np.abs(self.z)))

    @property
    def within_3_sigma(self) -> bool:
        return self.max_abs_z < 3.0


@dataclass(frozen=True)
class MCReport:
    """Grid means of the sampled intensities with both analytic targets.

    The (3, method) comparisons use the ungated death intensity, whose
    path still feels the gate: deaths stop while N = 0, so xi3 gets fewer
    jumps than the analytic curves assume.  When deaths self-excite
    (``deaths_self_excite``) they are still scored but not expected to
    match, and ``matched_method(3)`` says "not applicable".
    """

    t_grid: np.ndarray
    n_paths: int
    mean: np.ndarray  # shape (grid, 3), ungated death intensity
    stderr: np.ndarray
    comparisons: dict  # (index, method) -> CurveComparison
    deaths_self_excite: bool = False
    n_capped: int = 0  # paths stopped at max_events, NaN past their end

    def matched_method(self, i: int) -> Optional[str]:
        """Which analytic curve the MC mean matched, if exactly one did."""
        if i == 3 and self.deaths_self_excite:
            return "not applicable"
        ok = [m for m in ("paper", "renewal") if self.comparisons[(i, m)].within_3_sigma]
        return ok[0] if len(ok) == 1 else ("both" if len(ok) == 2 else None)


# Relative size of a standard error that rounding alone produces: the
# mean of n equal doubles can differ from them in the last bits.
_ROUNDING = 1e-12


def _z(mean, stderr, target):
    """(mean - target) / stderr, elementwise, with zero spread scored exactly.

    A standard error at rounding level (relative to the mean) is zero
    spread: z is 0 when the mean equals the target to the same relative
    tolerance, and infinite with the sign of the difference otherwise.
    """
    diff = mean - target
    tol = _ROUNDING * np.abs(mean)
    flat = stderr <= tol
    exact = np.where(np.abs(diff) <= tol, 0.0, np.copysign(np.inf, diff))
    return np.where(flat, exact, diff / np.where(flat, 1.0, stderr))


def mc_mean_intensity(bank: KernelBank, t_grid, n_paths: int, seed: int) -> MCReport:
    """Unbiased grid means of lambda^i(t) over n_paths replications.

    The paths are one run of the batched Markov engine
    (``simulate_markov_batch``).  The death intensity is recorded
    without its gate; see ``MCReport`` for why its comparisons still
    differ when deaths self-excite.  Each grid point is scored against
    both curves by ``_z``.  ``t_grid`` is a grid (``check_grid``) of at
    least one point, checked, like the curves, before any path.
    """
    if n_paths < 2:
        raise ValueError("need at least 2 paths for standard errors")
    t_grid = check_grid(t_grid, "t_grid")
    if not t_grid.size:
        raise ValueError("t_grid needs at least one point")
    # The curves reject a singular bank; they run before any path.
    targets = [(i, method, curve(bank, i, t_grid)) for i in (1, 2, 3)
               for method, curve in (("paper", expected_intensity_paper),
                                     ("renewal", expected_intensity_renewal))]
    config = SimConfig(horizon=float(t_grid[-1]) if t_grid[-1] > 0 else 1.0, seed=seed)
    # (grid, lambda1 / lambda2 / ungated lambda3, paths).  numpy sums a
    # contiguous last axis pairwise, so a constant column's mean is exact
    # at any n and its standard error 0, which _z scores exactly.
    batch = simulate_markov_batch(bank, config, n_paths, record_grid=t_grid)
    mean = batch.intensity_samples.mean(axis=-1)
    stderr = batch.intensity_samples.std(axis=-1, ddof=1) / math.sqrt(n_paths)
    comparisons = {(i, method): CurveComparison(method, target,
                                                _z(mean[:, i - 1], stderr[:, i - 1], target))
                   for i, method, target in targets}
    return MCReport(t_grid, n_paths, mean, stderr, comparisons, bank.jumps[2][2] > 0,
                    int(batch.capped.sum()))


def _zeta(bank: KernelBank, counts, xi) -> np.ndarray:
    """(n1, l1, n2, l2, n3, l3), l_i the ungated intensities, from (3,) or (3, R) counts and xi."""
    xi = np.asarray(xi, dtype=float)
    zeta = np.empty((6, *xi.shape[1:]))
    zeta[0::2] = counts
    np.add(np.reshape(bank.base_rates, (3,) + (1,) * (xi.ndim - 1)), xi, out=zeta[1::2])
    return zeta


def generator_apply(bank: KernelBank, state: IntensityState, f: Callable) -> float:
    """Analytic generator of the joint (counts, intensities) process at a state.

    Drift moves each intensity toward its baseline; jump terms weigh the
    post-jump change by the current rates (a jump is alpha, the kernel at
    lag zero), with the death term gated by the population size.
    """
    zeta = _zeta(bank, state.counts, state.xi)
    betas = bank.betas
    out = 0.0
    # Drift part: central differences in the intensity coordinates.
    for i in range(3):
        li = zeta[2 * i + 1]
        coeff = betas[i] * (bank.base_rates[i] - li)
        h = 1e-6 * max(1.0, abs(li))
        up, dn = zeta.copy(), zeta.copy()
        up[2 * i + 1] += h
        dn[2 * i + 1] -= h
        out += coeff * (f(up) - f(dn)) / (2 * h)
    # Jump parts: row m - 1 adds one mark-m event and the mark's kernels at lag zero.
    jumps = np.zeros((3, 6))
    jumps[:, 0::2] = np.eye(3)
    jumps[:, 1::2] = bank.jumps
    f0 = f(zeta)
    out += zeta[1] * (f(zeta + jumps[0]) - f0)
    out += zeta[3] * (f(zeta + jumps[1]) - f0)
    if state.population_size > 0:
        out += zeta[5] * (f(zeta + jumps[2]) - f0)
    return out


@dataclass(frozen=True)
class DriftCheck:
    """MC drift estimate against the analytic generator for one function.

    ``z`` scores a rounding-level stderr as zero spread (``_z``).
    """

    analytic: float
    mc_mean: float
    mc_stderr: float

    @property
    def z(self) -> float:
        return float(_z(self.mc_mean, self.mc_stderr, self.analytic))


def _block_values(f: Callable, k: int, zetas: np.ndarray) -> np.ndarray:
    """Test function ``k`` on a run's (6, R) end states, as shape (R,)."""
    try:
        values = np.broadcast_to(f(zetas), zetas.shape[1:])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"test function {k} does not act elementwise on a (6, R) "
                         f"array of states: {exc}") from exc
    alone = f(zetas[:, 0])
    if not abs(values[0] - alone) <= _ROUNDING * abs(alone):
        raise ValueError(f"test function {k} does not act elementwise: {values[0]!r} "
                         f"on the first state of the run, {alone!r} on it alone")
    return values


def generator_drift_check(bank: KernelBank, state: IntensityState,
                          test_functions: Sequence[Callable], h: float = 1e-3,
                          n_reps: int = 100_000, seed: int = 0) -> list[DriftCheck]:
    """Compare E[F(Z_{t+h}) - F(Z_t)]/h from simulation with the generator.

    All n_reps paths start from ``state`` and run to h as one run of the
    batched Markov engine.  The estimate is a secant over [0, h], O(h)
    from the generator.  Where F only follows the event-free flow
    (n3 * l3 while deaths are off) it has no spread, and that secant gap
    of the flow is all that remains.

    A test function reads the coordinates as z[0]..z[5] = (n1, l1, n2,
    l2, n3, l3) and acts elementwise: it gets one state of shape (6,)
    here at the start and in ``generator_apply``, and the run's n_reps
    end states as one (6, n_reps) array, and returns shape (n_reps,), or
    a scalar if it is constant.  Its first entry must equal the function
    at the first end state alone to a relative 1e-12.  A function that
    breaks this (``z.sum()``, or a ``math`` call) raises ValueError
    naming its position.
    """
    if not 0 < h < math.inf:
        raise ValueError(f"h must be finite and > 0, got {h}")
    if n_reps < 2:
        raise ValueError("need at least 2 replications for standard errors")
    config = SimConfig(horizon=h, seed=seed)
    zeta0 = _zeta(bank, state.counts, state.xi)
    batch = simulate_markov_batch(bank, config, n_reps, state)
    zetas = _zeta(bank, batch.counts, batch.xi)
    # The end states are all the functions read; the batch would only
    # raise the peak memory while they run.
    del batch
    # One row of increments per function, so each reduction runs along a
    # contiguous row.
    d = np.empty((len(test_functions), n_reps))
    for k, f in enumerate(test_functions):
        row = d[k]
        np.subtract(_block_values(f, k, zetas), f(zeta0), out=row)
        row /= h
    # Two-pass variance: E[d^2] - mean^2 cancels to noise on a flat row.
    means = d.mean(axis=1)
    ses = d.std(axis=1, ddof=1) / math.sqrt(n_reps)
    return [DriftCheck(generator_apply(bank, state, f), float(m), float(se))
            for f, m, se in zip(test_functions, means, ses)]


@dataclass(frozen=True)
class SweepResult:
    """Terminal-time statistics of the fitness distribution over runs."""

    f_grid: np.ndarray
    avg_cdf: np.ndarray            # NaN if no run ends with a site
    fc_paper: float
    fc_renewal: Optional[float]
    sup_dist_paper: Optional[float]
    sup_dist_renewal: Optional[float]
    fc_hat: float                  # NaN if no run ends with a site
    r_fc_over_n: np.ndarray        # per run, at the reference fitness
    r_gap_over_n: np.ndarray       # mean over runs of R^f / N per grid point
    zero_occupation: np.ndarray    # per run
    f_reference: Optional[float]
    n_capped: int                  # runs stopped at max_events; not in to_dict

    to_dict = _report_dict


class SweepRun(NamedTuple):
    """Terminal site CDF and R^f / N on f_grid and at f_ref, zero-occupation fraction."""
    cdf: np.ndarray
    r_over_n: np.ndarray
    r_ref: float
    zero_frac: float
    capped: bool


def _sweep_worker(bank, config, f_grid, f_ref, i) -> SweepRun:
    """The record of sweep run ``i``; NaN rows for a run that ends empty.

    The sites come as two fitness-sorted arrays (``site_arrays``).
    """
    pop = simulate_population(bank, config, path_index=i)
    xs, ks = pop.partition.site_arrays()
    if not xs.size:
        cdf = np.full(f_grid.size, np.nan)
        r_over_n = np.full(f_grid.size, np.nan)
        r_ref = np.nan
    else:
        n = ks.sum()
        idx = np.searchsorted(xs, f_grid, side="right")
        cdf = idx / xs.size
        cum = np.concatenate([[0], np.cumsum(ks)])
        r_over_n = (n - cum[idx]) / n
        r_ref = float(ks[xs > f_ref].sum() / n) if f_ref is not None else np.nan
    zero_frac = pop.path.zero_occupation_time / pop.path.elapsed
    return SweepRun(cdf, r_over_n, r_ref, zero_frac, pop.path.capped)


def _knee_estimate(f_grid: np.ndarray, avg_cdf: np.ndarray) -> float:
    """Fitness where the averaged site CDF leaves zero.

    Threshold crossing at 0.025, refined by extrapolating the linear
    rise back to its root.
    """
    above = np.nonzero(avg_cdf > 0.025)[0]
    if above.size == 0:
        return float(f_grid[-1])
    crossing = float(f_grid[above[0]])
    mask = (avg_cdf > 0.1) & (avg_cdf < 0.8)
    if mask.sum() >= 2:
        slope, intercept = np.polyfit(f_grid[mask], avg_cdf[mask], 1)
        if slope > 0:
            root = -intercept / slope
            if 0 <= root <= 1:
                return float(root)
    return crossing


def phase_transition_sweep(bank: KernelBank, f_grid, horizon: float, n_runs: int,
                           seed: int, f_reference: Optional[float] = None,
                           threads: int = 1) -> SweepResult:
    """Averaged terminal site distribution and its distance to the limits.

    ``f_grid`` is a grid (``check_grid``) of at least one point, none
    above 1, and ``f_reference``, when given, is in [0, 1]; both are
    checked before any run.
    """
    f_grid = check_grid(f_grid, "f_grid")
    if not f_grid.size:
        raise ValueError("f_grid needs at least one point")
    if f_grid[-1] > 1:
        raise ValueError(f"f_grid points must be in [0, 1], got {f_grid[-1]}")
    if f_reference is not None and not 0 <= f_reference <= 1:
        raise ValueError(f"f_reference must be in [0, 1], got {f_reference}")
    fc_paper = critical_fitness(bank, "paper")
    try:
        fc_renewal = critical_fitness(bank, "renewal")
    except NoStationaryRateError:
        fc_renewal = None
    if f_reference is None:
        candidates = [fc for fc in (fc_renewal, fc_paper) if fc is not None and fc < 1]
        f_reference = candidates[0] if candidates else None
    config = SimConfig(horizon=horizon, seed=seed)
    runs = _replicate(partial(_sweep_worker, bank, config, f_grid, f_reference), n_runs, threads)
    empty = np.isnan(runs.cdf).all()
    avg_cdf = np.full(f_grid.size, np.nan) if empty else np.nanmean(runs.cdf, axis=0)
    sup_paper, sup_renewal = (
        float(np.max(np.abs(avg_cdf - np.array([theoretical_site_cdf(f, fc) for f in f_grid]))))
        if fc is not None and fc < 1 else None for fc in (fc_paper, fc_renewal))
    r_gap = np.full(f_grid.size, np.nan) if empty else np.nanmean(runs.r_over_n, axis=0)
    fc_hat = math.nan if empty else _knee_estimate(f_grid, avg_cdf)
    return SweepResult(f_grid, avg_cdf, fc_paper, fc_renewal, sup_paper, sup_renewal,
                       fc_hat, runs.r_ref, r_gap, runs.zero_frac, f_reference,
                       int(runs.capped.sum()))


class RhoRun(NamedTuple):
    """Terminal L/N and the number of returns of L to 0."""
    rho: float
    returns: int
    capped: bool


def _rho_worker(bank, f, epsilon, config, i) -> RhoRun:
    traj = simulate_epsilon_chain(bank, f, epsilon, config, path_index=i)
    left, right = traj[-1, 1], traj[-1, 2]
    n = left + right
    rho = left / n if n > 0 else np.nan
    # A return is any event at which L reaches 0 from above.
    l_col = traj[:, 1]
    returns = int(np.sum((l_col[1:] == 0) & (l_col[:-1] > 0)))
    # The engine stops a path right after its max_events-th event.
    return RhoRun(rho, returns, len(traj) - 1 >= config.max_events)


@dataclass(frozen=True)
class RhoReport:
    """Terminal left-mass fractions of the modified chain vs the analytic limit."""

    terminal_rho: np.ndarray
    zero_returns: np.ndarray
    limit_paper: Optional[float]
    limit_renewal: Optional[float]
    n_capped: int                  # runs stopped at max_events; not in to_dict

    to_dict = _report_dict

    @property
    def mean_rho(self) -> float:
        """Mean over the runs that end nonempty; NaN if none does."""
        rho = self.terminal_rho
        return math.nan if np.isnan(rho).all() else float(np.nanmean(rho))


def rho_convergence_check(bank: KernelBank, f: float, epsilon: float, horizon: float,
                          n_runs: int, seed: int, threads: int = 1) -> RhoReport:
    """Terminal L/N of the modified chain over runs, plus zero-return counts."""
    config = SimConfig(horizon=horizon, seed=seed)
    runs = _replicate(partial(_rho_worker, bank, f, epsilon, config), n_runs, threads)
    limits = {}
    for method in ("paper", "renewal"):
        try:
            limits[method] = rho_limit(bank, f, epsilon, method)
        except (ValueError, NoStationaryRateError):
            limits[method] = None
    return RhoReport(runs.rho, runs.returns, limits["paper"], limits["renewal"],
                     int(runs.capped.sum()))


@dataclass(frozen=True)
class GofEntry:
    """KS comparison of time-rescaled residuals against Exp(1)."""

    n_events: int
    ks_stat: Optional[float]
    p_value: Optional[float]
    insufficient: bool


_GOF_MIN_EVENTS = 100


def gof_report(path: SimPath, bank: KernelBank) -> dict[int, GofEntry]:
    """Goodness of fit per process via the compensator residuals.

    A process with fewer than ``_GOF_MIN_EVENTS`` residuals is marked
    insufficient instead of tested.  ``scipy.stats`` is imported here,
    on the first call, so that importing the package and every command
    but ``gof`` load numpy alone.
    """
    from scipy import stats  # deferred: 0.9 s and 70 MiB at import
    report = {}
    for i in (1, 2, 3):
        res = time_rescale_residuals(path, bank, i)
        if res.size < _GOF_MIN_EVENTS:
            report[i] = GofEntry(res.size, None, None, True)
            continue
        stat, p = stats.kstest(res, "expon")
        report[i] = GofEntry(res.size, float(stat), float(p), False)
    return report
