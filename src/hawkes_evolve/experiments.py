"""Monte Carlo harness and statistical verdicts.

Every estimate carries a standard error; where the two analytic routes
disagree, the reports show both z-scores and flag which curve the data
matched instead of hard-failing on either.  Replications use independent
derived RNG streams and aggregate in index order, so results are
reproducible bit for bit for a given seed and independent of the worker
count.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator, Optional, Sequence

import numpy as np
from scipy import stats

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
from .simulate import (SimConfig, SimPath, batch_blocks, simulate, simulate_markov,
                       simulate_markov_batch, time_rescale_residuals)


def _pmap(fn: Callable, n: int, threads: int) -> Iterator:
    """Map fn over range(n), optionally in a process pool, order preserved.

    Results are yielded as they arrive, so a caller can store each one
    and drop it before the next.
    """
    if threads <= 1:
        yield from map(fn, range(n))
        return
    with ProcessPoolExecutor(max_workers=threads) as pool:
        yield from pool.map(fn, range(n), chunksize=max(1, n // (4 * threads)))


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

    def matched_method(self, i: int) -> Optional[str]:
        """Which analytic curve the MC mean matched, if exactly one did."""
        if i == 3 and self.deaths_self_excite:
            return "not applicable"
        ok = [m for m in ("paper", "renewal") if self.comparisons[(i, m)].within_3_sigma]
        return ok[0] if len(ok) == 1 else ("both" if len(ok) == 2 else None)


# Relative size of a standard error that rounding alone produces: the
# mean of n equal doubles can differ from them in the last bits.
_ROUNDING = 1e-12


def _intensity_worker(bank, config, i):
    return simulate(bank, config, path_index=i).intensity_samples


def _intensity_block_worker(bank, config, blocks, b):
    block, start, stop = blocks[b]
    return simulate_markov_batch(bank, config, stop - start, block=block).intensity_samples


def mc_mean_intensity(bank: KernelBank, t_grid, n_paths: int, seed: int,
                      engine: str = "markov", threads: int = 1) -> MCReport:
    """Unbiased grid means of lambda^i(t) over n_paths replications.

    The Markov engine runs the paths in lockstep blocks
    (``simulate_markov_batch``), one stream per block; the thinning
    engine runs them one by one on the per-path streams, as the
    reference.  Blocks or paths map over ``threads`` workers, and the
    result does not depend on their number.  The death intensity is
    recorded without its gate; see ``MCReport`` for why its comparisons
    still differ when deaths self-excite.  A grid point whose standard
    error is at rounding level has zero spread and scores z = 0 when the
    mean equals the target to the same relative tolerance, and infinite
    z otherwise.
    """
    if n_paths < 2:
        raise ValueError("need at least 2 paths for standard errors")
    t_grid = np.asarray(t_grid, dtype=float)
    config = SimConfig(horizon=float(t_grid[-1]) if t_grid[-1] > 0 else 1.0, seed=seed,
                       engine=engine, record_grid=tuple(t_grid))
    cube = np.empty((n_paths, t_grid.size, 4))
    if engine == "markov":
        blocks = batch_blocks(n_paths)
        samples = _pmap(partial(_intensity_block_worker, bank, config, blocks), len(blocks),
                        threads)
        for (_, start, stop), block in zip(blocks, samples):
            cube[start:stop] = block
    else:
        for r, row in enumerate(_pmap(partial(_intensity_worker, bank, config), n_paths,
                                      threads)):
            cube[r] = row
    lam = cube[:, :, [0, 1, 3]]
    mean = lam.mean(axis=0)
    stderr = lam.std(axis=0, ddof=1) / math.sqrt(n_paths)
    comparisons = {}
    for i in (1, 2, 3):
        paper = np.asarray(expected_intensity_paper(bank, i, t_grid), dtype=float)
        paper = np.broadcast_to(paper, t_grid.shape).copy()
        renewal = expected_intensity_renewal(bank, i, t_grid)
        tol = _ROUNDING * np.abs(mean[:, i - 1])
        flat = stderr[:, i - 1] <= tol
        se = np.where(flat, 1.0, stderr[:, i - 1])
        for method, target in (("paper", paper), ("renewal", renewal)):
            diff = mean[:, i - 1] - target
            exact = np.where(np.abs(diff) <= tol, 0.0, np.copysign(np.inf, diff))
            z = np.where(flat, exact, diff / se)
            comparisons[(i, method)] = CurveComparison(method, target, z)
    return MCReport(t_grid, n_paths, mean, stderr, comparisons,
                    bank.death_kernel.alpha > 0)


def _zeta(bank: KernelBank, state: IntensityState) -> np.ndarray:
    """(n1, l1, n2, l2, n3, l3) with l_i the ungated intensity values."""
    return np.array([
        state.counts[0], bank.base_rates[0] + state.xi[0],
        state.counts[1], bank.base_rates[1] + state.xi[1],
        state.counts[2], bank.base_rates[2] + state.xi[2],
    ])


def generator_apply(bank: KernelBank, state: IntensityState, f: Callable) -> float:
    """Analytic generator of the joint (counts, intensities) process at a state.

    Drift moves each intensity toward its baseline (plus the offset floor
    when kernels carry one); jump terms weigh the post-jump change by the
    current rates (a jump is alpha + delta, the kernel at lag zero), with
    the death term gated by the population size.  At counts (0, 0, 0) a
    clone birth jumps as a mutant birth, since the engines open every
    path with a mutant.
    """
    zeta = _zeta(bank, state)
    betas = (bank.birth_kernels[0][0].beta, bank.birth_kernels[0][1].beta,
             bank.death_kernel.beta)
    deltas = [[bank.birth_kernels[j][i].delta for i in range(2)] for j in range(2)]
    jump = [[bank.birth_kernels[j][i](0.0) for i in range(2)] for j in range(2)]
    out = 0.0
    # Drift part: central differences in the intensity coordinates.
    for i in range(3):
        li = zeta[2 * i + 1]
        if i < 2:
            floor = sum(deltas[j][i] * state.counts[j] for j in range(2))
        else:
            floor = bank.death_kernel.delta * state.counts[2]
        coeff = betas[i] * (floor - li + bank.base_rates[i])
        h = 1e-6 * max(1.0, abs(li))
        up, dn = zeta.copy(), zeta.copy()
        up[2 * i + 1] += h
        dn[2 * i + 1] -= h
        out += coeff * (f(up) - f(dn)) / (2 * h)
    # Jump parts.
    jumps = [
        np.array([1, jump[0][0], 0, jump[0][1], 0, 0], dtype=float),
        np.array([0, jump[1][0], 1, jump[1][1], 0, 0], dtype=float),
        np.array([0, 0, 0, 0, 1, bank.death_kernel(0.0)], dtype=float),
    ]
    if state.counts == (0, 0, 0):
        jumps[1] = jumps[0]
    f0 = f(zeta)
    out += zeta[1] * (f(zeta + jumps[0]) - f0)
    out += zeta[3] * (f(zeta + jumps[1]) - f0)
    if state.population_size > 0:
        out += zeta[5] * (f(zeta + jumps[2]) - f0)
    return out


@dataclass(frozen=True)
class DriftCheck:
    """MC drift estimate against the analytic generator for one function.

    A rounding-level stderr is zero spread, scored as in ``mc_mean_intensity``.
    """

    analytic: float
    mc_mean: float
    mc_stderr: float

    @property
    def z(self) -> float:
        diff = self.mc_mean - self.analytic
        tol = _ROUNDING * abs(self.mc_mean)
        if self.mc_stderr <= tol:
            return 0.0 if abs(diff) <= tol else math.copysign(math.inf, diff)
        return diff / self.mc_stderr


def generator_drift_check(bank: KernelBank, state: IntensityState,
                          test_functions: Sequence[Callable], h: float = 1e-3,
                          n_reps: int = 100_000, seed: int = 0) -> list[DriftCheck]:
    """Compare E[F(Z_{t+h}) - F(Z_t)]/h from simulation with the generator.

    All n_reps paths start from ``state`` and run to h in lockstep blocks
    of the batched Markov engine.  The estimate is a secant over [0, h],
    O(h) from the generator.  Where F only follows the event-free flow
    (n3 * l3 while deaths are off) it has no spread, and that secant gap
    of the flow is all that remains.
    """
    config = SimConfig(horizon=h, seed=seed)
    zeta0 = _zeta(bank, state)
    f0s = [f(zeta0) for f in test_functions]
    d = np.empty((n_reps, len(test_functions)))
    base = np.array(bank.base_rates)
    for block, start, stop in batch_blocks(n_reps):
        batch = simulate_markov_batch(bank, config, stop - start, state, block)
        # Rows of (n1, l1, n2, l2, n3, l3), as _zeta builds them.
        zetas = np.empty((stop - start, 6))
        zetas[:, 0::2] = batch.counts
        zetas[:, 1::2] = base + batch.xi
        for k, f in enumerate(test_functions):
            d[start:stop, k] = [(f(z) - f0s[k]) / h for z in zetas]
    # Two-pass variance: E[d^2] - mean^2 cancels to noise on a flat column.
    means = d.mean(axis=0)
    ses = d.std(axis=0) / math.sqrt(n_reps)
    return [DriftCheck(generator_apply(bank, state, f), float(m), float(se))
            for f, m, se in zip(test_functions, means, ses)]


@dataclass(frozen=True)
class OccupancySummary:
    """Per-path fractions of time spent with an empty population."""

    fractions: np.ndarray
    median: float
    quantiles: dict


def zero_occupation_fraction(paths: Sequence[SimPath]) -> OccupancySummary:
    """Fraction of its elapsed time each path spent at N = 0, with quantiles."""
    fracs = np.array([p.zero_occupation_time / p.elapsed for p in paths])
    qs = {q: float(np.quantile(fracs, q)) for q in (0.05, 0.25, 0.5, 0.75, 0.95)}
    return OccupancySummary(fracs, float(np.median(fracs)), qs)


@dataclass(frozen=True)
class SweepResult:
    """Terminal-time statistics of the fitness distribution over runs."""

    f_grid: np.ndarray
    avg_cdf: np.ndarray
    fc_paper: float
    fc_renewal: Optional[float]
    sup_dist_paper: Optional[float]
    sup_dist_renewal: Optional[float]
    fc_hat: float
    r_fc_over_n: np.ndarray        # per run, at the reference fitness
    r_gap_over_n: np.ndarray       # mean over runs of R^f / N per grid point
    zero_occupation: np.ndarray    # per run
    f_reference: Optional[float]

    def to_dict(self) -> dict:
        return {
            "f_grid": self.f_grid.tolist(),
            "avg_cdf": self.avg_cdf.tolist(),
            "fc_paper": self.fc_paper,
            "fc_renewal": self.fc_renewal,
            "sup_dist_paper": self.sup_dist_paper,
            "sup_dist_renewal": self.sup_dist_renewal,
            "fc_hat": self.fc_hat,
            "r_fc_over_n": self.r_fc_over_n.tolist(),
            "r_gap_over_n": self.r_gap_over_n.tolist(),
            "zero_occupation": self.zero_occupation.tolist(),
            "f_reference": self.f_reference,
        }


def _sweep_worker(bank, config, f_grid, f_ref, i):
    pop = simulate_population(bank, config, path_index=i)
    sites = pop.partition.sites()
    xs = np.array([x for x, _ in sites])
    ks = np.array([k for _, k in sites], dtype=float)
    n = ks.sum()
    if len(sites) == 0:
        cdf = np.full(f_grid.size, np.nan)
        r_over_n = np.full(f_grid.size, np.nan)
        r_ref = np.nan
    else:
        idx = np.searchsorted(xs, f_grid, side="right")
        cdf = idx / len(sites)
        cum = np.concatenate([[0.0], np.cumsum(ks)])
        r_over_n = (n - cum[idx]) / n
        r_ref = float((ks[xs > f_ref].sum()) / n) if f_ref is not None else np.nan
    zero_frac = pop.path.zero_occupation_time / pop.path.elapsed
    return cdf, r_over_n, r_ref, zero_frac


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
    """Averaged terminal site distribution and its distance to the limits."""
    f_grid = np.asarray(f_grid, dtype=float)
    fc_paper = critical_fitness(bank, "paper")
    try:
        fc_renewal = critical_fitness(bank, "renewal")
    except NoStationaryRateError:
        fc_renewal = None
    if f_reference is None:
        candidates = [fc for fc in (fc_renewal, fc_paper) if fc is not None and fc < 1]
        f_reference = candidates[0] if candidates else None
    config = SimConfig(horizon=horizon, seed=seed)
    results = list(_pmap(partial(_sweep_worker, bank, config, f_grid, f_reference), n_runs,
                         threads))
    cdfs = np.stack([r[0] for r in results])
    gaps = np.stack([r[1] for r in results])
    r_refs = np.array([r[2] for r in results])
    zero_fracs = np.array([r[3] for r in results])
    avg_cdf = np.nanmean(cdfs, axis=0)
    sup_paper = sup_renewal = None
    if fc_paper < 1:
        theo = np.array([theoretical_site_cdf(f, fc_paper) for f in f_grid])
        sup_paper = float(np.max(np.abs(avg_cdf - theo)))
    if fc_renewal is not None and fc_renewal < 1:
        theo = np.array([theoretical_site_cdf(f, fc_renewal) for f in f_grid])
        sup_renewal = float(np.max(np.abs(avg_cdf - theo)))
    r_gap = np.nanmean(gaps, axis=0)
    return SweepResult(f_grid, avg_cdf, fc_paper, fc_renewal, sup_paper, sup_renewal,
                       _knee_estimate(f_grid, avg_cdf), r_refs, r_gap, zero_fracs, f_reference)


def _rho_worker(bank, f, epsilon, config, i):
    traj = simulate_epsilon_chain(bank, f, epsilon, config, path_index=i)
    left, right = traj[-1, 1], traj[-1, 2]
    n = left + right
    rho = left / n if n > 0 else np.nan
    # A return is any event at which L reaches 0 from above.
    l_col = traj[:, 1]
    returns = int(np.sum((l_col[1:] == 0) & (l_col[:-1] > 0)))
    return rho, returns


@dataclass(frozen=True)
class RhoReport:
    """Terminal left-mass fractions of the modified chain vs the analytic limit."""

    terminal_rho: np.ndarray
    zero_returns: np.ndarray
    limit_paper: Optional[float]
    limit_renewal: Optional[float]

    @property
    def mean_rho(self) -> float:
        return float(np.nanmean(self.terminal_rho))


def rho_convergence_check(bank: KernelBank, f: float, epsilon: float, horizon: float,
                          n_runs: int, seed: int, threads: int = 1) -> RhoReport:
    """Terminal L/N of the modified chain over runs, plus zero-return counts."""
    config = SimConfig(horizon=horizon, seed=seed)
    results = list(_pmap(partial(_rho_worker, bank, f, epsilon, config), n_runs, threads))
    rhos = np.array([r[0] for r in results])
    returns = np.array([r[1] for r in results])
    limits = {}
    for method in ("paper", "renewal"):
        try:
            limits[method] = rho_limit(bank, f, epsilon, method)
        except (ValueError, NoStationaryRateError):
            limits[method] = None
    return RhoReport(rhos, returns, limits["paper"], limits["renewal"])


@dataclass(frozen=True)
class GofEntry:
    """KS comparison of time-rescaled residuals against Exp(1)."""

    n_events: int
    ks_stat: Optional[float]
    p_value: Optional[float]
    insufficient: bool


def gof_report(path: SimPath, bank: KernelBank, min_events: int = 100) -> dict[int, GofEntry]:
    """Goodness of fit per process via the compensator residuals."""
    report = {}
    for i in (1, 2, 3):
        res = time_rescale_residuals(path, bank, i)
        if res.size < min_events:
            report[i] = GofEntry(res.size, None, None, True)
            continue
        stat, p = stats.kstest(res, "expon")
        report[i] = GofEntry(res.size, float(stat), float(p), False)
    return report
