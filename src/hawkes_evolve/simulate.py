"""Event generation by thinning.

One thinning loop serves two engines, each of which supplies only its
shot noise: the exact Markov engine keeps it in closed form, while the
full-history engine sums the kernels over every past event and so serves
as an independent reference check on it.  The loop refreshes the
dominating bound at every event and every rejected candidate; with zero
offsets the total intensity decays between events, so the value at the
last refresh is a valid bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    Event,
    EventLog,
    ExpKernel,
    IntensityState,
    KernelBank,
    Mark,
    require_zero_offsets,
)


@dataclass(frozen=True)
class SimConfig:
    """Run parameters shared by both engines."""

    horizon: float
    seed: int
    engine: str = "markov"
    max_events: int = 10_000_000
    record_grid: Optional[tuple[float, ...]] = None

    def __post_init__(self):
        if self.horizon <= 0:
            raise ValueError(f"horizon must be > 0, got {self.horizon}")
        if self.max_events <= 0:
            raise ValueError(f"max_events must be > 0, got {self.max_events}")
        if self.engine not in ("markov", "thinning"):
            raise ValueError(f"unknown engine {self.engine!r}")


@dataclass(frozen=True)
class SimPath:
    """One realization: events, final state and optional intensity samples.

    ``intensity_samples`` columns are (lambda1, lambda2, gated lambda3,
    ungated lambda3) on the recording grid; rows past the end of a capped
    path are NaN.  The ungated column drops the gate from the intensity
    but not from the path: xi3 jumps only at deaths, and deaths stop
    while N = 0.  Its grid means therefore fall below the analytic
    curves, which ignore the gate, whenever deaths self-excite.
    """

    events: EventLog
    final_state: IntensityState
    zero_occupation_time: float
    capped: bool = False
    grid: Optional[np.ndarray] = None
    intensity_samples: Optional[np.ndarray] = None


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    """Counter-based generator for the stream keyed by (seed, *stream).

    Streams derived from the same seed are independent under any
    parallel schedule.
    """
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, *stream))))


def sample_mark(lam1: float, lam2: float, lam3_gated: float, u: float) -> Mark:
    """Superposition decomposition: pick the component that rings."""
    if lam1 < 0 or lam2 < 0 or lam3_gated < 0:
        raise ValueError("rates must be non-negative")
    total = lam1 + lam2 + lam3_gated
    if total <= 0:
        raise ValueError("total rate must be positive")
    if not 0 <= u < 1:
        raise ValueError(f"u must be in [0, 1), got {u}")
    x = u * total
    if x < lam1:
        return Mark.MUTANT
    if x < lam1 + lam2:
        return Mark.CLONE
    return Mark.DEATH


def _run(bank: KernelBank, config: SimConfig, xi_at, record, state0: IntensityState,
         rng: np.random.Generator) -> SimPath:
    """Ogata's thinning loop over an engine's shot noise.

    ``xi_at(t)`` returns the engine's (xi1, xi2, xi3) at a time no
    earlier than its last event; ``record(mark, t)`` adds an accepted
    event to the engine's history.  The loop keeps the counts and the
    clock itself and builds the final state and the event log once.
    """
    mu1, mu2, mu3 = bank.base_rates
    counts = list(state0.counts)
    n = state0.population_size

    def lambdas(t: float) -> tuple[float, float, float, float]:
        """(lambda1, lambda2, gated lambda3, ungated lambda3) at time t."""
        x1, x2, x3 = xi_at(t)
        l3 = mu3 + x3
        return (mu1 + x1, mu2 + x2, l3 if n > 0 else 0.0, l3)

    t0 = state0.clock
    horizon = t0 + config.horizon
    grid = None if config.record_grid is None else np.asarray(config.record_grid, dtype=float)
    samples = None if grid is None else np.full((grid.size, 4), np.nan)
    gi = 0
    fresh_start = state0.counts == (0, 0, 0)
    times: list[float] = []
    marks: list[Mark] = []
    zero_time = 0.0
    capped = False
    t = t0
    if grid is not None:
        while gi < grid.size and grid[gi] <= t:
            samples[gi] = lambdas(t)
            gi += 1
    while True:
        lam = lambdas(t)
        bound = lam[0] + lam[1] + lam[2]
        t_cand = t + rng.exponential(1.0 / bound)
        t_next = min(t_cand, horizon)
        if grid is not None:
            while gi < grid.size and grid[gi] <= t_next:
                samples[gi] = lambdas(float(grid[gi]))
                gi += 1
        if n == 0:
            zero_time += t_next - t
        if t_cand >= horizon:
            t = horizon
            break
        t = t_cand
        lam = lambdas(t)
        total = lam[0] + lam[1] + lam[2]
        if rng.random() * bound < total:
            mark = sample_mark(lam[0], lam[1], lam[2], rng.random())
            if mark is Mark.CLONE and fresh_start and not times:
                # The merged process starts with a mutant birth by
                # construction; a clone cannot open an empty population.
                mark = Mark.MUTANT
            record(mark, t)
            counts[mark - 1] += 1
            n += -1 if mark is Mark.DEATH else 1
            times.append(t)
            marks.append(mark)
            if len(times) >= config.max_events:
                capped = True
                break
    if grid is not None:
        while gi < grid.size and grid[gi] <= t:
            samples[gi] = lambdas(float(grid[gi]))
            gi += 1
    final = IntensityState(xi_at(t), tuple(counts), t)
    log = EventLog(tuple(map(Event, times, marks)), initial_counts=state0.counts)
    return SimPath(log, final, zero_time, capped, grid, samples)


def simulate_markov(bank: KernelBank, config: SimConfig, path_index: int = 0,
                    initial_state: Optional[IntensityState] = None,
                    rng: Optional[np.random.Generator] = None) -> SimPath:
    """Statistically exact sample via the closed-form Markov state.

    The shot noise is three floats and the time of the last event: it
    decays as exp(-beta (t - t_last)) per component and jumps by the
    alphas of each event's mark.
    """
    require_zero_offsets(bank, "simulate_markov")
    if rng is None:
        rng = rng_for(config.seed, path_index)
    state0 = initial_state if initial_state is not None else IntensityState()
    (k11, k12), (k21, k22) = bank.birth_kernels
    b1, b2, b3 = k11.beta, k12.beta, bank.death_kernel.beta
    jumps = {Mark.MUTANT: (k11.alpha, k12.alpha, 0.0),
             Mark.CLONE: (k21.alpha, k22.alpha, 0.0),
             Mark.DEATH: (0.0, 0.0, bank.death_kernel.alpha)}
    x1, x2, x3 = state0.xi
    t_last = state0.clock

    def xi_at(t: float) -> tuple[float, float, float]:
        dt = t - t_last
        return (x1 * math.exp(-b1 * dt), x2 * math.exp(-b2 * dt), x3 * math.exp(-b3 * dt))

    def record(mark: Mark, t: float) -> None:
        nonlocal x1, x2, x3, t_last
        y1, y2, y3 = xi_at(t)
        j1, j2, j3 = jumps[mark]
        # The clock advances by the elapsed time rather than jumping to
        # t: the sum can differ from t in the last bit, and the pinned
        # fixed-seed outputs were produced this way.
        x1, x2, x3, t_last = y1 + j1, y2 + j2, y3 + j3, t_last + (t - t_last)

    return _run(bank, config, xi_at, record, state0, rng)


def _history_sum(kernel: ExpKernel, dts: np.ndarray) -> float:
    if kernel.alpha == 0:
        return 0.0
    return kernel.alpha * float(np.exp(-kernel.beta * dts).sum())


def simulate_thinning_general(bank: KernelBank, config: SimConfig, path_index: int = 0,
                              rng: Optional[np.random.Generator] = None) -> SimPath:
    """Full-history thinning, the reference check on the Markov engine.

    Each intensity evaluation sums the kernels over the entire history,
    O(n) per candidate.
    """
    require_zero_offsets(bank, "simulate_thinning_general")
    if rng is None:
        rng = rng_for(config.seed, path_index)

    times = {Mark.MUTANT: [], Mark.CLONE: [], Mark.DEATH: []}

    def xi_at(t: float) -> tuple[float, float, float]:
        xi = [0.0, 0.0, 0.0]
        for j, mk in enumerate((Mark.MUTANT, Mark.CLONE)):
            if times[mk]:
                dts = t - np.asarray(times[mk])
                xi[0] += _history_sum(bank.birth_kernels[j][0], dts)
                xi[1] += _history_sum(bank.birth_kernels[j][1], dts)
        if times[Mark.DEATH]:
            dts = t - np.asarray(times[Mark.DEATH])
            xi[2] += _history_sum(bank.death_kernel, dts)
        return tuple(xi)

    def record(mark: Mark, t: float) -> None:
        times[mark].append(t)

    return _run(bank, config, xi_at, record, IntensityState(), rng)


def simulate(bank: KernelBank, config: SimConfig, path_index: int = 0) -> SimPath:
    """Dispatch on the configured engine."""
    if config.engine == "markov":
        return simulate_markov(bank, config, path_index)
    return simulate_thinning_general(bank, config, path_index)


def time_rescale_residuals(path: SimPath, bank: KernelBank, i: int) -> np.ndarray:
    """Compensator increments of process i between its own events.

    The path is replayed on the Markov engine's float recursion: only
    xi_i is kept, it decays in closed form between events and jumps by
    the mark's alpha onto intensity i, and a running N gates the deaths.
    Under a correct simulation the residuals are i.i.d. unit exponential.
    """
    if i not in (1, 2, 3):
        raise ValueError(f"index must be 1, 2 or 3, got {i}")
    require_zero_offsets(bank, "time_rescale_residuals")
    lam0 = bank.base_rates[i - 1]
    if i < 3:
        k1, k2 = bank.birth_kernels[0][i - 1], bank.birth_kernels[1][i - 1]
        beta = k1.beta
        jump = {Mark.MUTANT: k1.alpha, Mark.CLONE: k2.alpha, Mark.DEATH: 0.0}
    else:
        beta = bank.death_kernel.beta
        jump = {Mark.MUTANT: 0.0, Mark.CLONE: 0.0, Mark.DEATH: bank.death_kernel.alpha}
    n1, n2, n3 = path.events.initial_counts
    n = n1 + n2 - n3
    residuals = []
    acc = xi = t = 0.0
    for ev in path.events:
        dt = ev.time - t
        decay = math.exp(-beta * dt)
        if i < 3 or n > 0:
            acc += lam0 * dt + xi * (1.0 - decay) / beta
        xi = decay * xi + jump[ev.mark]
        if ev.mark == i:
            residuals.append(acc)
            acc = 0.0
        n += -1 if ev.mark is Mark.DEATH else 1
        t = ev.time
    return np.asarray(residuals)
