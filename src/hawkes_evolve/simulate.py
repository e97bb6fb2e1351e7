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
    ``start`` is the state the path started from.
    """

    events: EventLog
    final_state: IntensityState
    zero_occupation_time: float
    capped: bool = False
    grid: Optional[np.ndarray] = None
    intensity_samples: Optional[np.ndarray] = None
    start: IntensityState = IntensityState()

    @property
    def elapsed(self) -> float:
        """Time from the start state's clock to the end of the path."""
        return self.final_state.clock - self.start.clock


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
    # lam holds the intensities at t: a rejected candidate's values are
    # the next bound, and only an accepted event changes them.
    lam = lambdas(t)
    while True:
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
            lam = lambdas(t)
    if grid is not None:
        while gi < grid.size and grid[gi] <= t:
            samples[gi] = lambdas(float(grid[gi]))
            gi += 1
    final = IntensityState(xi_at(t), tuple(counts), t)
    log = EventLog(tuple(map(Event, times, marks)), initial_counts=state0.counts)
    return SimPath(log, final, zero_time, capped, grid, samples, state0)


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


class _MarkHistory:
    """One mark's event times and the kernels it excites, for direct sums.

    The times sit in a float64 buffer that doubles when full.  Only the
    kernels with alpha > 0 are summed; ``targets`` pairs each with the
    index of the intensity it excites.
    """

    __slots__ = ("times", "size", "neg_betas", "targets")

    def __init__(self, kernels: list[tuple[int, ExpKernel]]):
        self.times = np.empty(64)
        self.size = 0
        self.neg_betas = np.array([-k.beta for _, k in kernels])
        self.targets = tuple((i, k.alpha) for i, k in kernels)

    def append(self, t: float) -> None:
        if self.size == self.times.size:
            self.times = np.concatenate((self.times, np.empty(self.size)))
        self.times[self.size] = t
        self.size += 1

    def add_sums(self, xi: list[float], t: float) -> None:
        """Add alpha * sum_k exp(-beta (t - t_k)) to xi[i] for each excited i."""
        if self.size:
            decays = np.exp(np.multiply.outer(self.neg_betas, t - self.times[:self.size]))
            for (i, alpha), s in zip(self.targets, np.add.reduce(decays, axis=1).tolist()):
                xi[i] += alpha * s


def simulate_thinning_general(bank: KernelBank, config: SimConfig, path_index: int = 0,
                              rng: Optional[np.random.Generator] = None) -> SimPath:
    """Full-history thinning, the reference check on the Markov engine.

    Each intensity evaluation sums the kernels over the entire history,
    O(n) per evaluation: one exp and one row-wise sum per mark covers
    every kernel that mark excites.
    """
    require_zero_offsets(bank, "simulate_thinning_general")
    if rng is None:
        rng = rng_for(config.seed, path_index)
    (k11, k12), (k21, k22) = bank.birth_kernels
    excited = {Mark.MUTANT: [(0, k11), (1, k12)], Mark.CLONE: [(0, k21), (1, k22)],
               Mark.DEATH: [(2, bank.death_kernel)]}
    # Insertion order fixes the summation order: mutant terms before
    # clone terms, as in the fixed-seed outputs the tests pin.
    histories = {}
    for mark, kernels in excited.items():
        live = [(i, k) for i, k in kernels if k.alpha != 0]
        if live:
            histories[mark] = _MarkHistory(live)

    def xi_at(t: float) -> tuple[float, float, float]:
        xi = [0.0, 0.0, 0.0]
        for history in histories.values():
            history.add_sums(xi, t)
        return tuple(xi)

    def record(mark: Mark, t: float) -> None:
        history = histories.get(mark)
        if history is not None:
            history.append(t)

    return _run(bank, config, xi_at, record, IntensityState(), rng)


def simulate(bank: KernelBank, config: SimConfig, path_index: int = 0) -> SimPath:
    """Dispatch on the configured engine."""
    if config.engine == "markov":
        return simulate_markov(bank, config, path_index)
    return simulate_thinning_general(bank, config, path_index)


def time_rescale_residuals(path: SimPath, bank: KernelBank, i: int) -> np.ndarray:
    """Compensator increments of process i between its own events.

    The path is replayed from its start state on the Markov engine's
    float recursion: only xi_i is kept, it decays in closed form between
    events and jumps by the mark's alpha onto intensity i, and a running
    N gates the deaths.  Under a correct simulation the residuals are
    i.i.d. unit exponential.
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
    n = path.start.population_size
    xi = path.start.xi[i - 1]
    t = path.start.clock
    residuals = []
    acc = 0.0
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
