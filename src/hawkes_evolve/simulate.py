"""Generating the events of a path by thinning.

One thinning loop, ``_run``, serves two engines: on its own it is the
exact Markov engine, keeping the shot noise as three local floats that
decay in closed form, and given a ``_History`` it is the full-history
engine, which sums the kernels over every past event and so serves as an
independent reference check on it.  The loop evaluates the shot noise
once per candidate: a rejected candidate's intensities are the next
bound, and at an accepted event the loop adds the mark's jumps
(``KernelBank.jumps``) to the shot noise it has just evaluated.  With
zero offsets the total intensity decays between events, so the value
after the last event or candidate is a valid bound.  The loop draws its
randoms from the path's stream in blocks of k exponentials then 2k
uniforms, k = 64, 128, ..., 4096, and reads them in order (``_run``).
The batched Markov engine runs the same loop on a whole run of paths,
as numpy arrays in lockstep blocks, for the Monte Carlo harness; it
draws per step, from streams of its own, and is the one engine that
samples a grid: a scalar path's events fix its intensities, which
``intensities_at`` reads.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Optional

import numpy as np
# numpy loads numpy.random on first use; loading it with the package lets
# the pool workers forked by each sweep or rho call inherit it.
from numpy.random import Generator, Philox, SeedSequence

from .core import EventLog, IntensityState, KernelBank, require_zero_offsets


@dataclass(frozen=True)
class SimConfig:
    """Run parameters shared by both engines.

    A path runs from t = 0 to ``horizon``, which must be finite and > 0.
    ``seed`` is an integer >= 0 and ``max_events`` an integer >= 1.
    """

    horizon: float
    seed: int
    engine: str = "markov"
    max_events: int = 10_000_000

    def __post_init__(self):
        if not 0 < self.horizon < math.inf:
            raise ValueError(f"horizon must be finite and > 0, got {self.horizon}")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")
        if not isinstance(self.max_events, (int, np.integer)) or self.max_events < 1:
            raise ValueError(f"max_events must be an integer >= 1, got {self.max_events!r}")
        if self.engine not in ("markov", "thinning"):
            raise ValueError(f"unknown engine {self.engine!r}")


def check_grid(grid, name: str) -> np.ndarray:
    """``grid`` as a float array; ValueError, naming it, unless finite, >= 0 and non-decreasing."""
    grid = np.asarray(grid, dtype=float)
    if not np.all(np.isfinite(grid)) or np.any(grid < 0) or np.any(np.diff(grid) < 0):
        raise ValueError(f"{name} must hold finite, non-negative, non-decreasing times")
    return grid


@dataclass(frozen=True)
class SimPath:
    """One realization: events and final state.

    A path starts from the empty state at t = 0; ``elapsed`` is the time
    it ended: the horizon, or the last event of a capped path.
    """

    events: EventLog
    final_state: IntensityState
    elapsed: float
    zero_occupation_time: float
    capped: bool = False


def rng_for(seed: int, *stream: int) -> Generator:
    """Counter-based generator for the stream keyed by (seed, *stream).

    Streams derived from the same seed are independent under any
    parallel schedule.
    """
    return Generator(Philox(SeedSequence((seed, *stream))))


def _run(bank: KernelBank, config: SimConfig, rng: Generator, history=None) -> SimPath:
    """Ogata's thinning loop on plain floats and ints, for both scalar engines.

    Without a ``history`` it is the Markov engine: the shot noise is x1,
    x2, x3 at ``t_last``, the last event's time, decaying as
    x exp(-beta (t - t_last)).  A ``_History`` makes it the full-history
    engine: ``history.xi_at(t)`` sums the kernels over the past events
    and ``history.record(mark, t)`` adds one.  The shot noise is read
    once per candidate and once at the end; after an accepted event it
    is the value read at the candidate plus the mark's row of
    ``bank.jumps``.  The loop runs from the empty state at t = 0, keeps
    N, the clock and the time spent at N = 0, appends each event to a
    float64 and an int8 buffer, and builds the log once, which gives the
    final counts.  It samples no grid; ``intensities_at`` reads one back.

    The draws come from ``rng`` in blocks, read in order through
    memoryviews: k standard exponentials, then 2k uniforms, with
    k = 64, 128, ..., 4096 and 4096 from then on.  A candidate is
    t + e / bound for the next exponential e; the next uniform u accepts
    it if u * bound < total, and for an accepted candidate the uniform
    after that, times total, picks the mark.  A candidate takes at most
    two uniforms, so the next block is drawn when the exponentials run
    out, and the uniforms left in the old block are discarded.  Drawn one
    per Generator call, the draws cost about 1 us each, over half of a
    Poisson path's time per event.
    """
    mu1, mu2, mu3 = bank.base_rates
    b1, b2, b3 = bank.betas
    jumps = (None, *bank.jumps)  # by mark
    exp = math.exp
    n = 0
    draw_exp, draw_uniform = rng.standard_exponential, rng.random
    block = 64
    exps = uniforms = iter(())

    horizon, max_events = config.horizon, config.max_events
    times, marks = array("d"), array("b")
    zero_time, capped = 0.0, False
    t = t_last = 0.0
    x1 = x2 = x3 = 0.0
    # l1, l2 and the gated l3 are the intensities at t: a rejected candidate's
    # values are the next bound, and only an accepted event changes them.
    l1, l2, l3 = mu1 + x1, mu2 + x2, 0.0
    while True:
        bound = l1 + l2 + l3
        e = next(exps, None)
        if e is None:
            exps = iter(memoryview(draw_exp(block)))
            uniforms = iter(memoryview(draw_uniform(2 * block)))
            block = min(2 * block, 4096)
            e = next(exps)
        t_cand = t + e / bound
        if n == 0:
            zero_time += min(t_cand, horizon) - t
        if t_cand >= horizon:
            t = horizon
            break
        t = t_cand
        if history is None:
            dt = t - t_last
            y1, y2, y3 = x1 * exp(-b1 * dt), x2 * exp(-b2 * dt), x3 * exp(-b3 * dt)
        else:
            y1, y2, y3 = history.xi_at(t)
        l1, l2, l3 = mu1 + y1, mu2 + y2, mu3 + y3 if n > 0 else 0.0
        total = l1 + l2 + l3
        if next(uniforms) * bound < total:
            # Superposition: a uniform on [0, total) picks the component.
            v = next(uniforms) * total
            mark = 1 if v < l1 else 2 if v < l1 + l2 else 3
            j1, j2, j3 = jumps[mark]
            x1, x2, x3, t_last = y1 + j1, y2 + j2, y3 + j3, t
            if history is not None:
                history.record(mark, t)
            n += -1 if mark == 3 else 1
            times.append(t)
            marks.append(mark)
            if len(times) >= max_events:
                capped = True
                break
            l1, l2, l3 = mu1 + x1, mu2 + x2, mu3 + x3 if n > 0 else 0.0
    if history is None:
        dt = t - t_last
        xi = (x1 * exp(-b1 * dt), x2 * exp(-b2 * dt), x3 * exp(-b3 * dt))
    else:
        xi = history.xi_at(t)
    log = EventLog(np.frombuffer(times), np.frombuffer(marks, dtype=np.int8))
    return SimPath(log, IntensityState(xi, log.counts()), t, zero_time, capped)


def simulate_markov(bank: KernelBank, config: SimConfig, path_index: int = 0) -> SimPath:
    """Statistically exact sample via the closed-form Markov state.

    The path draws from the stream ``rng_for(config.seed, path_index)``.
    The shot noise is three floats and the time of the last event, which
    ``_run`` keeps as locals and decays in closed form.
    """
    require_zero_offsets(bank, "simulate_markov")
    return _run(bank, config, rng_for(config.seed, path_index))


# Stream tags: path i's events draw from rng_for(seed, i), its fitness
# uniforms from (seed, i, FITNESS_STREAM), its epsilon chain's from
# (seed, i, EPSILON_STREAM), and block b of a batched run, its rows from
# b * BATCH_BLOCK on, from (seed, b, BATCH_STREAM).  A block's draws
# depend on its size, so a batched run's rows depend on the seed and
# n_paths alone.
FITNESS_STREAM = 1
EPSILON_STREAM = 2
BATCH_STREAM = 3
BATCH_BLOCK = 2048


@dataclass(frozen=True)
class MarkovBatch:
    """Lockstep Markov paths as arrays, one row per path.

    ``intensity_samples`` is (paths, grid, 3): lambda1, lambda2 and the
    ungated lambda3 (``intensities_at`` without its gated column), NaN
    past a capped path's end, or None without a recording grid.  ``xi``
    and ``counts`` are the final shot noise and counts, (paths, 3);
    ``capped`` is per path.
    """

    intensity_samples: Optional[np.ndarray]
    xi: np.ndarray
    counts: np.ndarray
    capped: np.ndarray


def simulate_markov_batch(bank: KernelBank, config: SimConfig, n_paths: int,
                          initial_state: Optional[IntensityState] = None, *,
                          record_grid=None) -> MarkovBatch:
    """A run of n_paths >= 1 Markov paths, in lockstep blocks of up to BATCH_BLOCK.

    Block b holds rows b * BATCH_BLOCK onward and draws from
    ``rng_for(config.seed, b, BATCH_STREAM)``.  Every path starts from
    ``initial_state`` (default empty) at t = 0; this is the one engine
    that takes a start state, for ``generator_drift_check``, and,
    keeping no event log, samples ``record_grid`` as it runs
    (``check_grid``; points may repeat).
    Each step follows ``_run`` for every active path of a block at once:
    one exponential at the path's last refreshed bound gives the
    candidate, the grid points the step crosses are sampled, and two
    uniforms are drawn.  Paths whose candidate passed the horizon then
    finish and leave the block, so the rest of the step runs on the
    survivors: the intensities at the candidate, acceptance by the first
    uniform times the bound (a rejected candidate's total becomes the
    next bound), and for an accepted candidate the mark by the second.
    Deaths are gated at N = 0, and a path stops, capped, at
    ``config.max_events`` events.  The streams differ from
    ``simulate_markov``'s, so the paths agree with it in law, not draw
    for draw.

    A step costs mostly the fixed overhead of its numpy calls, so the
    state is packed into two component-major arrays, one column per
    path: a float array (x1, x2, x3, t_last, t, bound, next grid time)
    and an int64 array (N1, N2, N3, N, output row, next grid index).
    Finishing paths leave by one ``compress`` of each; accepted events
    update the state in place under the accept mask, the counts and N by
    one ``take`` from a step table.  With the same draws and the same
    bits, the benchmark's ``mc_cross`` (1500-path runs of ``CROSS_BANK``
    to horizon 10, 11 grid points) runs 46.1k replications/s, up from
    36.8k with one array per state variable (``BENCH_19.json``; 2 vCPUs,
    Python 3.11.7, numpy 2.4.6).  Two routes were ruled out: a scalar
    loop for the last few paths of a block changes bits, since
    ``math.exp`` and numpy's SIMD ``exp`` differ in the last bit on 4.7%
    of inputs on an AVX512 host; one lockstep pass over all blocks of a
    run keeps the bits but raised the ``drift_check`` benchmark's peak
    memory by 9%, so the blocks run one after another.
    """
    require_zero_offsets(bank, "simulate_markov_batch")
    if n_paths < 1:
        raise ValueError(f"a run needs at least 1 path, got {n_paths}")
    grid = None if record_grid is None else check_grid(record_grid, "record_grid")
    state0 = initial_state if initial_state is not None else IntensityState()
    mu = np.array(bank.base_rates, dtype=float)[:, None]
    neg_beta = -np.array(bank.betas)[:, None]
    # Column m: the jump of each shot noise, and the change of (N1, N2,
    # N3, N), at an event of mark m + 1.  Column 3, all zeros, serves a
    # rejected candidate.
    jumps = np.zeros((3, 4))
    jumps[:, :3] = np.array(bank.jumps).T
    step = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [1, 1, -1, 0]])
    horizon = config.horizon
    max_events = config.max_events
    events0 = sum(state0.counts)

    # Per-path output, indexed by row.
    out_xi = np.empty((n_paths, 3))
    out_counts = np.empty((n_paths, 3), dtype=np.int64)
    out_capped = np.zeros(n_paths, dtype=bool)
    samples = None
    if grid is not None:
        samples = np.full((n_paths, grid.size, 3), np.nan)
        grid_ext = np.append(grid, np.inf)

    def gated_total(lam, n):
        """lambda1 + lambda2 + gated lambda3 per column of (lambda1, lambda2, lambda3)."""
        return lam[0] + lam[1] + np.where(n > 0, lam[2], 0.0)

    def views():
        """Row views of the packed state; taken again after each compaction."""
        nonlocal x, t_last, t, bound, next_grid, counts_n, n
        x, t_last, t, bound, next_grid = fs[:3], fs[3], fs[4], fs[5], fs[6]
        counts_n, n = ns[:4], ns[3]

    x = t_last = t = bound = next_grid = counts_n = n = None

    def finish(done, capped):
        """Write out the paths of mask ``done`` and drop them from the state; the kept mask.

        A capped path ends at its last event; any other at the horizon.
        """
        nonlocal fs, ns
        f, i = fs.compress(done, axis=1), ns.compress(done, axis=1)
        r = i[4]
        out_xi[r] = (f[:3] if capped else f[:3] * np.exp(neg_beta * (horizon - f[3]))).T
        out_counts[r] = i[:3].T
        out_capped[r] = capped
        keep = ~done
        fs, ns = fs.compress(keep, axis=1), ns.compress(keep, axis=1)
        views()
        return keep

    def sample_grid(due, t_due):
        """Sample the grid points that the paths ``due`` cross up to ``t_due``.

        One take from each packed array gathers the paths' x, t_last and
        (row, grid index); a path that crosses another point stays due.
        """
        f, i = fs[:4].take(due, axis=1), ns[4:].take(due, axis=1)
        while True:
            g = i[1]
            samples[i[0], g] = (mu + f[:3] * np.exp(neg_beta * (grid[g] - f[3]))).T
            g += 1
            upcoming = grid_ext[g]
            ns[5, due], next_grid[due] = g, upcoming
            again = upcoming <= t_due
            if not again.any():
                return
            due, t_due = due[again], t_due[again]
            f, i = f.compress(again, axis=1), i.compress(again, axis=1)

    for block, start in enumerate(range(0, n_paths, BATCH_BLOCK)):
        size = min(BATCH_BLOCK, n_paths - start)
        rng = rng_for(config.seed, block, BATCH_STREAM)
        # The state of the block's active paths, one column per path,
        # compacted as paths finish.  Float rows: the shot noise x1, x2,
        # x3 at t_last (the time of the path's last event), t_last, the
        # clock t, the bound and the next grid time.  Int rows: the counts
        # N1, N2, N3, the population N, the output row and the next grid
        # index.  A sentinel past the last grid point ends the path's grid.
        fs = np.zeros((7, size))
        fs[:3] = np.array(state0.xi, dtype=float)[:, None]
        ns = np.zeros((6, size), dtype=np.int64)
        ns[:3] = np.array(state0.counts, dtype=np.int64)[:, None]
        ns[3] = state0.population_size
        ns[4] = np.arange(start, start + size)
        fs[5] = gated_total(mu + fs[:3], ns[3])
        fs[6] = np.inf if grid is None else grid_ext[0]
        views()
        steps = 0
        while fs.shape[1]:
            k = fs.shape[1]
            t_cand = rng.standard_exponential(k)
            t_cand /= bound
            t_cand += t
            if samples is not None:
                t_next = np.minimum(t_cand, horizon)
                due = (next_grid <= t_next).nonzero()[0]
                if due.size:
                    sample_grid(due, t_next[due])
            u = rng.random((2, k))
            t[...] = t_cand
            # A path whose candidate passes the horizon ends there.
            done = t_cand >= horizon
            if done.any():
                u = u.compress(finish(done, False), axis=1)
                if not fs.shape[1]:
                    break
            y = x * np.exp(neg_beta * (t - t_last))
            lam = mu + y
            l12 = lam[0] + lam[1]
            alive = n > 0
            # The bound row takes the total at the candidate; the acceptance
            # test reads the old bound first.
            threshold = u[0] * bound
            np.add(l12, np.where(alive, lam[2], 0.0), out=bound)
            accept = threshold < bound
            # Mark index 0, 1 or 2 (mutant, clone, death) as in _run; 3 if rejected.
            v = u[1] * bound
            mark = np.where(accept, np.add(v >= lam[0], (v >= l12) & alive, dtype=np.intp), 3)
            np.copyto(x, y + jumps.take(mark, axis=1), where=accept)
            np.copyto(t_last, t, where=accept)
            counts_n += step.take(mark, axis=1)
            # A rejected candidate's total is the next bound.
            np.copyto(bound, gated_total(mu + x, n), where=accept)
            steps += 1
            # A path that accepts its last allowed event stops there, capped;
            # no path has more events than steps.
            if steps >= max_events:
                capped = ns[:3].sum(axis=0) - events0 >= max_events
                if capped.any():
                    finish(capped, True)
    return MarkovBatch(samples, out_xi, out_counts, out_capped)


class _History:
    """Past event times of every nonzero entry of ``KernelBank.jumps``, one row each.

    Rows run in the summation order of the pinned fixed-seed outputs: a
    mutant's kernels, a clone's, then the death kernel.  A row holds its
    mark's times as a prefix of a float64 buffer that doubles when full,
    and ``live`` marks the prefix.  numpy applies a reduction's mask run
    by run, so each masked row sum equals ``np.add.reduce`` of the prefix.
    """

    def __init__(self, bank: KernelBank):
        self.rows, self.targets = [], []
        for row in bank.jumps:
            live = [(i, a) for i, a in enumerate(row) if a != 0]
            n = len(self.targets)
            self.rows.append(slice(n, n + len(live)) if live else None)
            self.targets += live
        self.sizes = [0, 0, 0]
        self.top = 0
        self.times = np.zeros((len(self.targets), 64))
        self.live = np.zeros((len(self.targets), 64), dtype=bool)
        self.neg_betas = np.array([-bank.betas[i] for i, _ in self.targets])[:, None]

    def record(self, mark: int, t: float) -> None:
        """Append an event's time to its mark's rows."""
        rows = self.rows[mark - 1]
        if rows is None:
            return
        k = self.sizes[mark - 1]
        if k == self.times.shape[1]:
            self.times = np.concatenate((self.times, np.zeros_like(self.times)), axis=1)
            self.live = np.concatenate((self.live, np.zeros_like(self.live)), axis=1)
        self.times[rows, k] = t
        self.live[rows, k] = True
        self.sizes[mark - 1] = k + 1
        self.top = max(self.top, k + 1)

    def xi_at(self, t: float) -> tuple[float, float, float]:
        """Add alpha * sum_k exp(-beta (t - t_k)) of each row to its target, in row order."""
        xi = [0.0, 0.0, 0.0]
        top = self.top
        if top:
            z = np.subtract(t, self.times[:, :top])
            z *= self.neg_betas
            np.exp(z, out=z)
            sums = np.add.reduce(z, axis=1, where=self.live[:, :top])
            for (i, alpha), s in zip(self.targets, sums.tolist()):
                xi[i] += alpha * s
        return tuple(xi)


def simulate_thinning_general(bank: KernelBank, config: SimConfig, path_index: int = 0) -> SimPath:
    """Full-history thinning, the reference check on the Markov engine.

    The path draws from the same stream as ``simulate_markov``'s.  Each
    intensity evaluation sums the kernels over the entire history, O(n)
    per evaluation: one exp and one masked row-wise sum cover every
    kernel.
    """
    require_zero_offsets(bank, "simulate_thinning_general")
    history = _History(bank)
    return _run(bank, config, rng_for(config.seed, path_index), history)


def simulate(bank: KernelBank, config: SimConfig, path_index: int = 0) -> SimPath:
    """Dispatch on the configured engine."""
    if config.engine == "markov":
        return simulate_markov(bank, config, path_index)
    return simulate_thinning_general(bank, config, path_index)


def intensities_at(path: SimPath, bank: KernelBank, record_grid) -> np.ndarray:
    """(lambda1, lambda2, gated lambda3, ungated lambda3) of a path at each grid time.

    One forward pass over the events and ``record_grid`` (``check_grid``;
    points may repeat) replays the path from the empty state at t = 0 on
    the Markov engine's recursion.  A grid time equal to an event's reads
    the intensities just before it; rows past ``path.elapsed`` are NaN.
    The ungated column ignores the gate; the path's deaths still stop at N = 0.
    """
    grid = check_grid(record_grid, "record_grid")
    require_zero_offsets(bank, "intensities_at")
    mu, betas, jumps = bank.base_rates, bank.betas, bank.jumps
    out = np.full((grid.size, 4), np.nan)
    x, t_last, n = (0.0, 0.0, 0.0), 0.0, 0
    events = zip(path.events.times.tolist(), path.events.marks.tolist())
    t, mark = next(events, (math.inf, 0))
    for row, g in enumerate(grid[grid <= path.elapsed].tolist()):
        while t < g:
            x = tuple(xi * math.exp(-b * (t - t_last)) + j
                      for xi, b, j in zip(x, betas, jumps[mark - 1]))
            n += -1 if mark == 3 else 1
            t_last = t
            t, mark = next(events, (math.inf, 0))
        l1, l2, l3 = (m + xi * math.exp(-b * (g - t_last)) for m, xi, b in zip(mu, x, betas))
        out[row] = (l1, l2, l3 if n > 0 else 0.0, l3)
    return out


def time_rescale_residuals(path: SimPath, bank: KernelBank, i: int) -> np.ndarray:
    """Compensator increments of process i between its own events.

    The path is replayed from the empty state at t = 0 on the Markov
    engine's float recursion: only xi_i is kept, it decays in closed form
    between events and jumps by the mark's alpha onto intensity i, and a
    running N gates the deaths.  Under a correct simulation the residuals
    are i.i.d. unit exponential.
    """
    if i not in (1, 2, 3):
        raise ValueError(f"index must be 1, 2 or 3, got {i}")
    require_zero_offsets(bank, "time_rescale_residuals")
    lam0 = bank.base_rates[i - 1]
    beta = bank.betas[i - 1]
    # jump[m - 1] is xi_i's jump at an event of int mark m; 3 is a death.
    jump = tuple(row[i - 1] for row in bank.jumps)
    n, xi, t = 0, 0.0, 0.0
    residuals = []
    acc = 0.0
    for time, mark in zip(path.events.times.tolist(), path.events.marks.tolist()):
        dt = time - t
        decay = math.exp(-beta * dt)
        if i < 3 or n > 0:
            acc += lam0 * dt + xi * (1.0 - decay) / beta
        xi = decay * xi + jump[mark - 1]
        if mark == i:
            residuals.append(acc)
            acc = 0.0
        n += -1 if mark == 3 else 1
        t = time
    return np.asarray(residuals)
