"""Fitness-structured population dynamics.

Individuals carry a fitness in [0, 1]; identical values form one site.
Mutant births open a fresh uniform site, clone births reinforce an
existing site proportionally to its occupancy (a clone born into an
empty population opens a fresh uniform site, as a mutant does), and
deaths remove one individual from the lowest occupied site.  Sites hold
slots in creation order under a tree of counts with 16 entries per node,
so a birth or death updates one count per level and a weighted pick
scans at most 16 counts per level; a lazy min-heap gives the lowest site.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import islice
from typing import Optional

import numpy as np

from .core import KernelBank
from .expectations import asymptotic_rates
from .simulate import (EPSILON_STREAM, FITNESS_STREAM, SimConfig, SimPath, check_grid, rng_for,
                       simulate)

class FitnessPartition:
    """Occupied fitness sites with their occupation counts.

    Slots are never reused: an emptied site keeps its slot at count 0,
    and a fitness that returns opens a new one.  ``total`` is the number
    of individuals.  ``_levels`` holds one count per slot, then one per
    16 entries below, up to a top level of at most 16 entries; ``insert``,
    ``clone`` and ``remove_min`` each walk that path inline.  The sites
    are read as two arrays, the slots with a positive count sorted by
    fitness (``site_arrays``).
    """

    def __init__(self):
        self._slot: dict[float, int] = {}  # live fitness -> slot
        self._fitness: list[float] = []
        self._levels: list[list[int]] = [[]]
        self._heap: list[float] = []
        self.total = 0

    @property
    def site_count(self) -> int:
        return len(self._slot)

    def site_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Occupied sites as (fitness float64, count int64) arrays sorted by fitness.

        Live fitness values are unique, so the order is fixed.
        """
        count = np.array(self._levels[0], dtype=np.int64)
        live = count > 0
        fitness, count = np.array(self._fitness, dtype=float)[live], count[live]
        order = np.argsort(fitness)
        return fitness[order], count[order]

    def sites(self) -> list[tuple[float, int]]:
        """(fitness, count) pairs sorted by fitness."""
        fitness, count = self.site_arrays()
        return list(zip(fitness.tolist(), count.tolist()))

    def _pick(self, u: float) -> int:
        """The first slot whose inclusive running count exceeds ``int(u * total)``."""
        if self.total == 0:
            raise ValueError("cannot sample from an empty partition")
        k = int(u * self.total)
        j = 0
        for level in reversed(self._levels):
            j <<= 4
            for c in level[j:j + 16]:
                if k < c:
                    break
                k -= c
                j += 1
        return j

    def insert(self, x: float) -> float:
        """Add one individual at fitness x, creating the site if needed; x."""
        if not 0 <= x <= 1:
            raise ValueError(f"fitness must be in [0, 1], got {x}")
        slot = self._slot.get(x)
        if slot is None:
            slot = self._slot[x] = len(self._fitness)
            self._fitness.append(x)
            i, levels = slot, self._levels
            for level in levels:
                level.append(0)
                if i & 15:
                    break
                i >>= 4
            if len(levels[-1]) > 16:
                levels.append([sum(levels[-1][:16]), sum(levels[-1][16:])])
            heapq.heappush(self._heap, x)
        for level in self._levels:
            level[slot] += 1
            slot >>= 4
        self.total += 1
        return x

    def clone(self, u: float) -> float:
        """Add one individual to the site ``sample_site(u)`` picks; its fitness."""
        slot = self._pick(u)
        x = self._fitness[slot]
        for level in self._levels:
            level[slot] += 1
            slot >>= 4
        self.total += 1
        return x

    def sample_site(self, u: float) -> float:
        """Fitness of a site drawn with probability count / total (``_pick``)."""
        return self._fitness[self._pick(u)]

    def min_fitness(self) -> float:
        if not self._slot:
            raise ValueError("empty partition has no minimum site")
        while self._heap[0] not in self._slot:
            heapq.heappop(self._heap)
        return self._heap[0]

    def remove_min(self) -> tuple[float, bool]:
        """Remove one individual from the lowest site; True if the site emptied."""
        x = self.min_fitness()
        slot = self._slot[x]
        emptied = self._levels[0][slot] == 1
        for level in self._levels:
            level[slot] -= 1
            slot >>= 4
        self.total -= 1
        if emptied:
            del self._slot[x]
            heapq.heappop(self._heap)
        return x, emptied


def theoretical_site_cdf(f: float, f_c: float) -> float:
    """Limiting site distribution max(f - f_c, 0) / (1 - f_c)."""
    if f_c >= 1:
        raise ValueError(f"critical fitness must be < 1, got {f_c}")
    if not 0 <= f <= 1:
        raise ValueError(f"f must be in [0, 1], got {f}")
    return max(f - f_c, 0.0) / (1.0 - f_c)


@dataclass(frozen=True)
class PopulationPath:
    """Joint trajectory of the event engine and the fitness partition."""

    path: SimPath
    partition: FitnessPartition
    snapshots: list  # (t, [(fitness, count), ...]) on the snapshot grid
    lr_trajectory: Optional[np.ndarray]  # rows (t, L, R, N) when f was given


def simulate_population(bank: KernelBank, config: SimConfig, f: Optional[float] = None,
                        snapshot_grid=None, path_index: int = 0) -> PopulationPath:
    """Simulate events and maintain the fitness partition along the path.

    Fitness draws come from a stream independent of the event engine's,
    so the same event path can be re-partitioned reproducibly.  ``f``,
    when given, must be in [0, 1], and ``snapshot_grid`` is a grid
    (``check_grid``).  A snapshot at grid time g holds the partition
    after every event at or before g; a grid time past ``path.elapsed``
    (the horizon, or the last event of a capped path) gets none.  One
    ``searchsorted`` over the event times gives each snapshot's cut
    point, and the events are replayed segment by segment between cuts.
    """
    if f is not None and not 0 <= f <= 1:
        raise ValueError(f"f must be in [0, 1], got {f}")
    grid = check_grid([] if snapshot_grid is None else snapshot_grid, "snapshot_grid")
    path = simulate(bank, config, path_index)
    marks = path.events.marks
    # One uniform per birth in event order, the values scalar draws would give.
    births = iter(rng_for(config.seed, path_index, FITNESS_STREAM).random(
        int(np.count_nonzero(marks != 3))).tolist())
    partition = FitnessPartition()
    insert, clone, remove_min = partition.insert, partition.clone, partition.remove_min
    # Grid times past the path's end get no snapshot.  Each other grid
    # time cuts the events after the last one at or before it; the final
    # segment runs to the end of the path.
    grid = grid[grid <= path.elapsed]
    times = path.events.times
    ends = np.searchsorted(times, grid, side="right").tolist() + [len(times)]
    events = zip(times.tolist(), marks.tolist())
    snapshots, done, left = [], 0, 0
    lr_rows = None if f is None else [(0.0, 0, 0, 0)]
    for g, end in zip(grid.tolist() + [None], ends):
        for t, mark in islice(events, end - done):
            if mark == 3:  # a death
                x, _ = remove_min()
                step = -1
            else:
                # The uniform is the fitness of a mutant, and of a clone born
                # into an empty population; otherwise it picks the site cloned.
                x = (clone if mark == 2 and partition.total else insert)(next(births))
                step = 1
            if f is not None:
                if x <= f:
                    left += step
                lr_rows.append((t, left, partition.total - left, partition.total))
        done = end
        if g is not None:
            snapshots.append((g, partition.sites()))
    lr = None if f is None else np.asarray(lr_rows, dtype=float)
    return PopulationPath(path, partition, snapshots, lr)


def _check_split(f: float, epsilon: float) -> None:
    if not 0 < f < 1:
        raise ValueError(f"f must be in (0, 1), got {f}")
    if not 0 <= epsilon <= 1:
        raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")


def simulate_epsilon_chain(bank: KernelBank, f: float, epsilon: float, config: SimConfig,
                           path_index: int = 0) -> np.ndarray:
    """Trajectory (t, L, R) of the modified chain with constant clone split.

    Identical to the true dynamics except that, when both sides are
    occupied, a clone lands left with probability epsilon instead of
    L/N.  Runs with the same seed share the event path and the per-event
    uniforms, giving the monotone coupling in epsilon.
    """
    _check_split(f, epsilon)
    path = simulate(bank, config, path_index)
    # One draw per event keeps coupling across epsilon.
    uniforms = rng_for(config.seed, path_index, EPSILON_STREAM).random(len(path.events)).tolist()
    rows = [(0.0, 0, 0)]
    left = right = 0
    for t, mark, u in zip(path.events.times.tolist(), path.events.marks.tolist(), uniforms):
        if mark == 3:  # a death
            if left >= 1:
                left -= 1
            else:
                right -= 1
        else:
            # A birth lands left with probability p: f for a mutant and for a
            # clone born into an empty population; for any other clone 0 while
            # L = 0, 1 while R = 0, and epsilon once both sides are occupied.
            p = (f if mark == 1 or left == right == 0 else 0.0 if left == 0
                 else 1.0 if right == 0 else epsilon)
            if u < p:
                left += 1
            else:
                right += 1
        rows.append((t, left, right))
    return np.asarray(rows, dtype=float)


def rho_limit(bank: KernelBank, f: float, epsilon: float, rate_method: str = "paper") -> float:
    """Limiting left-mass fraction of the modified chain in the growth regime."""
    _check_split(f, epsilon)
    lam1, lam2, lam3 = asymptotic_rates(bank, rate_method)
    denom = lam1 + lam2 - lam3
    if denom <= 0:
        raise ValueError("rho limit requires a growing population (Lambda1+Lambda2 > Lambda3)")
    return (f * lam1 + epsilon * lam2 - lam3) / denom
