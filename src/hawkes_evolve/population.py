"""Fitness-structured population dynamics.

Individuals carry a fitness in [0, 1]; identical values form one site.
Mutant births open a fresh uniform site, clone births reinforce an
existing site proportionally to its occupancy (a clone born into an
empty population opens a fresh uniform site, as a mutant does), and
deaths remove one individual from the lowest occupied site.  Sites hold slots in creation
order, with one count per slot and one per block of ``_BLOCK`` slots,
so a birth or death updates two counts and a weighted pick bisects the
block totals and then one block; a lazy min-heap gives the lowest site.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Optional

import numpy as np

from .core import KernelBank
from .expectations import asymptotic_rates
from .simulate import SimConfig, SimPath, check_grid, rng_for, simulate

_BLOCK = 64  # slots per block count


class FitnessPartition:
    """Occupied fitness sites with their occupation counts.

    Slots are never reused: an emptied site keeps its slot at count 0,
    and a fitness that returns opens a new one.  ``total`` is the number
    of individuals.
    """

    def __init__(self):
        self._slot: dict[float, int] = {}  # live fitness -> slot
        self._fitness: list[float] = []
        self._count: list[int] = []
        self._block: list[int] = []
        self._heap: list[float] = []
        self.total = 0

    @property
    def site_count(self) -> int:
        return len(self._slot)

    def sites(self) -> list[tuple[float, int]]:
        """(fitness, count) pairs sorted by fitness."""
        count = self._count
        return sorted((x, count[slot]) for x, slot in self._slot.items())

    def insert(self, x: float):
        """Add one individual at fitness x, creating the site if needed."""
        if not 0 <= x <= 1:
            raise ValueError(f"fitness must be in [0, 1], got {x}")
        slot = self._slot.get(x)
        if slot is None:
            slot = self._slot[x] = len(self._count)
            self._fitness.append(x)
            self._count.append(0)
            if slot % _BLOCK == 0:
                self._block.append(0)
            heapq.heappush(self._heap, x)
        self._count[slot] += 1
        self._block[slot // _BLOCK] += 1
        self.total += 1

    def sample_site(self, u: float) -> float:
        """Fitness of a site drawn with probability count / total.

        Individual ``int(u * total)``, counted in slot order, is picked:
        the first slot whose inclusive running count exceeds it.
        """
        if self.total == 0:
            raise ValueError("cannot sample from an empty partition")
        k = int(u * self.total)
        ends = list(accumulate(self._block))
        b = bisect_right(ends, k)
        start = b * _BLOCK
        k -= ends[b - 1] if b else 0
        slot = start + bisect_right(list(accumulate(self._count[start:start + _BLOCK])), k)
        return self._fitness[slot]

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
        self._count[slot] -= 1
        self._block[slot // _BLOCK] -= 1
        self.total -= 1
        if self._count[slot] == 0:
            del self._slot[x]
            heapq.heappop(self._heap)
            return x, True
        return x, False


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
    f: Optional[float]


def simulate_population(bank: KernelBank, config: SimConfig, f: Optional[float] = None,
                        snapshot_grid=None, path_index: int = 0) -> PopulationPath:
    """Simulate events and maintain the fitness partition along the path.

    Fitness draws come from a stream independent of the event engine's,
    so the same event path can be re-partitioned reproducibly.  ``f``,
    when given, must be in [0, 1].  ``snapshot_grid`` must be finite,
    non-negative and non-decreasing, as a record grid (``check_grid``).
    """
    if f is not None and not 0 <= f <= 1:
        raise ValueError(f"f must be in [0, 1], got {f}")
    grid = None if snapshot_grid is None else check_grid(snapshot_grid, "snapshot_grid")
    path = simulate(bank, config, path_index)
    marks = path.events.marks
    # One uniform per birth in event order, the values scalar draws would give.
    births = rng_for(config.seed, path_index, 1).random(int(np.count_nonzero(marks != 3)))
    births = iter(births.tolist())
    partition = FitnessPartition()
    insert, sample_site, remove_min = partition.insert, partition.sample_site, partition.remove_min
    snapshots = []
    gi = 0
    lr_rows = [] if f is not None else None
    left = 0
    if f is not None:
        lr_rows.append((0.0, 0, 0, 0))
    for t, mark in zip(path.events.times.tolist(), marks.tolist()):
        if grid is not None:
            while gi < grid.size and grid[gi] < t:
                snapshots.append((float(grid[gi]), partition.sites()))
                gi += 1
        if mark == 3:  # a death
            x, _ = remove_min()
            step = -1
        else:
            # The uniform is the fitness of a mutant, and of a clone born
            # into an empty population; otherwise it picks the site cloned.
            u = next(births)
            x = sample_site(u) if mark == 2 and partition.total else u
            insert(x)
            step = 1
        if f is not None:
            if x <= f:
                left += step
            lr_rows.append((t, left, partition.total - left, partition.total))
    if grid is not None:
        while gi < grid.size:
            snapshots.append((float(grid[gi]), partition.sites()))
            gi += 1
    lr = None if f is None else np.asarray(lr_rows, dtype=float)
    return PopulationPath(path, partition, snapshots, lr, f)


def simulate_epsilon_chain(bank: KernelBank, f: float, epsilon: float, config: SimConfig,
                           path_index: int = 0) -> np.ndarray:
    """Trajectory (t, L, R) of the modified chain with constant clone split.

    Identical to the true dynamics except that, when both sides are
    occupied, a clone lands left with probability epsilon instead of
    L/N.  Runs with the same seed share the event path and the per-event
    uniforms, giving the monotone coupling in epsilon.
    """
    if not 0 < f < 1:
        raise ValueError(f"f must be in (0, 1), got {f}")
    if not 0 <= epsilon <= 1:
        raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
    path = simulate(bank, config, path_index)
    # One draw per event keeps coupling across epsilon.
    uniforms = rng_for(config.seed, path_index, 2).random(len(path.events)).tolist()
    rows = [(0.0, 0, 0)]
    left = right = 0
    for t, mark, u in zip(path.events.times.tolist(), path.events.marks.tolist(), uniforms):
        if mark == 3:  # a death
            if left >= 1:
                left -= 1
            else:
                right -= 1
        elif mark == 1:  # a mutant
            if u < f:
                left += 1
            else:
                right += 1
        else:  # clone
            if left == 0 and right == 0:
                if u < f:
                    left += 1
                else:
                    right += 1
            elif left == 0:
                right += 1
            elif right == 0:
                left += 1
            elif u < epsilon:
                left += 1
            else:
                right += 1
        rows.append((t, left, right))
    return np.asarray(rows, dtype=float)


def rho_limit(bank: KernelBank, f: float, epsilon: float, rate_method: str = "paper") -> float:
    """Limiting left-mass fraction of the modified chain in the growth regime."""
    lam1, lam2, lam3 = asymptotic_rates(bank, rate_method)
    denom = lam1 + lam2 - lam3
    if denom <= 0:
        raise ValueError("rho limit requires a growing population (Lambda1+Lambda2 > Lambda3)")
    return (f * lam1 + epsilon * lam2 - lam3) / denom
