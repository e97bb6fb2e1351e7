"""Fitness-structured population dynamics.

Individuals carry a fitness in [0, 1]; identical values form one site.
Mutant births open a fresh uniform site, clone births reinforce an
existing site proportionally to its occupancy, and deaths remove one
individual from the lowest occupied site.  A Fenwick tree over site
occupancies gives O(log l) weighted sampling; a lazy min-heap gives the
lowest site.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import KernelBank
from .expectations import asymptotic_rates
from .simulate import SimConfig, SimPath, rng_for, simulate


class _Fenwick:
    """Prefix-sum tree over append-only slots with integer weights."""

    def __init__(self, capacity: int = 8):
        self._cap = capacity
        self._tree = [0] * (capacity + 1)
        self.weights: list[int] = []
        self.total = 0

    def append(self, w: int) -> int:
        if len(self.weights) == self._cap:
            self._grow()
        self.weights.append(0)
        i = len(self.weights) - 1
        self.add(i, w)
        return i

    def _grow(self):
        """Double the capacity and rebuild the tree in one linear pass."""
        self._cap *= 2
        tree = [0] * (self._cap + 1)
        tree[1:len(self.weights) + 1] = self.weights
        for i in range(1, self._cap + 1):
            parent = i + (i & -i)
            if parent <= self._cap:
                tree[parent] += tree[i]
        self._tree = tree

    def add(self, i: int, dw: int):
        self.weights[i] += dw
        self.total += dw
        tree, cap = self._tree, self._cap
        i += 1
        while i <= cap:
            tree[i] += dw
            i += i & (-i)

    def find(self, target: float) -> int:
        """Smallest slot index whose inclusive prefix sum exceeds target.

        Zero-weight slots are never returned for target in [0, total).
        """
        tree, cap = self._tree, self._cap
        idx = 0
        bit = 1 << cap.bit_length()
        while bit:
            nxt = idx + bit
            if nxt <= cap and tree[nxt] <= target:
                idx = nxt
                target -= tree[nxt]
            bit >>= 1
        return idx


class FitnessPartition:
    """Occupied fitness sites with their occupation counts."""

    def __init__(self):
        self._counts: dict[float, int] = {}
        self._slots: dict[float, int] = {}
        self._tree = _Fenwick()
        self._slot_fitness: list[float] = []
        self._heap: list[float] = []

    @property
    def total(self) -> int:
        """Number of individuals."""
        return self._tree.total

    @property
    def site_count(self) -> int:
        return len(self._counts)

    def count_at(self, x: float) -> int:
        return self._counts.get(x, 0)

    def sites(self) -> list[tuple[float, int]]:
        """(fitness, count) pairs sorted by fitness."""
        return sorted(self._counts.items())

    def insert(self, x: float):
        """Add one individual at fitness x, creating the site if needed."""
        if not 0 <= x <= 1:
            raise ValueError(f"fitness must be in [0, 1], got {x}")
        if x in self._counts:
            self._counts[x] += 1
            self._tree.add(self._slots[x], 1)
        else:
            self._counts[x] = 1
            self._slots[x] = self._tree.append(1)
            self._slot_fitness.append(x)
            heapq.heappush(self._heap, x)

    def sample_site(self, u: float) -> float:
        """Fitness of a site drawn with probability count / total."""
        if self.total == 0:
            raise ValueError("cannot sample from an empty partition")
        slot = self._tree.find(u * self.total)
        return self._slot_fitness[slot]

    def min_fitness(self) -> float:
        if not self._counts:
            raise ValueError("empty partition has no minimum site")
        while self._heap[0] not in self._counts:
            heapq.heappop(self._heap)
        return self._heap[0]

    def remove_min(self) -> tuple[float, bool]:
        """Remove one individual from the lowest site; True if the site emptied."""
        x = self.min_fitness()
        self._counts[x] -= 1
        self._tree.add(self._slots[x], -1)
        if self._counts[x] == 0:
            del self._counts[x]
            del self._slots[x]
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
    so the same event path can be re-partitioned reproducibly.
    """
    path = simulate(bank, config, path_index)
    rng = rng_for(config.seed, path_index, 1)
    partition = FitnessPartition()
    grid = None if snapshot_grid is None else np.asarray(snapshot_grid, dtype=float)
    snapshots = []
    gi = 0
    lr_rows = [] if f is not None else None
    left = 0
    if f is not None:
        lr_rows.append((0.0, 0, 0, 0))
    for t, mark in zip(path.events.times.tolist(), path.events.marks.tolist()):
        if grid is not None:
            while gi < grid.size and grid[gi] < t:
                snapshots.append((float(grid[gi]), partition.sites()))
                gi += 1
        if mark == 3:  # a death
            x, _ = partition.remove_min()
            step = -1
        else:
            # The uniform is the fitness of a mutant, and of a clone born
            # into an empty population; otherwise it picks the site cloned.
            u = rng.random()
            x = partition.sample_site(u) if mark == 2 and partition.total else u
            partition.insert(x)
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
    rng = rng_for(config.seed, path_index, 2)
    rows = [(0.0, 0, 0)]
    left = right = 0
    for t, mark in zip(path.events.times.tolist(), path.events.marks.tolist()):
        u = rng.random()  # one draw per event keeps coupling across epsilon
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
