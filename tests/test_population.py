import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hawkes_evolve import (
    FitnessPartition,
    KernelBank,
    Mark,
    SimConfig,
    phase_transition_sweep,
    rho_limit,
    rng_for,
    simulate_epsilon_chain,
    simulate_population,
    theoretical_site_cdf,
)

GROWING = KernelBank.poisson((2.0, 1.0, 1.0))
# Deaths outpace births, so the population keeps emptying.
DYING = KernelBank.poisson((0.5, 1.0, 3.0))


def build(sites):
    p = FitnessPartition()
    for x, k in sites:
        for _ in range(k):
            p.insert(x)
    return p


def cumulative_pick(slots, target):
    """Fitness of the first [fitness, count] slot whose running count exceeds target."""
    acc = 0
    for x, k in slots:
        acc += k
        if acc > target:
            return x


def reference_replay(path, rng, f):
    """Sorted (fitness, count) sites and (t, L, R, N) rows of a brute-force replay.

    Sites are [fitness, count] slots in creation order; a clone picks one
    by a linear cumulative scan, a death scans for the lowest occupied one.
    """
    slots, rows, left = [], [(0.0, 0, 0, 0)], 0
    for t, mark in zip(path.events.times.tolist(), path.events.marks.tolist()):
        total = sum(k for _, k in slots)
        if mark == Mark.DEATH:
            slot = min((s for s in slots if s[1]), key=lambda s: s[0])
            slot[1] -= 1
            step = -1
        else:
            u = rng.random()
            x = cumulative_pick(slots, u * total) if mark == Mark.CLONE and total else u
            slot = next((s for s in slots if s[0] == x and s[1]), None)
            if slot is None:
                slot = [x, 0]
                slots.append(slot)
            slot[1] += 1
            step = 1
        if slot[0] <= f:
            left += step
        rows.append((t, left, total + step - left, total + step))
    return sorted((x, k) for x, k in slots if k), np.asarray(rows, dtype=float)


class TestPartition:
    def test_insert_and_totals(self):
        p = build([(0.2, 2), (0.7, 3)])
        assert p.total == 5 and p.site_count == 2
        assert p.sites() == [(0.2, 2), (0.7, 3)]

    def test_fitness_range_checked(self):
        with pytest.raises(ValueError):
            FitnessPartition().insert(1.5)

    def test_sample_site_cumulative_weights(self):
        p = build([(0.3, 1), (0.6, 3)])
        assert p.sample_site(0.1) == 0.3
        assert p.sample_site(0.5) == 0.6
        assert p.sample_site(0.999) == 0.6

    def test_sample_empty_rejected(self):
        with pytest.raises(ValueError):
            FitnessPartition().sample_site(0.5)

    def test_remove_min_eliminates_site(self):
        p = build([(0.2, 1), (0.7, 3)])
        assert p.remove_min() == (0.2, True)
        assert p.sites() == [(0.7, 3)]

    def test_remove_min_decrements(self):
        p = build([(0.2, 2), (0.7, 3)])
        assert p.remove_min() == (0.2, False)
        assert p.sites() == [(0.2, 1), (0.7, 3)]

    def test_min_reachable_after_removal(self):
        p = build([(0.1, 1), (0.5, 1), (0.9, 1)])
        p.remove_min()
        assert p.min_fitness() == 0.5

    @given(st.lists(st.one_of(
        st.floats(0, 1, allow_nan=False),
        st.just("death"),
        st.tuples(st.just("clone"), st.floats(0, 1, exclude_max=True)),
    ), max_size=200))
    @example([i / 100 for i in range(100)] + ["death"] * 30 + [0.5, 0.25, 0.995])
    @example([i / 200 for i in range(200)] + ["death"] * 70 + [0.5, 0.25, 0.995])
    @example([i / 300 for i in range(300)] + ["death"] * 40
             + [("clone", j / 7) for j in range(7)] + [0.5])
    @settings(max_examples=100, deadline=None)
    def test_counts_stay_consistent(self, ops):
        # Slots in creation order as [fitness, count]; the partition's pick
        # must be the cumulative pick over them, and a clone must add one
        # individual where sample_site followed by insert would.  200 sites
        # make a tree of two levels and 300 one of three; the deaths empty
        # the first slots, across the edges at multiples of 16, and the
        # clones pick across the edge at 256.
        p = FitnessPartition()
        slots, live = [], {}
        expected = 0
        for op in ops:
            if op == "death":
                if p.total == 0:
                    continue
                x, emptied = p.remove_min()
                slots[live[x]][1] -= 1
                if emptied:
                    del live[x]
                expected -= 1
            elif isinstance(op, tuple):
                if p.total == 0:
                    continue
                u = op[1]
                x = p.sample_site(u)
                assert p.clone(u) == x
                slots[live[x]][1] += 1
                expected += 1
            else:
                if op not in live:
                    live[op] = len(slots)
                    slots.append([op, 0])
                slots[live[op]][1] += 1
                p.insert(op)
                expected += 1
            assert p.total == expected
            assert all(k >= 1 for _, k in p.sites())
            assert sum(k for _, k in p.sites()) == expected
            assert p.sites() == sorted((x, k) for x, k in slots if k)
            if expected:
                for u in (0.0, 0.3, 0.5, 0.7, 0.999999):
                    assert p.sample_site(u) == cumulative_pick(slots, u * expected)


def assert_picks(p, slots):
    """sample_site agrees with the cumulative pick at every individual's rank."""
    total = sum(k for _, k in slots)
    assert p.total == total
    us = [0.0, 1 - 2**-53] + [j / total for j in range(total)] + [(j + 0.5) / total
                                                                 for j in range(total)]
    for u in us:
        assert p.sample_site(u) == cumulative_pick(slots, u * total)


def empty_edges(n, edges):
    """Slots [fitness, count] with both sides of each edge emptied, and the partition.

    Low fitness marks the slots that the deaths empty: slots e - 1 and e
    for each edge e below n.  The others hold 1 to 3 individuals.
    """
    emptied = {s for e in edges for s in (e - 1, e) if 0 <= s < n}
    slots = [[(i + 1) / (4 * n) if i in emptied else 0.5 + i / (4 * n), 1 + i % 3]
             for i in range(n)]
    p = build(slots)
    for _ in range(sum(slots[s][1] for s in emptied)):
        p.remove_min()
    for s in emptied:
        slots[s][1] = 0
    assert p.sites() == sorted((x, k) for x, k in slots if k)
    return p, slots


class TestPartitionBlocks:
    """Weighted picks across the edges of the partition's 16-way count tree.

    Level 0 holds one count per slot and each level above one per 16
    entries below, so edges fall at multiples of 16, 256 and 4096 slots.
    The older cases pick across multiples of 64 slots.
    """

    @pytest.mark.parametrize("n", [16, 17, 256, 257])
    def test_emptied_slots_at_tree_edges(self, n):
        p, slots = empty_edges(n, range(16, n + 1, 16))
        assert_picks(p, slots)

    @pytest.mark.parametrize("n, levels", [(4096, 3), (4097, 4)])
    def test_ranks_around_the_edges_at_4096_slots(self, n, levels):
        # A fourth level appears when the third passes 16 entries.  Every
        # edge of 16 slots is checked at the ranks around it.
        p, slots = empty_edges(n, range(256, n + 1, 256))
        assert len(p._levels) == levels
        total = p.total
        edge_ranks = set()
        running = 0
        for i, (_, k) in enumerate(slots):
            if i % 16 == 0:
                edge_ranks.update(range(running - 2, running + 3))
            running += k
        edge_ranks.update((0, total - 1))
        for rank in sorted(r for r in edge_ranks if 0 <= r < total):
            for u in (rank / total, (rank + 0.5) / total):
                assert p.sample_site(u) == cumulative_pick(slots, u * total)

    def test_more_than_two_blocks(self):
        slots = [[(i + 1) / 400, 1 + i % 5] for i in range(300)]
        assert_picks(build(slots), slots)

    def test_emptied_slots_at_block_edges(self):
        # Low fitness marks the slots the deaths empty: both sides of the
        # edges at 64 and 128, and the last slot of the fourth block.
        emptied = {0, 63, 64, 127, 128, 255}
        slots = [[(i + 1) / 1000 if i in emptied else 0.5 + i / 1000, 2] for i in range(260)]
        p = build(slots)
        for _ in range(2 * len(emptied)):
            x, _ = p.remove_min()
            next(s for s in slots if s[0] == x)[1] -= 1
        assert p.site_count == 260 - len(emptied)
        assert_picks(p, slots)

    def test_fully_emptied_block(self):
        slots = [[(i + 1) / 1000 if 64 <= i < 128 else 0.5 + i / 1000, 1] for i in range(200)]
        p = build(slots)
        for _ in range(64):
            x, emptied = p.remove_min()
            assert emptied
            next(s for s in slots if s[0] == x)[1] = 0
        assert [k for _, k in slots[64:128]] == [0] * 64
        assert_picks(p, slots)

    @pytest.mark.parametrize("total", [63, 64, 65, 127, 128, 129, 191, 192, 193])
    def test_totals_around_block_multiples(self, total):
        # One individual per site puts each block's count at 64 exactly.
        slots = [[(i + 1) / 256, 1] for i in range(total)]
        p = build(slots)
        assert p.sample_site(0.0) == slots[0][0]
        assert p.sample_site(1 - 2**-53) == slots[-1][0]
        assert_picks(p, slots)
        # A second individual on the last site moves the total past it.
        p.insert(slots[-1][0])
        slots[-1][1] += 1
        assert_picks(p, slots)


class TestPopulationEvents:
    def test_mutant_uses_uniform_as_fitness(self):
        pop = simulate_population(GROWING, SimConfig(horizon=10.0, seed=6, max_events=1))
        assert pop.partition.sites() == [(rng_for(6, 0, 1).random(), 1)]

    def test_clone_reinforces_proportionally(self):
        pop = simulate_population(GROWING, SimConfig(horizon=30.0, seed=4), f=0.5)
        sites, rows = reference_replay(pop.path, rng_for(4, 0, 1), 0.5)
        assert pop.partition.site_count < pop.partition.total
        assert pop.partition.sites() == sites
        assert np.array_equal(pop.lr_trajectory, rows)

    def test_replay_past_256_slots(self):
        # Each mutant opens a slot, so the tree has three levels.
        pop = simulate_population(GROWING, SimConfig(horizon=200.0, seed=7), f=0.5)
        assert pop.path.events.counts()[0] > 256
        sites, rows = reference_replay(pop.path, rng_for(7, 0, 1), 0.5)
        assert pop.partition.sites() == sites
        assert np.array_equal(pop.lr_trajectory, rows)

    def test_clone_into_empty_is_fresh(self):
        pop = simulate_population(DYING, SimConfig(horizon=40.0, seed=1), f=0.5)
        marks = pop.path.events.marks
        steps = np.where(marks == Mark.DEATH, -1, 1)
        n_before = np.cumsum(steps) - steps
        assert np.any((marks[1:] == Mark.CLONE) & (n_before[1:] == 0))
        sites, _ = reference_replay(pop.path, rng_for(1, 0, 1), 0.5)
        assert pop.partition.sites() == sites

    def test_death_outcome(self):
        # L drops at a death exactly when the lowest site is at f or below.
        pop = simulate_population(DYING, SimConfig(horizon=40.0, seed=1), f=0.5)
        _, rows = reference_replay(pop.path, rng_for(1, 0, 1), 0.5)
        assert np.array_equal(pop.lr_trajectory, rows)

    def test_death_on_empty_rejected(self):
        with pytest.raises(ValueError):
            FitnessPartition().remove_min()


class TestObservables:
    def test_left_right_counts(self):
        pop = simulate_population(GROWING, SimConfig(horizon=100.0, seed=2), f=0.5)
        t, left, right, n = pop.lr_trajectory[-1]
        sites = pop.partition.sites()
        assert left == sum(k for x, k in sites if x <= 0.5)
        assert right == sum(k for x, k in sites if x > 0.5)

    def test_left_right_empty(self):
        pop = simulate_population(KernelBank.poisson((1e-3, 1e-3, 1e-3)),
                                  SimConfig(horizon=0.01, seed=1), f=0.5)
        assert len(pop.path.events) == 0
        assert pop.lr_trajectory.tolist() == [[0.0, 0.0, 0.0, 0.0]]

    def test_boundary_site_counts_left(self):
        config = SimConfig(horizon=10.0, seed=6, max_events=1)
        f = rng_for(6, 0, 1).random()
        pop = simulate_population(GROWING, config, f=f)
        assert pop.lr_trajectory[-1, 1:].tolist() == [1.0, 0.0, 1.0]

    def test_empirical_cdf(self):
        # A one-run sweep's CDF is the fraction of the run's sites at or below f.
        f_grid = np.linspace(0.0, 1.0, 11)
        sweep = phase_transition_sweep(GROWING, f_grid, 30.0, 1, seed=5)
        xs = [x for x, _ in simulate_population(GROWING, SimConfig(horizon=30.0, seed=5))
              .partition.sites()]
        assert sweep.avg_cdf.tolist() == [sum(x <= f for x in xs) / len(xs) for f in f_grid]

    def test_sweep_needs_one_run(self):
        with pytest.raises(ValueError, match="n_runs"):
            phase_transition_sweep(GROWING, np.linspace(0.0, 1.0, 11), 30.0, 0, seed=5)

    @pytest.mark.parametrize("kw", [
        {"f_grid": [0.0, 0.5, 1.5]},
        {"f_grid": [0.0, float("nan")]},
        {"f_grid": [0.0, 0.5], "f_reference": -0.25},
        {"f_grid": []},
    ], ids=["grid_above_one", "grid_nan", "reference_below_zero", "grid_empty"])
    def test_sweep_fitness_rejected_before_any_run(self, kw):
        # Every run was once simulated before theoretical_site_cdf refused
        # the point, and no point was refused when both critical fitnesses
        # were >= 1; 10^6 runs would take minutes before a late check.
        name = "f_reference" if "f_reference" in kw else "f_grid"
        with pytest.raises(ValueError, match=name):
            phase_transition_sweep(GROWING, kw["f_grid"], 30.0, 10**6, seed=5,
                                   f_reference=kw.get("f_reference"))

    def test_theoretical_cdf(self):
        assert theoretical_site_cdf(0.3, 0.5) == 0.0
        assert theoretical_site_cdf(1.0, 0.5) == 1.0
        assert theoretical_site_cdf(0.75, 0.5) == 0.5

    def test_theoretical_cdf_domain(self):
        with pytest.raises(ValueError):
            theoretical_site_cdf(0.5, 1.0)


class TestPopulationSimulation:
    def test_partition_matches_engine_population(self):
        pop = simulate_population(GROWING, SimConfig(horizon=50.0, seed=8), f=0.5)
        n1, n2, n3 = pop.path.events.counts()
        assert pop.partition.total == n1 + n2 - n3
        t, l, r, n = pop.lr_trajectory[-1]
        assert l + r == n == pop.partition.total
        assert np.all(pop.lr_trajectory[:, 1] + pop.lr_trajectory[:, 2]
                      == pop.lr_trajectory[:, 3])

    def test_deterministic(self):
        a = simulate_population(GROWING, SimConfig(horizon=20.0, seed=3), f=0.4)
        b = simulate_population(GROWING, SimConfig(horizon=20.0, seed=3), f=0.4)
        assert np.array_equal(a.lr_trajectory, b.lr_trajectory)
        assert a.partition.sites() == b.partition.sites()

    def test_snapshots_on_grid(self):
        pop = simulate_population(GROWING, SimConfig(horizon=10.0, seed=5),
                                  snapshot_grid=[0.0, 5.0, 10.0])
        assert [t for t, _ in pop.snapshots] == [0.0, 5.0, 10.0]
        assert pop.snapshots[0][1] == []
        assert sum(k for _, k in pop.snapshots[-1][1]) <= pop.partition.total

    def test_no_snapshot_past_a_capped_path(self):
        # A capped path ends at its last event; the grid times after it
        # once all got the final partition.
        pop = simulate_population(GROWING, SimConfig(horizon=10.0, seed=5, max_events=8),
                                  snapshot_grid=np.linspace(0.0, 10.0, 41))
        assert pop.path.capped and pop.path.elapsed < 9.0
        times = [t for t, _ in pop.snapshots]
        assert times == [t for t in np.linspace(0.0, 10.0, 41).tolist() if t <= pop.path.elapsed]

    @pytest.mark.parametrize("grid", [[5.0, 1.0], [0.0, float("nan")], [-1.0, 0.0, 5.0]],
                             ids=["unsorted", "nan", "negative"])
    def test_snapshot_grid_must_be_finite_and_non_decreasing(self, grid):
        # The snapshots are taken in one forward pass: an unsorted grid once
        # labelled the t = 1 snapshot with the partition at t = 5.
        with pytest.raises(ValueError, match="snapshot_grid"):
            simulate_population(GROWING, SimConfig(horizon=10.0, seed=5), snapshot_grid=grid)


    @pytest.mark.parametrize("f", [-0.1, 1.5, float("nan")])
    def test_fitness_out_of_range_rejected_before_the_path(self, f, monkeypatch):
        # f = nan once gave L = 0 throughout the L/R trajectory.
        def no_path(*args):
            raise AssertionError("the path ran before f was checked")

        monkeypatch.setattr("hawkes_evolve.population.simulate", no_path)
        with pytest.raises(ValueError, match="f must be in"):
            simulate_population(GROWING, SimConfig(horizon=10.0, seed=5), f=f)


class TestEpsilonChain:
    def test_epsilon_endpoints_decide_clone_side(self):
        config = SimConfig(horizon=40.0, seed=2)
        marks = simulate_population(GROWING, config).path.events.marks.tolist()
        for eps, col in ((1.0, 1), (0.0, 2)):
            traj = simulate_epsilon_chain(GROWING, 0.5, eps, config)
            saw_case = False
            for k, mark in enumerate(marks):
                l_prev, r_prev = traj[k, 1], traj[k, 2]
                if mark == Mark.CLONE and l_prev > 0 and r_prev > 0:
                    saw_case = True
                    assert traj[k + 1, col] == traj[k, col] + 1
            assert saw_case

    def test_mass_conservation(self):
        traj = simulate_epsilon_chain(GROWING, 0.5, 0.3, SimConfig(horizon=40.0, seed=2))
        path = simulate_population(GROWING, SimConfig(horizon=40.0, seed=2))
        n1, n2, n3 = path.path.events.counts()
        assert traj[-1, 1] + traj[-1, 2] == n1 + n2 - n3

    def test_coupling_monotone_few_seeds(self):
        config = lambda s: SimConfig(horizon=30.0, seed=s)
        for seed in range(5):
            l0 = simulate_epsilon_chain(GROWING, 0.5, 0.0, config(seed))[:, 1]
            l1 = simulate_epsilon_chain(GROWING, 0.5, 0.5, config(seed))[:, 1]
            l2 = simulate_epsilon_chain(GROWING, 0.5, 1.0, config(seed))[:, 1]
            assert np.all(l0 <= l1) and np.all(l1 <= l2)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            simulate_epsilon_chain(GROWING, 0.0, 0.5, SimConfig(horizon=1.0, seed=1))
        with pytest.raises(ValueError):
            simulate_epsilon_chain(GROWING, 0.5, 1.5, SimConfig(horizon=1.0, seed=1))


class TestRhoLimit:
    def test_poisson_example(self):
        assert rho_limit(GROWING, 0.75, 0.0) == pytest.approx(0.25)

    def test_unit_endpoint(self):
        assert rho_limit(GROWING, 1.0, 1.0) == pytest.approx(1.0)

    def test_zero_at_critical_fitness(self):
        assert rho_limit(GROWING, 0.5, 0.0) == pytest.approx(0.0)

    def test_shrinking_population_rejected(self):
        with pytest.raises(ValueError):
            rho_limit(KernelBank.poisson((1.0, 1.0, 3.0)), 0.5, 0.5)
