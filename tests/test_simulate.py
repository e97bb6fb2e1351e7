import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.integrate import quad

from hawkes_evolve import (
    EventLog,
    IntensityState,
    KernelBank,
    Mark,
    SimConfig,
    SimPath,
    UnsupportedKernelError,
    expected_intensity_paper,
    rng_for,
    sample_mark,
    shot_noise_from_history,
    simulate,
    simulate_markov,
    simulate_markov_batch,
    simulate_thinning_general,
    time_rescale_residuals,
)
from hawkes_evolve.simulate import BATCH_BLOCK, batch_blocks

HAWKES_BANK = KernelBank.exponential(
    (1.0, 0.8, 1.2), ((0.4, 0.6), (0.2, 0.3)), (1.0, 1.5), 0.4, 1.0)
CROSS_BANK = KernelBank.exponential(
    (1.0, 0.8, 1.2), ((0.4, 0.6), (0.4, 0.6)), (1.0, 1.5), 0.4, 1.0)


class TestSimConfig:
    def test_horizon_positive(self):
        with pytest.raises(ValueError):
            SimConfig(horizon=0.0, seed=1)

    def test_engine_name_checked(self):
        with pytest.raises(ValueError):
            SimConfig(horizon=1.0, seed=1, engine="exact")


class TestSampleMark:
    def test_single_component(self):
        assert sample_mark(1.0, 0.0, 0.0, 0.99) is Mark.MUTANT

    def test_cumulative_thresholds(self):
        assert sample_mark(1.0, 1.0, 2.0, 0.75) is Mark.DEATH
        assert sample_mark(1.0, 1.0, 2.0, 0.3) is Mark.CLONE
        assert sample_mark(1.0, 1.0, 2.0, 0.1) is Mark.MUTANT

    def test_death_only(self):
        assert sample_mark(0.0, 0.0, 3.0, 0.1) is Mark.DEATH

    def test_zero_total_rejected(self):
        with pytest.raises(ValueError):
            sample_mark(0.0, 0.0, 0.0, 0.5)

    def test_u_out_of_range(self):
        with pytest.raises(ValueError):
            sample_mark(1.0, 0.0, 0.0, 1.0)


class TestRngStreams:
    def test_deterministic(self):
        assert rng_for(42, 3).random() == rng_for(42, 3).random()

    def test_streams_differ(self):
        assert rng_for(42, 0).random() != rng_for(42, 1).random()


class TestMarkovEngine:
    def test_deterministic_replay(self):
        config = SimConfig(horizon=30.0, seed=11)
        a = simulate_markov(HAWKES_BANK, config)
        b = simulate_markov(HAWKES_BANK, config)
        assert a.events.events == b.events.events
        assert a.final_state == b.final_state

    def test_first_event_is_mutant(self):
        for seed in range(10):
            path = simulate_markov(HAWKES_BANK, SimConfig(horizon=5.0, seed=seed))
            if path.events:
                assert path.events.events[0].mark is Mark.MUTANT

    def test_population_never_negative(self):
        path = simulate_markov(KernelBank.poisson((1.0, 1.0, 3.0)),
                               SimConfig(horizon=200.0, seed=3))
        n = 0
        for ev in path.events:
            n += -1 if ev.mark is Mark.DEATH else 1
            assert n >= 0

    def test_zero_occupation_positive_when_deaths_dominate(self):
        path = simulate_markov(KernelBank.poisson((1.0, 1.0, 30.0)),
                               SimConfig(horizon=100.0, seed=5))
        assert 0 < path.zero_occupation_time < 100.0

    def test_poisson_count_rate(self):
        path = simulate_markov(KernelBank.poisson((2.0, 1.0, 1.0)),
                               SimConfig(horizon=2000.0, seed=9))
        n1 = path.events.counts()[0]
        # Poisson(2T): 4 sigma band around the mean.
        assert abs(n1 - 4000) < 4 * math.sqrt(4000)

    def test_explosion_cap_flags_path(self):
        explosive = KernelBank.exponential(
            (1.0, 1.0, 1.0), ((4.0, 0.0), (0.0, 0.0)), (1.0, 2.0), 0.0, 1.0)
        path = simulate_markov(explosive, SimConfig(horizon=200.0, seed=1,
                                                    max_events=500))
        assert path.capped and len(path.events) == 500

    def test_capped_path_leaves_nan_on_unreached_grid(self):
        grid = tuple(np.linspace(0.0, 100.0, 11))
        path = simulate(KernelBank.poisson((2.0, 1.0, 1.0)),
                        SimConfig(horizon=100.0, seed=1, max_events=20, record_grid=grid))
        assert path.capped
        stop = path.events.events[-1].time
        reached = np.asarray(grid) <= stop
        assert path.intensity_samples[0, 0] == 2.0
        assert np.all(np.isfinite(path.intensity_samples[reached]))
        assert np.all(np.isnan(path.intensity_samples[~reached]))
        assert (~reached).sum() == 10

    def test_final_state_matches_history(self):
        config = SimConfig(horizon=40.0, seed=21)
        path = simulate_markov(HAWKES_BANK, config)
        direct = shot_noise_from_history(HAWKES_BANK, path.events.events, 40.0)
        assert path.final_state.xi == pytest.approx(direct, rel=1e-9, abs=1e-12)
        assert path.final_state.clock == 40.0

    def test_intensity_recording(self):
        bank = KernelBank.poisson((2.0, 1.0, 1.0))
        grid = (0.0, 1.0, 5.0, 10.0)
        path = simulate_markov(bank, SimConfig(horizon=10.0, seed=2,
                                               record_grid=grid))
        assert path.intensity_samples.shape == (4, 4)
        assert np.allclose(path.intensity_samples[:, 0], 2.0)
        assert np.allclose(path.intensity_samples[:, 3], 1.0)
        # At t=0 the population is empty, so the gated column starts at 0.
        assert path.intensity_samples[0, 2] == 0.0


OFFSET_BANK = KernelBank.exponential(
    (1.0, 1.0, 1.0), ((0.0, 0.0), (0.0, 0.0)), (1.0, 2.0), 0.0, 1.0, death_delta=0.2)
EMPTY_PATH = SimPath(EventLog(), IntensityState(clock=1.0), 1.0)


@pytest.mark.parametrize("call", [
    lambda bank: simulate_markov(bank, SimConfig(horizon=1.0, seed=1)),
    lambda bank: simulate_thinning_general(bank, SimConfig(horizon=1.0, seed=1)),
    lambda bank: time_rescale_residuals(EMPTY_PATH, bank, 1),
    lambda bank: expected_intensity_paper(bank, 1, 1.0),
    lambda bank: simulate_markov_batch(bank, SimConfig(horizon=1.0, seed=1), 4),
], ids=["markov", "thinning", "residuals", "paper", "batch"])
def test_offset_kernels_rejected(call):
    with pytest.raises(UnsupportedKernelError):
        call(OFFSET_BANK)


class TestPinnedOutput:
    """Fixed-seed paths, with literal values to catch changes across versions."""

    @pytest.mark.parametrize("engine", ["markov", "thinning"])
    def test_hawkes_bank(self, engine):
        path = simulate(HAWKES_BANK, SimConfig(horizon=10.0, seed=7, engine=engine))
        events = path.events.events
        assert len(events) == 44
        pinned = {0: (1.2863250344709833, Mark.MUTANT), 1: (1.3298179234040737, Mark.CLONE),
                  22: (5.323367534512877, Mark.MUTANT), 43: (9.985127072758697, Mark.DEATH)}
        for k, (t, mark) in pinned.items():
            assert (events[k].time, events[k].mark) == (t, mark)
        assert path.final_state.counts == (10, 14, 20)
        assert path.final_state.xi == pytest.approx(
            (0.5626297863552189, 0.5613049451511004, 1.264399216898759), rel=1e-14)

    def test_markov_from_a_nonempty_state(self):
        start = IntensityState(xi=(0.5, 0.1, 0.7), counts=(1, 1, 2))
        path = simulate_markov(HAWKES_BANK, SimConfig(horizon=5.0, seed=3),
                               initial_state=start)
        events = path.events.events
        assert len(events) == 35
        assert [(ev.time, ev.mark) for ev in events[:3]] == [
            (0.009367904968851386, Mark.MUTANT), (0.14994442544232342, Mark.CLONE),
            (0.766748411912506, Mark.MUTANT)]
        assert (events[-1].time, events[-1].mark) == (4.892121947010064, Mark.MUTANT)
        assert path.final_state == IntensityState(
            (1.7277850452920094, 1.7797734776316363, 1.2160235722703276), (13, 12, 14), 5.0)

    @pytest.mark.parametrize("engine, pinned, xi", [
        ("markov",
         {0: 0.012490539958468513, 1: 0.19831216339363675, 700: 40.04383953131022,
          1547: 99.49984805635248},
         (0.6583137929265519, 0.48672446560451704, 0.39709560093379587)),
        ("thinning",
         {0: 0.012490539958468513, 1: 0.19831216339363675, 700: 40.0438395313103,
          1547: 99.49984805635269},
         (0.6583137929266923, 0.48672446560467264, 0.3970956009338806)),
    ])
    def test_long_cross_bank_path(self, engine, pinned, xi):
        # Long enough that each mark's history outgrows the thinning
        # engine's initial buffer at least once.
        path = simulate(CROSS_BANK, SimConfig(horizon=100.0, seed=3, engine=engine))
        events = path.events.events
        assert len(events) == 1548
        marks = {0: Mark.MUTANT, 1: Mark.CLONE, 700: Mark.MUTANT, 1547: Mark.DEATH}
        for k, t in pinned.items():
            assert (events[k].time, events[k].mark) == (t, marks[k])
        assert path.final_state == IntensityState(xi, (677, 680, 191), 100.0)
        assert path.zero_occupation_time == 0.143178666259572
        assert not path.capped


jumps = st.one_of(st.just(0.0), st.floats(0.05, 1.0))
decays = st.floats(1.0, 3.0)


@st.composite
def zero_offset_banks(draw):
    rates = st.floats(0.1, 2.0)
    return KernelBank.exponential(
        draw(st.tuples(rates, rates, rates)),
        draw(st.tuples(st.tuples(jumps, jumps), st.tuples(jumps, jumps))),
        draw(st.tuples(decays, decays)), draw(jumps), draw(decays))


# Deaths excite themselves and the mutant and clone rows differ.
SELF_EXCITING_DEATHS = KernelBank.exponential(
    (1.0, 0.8, 1.5), ((0.3, 0.2), (0.1, 0.4)), (1.0, 1.5), 0.8, 1.2)


def _batch_run(bank, config, n_paths, state=None):
    """Every block of an n_paths batched run, stacked."""
    blocks = [simulate_markov_batch(bank, config, stop - start, state, block)
              for block, start, stop in batch_blocks(n_paths)]
    return {name: np.concatenate([getattr(b, name) for b in blocks])
            for name in ("intensity_samples", "counts", "zero_occupation_time", "capped")}


class TestMarkovBatch:
    @pytest.mark.parametrize("bank, state", [
        (CROSS_BANK, None),
        (HAWKES_BANK, None),
        (SELF_EXCITING_DEATHS, None),
        (HAWKES_BANK, IntensityState(xi=(0.5, 0.1, 0.7), counts=(1, 1, 2), clock=3.0)),
    ], ids=["cross", "hawkes", "self_exciting_deaths", "hawkes_from_a_state"])
    def test_agrees_in_law_with_simulate_markov(self, bank, state):
        # Independent streams: the batch on seed 1, the scalar engine on
        # seed 2.  Two-sample KS on the final counts, and z on the grid
        # means of lambda1, lambda2, ungated lambda3 and the time at N = 0.
        n, horizon = 3000, 20.0
        t0 = 0.0 if state is None else state.clock
        grid = tuple(np.linspace(t0, t0 + horizon, 11))
        batch = _batch_run(bank, SimConfig(horizon=horizon, seed=1, record_grid=grid), n,
                           state)
        config = SimConfig(horizon=horizon, seed=2, record_grid=grid)
        paths = [simulate_markov(bank, config, path_index=i, initial_state=state)
                 for i in range(n)]
        counts = np.array([p.final_state.counts for p in paths])
        for i in range(3):
            assert stats.ks_2samp(batch["counts"][:, i], counts[:, i]).pvalue > 0.01

        def z(a, b):
            se = np.sqrt(a.var(axis=0, ddof=1) / len(a) + b.var(axis=0, ddof=1) / len(b))
            return (a.mean(axis=0) - b.mean(axis=0)) / se

        samples = np.array([p.intensity_samples for p in paths])
        cols = [0, 1, 3]
        assert np.max(np.abs(z(batch["intensity_samples"][:, 1:, cols],
                               samples[:, 1:, cols]))) < 4.0
        zero = np.array([p.zero_occupation_time for p in paths])
        assert abs(z(batch["zero_occupation_time"], zero)) < 4.0
        assert not batch["capped"].any()

    def test_capped_paths_stop_at_max_events(self):
        grid = tuple(np.linspace(0.0, 100.0, 101))
        batch = simulate_markov_batch(
            CROSS_BANK, SimConfig(horizon=100.0, seed=4, max_events=30, record_grid=grid), 500)
        assert batch.capped.all()
        assert (batch.counts.sum(axis=1) == 30).all()
        assert (batch.clock < 100.0).all()
        reached = np.asarray(grid)[None, :] <= batch.clock[:, None]
        assert np.isfinite(batch.intensity_samples[reached]).all()
        assert np.isnan(batch.intensity_samples[~reached]).all()

    def test_first_event_is_a_mutant(self):
        # One event per path: a clone cannot open an empty path, and a
        # death cannot happen at N = 0.
        batch = simulate_markov_batch(HAWKES_BANK, SimConfig(horizon=100.0, seed=5,
                                                             max_events=1), 1000)
        assert batch.capped.all()
        assert (batch.counts == (1, 0, 0)).all()
        (k11, k12), _ = HAWKES_BANK.birth_kernels
        assert np.allclose(batch.xi, (k11.alpha, k12.alpha, 0.0))

    def test_final_state_and_grid_of_the_poisson_bank(self):
        bank = KernelBank.poisson((2.0, 1.0, 1.0))
        grid = (0.0, 1.0, 5.0, 10.0)
        batch = simulate_markov_batch(bank, SimConfig(horizon=10.0, seed=2, record_grid=grid),
                                      200)
        assert (batch.clock == 10.0).all() and not batch.capped.any()
        assert (batch.xi == 0.0).all()
        samples = batch.intensity_samples
        assert (samples[:, :, 0] == 2.0).all() and (samples[:, :, 3] == 1.0).all()
        # The gated column starts at 0 on the empty population.
        assert (samples[:, 0, 2] == 0.0).all()
        n = batch.counts[:, 0] + batch.counts[:, 1] - batch.counts[:, 2]
        assert (n >= 0).all()
        assert (samples[:, -1, 2] == np.where(n > 0, 1.0, 0.0)).all()

    def test_zero_occupation_stops_at_the_horizon(self):
        bank = KernelBank.poisson((0.01, 0.01, 1.0))
        batch = simulate_markov_batch(bank, SimConfig(horizon=5.0, seed=6), 300)
        empty = batch.counts.sum(axis=1) == 0
        assert empty.sum() > 200
        assert (batch.zero_occupation_time[empty] == 5.0).all()
        assert (batch.zero_occupation_time[~empty] < 5.0).all()

    def test_blocks_are_reproducible_and_distinct(self):
        config = SimConfig(horizon=5.0, seed=3)
        a, b = (simulate_markov_batch(HAWKES_BANK, config, 50, block=0) for _ in range(2))
        c = simulate_markov_batch(HAWKES_BANK, config, 50, block=1)
        assert np.array_equal(a.counts, b.counts) and np.array_equal(a.xi, b.xi)
        assert not np.array_equal(a.counts, c.counts)

    def test_block_size_enforced(self):
        config = SimConfig(horizon=1.0, seed=1)
        for n in (0, BATCH_BLOCK + 1):
            with pytest.raises(ValueError):
                simulate_markov_batch(HAWKES_BANK, config, n)


class TestThinningEngine:
    def test_matches_markov_distribution_cheaply(self):
        # Full cross-engine statistics live in the acceptance suite; here a
        # light sanity check that counts land in the same ballpark.
        config = lambda s, e: SimConfig(horizon=20.0, seed=s, engine=e)
        m = np.mean([simulate(HAWKES_BANK, config(s, "markov")).events.counts()[0]
                     for s in range(40)])
        t = np.mean([simulate(HAWKES_BANK, config(s, "thinning")).events.counts()[0]
                     for s in range(40, 80)])
        assert abs(m - t) / m < 0.35

    def test_deterministic_replay(self):
        config = SimConfig(horizon=15.0, seed=4, engine="thinning")
        a = simulate(HAWKES_BANK, config)
        b = simulate(HAWKES_BANK, config)
        assert a.events.events == b.events.events

    @settings(max_examples=25, deadline=None)
    @given(bank=zero_offset_banks(), seed=st.integers(0, 2**16))
    def test_samples_are_the_direct_kernel_sums(self, bank, seed):
        # Distinct mutant and clone rows: a swap of a kernel's source and
        # target would change the sums.
        assume(bank.birth_kernels[0] != bank.birth_kernels[1])
        grid = tuple(np.linspace(0.0, 5.0, 11))
        path = simulate_thinning_general(bank, SimConfig(horizon=5.0, seed=seed, max_events=400,
                                                         record_grid=grid))
        events = path.events.events
        for g, row in zip(grid, path.intensity_samples):
            if np.isnan(row[0]):
                break
            direct = np.add(bank.base_rates, shot_noise_from_history(bank, events, g))
            assert row[[0, 1, 3]] == pytest.approx(direct, rel=1e-12)
        direct = shot_noise_from_history(bank, events, path.final_state.clock)
        assert path.final_state.xi == pytest.approx(direct, rel=1e-12)


class TestTimeRescaling:
    def test_empty_path(self):
        bank = KernelBank.poisson((0.001, 0.001, 0.001))
        path = simulate_markov(bank, SimConfig(horizon=0.01, seed=1))
        assert time_rescale_residuals(path, bank, 1).size == 0

    def test_poisson_residuals_unit_exponential(self):
        bank = KernelBank.poisson((2.0, 1.0, 1.0))
        path = simulate_markov(bank, SimConfig(horizon=2000.0, seed=13))
        res = time_rescale_residuals(path, bank, 1)
        assert res.size > 1000
        assert stats.kstest(res, "expon").pvalue > 0.01

    def test_hawkes_residuals_unit_exponential(self):
        path = simulate_markov(HAWKES_BANK, SimConfig(horizon=150.0, seed=17))
        for i in (1, 2, 3):
            res = time_rescale_residuals(path, HAWKES_BANK, i)
            assert res.size > 50
            assert stats.kstest(res, "expon").pvalue > 0.01

    def test_residuals_are_integrals_of_the_direct_sums(self):
        # Each residual integrates lambda0_i + xi_i between two events of
        # process i; here xi_i is the defining kernel sum, integrated by
        # quadrature, and deaths count only while N > 0.
        path = simulate_markov(HAWKES_BANK, SimConfig(horizon=20.0, seed=17))
        events = path.events.events
        for i in (1, 2, 3):
            lam0 = HAWKES_BANK.base_rates[i - 1]
            rate = lambda u: lam0 + shot_noise_from_history(HAWKES_BANK, events, u)[i - 1]
            expected, acc, t, n = [], 0.0, 0.0, 0
            for ev in events:
                if i < 3 or n > 0:
                    acc += quad(rate, t, ev.time, epsabs=1e-13, epsrel=1e-13)[0]
                if ev.mark == i:
                    expected.append(acc)
                    acc = 0.0
                n += -1 if ev.mark is Mark.DEATH else 1
                t = ev.time
            res = time_rescale_residuals(path, HAWKES_BANK, i)
            assert len(expected) > 10
            assert res == pytest.approx(expected, rel=1e-10)

    def test_residuals_start_from_the_start_state(self):
        # From a late clock and large shot noise, the first residual of
        # each path covers only the time since the start.
        start = IntensityState(xi=(8.0, 8.0, 8.0), counts=(5, 5, 0), clock=100.0)
        first = []
        for seed in range(400):
            path = simulate_markov(HAWKES_BANK, SimConfig(horizon=3.0, seed=seed),
                                   initial_state=start)
            assert path.start == start
            res = time_rescale_residuals(path, HAWKES_BANK, 1)
            if res.size:
                first.append(res[0])
        assert len(first) > 300
        assert stats.kstest(first, "expon").pvalue > 0.01

    def test_index_validated(self):
        path = simulate_markov(HAWKES_BANK, SimConfig(horizon=1.0, seed=1))
        with pytest.raises(ValueError):
            time_rescale_residuals(path, HAWKES_BANK, 4)
