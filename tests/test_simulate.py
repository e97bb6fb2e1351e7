import hashlib
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.integrate import quad
from scipy.linalg import expm

from hawkes_evolve import (
    IntensityState,
    KernelBank,
    Mark,
    SimConfig,
    bank_to_json,
    intensities_at,
    rng_for,
    simulate,
    simulate_markov,
    simulate_markov_batch,
    simulate_thinning_general,
    time_rescale_residuals,
)
from hawkes_evolve.cli import run
from hawkes_evolve.simulate import BATCH_BLOCK, _History

HAWKES_BANK = KernelBank.exponential(
    (1.0, 0.8, 1.2), ((0.4, 0.6), (0.2, 0.3)), (1.0, 1.5), 0.4, 1.0)
CROSS_BANK = KernelBank.exponential(
    (1.0, 0.8, 1.2), ((0.4, 0.6), (0.4, 0.6)), (1.0, 1.5), 0.4, 1.0)


def shot_noise_from_history(bank, events, t):
    """Shot noise at time t by direct summation over the events up to t.

    This is the defining representation, a per-event loop, and the
    oracle for both engines' shot noise.
    """
    xi = [0.0, 0.0, 0.0]
    for time, mark in zip(events.times.tolist(), events.marks.tolist()):
        if time > t:
            break
        for i, (alpha, beta) in enumerate(zip(bank.jumps[mark - 1], bank.betas)):
            xi[i] += alpha * math.exp(-beta * (t - time))
    return tuple(xi)


def block_draws(seed):
    """The scalar loop's draws from path 0's stream, as (exponentials, uniforms) blocks.

    Block sizes k are 64, 128, ..., 4096, then 4096 for ever; a block is
    k standard exponentials followed by 2k uniforms.
    """
    rng = rng_for(seed, 0)
    for k in itertools.chain([64, 128, 256, 512, 1024, 2048], itertools.repeat(4096)):
        yield rng.standard_exponential(k).tolist(), rng.random(2 * k).tolist()


def reference_path(bank, horizon, seed):
    """The Markov engine's path written one draw at a time: (times, marks, candidates).

    Each candidate takes the next exponential of the current block, then
    one uniform to accept it and, if accepted, the next to pick its mark.
    When a block's exponentials run out, the next block starts and the
    uniforms left in the old one are dropped.
    """
    mu, betas, jumps = bank.base_rates, bank.betas, bank.jumps
    blocks = block_draws(seed)
    exps, uniforms = [], []

    def exponential():
        nonlocal exps, uniforms
        if not exps:
            exps, uniforms = (list(reversed(b)) for b in next(blocks))
        return exps.pop()

    x, t_last, n, t = (0.0, 0.0, 0.0), 0.0, 0, 0.0
    times, marks, candidates = [], [], 0

    def intensities(t):
        xi = tuple(a * math.exp(-b * (t - t_last)) for a, b in zip(x, betas))
        return xi, (mu[0] + xi[0], mu[1] + xi[1], mu[2] + xi[2] if n > 0 else 0.0)

    _, (l1, l2, l3) = intensities(t)
    while True:
        bound = l1 + l2 + l3
        candidates += 1
        t = t + exponential() / bound
        if t >= horizon:
            return times, marks, candidates
        xi, (l1, l2, l3) = intensities(t)
        total = l1 + l2 + l3
        if uniforms.pop() * bound < total:
            v = uniforms.pop() * total
            mark = 1 if v < l1 else 2 if v < l1 + l2 else 3
            x, t_last = tuple(a + j for a, j in zip(xi, jumps[mark - 1])), t
            n += -1 if mark == 3 else 1
            times.append(t)
            marks.append(mark)
            _, (l1, l2, l3) = intensities(t)


class TestSimConfig:
    def test_horizon_positive(self):
        with pytest.raises(ValueError):
            SimConfig(horizon=0.0, seed=1)

    @pytest.mark.parametrize("horizon", [math.nan, math.inf], ids=["nan", "inf"])
    def test_horizon_finite(self, horizon):
        # A NaN horizon once ran every path to max_events.
        with pytest.raises(ValueError, match="horizon"):
            SimConfig(horizon=horizon, seed=1)

    @pytest.mark.parametrize("field, value", [
        ("seed", -1), ("seed", 1.5), ("seed", "7"),
        ("max_events", 0), ("max_events", 2.5), ("max_events", -3),
    ], ids=["negative_seed", "fractional_seed", "string_seed", "zero_cap", "fractional_cap",
            "negative_cap"])
    def test_seed_and_cap_are_integers(self, field, value):
        # A fractional seed once raised a TypeError only when the first path
        # started, and max_events = 2.5 capped a path at 3 events.
        with pytest.raises(ValueError, match=field):
            SimConfig(**{"horizon": 1.0, "seed": 1, field: value})

    def test_numpy_integers_accepted(self):
        config = SimConfig(horizon=1.0, seed=np.int64(3), max_events=np.int32(5))
        assert simulate_markov(CROSS_BANK, config).events.counts() == simulate_markov(
            CROSS_BANK, SimConfig(horizon=1.0, seed=3, max_events=5)).events.counts()

    def test_engine_name_checked(self):
        with pytest.raises(ValueError):
            SimConfig(horizon=1.0, seed=1, engine="exact")

    @pytest.mark.parametrize("grid", [(5.0, 1.0, 3.0), (0.0, float("nan"), 2.0),
                                      (0.0, 1.0, float("inf")), (-1.0, 0.0, 2.0), (-1e-300,),
                                      ((0.0, 5.0), (1.0, 2.0)), 0.5],
                             ids=["unsorted", "nan", "inf", "negative", "tiny_negative",
                                  "2d", "0d"])
    def test_record_grid_must_be_finite_and_non_decreasing(self, grid):
        # An unsorted grid once read the shot noise before the path's last
        # event: lambda1 = 36.2 at t = 1 on CROSS_BANK, seed 1, against 4.38.
        # A 2-D grid, its rows each sorted, was read flattened: lambda1 =
        # 79.7 at t = 1 against 3.14.  Every path starts at t = 0, so a
        # negative time has no state to read.
        config = SimConfig(horizon=10.0, seed=1)
        with pytest.raises(ValueError, match="record_grid"):
            simulate_markov_batch(CROSS_BANK, config, 4, record_grid=grid)
        with pytest.raises(ValueError, match="record_grid"):
            intensities_at(simulate(CROSS_BANK, config), CROSS_BANK, grid)

    @pytest.mark.parametrize("engine", ["markov", "thinning", "batch"])
    def test_repeated_grid_points_accepted(self, engine):
        # Points at 0 read the start state; a repeated point reads the same
        # intensities twice.  The batch has no gated lambda3 column.
        config = SimConfig(horizon=5.0, seed=6, engine=engine.replace("batch", "markov"))
        grid = (0.0, 0.0, 2.0, 2.0, 4.0)
        start = [*CROSS_BANK.base_rates[:2], 0.0, CROSS_BANK.base_rates[2]]
        if engine == "batch":
            samples = simulate_markov_batch(CROSS_BANK, config, 4,
                                            record_grid=grid).intensity_samples[:, :, 0]
            del start[2]
        else:
            samples = intensities_at(simulate(CROSS_BANK, config), CROSS_BANK, grid)
        assert samples[0].tolist() == samples[1].tolist() == start
        assert samples[2].tolist() == samples[3].tolist()
        assert np.isfinite(samples).all()


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
        assert np.array_equal(a.events.times, b.events.times)
        assert np.array_equal(a.events.marks, b.events.marks)
        assert a.final_state == b.final_state

    def test_first_event_is_a_birth_in_the_base_rate_ratio(self):
        # On an empty start the first event is a mutant or a clone birth
        # with odds mu1 : mu2, never a death, and it jumps xi by its row.
        mu1, mu2, _ = HAWKES_BANK.base_rates
        mutants = 0
        for seed in range(2000):
            path = simulate_markov(HAWKES_BANK, SimConfig(horizon=100.0, seed=seed,
                                                          max_events=1))
            assert path.capped
            mark = int(path.events.marks[0])
            assert mark in (Mark.MUTANT, Mark.CLONE)
            assert path.final_state.xi == HAWKES_BANK.jumps[mark - 1]
            mutants += mark == Mark.MUTANT
        assert stats.binomtest(mutants, 2000, mu1 / (mu1 + mu2)).pvalue > 1e-4

    def test_population_never_negative(self):
        path = simulate_markov(KernelBank.poisson((1.0, 1.0, 3.0)),
                               SimConfig(horizon=200.0, seed=3))
        n = 0
        for mark in path.events.marks.tolist():
            n += -1 if mark == Mark.DEATH else 1
            assert n >= 0

    def test_zero_occupation_positive_when_deaths_dominate(self):
        path = simulate_markov(KernelBank.poisson((1.0, 1.0, 30.0)),
                               SimConfig(horizon=100.0, seed=5))
        assert 0 < path.zero_occupation_time < 100.0

    def test_zero_occupation_stops_at_the_horizon(self):
        # A path with no event spends the whole horizon at N = 0, and no more.
        bank = KernelBank.poisson((0.01, 0.01, 1.0))
        paths = [simulate_markov(bank, SimConfig(horizon=5.0, seed=6), i) for i in range(300)]
        empty = [p for p in paths if len(p.events) == 0]
        assert len(empty) > 200
        assert all(p.zero_occupation_time == 5.0 for p in empty)
        assert all(p.zero_occupation_time < 5.0 for p in paths if len(p.events))

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

    def test_event_log_memory_per_event(self):
        # Two growable buffers and one array copy of them: the traced peak
        # of a 20,000-event path stays under 40 bytes per event.
        bank = KernelBank.poisson((20.0, 10.0, 10.0))
        config = SimConfig(horizon=10_000.0, seed=1, max_events=20_000)
        simulate_markov(bank, SimConfig(horizon=1.0, seed=1))
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            path = simulate_markov(bank, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.capped and len(path.events) == 20_000
        assert peak / 20_000 < 40

    def test_capped_path_leaves_nan_on_unreached_grid(self):
        grid = tuple(np.linspace(0.0, 100.0, 11))
        bank = KernelBank.poisson((2.0, 1.0, 1.0))
        path = simulate(bank, SimConfig(horizon=100.0, seed=1, max_events=20))
        samples = intensities_at(path, bank, grid)
        assert path.capped
        stop = path.events.times[-1]
        reached = np.asarray(grid) <= stop
        assert samples[0, 0] == 2.0
        assert np.all(np.isfinite(samples[reached]))
        assert np.all(np.isnan(samples[~reached]))
        assert (~reached).sum() == 10

    def test_elapsed_counts_from_the_start_clock(self):
        # A path starts empty at t = 0, and ends at the horizon, or at its
        # last event when capped.
        path = simulate_markov(HAWKES_BANK, SimConfig(horizon=3.0, seed=1))
        assert path.elapsed == 3.0
        assert 0 < path.zero_occupation_time <= path.elapsed
        capped = simulate_markov(CROSS_BANK, SimConfig(horizon=100.0, seed=1, max_events=5))
        assert capped.capped and capped.elapsed == capped.events.times[-1] < 100.0

    def test_final_state_matches_history(self):
        config = SimConfig(horizon=40.0, seed=21)
        path = simulate_markov(HAWKES_BANK, config)
        direct = shot_noise_from_history(HAWKES_BANK, path.events, 40.0)
        assert path.final_state.xi == pytest.approx(direct, rel=1e-9, abs=1e-12)
        assert path.elapsed == 40.0

    def test_intensity_recording(self):
        bank = KernelBank.poisson((2.0, 1.0, 1.0))
        grid = (0.0, 1.0, 5.0, 10.0)
        samples = intensities_at(simulate_markov(bank, SimConfig(horizon=10.0, seed=2)),
                                 bank, grid)
        assert samples.shape == (4, 4)
        assert np.allclose(samples[:, 0], 2.0)
        assert np.allclose(samples[:, 3], 1.0)
        # At t=0 the population is empty, so the gated column starts at 0.
        assert samples[0, 2] == 0.0


class TestBlockDraws:
    def test_every_refill_matches_the_one_draw_reference(self):
        # Blocks of 64, 128, ..., 4096 end after 8128 candidates; with the
        # size capped at 4096 the next refills come after 12224 and 16320.
        # A draw reused or skipped at any refill shifts every later event.
        path = simulate_markov(CROSS_BANK, SimConfig(horizon=1500.0, seed=11))
        times, marks, candidates = reference_path(CROSS_BANK, 1500.0, seed=11)
        assert candidates > 16320
        assert path.events.times.tolist() == times
        assert path.events.marks.tolist() == marks

    @pytest.mark.parametrize("engine", ["markov", "thinning"])
    @pytest.mark.parametrize("max_events", [63, 64, 65, 192, 193])
    def test_capped_path_is_a_prefix(self, engine, max_events):
        # On a Poisson bank every candidate is an event, so these caps sit
        # at and around the refills after 64 and 192 candidates.
        bank = KernelBank.poisson((2.0, 1.0, 1.0))
        full = simulate(bank, SimConfig(horizon=100.0, seed=8, engine=engine)).events
        path = simulate(bank, SimConfig(horizon=100.0, seed=8, engine=engine,
                                        max_events=max_events))
        assert len(full) > 193
        assert path.capped and len(path.events) == max_events
        assert np.array_equal(path.events.times, full.times[:max_events])
        assert np.array_equal(path.events.marks, full.marks[:max_events])
        assert path.elapsed == full.times[max_events - 1]
        assert path.final_state.counts == tuple(full.counts(path.elapsed))


# A bank file whose death kernel carries a constant offset of 0.2.
OFFSET_BANK_FILE = bank_to_json(KernelBank.poisson((1.0, 1.0, 1.0))).replace(
    '"delta": 0.0\n  }\n}', '"delta": 0.2\n  }\n}')


@pytest.mark.parametrize("argv", [
    ["simulate", "--engine", "markov", "--horizon", "1"],
    ["simulate", "--engine", "thinning", "--horizon", "1"],
    ["gof", "--horizon", "1"],
    ["expect", "--method", "paper"],
    ["generator-check", "--reps", "4"],
], ids=["markov", "thinning", "residuals", "paper", "batch"])
def test_offset_kernels_rejected(argv, tmp_path, capsys):
    # No engine takes an offset: each route's bank file is refused when
    # read, before --out is created.
    path = tmp_path / "bank.json"
    path.write_text(OFFSET_BANK_FILE)
    out = tmp_path / "out"
    assert run(argv + ["--bank", str(path), "--out", str(out)]) == 2
    assert "death_kernel delta must be 0" in capsys.readouterr().err
    assert not out.exists()


class TestPinnedOutput:
    """Fixed-seed paths, with literal values to catch changes across versions."""

    @pytest.mark.parametrize("engine, pinned, xi", [
        ("markov",
         {0: 1.2863250344709833, 1: 1.4333660335096217, 18: 5.252029900185111,
          36: 9.854296418894323},
         (1.7317640031093693, 1.8936488657659314, 0.04568074544503653)),
        ("thinning",
         {0: 1.2863250344709833, 1: 1.4333660335096217, 18: 5.252029900185112,
          36: 9.854296418894325},
         (1.7317640031093722, 1.893648865765937, 0.04568074544503656)),
    ], ids=["markov", "thinning"])
    def test_hawkes_bank(self, engine, pinned, xi):
        path = simulate(HAWKES_BANK, SimConfig(horizon=10.0, seed=7, engine=engine))
        events = path.events
        assert len(events) == 37
        marks = {0: Mark.CLONE, 1: Mark.CLONE, 18: Mark.DEATH, 36: Mark.CLONE}
        for k, t in pinned.items():
            assert (events.times[k], events.marks[k]) == (t, marks[k])
        assert path.final_state.counts == (8, 17, 12)
        assert path.final_state.xi == pytest.approx(xi, rel=1e-14)

    @pytest.mark.parametrize("engine, pinned, xi", [
        ("markov",
         {0: 0.012490539958468513, 1: 0.024810013259392208, 700: 46.01386052374953,
          1247: 99.89293694397026},
         (5.738928750964729, 5.757547698798943, 0.37134485979292053)),
        ("thinning",
         {0: 0.012490539958468513, 1: 0.024810013259392208, 700: 46.01386052374953,
          1247: 99.89293694397026},
         (5.738928750964725, 5.757547698798946, 0.37134485979292065)),
    ])
    def test_long_cross_bank_path(self, engine, pinned, xi):
        # Long enough that each mark's history outgrows the thinning
        # engine's initial buffer at least once.
        path = simulate(CROSS_BANK, SimConfig(horizon=100.0, seed=3, engine=engine))
        events = path.events
        assert len(events) == 1248
        marks = {0: Mark.MUTANT, 1: Mark.CLONE, 700: Mark.CLONE, 1247: Mark.CLONE}
        for k, t in pinned.items():
            assert (events.times[k], events.marks[k]) == (t, marks[k])
        assert path.final_state == IntensityState(xi, (562, 499, 187))
        assert path.elapsed == 100.0
        assert path.zero_occupation_time == 0.012490539958468513
        assert not path.capped


jumps = st.one_of(st.just(0.0), st.floats(0.05, 1.0))
decays = st.floats(1.0, 3.0)


@st.composite
def hawkes_banks(draw):
    rates = st.floats(0.1, 2.0)
    return KernelBank.exponential(
        draw(st.tuples(rates, rates, rates)),
        draw(st.tuples(st.tuples(jumps, jumps), st.tuples(jumps, jumps))),
        draw(st.tuples(decays, decays)), draw(jumps), draw(decays))


# Deaths excite themselves and the mutant and clone rows differ.
SELF_EXCITING_DEATHS = KernelBank.exponential(
    (1.0, 0.8, 1.5), ((0.3, 0.2), (0.1, 0.4)), (1.0, 1.5), 0.8, 1.2)


class TestMarkovBatch:
    @pytest.mark.parametrize("bank", [CROSS_BANK, HAWKES_BANK, SELF_EXCITING_DEATHS],
                             ids=["cross", "hawkes", "self_exciting_deaths"])
    def test_agrees_in_law_with_simulate_markov(self, bank):
        # Independent streams: the batch on seed 1, the scalar engine on
        # seed 2.  Two-sample KS on the final counts, and z on the grid
        # means of lambda1, lambda2 and ungated lambda3, the scalar
        # engine's columns 0, 1 and 3.
        n, horizon = 3000, 20.0
        grid = tuple(np.linspace(0.0, horizon, 11))
        batch = simulate_markov_batch(bank, SimConfig(horizon=horizon, seed=1), n,
                                      record_grid=grid)
        config = SimConfig(horizon=horizon, seed=2)
        paths = [simulate_markov(bank, config, path_index=i) for i in range(n)]
        counts = np.array([p.final_state.counts for p in paths])
        for i in range(3):
            assert stats.ks_2samp(batch.counts[i], counts[:, i]).pvalue > 0.01

        def z(a, b):
            """z of the mean difference over the last axis, the paths."""
            se = np.sqrt((a.var(axis=-1, ddof=1) + b.var(axis=-1, ddof=1)) / n)
            return (a.mean(axis=-1) - b.mean(axis=-1)) / se

        # (grid, lambda1 / lambda2 / ungated lambda3, paths), as the batch's samples.
        samples = np.stack([intensities_at(p, bank, grid)[:, [0, 1, 3]] for p in paths], axis=-1)
        assert np.max(np.abs(z(batch.intensity_samples[1:], samples[1:]))) < 4.0
        assert not batch.capped.any()

    def test_means_from_a_state_solve_the_moment_ode(self):
        # Births are ungated and deaths do not move xi1 or xi2, so y =
        # (xi1, xi2, N1, N2, 1) has exact means E y(t) = expm(M t) y(0):
        # dxi_i = -beta_i xi_i + sum_j alpha_ji lambda_j and dN_j = lambda_j,
        # with lambda_j = mu_j + xi_j.  The gated lambda3 has no such mean.
        bank, state = HAWKES_BANK, IntensityState(xi=(0.5, 0.1, 0.7), counts=(1, 1, 2))
        mu, betas, jumps = bank.base_rates, bank.betas, bank.jumps
        m = np.zeros((5, 5))
        for i in range(2):
            m[i, i] = -betas[i]
            for j in range(2):
                m[i, j] += jumps[j][i]
                m[i, 4] += jumps[j][i] * mu[j]
            m[2 + i, i], m[2 + i, 4] = 1.0, mu[i]
        y0 = np.array([*state.xi[:2], *state.counts[:2], 1.0])
        n, horizon = 3000, 20.0
        grid = np.linspace(0.0, horizon, 11)
        batch = simulate_markov_batch(bank, SimConfig(horizon=horizon, seed=1), n, state,
                                      record_grid=grid)
        assert not batch.capped.any()
        exact = np.array([expm(m * t) @ y0 for t in grid])

        def z(x, mean):
            """z of the mean over the last axis, the paths."""
            return (x.mean(axis=-1) - mean) / (x.std(axis=-1, ddof=1) / math.sqrt(n))

        # Grid point 0 is the start state itself, with no spread.
        lam = batch.intensity_samples[1:, :2]
        assert np.max(np.abs(z(lam, np.add(mu[:2], exact[1:, :2])))) < 4.0
        assert np.max(np.abs(z(batch.counts[:2], exact[-1, 2:4]))) < 4.0

    def test_capped_paths_stop_at_max_events(self):
        grid = tuple(np.linspace(0.0, 100.0, 101))
        batch = simulate_markov_batch(
            CROSS_BANK, SimConfig(horizon=100.0, seed=4, max_events=30), 500, record_grid=grid)
        assert batch.capped.all()
        assert (batch.counts.sum(axis=0) == 30).all()
        # Each path's samples are finite up to its last event and NaN
        # after it, which comes before the horizon.
        reached = np.isfinite(batch.intensity_samples)
        assert (reached == reached[:, :1]).all()
        reached = reached[:, 0]
        assert (reached[:-1] >= reached[1:]).all()
        assert reached[0].all() and not reached[-1].any()
        assert np.isnan(batch.intensity_samples.transpose(0, 2, 1)[~reached]).all()

    def test_first_event_is_a_birth_in_the_base_rate_ratio(self):
        # One event per path: a mutant or a clone birth with odds
        # mu1 : mu2, never a death at N = 0, and xi is its mark's row.
        mu1, mu2, _ = HAWKES_BANK.base_rates
        batch = simulate_markov_batch(HAWKES_BANK, SimConfig(horizon=100.0, seed=5,
                                                             max_events=1), 2000)
        assert batch.capped.all()
        mutant = batch.counts[0] == 1
        assert (batch.counts[:, mutant] == [[1], [0], [0]]).all()
        assert (batch.counts[:, ~mutant] == [[0], [1], [0]]).all()
        jumps = np.array(HAWKES_BANK.jumps)[:, :, None]
        assert np.array_equal(batch.xi, np.where(mutant, jumps[0], jumps[1]))
        assert stats.binomtest(int(mutant.sum()), 2000, mu1 / (mu1 + mu2)).pvalue > 1e-4

    def test_final_state_and_grid_of_the_poisson_bank(self):
        bank = KernelBank.poisson((2.0, 1.0, 1.0))
        grid = (0.0, 1.0, 5.0, 10.0)
        batch = simulate_markov_batch(bank, SimConfig(horizon=10.0, seed=2), 200,
                                      record_grid=grid)
        assert not batch.capped.any()
        assert (batch.xi == 0.0).all()
        samples = batch.intensity_samples
        assert samples.shape == (4, 3, 200)
        assert (samples[:, 0] == 2.0).all() and (samples[:, 1] == 1.0).all()
        assert (samples[:, 2] == 1.0).all()
        n = batch.counts[0] + batch.counts[1] - batch.counts[2]
        assert (n >= 0).all()

    def test_blocks_are_reproducible_and_distinct(self):
        # Block 1 holds the last 50 rows and draws from a stream of its own.
        config = SimConfig(horizon=5.0, seed=3)
        a, b = (simulate_markov_batch(HAWKES_BANK, config, BATCH_BLOCK + 50,
                                      record_grid=(0.0, 1.0, 1.0, 3.0)) for _ in range(2))
        assert np.array_equal(a.counts, b.counts) and np.array_equal(a.xi, b.xi)
        assert np.array_equal(a.intensity_samples, b.intensity_samples)
        assert not np.array_equal(a.counts[:, :50], a.counts[:, BATCH_BLOCK:])

    # Fixed-seed runs of the batch engine, each hashed over all four
    # MarkovBatch arrays from the first row of its block on: a change to
    # any draw, formula or step order changes the digest.
    PINNED_RUNS = {
        # Empty starts; the grid repeats a point and has one past the horizon.
        "cross": (CROSS_BANK, dict(horizon=10.0, seed=21, record_grid=(
            0.0, 0.5, 2.0, 2.0, 5.0, 9.5, 12.0)), 400, None, 0),
        "poisson": (KernelBank.poisson((2.0, 1.0, 1.0)), dict(horizon=10.0, seed=22, record_grid=(
            0.0, 0.5, 2.0, 2.0, 5.0, 9.5, 12.0)), 400, None, 0),
        # A non-empty start, with a repeated grid point at 0.
        "from_a_state": (HAWKES_BANK, dict(horizon=6.0, seed=23, record_grid=(
            0.0, 0.0, 1.0, 4.0, 4.0, 6.0, 7.5)), 400,
            IntensityState(xi=(0.5, 0.1, 0.7), counts=(1, 1, 2)), 0),
        # About half of the paths stop capped.
        "capped": (CROSS_BANK, dict(horizon=5.0, seed=24, max_events=30, record_grid=tuple(
            np.linspace(0.0, 5.0, 21))), 400, None, 0),
        "block_1": (SELF_EXCITING_DEATHS, dict(horizon=8.0, seed=25, record_grid=(
            0.0, 1.0, 4.0, 8.0)), BATCH_BLOCK + 300, None, 1),
        # Three blocks, the last of one path, from a state; the grid repeats a point.
        "multi_block": (HAWKES_BANK, dict(horizon=4.0, seed=27, record_grid=(
            0.0, 1.0, 1.0, 2.5, 4.0)), 2 * BATCH_BLOCK + 1,
            IntensityState(xi=(0.5, 0.1, 0.7), counts=(1, 1, 2)), 0),
        # Every path returns to N = 0, and spends about half its time there.
        "extinct": (KernelBank.exponential((0.4, 0.3, 1.5), ((0.2, 0.1), (0.1, 0.2)),
                                           (1.0, 1.5), 0.5, 2.0),
                    dict(horizon=20.0, seed=26, record_grid=(
                        0.0, 0.5, 3.0, 3.0, 10.0, 19.5, 25.0)), 400, None, 0),
    }
    PINNED_SHA256 = {
        "cross": "2f023a950917c6f949667d02cff2f90f155d06d7e3089091f2d7eaed0fe04fd0",
        "poisson": "c9466ac73c5345719f8aa33cd9b867254022e5873e82be7bbe5adfaa9a4f292a",
        "from_a_state": "7ec3241a69c28e6d75e3070d5b209a0f7923bc4594c3b9034d8726c8baf506d5",
        "capped": "b0d3c5e2f61739f30065cfc0ad606f649d20ecc3ffbb224c5180cefa14829464",
        "block_1": "8a1985cef432caab64eadaf833c114b4172044bd7eb3366faa856bc1809c4d45",
        "extinct": "85aabb72dcdcd152b19d55aba82f824d8f336159043d0f657606725c37a677d4",
        "multi_block": "8485b8b9e4af953d1bce5cbf22523cf83f85f98216285ea8f4f19825572806ee",
    }
    # The engine calls numpy's exp, so each digest is pinned per dispatch
    # target (conftest.py); PINNED_SHA256 holds the X86_V4 set.  The X86_V3
    # and baseline sets are equal; only the Poisson run, whose shot noise
    # stays 0, reads the same on every target.
    _BELOW_X86_V4 = {
        "cross": "aac3c4e1b011ec168d3a3a3cd1796bddb8d8f19caf0c04b41539218493be3e0f",
        "poisson": PINNED_SHA256["poisson"],
        "from_a_state": "03a03882395fbd945978ea30e2e5afd9fa5b2492992895aa5072e35f6e73bb2f",
        "capped": "c6236dd225cc961102da7933cf1615afbfcdcbd5584c2ff0d56226f833816caa",
        "block_1": "c859a8af62eabf4bee65ded444d9f50a23766af7c33cd129096ed421fe277234",
        "extinct": "b3edf8e1180d35b36cf944e9f2c01e7870ed4950139d0e2a407b2441c398ff5a",
        "multi_block": "c9bb9bab549b6e63a713f7d875cf7e11a529600f8f7ece062af5b87656c369b7",
    }
    PINNED_SHA256_BY_TARGET = {"X86_V4": PINNED_SHA256, "X86_V3": _BELOW_X86_V4,
                               "baseline(X86_V2)": _BELOW_X86_V4}

    @staticmethod
    def batch_digest(batch, first_row=0):
        """SHA-256 over the name, dtype, shape and bytes of each MarkovBatch array's rows.

        Each array is hashed path-major, its paths axis moved first, the
        order in which these digests were first pinned.
        """
        h = hashlib.sha256()
        for name in ("intensity_samples", "xi", "counts", "capped"):
            a = np.ascontiguousarray(np.moveaxis(getattr(batch, name), -1, 0)[first_row:])
            h.update(f"{name} {a.dtype.str} {a.shape}".encode())
            h.update(a.tobytes())
        return h.hexdigest()

    @pytest.mark.parametrize("run", sorted(PINNED_RUNS))
    def test_pinned_bytes(self, run, for_exp_target):
        pinned = for_exp_target(self.PINNED_SHA256_BY_TARGET)[run]
        bank, config, n_paths, state, block = self.PINNED_RUNS[run]
        config = dict(config)
        grid = config.pop("record_grid")
        batch = simulate_markov_batch(bank, SimConfig(**config), n_paths, state,
                                      record_grid=grid)
        assert self.batch_digest(batch, block * BATCH_BLOCK) == pinned

    def test_empty_run_refused(self):
        for n_paths in (0, -1):
            with pytest.raises(ValueError, match="at least 1 path"):
                simulate_markov_batch(HAWKES_BANK, SimConfig(horizon=1.0, seed=1), n_paths)

    def test_outputs_are_component_major(self):
        # The engine writes each component as one contiguous row over the
        # paths, which is how its readers reduce them; every output is
        # C-contiguous with the paths last.
        n_paths, grid = BATCH_BLOCK + 100, (0.0, 1.0, 1.0, 3.0)
        batch = simulate_markov_batch(CROSS_BANK, SimConfig(horizon=3.0, seed=8), n_paths,
                                      record_grid=grid)
        assert batch.xi.shape == batch.counts.shape == (3, n_paths)
        assert batch.intensity_samples.shape == (len(grid), 3, n_paths)
        assert batch.capped.shape == (n_paths,)
        assert all(x.flags.c_contiguous for x in (batch.intensity_samples, batch.xi,
                                                  batch.counts, batch.capped))


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

    def test_agrees_in_law_with_markov_on_independent_streams(self):
        # Criterion 2 runs both engines on the same streams, where they
        # agree path for path; here the thinning engine takes path
        # indices 0-299 and the Markov engine 300-599, so the unpaired z
        # on the mean counts checks the law.
        n, config = 300, lambda e: SimConfig(horizon=20.0, seed=202, engine=e)
        thin = np.array([simulate(CROSS_BANK, config("thinning"), i).events.counts()
                         for i in range(n)])
        markov = np.array([simulate(CROSS_BANK, config("markov"), i).events.counts()
                           for i in range(n, 2 * n)])
        se = np.sqrt(thin.var(axis=0, ddof=1) / n + markov.var(axis=0, ddof=1) / n)
        z = (thin.mean(axis=0) - markov.mean(axis=0)) / se
        assert np.all(np.abs(z) < 5.0), z

    def test_deterministic_replay(self):
        config = SimConfig(horizon=15.0, seed=4, engine="thinning")
        a = simulate(HAWKES_BANK, config)
        b = simulate(HAWKES_BANK, config)
        assert np.array_equal(a.events.times, b.events.times)
        assert np.array_equal(a.events.marks, b.events.marks)

    @settings(max_examples=25, deadline=None)
    @given(bank=hawkes_banks(), seed=st.integers(0, 2**16))
    def test_samples_are_the_direct_kernel_sums(self, bank, seed):
        # Distinct mutant and clone rows: a swap of a kernel's source and
        # target would change the sums.
        assume(bank.jumps[0] != bank.jumps[1])
        grid = tuple(np.linspace(0.0, 5.0, 11))
        path = simulate_thinning_general(bank, SimConfig(horizon=5.0, seed=seed, max_events=400))
        events = path.events
        for g, row in zip(grid, intensities_at(path, bank, grid)):
            if np.isnan(row[0]):
                break
            direct = np.add(bank.base_rates, shot_noise_from_history(bank, events, g))
            assert row[[0, 1, 3]] == pytest.approx(direct, rel=1e-12)
        direct = shot_noise_from_history(bank, events, path.elapsed)
        assert path.final_state.xi == pytest.approx(direct, rel=1e-12)

    def test_one_kernel_sum_per_candidate(self, monkeypatch):
        # The loop sums the history once per candidate below the horizon
        # and once at the end, never for the empty history at t = 0; an
        # accepted event's jump is added, not summed.  The reference loop,
        # on the same draws, counts the candidates, the last one included.
        sums = []
        xi_at = _History.xi_at

        def counted(history, t):
            sums.append(t)
            return xi_at(history, t)

        monkeypatch.setattr(_History, "xi_at", counted)
        path = simulate_thinning_general(CROSS_BANK, SimConfig(horizon=50.0, seed=5))
        times, marks, candidates = reference_path(CROSS_BANK, 50.0, seed=5)
        assert len(path.events) > 300
        assert np.array_equal(path.events.marks, marks)
        assert path.events.times == pytest.approx(times, rel=1e-12)
        assert len(sums) == candidates, (len(sums), candidates, len(path.events))


class TestIntensitiesAt:
    @settings(max_examples=50, deadline=None)
    @given(bank=hawkes_banks(), seed=st.integers(0, 2**16))
    def test_read_back_at_the_end_is_the_final_state(self, bank, seed):
        # The read-back replays the Markov engine's own recursion, so at
        # the horizon it gives the engine's final shot noise bit for bit.
        path = simulate_markov(bank, SimConfig(horizon=5.0, seed=seed, max_events=400))
        assume(not path.capped)
        last = intensities_at(path, bank, (0.0, path.elapsed / 2, path.elapsed))[-1]
        assert last[[0, 1, 3]].tolist() == np.add(bank.base_rates, path.final_state.xi).tolist()
        assert (last[2] == 0.0) == (path.final_state.population_size == 0)


class TestHistory:
    @pytest.mark.parametrize("n", [7, 8, 129, 8193])
    def test_masked_row_sums_equal_contiguous_sums(self, n):
        # One row per mark, alpha = 1, so xi[i] is row i's masked sum.  The
        # rows are ragged (n, n // 3 and n - 1 times, interleaved); 129
        # outgrows the first two 64-column widths of the buffer, and 8193
        # both ends one column past a multiple of 64 and crosses numpy's
        # 8192-element buffer.  The engine's fixed-seed output relies on
        # each masked row sum equalling np.add.reduce over that row alone.
        betas = (0.7, 1.3, 2.1)
        history = _History(KernelBank.exponential(
            (1.0, 1.0, 1.0), ((1.0, 0.0), (0.0, 1.0)), betas[:2], 1.0, betas[2]))
        sizes = (n, max(n // 3, 1), n - 1)
        marks = np.repeat([1, 2, 3], sizes)
        rng = np.random.default_rng(n)
        rng.shuffle(marks)
        times = np.cumsum(rng.exponential(0.01, marks.size))
        rows = [[], [], []]
        for mark, t in zip(marks.tolist(), times.tolist()):
            history.record(mark, t)
            rows[mark - 1].append(t)
        for t in (times[-1], times[-1] + 0.5):
            xi = history.xi_at(t)
            for i, beta in enumerate(betas):
                z = np.subtract(t, np.array(rows[i]))
                z *= -beta
                assert xi[i] == np.add.reduce(np.exp(z)), (i, len(rows[i]))


    def test_short_row_past_the_underflow(self):
        # Row 1 holds 300 early times, so the buffer is 320 columns wide;
        # row 2 holds 3 and row 3 one.  At t = 1200 > 745 / 0.7 the early
        # events and every unfilled cell read exp(-beta (t - t_k)) = 0
        # exactly, and each masked row sum still equals np.add.reduce
        # over that row alone.
        betas = (0.7, 1.3, 2.1)
        history = _History(KernelBank.exponential(
            (1.0, 1.0, 1.0), ((1.0, 0.0), (0.0, 1.0)), betas[:2], 1.0, betas[2]))
        rows = [np.linspace(0.0, 3.0, 300).tolist(), [1.0, 1199.0, 1199.6], [1199.3]]
        for mark, row in enumerate(rows, start=1):
            for t in row:
                history.record(mark, t)
        assert history.times.shape[1] == 320
        t = 1200.0
        xi = history.xi_at(t)
        for i, beta in enumerate(betas):
            assert math.exp(-beta * t) == 0.0
            z = np.subtract(t, np.array(rows[i]))
            z *= -beta
            assert xi[i] == np.add.reduce(np.exp(z)), i
        assert xi[0] == 0.0 and xi[1] > 0.0 and xi[2] > 0.0

    def test_sparse_long_path_matches_markov(self):
        # Base rates of 0.02 to horizon 2000: long gaps between events, so
        # most kernel terms and the unfilled cells underflow to 0, with no
        # warning, and the path follows the Markov engine's on the same draws.
        bank = KernelBank.exponential(
            (0.02, 0.02, 0.02), ((0.3, 0.2), (0.1, 0.4)), (1.0, 1.5), 0.8, 1.2)
        config = SimConfig(horizon=2000.0, seed=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            path = simulate_thinning_general(bank, config)
        markov = simulate_markov(bank, config)
        assert len(path.events) == len(markov.events) == 194
        assert np.array_equal(path.events.marks, markov.events.marks)
        assert path.events.times == pytest.approx(markov.events.times, rel=1e-12)


class TestKernelRows:
    """The full-history sum runs on five fixed rows, one per kernel the model allows."""

    @staticmethod
    def kernel_sums(bank, times, marks, t):
        """xi at t kernel by kernel: each target adds the mutant's kernel, then the clone's."""
        def kernel(mark, i):
            z = (t - times[marks == mark]) * -bank.betas[i]
            return float(bank.jumps[mark - 1][i] * np.add.reduce(np.exp(z)))
        return kernel(1, 0) + kernel(2, 0), kernel(1, 1) + kernel(2, 1), kernel(3, 2)

    @settings(max_examples=40, deadline=None)
    @given(bank=hawkes_banks(), seed=st.integers(0, 2**16))
    def test_sums_equal_the_per_kernel_reference(self, bank, seed):
        # hawkes_banks draws zero alphas too: a zero kernel's row adds
        # 0.0 * s = +0.0, so the sums equal the reference with ==, at the
        # path's end and past its last event.
        path = simulate_thinning_general(bank, SimConfig(horizon=30.0, seed=seed, max_events=600))
        times, marks = path.events.times, path.events.marks
        assert path.final_state.xi == self.kernel_sums(bank, times, marks, path.elapsed)
        history = _History(bank)
        for mark, t in zip(marks.tolist(), times.tolist()):
            history.record(mark, t)
        t = path.elapsed + 0.5
        assert history.xi_at(t) == self.kernel_sums(bank, times, marks, t)

    def test_poisson_bank_sums_nothing(self):
        bank = KernelBank.poisson((1.0, 0.8, 1.2))
        history = _History(bank)
        for k, mark in enumerate([1, 2, 3, 1, 1, 2]):
            history.record(mark, 0.1 * k)
        assert history.xi_at(1.0) == (0.0, 0.0, 0.0)
        assert not history.live.any()
        path = simulate_thinning_general(bank, SimConfig(horizon=20.0, seed=3))
        assert len(path.events) > 0 and path.final_state.xi == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("bank", [
        HAWKES_BANK,
        KernelBank.exponential((1.0, 0.8, 1.2), ((0.4, 0.0), (0.0, 0.0)), (1.0, 1.5), 0.0, 1.0),
    ], ids=["all_alphas", "only_alpha11"])
    def test_one_row_outgrows_the_buffer(self, bank):
        # 100 mutants, 10 clones and 5 deaths, interleaved: only the
        # mutant's rows cross GROW columns.  Every array keeps one shape,
        # as wide as the longest mark's count rounded up to GROW, and a
        # zero kernel keeps its row.
        history = _History(bank)
        marks = np.repeat([1, 2, 3], (100, 10, 5))
        np.random.default_rng(3).shuffle(marks)
        times = 0.01 * np.arange(marks.size)
        for mark, t in zip(marks.tolist(), times.tolist()):
            history.record(mark, t)
        width = math.ceil(100 / _History.GROW) * _History.GROW
        assert width == 128
        for array in (history.times, history.live, history.z, history.decay):
            assert array.shape == (5, width)
        assert history.live.sum(axis=1).tolist() == [100, 100, 10, 10, 5]
        for row, mark in enumerate([1, 1, 2, 2, 3]):
            assert history.times[row][history.live[row]].tolist() == times[marks == mark].tolist()
        b1, b2, b3 = bank.betas
        assert (history.decay == np.array([[-b1], [-b2], [-b1], [-b2], [-b3]])).all()


class TestJumpTable:
    @pytest.mark.parametrize("bank", [
        KernelBank.poisson((1.0, 0.8, 1.2)),
        KernelBank.exponential((1.0, 0.8, 1.2), ((0.4, 0.0), (0.25, 0.3)), (1.0, 1.5), 0.0, 1.0),
        HAWKES_BANK,
    ], ids=["zero_alphas", "some_zero_alphas", "self_exciting_deaths"])
    def test_jump_is_the_increment_of_the_full_sum(self, bank):
        # The alphas are asymmetric (alpha12 != alpha21), so a transposed
        # table fails here.
        # Built as simulate_thinning_general builds it.
        history = _History(bank)
        marks = [1, 1, 2, 3, 1, 2, 2, 2, 3, 1, 3, 3, 2, 1, 1, 2, 3, 1]
        t = 0.0
        for k, mark in enumerate(marks):
            t += 0.1 + 0.37 * (k % 4)
            before = history.xi_at(t)
            history.record(mark, t)
            expected = np.add(before, bank.jumps[mark - 1])
            assert history.xi_at(t) == pytest.approx(expected, rel=1e-12, abs=0), (k, mark)


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
        events = path.events
        for i in (1, 2, 3):
            lam0 = HAWKES_BANK.base_rates[i - 1]
            rate = lambda u: lam0 + shot_noise_from_history(HAWKES_BANK, events, u)[i - 1]
            expected, acc, t, n = [], 0.0, 0.0, 0
            for time, mark in zip(events.times.tolist(), events.marks.tolist()):
                if i < 3 or n > 0:
                    acc += quad(rate, t, time, epsabs=1e-13, epsrel=1e-13)[0]
                if mark == i:
                    expected.append(acc)
                    acc = 0.0
                n += -1 if mark == Mark.DEATH else 1
                t = time
            res = time_rescale_residuals(path, HAWKES_BANK, i)
            assert len(expected) > 10
            assert res == pytest.approx(expected, rel=1e-10)

    def test_index_validated(self):
        path = simulate_markov(HAWKES_BANK, SimConfig(horizon=1.0, seed=1))
        with pytest.raises(ValueError):
            time_rescale_residuals(path, HAWKES_BANK, 4)
