import math
import tracemalloc
from functools import partial

import numpy as np
import pytest

from hawkes_evolve import (
    DegenerateParametersError,
    IntensityState,
    KernelBank,
    SimConfig,
    generator_apply,
    generator_drift_check,
    gof_report,
    mc_mean_intensity,
    phase_transition_sweep,
    rho_convergence_check,
    simulate,
)
from hawkes_evolve import experiments
from hawkes_evolve.experiments import _knee_estimate
from hawkes_evolve.simulate import BATCH_BLOCK, simulate_markov_batch

HAWKES_BANK = KernelBank.exponential(
    (1.0, 0.8, 1.2), ((0.4, 0.6), (0.2, 0.3)), (1.0, 1.5), 0.4, 1.0)
CROSS_BANK = KernelBank.exponential(
    (1.0, 0.8, 1.2), ((0.4, 0.6), (0.4, 0.6)), (1.0, 1.5), 0.4, 1.0)
# Births at rate 0.3 against deaths at rate 5: with seed 0, both runs to
# t = 10 end with no individual.
DYING_BANK = KernelBank.poisson((0.2, 0.1, 5.0))


class TestMcMeanIntensity:
    def test_poisson_matches_flat_curves(self):
        bank = KernelBank.poisson((2.0, 1.0, 1.0))
        report = mc_mean_intensity(bank, np.linspace(0, 5, 6), 200, seed=1)
        for i in (1, 2, 3):
            assert report.matched_method(i) == "both"

    def test_constant_grid_point_has_zero_spread(self):
        # Every path starts at the base rates; their mean carries a
        # rounding-level standard error, which is no spread at all.
        cross = KernelBank.exponential(
            (1.0, 0.8, 1.2), ((0.4, 0.6), (0.4, 0.6)), (1.0, 1.5), 0.4, 1.0)
        report = mc_mean_intensity(cross, np.array([0.0, 1.0]), 200, seed=7)
        for i in (1, 2, 3):
            for method in ("paper", "renewal"):
                assert report.comparisons[(i, method)].z[0] == 0.0

    def test_constant_grid_point_is_exact_at_large_n(self):
        # A row-by-row sum over 100,000 paths drifts about n * eps off the
        # base rate 0.8, which _z reads as z = inf; a pairwise sum stays
        # within a few eps.
        report = mc_mean_intensity(CROSS_BANK, [0.0, 1.0], 100_000, seed=11)
        assert report.mean[0] == pytest.approx([1.0, 0.8, 1.2], rel=1e-15, abs=0.0)
        for i in (1, 2, 3):
            for method in ("paper", "renewal"):
                assert report.comparisons[(i, method)].z[0] == 0.0

    def test_self_exciting_deaths_are_not_applicable(self):
        # The ungated lambda3 rides a path whose deaths stop at N = 0, so
        # it sits far below both curves; the z-scores stay in the report.
        report = mc_mean_intensity(CROSS_BANK, np.arange(0.0, 11.0), 2000, seed=7)
        assert report.matched_method(3) == "not applicable"
        assert report.comparisons[(3, "renewal")].z[1] < -20.0
        assert report.matched_method(1) == "renewal"
        poisson = mc_mean_intensity(KernelBank.poisson((2.0, 1.0, 1.0)),
                                    np.linspace(0, 5, 6), 200, seed=1)
        assert poisson.matched_method(3) == "both"

    def test_hawkes_bank_matches_the_renewal_curve(self):
        # Mutant and clone kernels differ here, so a first clone birth
        # turned into a mutant would pull both curves off the renewal route.
        report = mc_mean_intensity(HAWKES_BANK, np.linspace(0, 5, 11), 20_000, seed=11)
        assert report.matched_method(1) == "renewal"
        assert report.matched_method(2) == "renewal"

    def test_peak_memory_holds_the_samples_once(self):
        # The engine's (grid, component, paths) samples are 5.04 MiB here;
        # a transposed copy of them for the reductions read 3.0x that.
        # The warm-up call imports scipy.linalg for the renewal solve,
        # whose allocations would count too.
        grid = np.linspace(0, 10, 11)
        mc_mean_intensity(CROSS_BANK, grid, 2, seed=1)
        n_paths = 20_000
        tracemalloc.start()
        try:
            mc_mean_intensity(CROSS_BANK, grid, n_paths, seed=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.2 * (n_paths * grid.size * 3 * 8)

    def test_needs_two_paths(self):
        with pytest.raises(ValueError):
            mc_mean_intensity(KernelBank.poisson((1.0, 1.0, 1.0)),
                              np.linspace(0, 1, 3), 1, seed=1)

    def test_unsorted_grid_rejected_before_any_path(self):
        # The renewal curve would only have rejected the grid after every
        # path was simulated.
        with pytest.raises(ValueError, match="t_grid"):
            mc_mean_intensity(HAWKES_BANK, [0.0, 10.0, 5.0], 10**6, seed=1)

    @pytest.mark.parametrize("grid", [[0.0, math.nan, 2.0], [-1.0, 0.0, 1.0], [0.0, math.inf],
                                      [[0.0, 5.0], [1.0, 2.0]], 0.5],
                             ids=["nan", "negative", "inf", "2d", "0d"])
    def test_bad_grid_error_names_t_grid(self, grid):
        # The first three once raised from SimConfig, naming record_grid or
        # the horizon; the last two with numpy messages naming no grid.
        with pytest.raises(ValueError, match="^t_grid"):
            mc_mean_intensity(HAWKES_BANK, grid, 10**6, seed=1)

    @pytest.mark.parametrize("grid, from_zero, points", [
        ([0.0, 1.0, 1.0], [0.0, 1.0], [0, 1, 1]),
        ([1.0, 2.0], [0.0, 1.0, 2.0], [1, 2]),
    ], ids=["repeated", "late_start"])
    def test_grid_reads_the_bits_of_a_grid_from_zero(self, grid, from_zero, points):
        # The renewal curve once refused these grids.  A grid moves no draw,
        # so at the same horizon each point reads the samples, targets and
        # z-scores it has in a strictly increasing grid from 0.
        report = mc_mean_intensity(HAWKES_BANK, grid, 200, seed=1)
        reference = mc_mean_intensity(HAWKES_BANK, from_zero, 200, seed=1)
        assert report.mean.tolist() == reference.mean[points].tolist()
        assert report.stderr.tolist() == reference.stderr[points].tolist()
        for key, comparison in report.comparisons.items():
            assert comparison.target.tolist() == reference.comparisons[key].target[points].tolist()
            assert comparison.z.tolist() == reference.comparisons[key].z[points].tolist()

    def test_empty_grid_rejected_before_any_path(self):
        with pytest.raises(ValueError, match="t_grid"):
            mc_mean_intensity(HAWKES_BANK, [], 10**6, seed=1)

    def test_singular_paper_curve_rejected_before_any_path(self, monkeypatch):
        # Equal birth decay rates make the paper's closed form singular; it
        # once raised only after all 20,000 paths had run.
        def no_path(*args, **kwargs):
            raise AssertionError("a path was started")

        monkeypatch.setattr(experiments, "simulate_markov_batch", no_path)
        bank = KernelBank.exponential(
            (1.0, 0.8, 1.2), ((0.4, 0.6), (0.4, 0.6)), (1.0, 1.0), 0.4, 1.0)
        with pytest.raises(DegenerateParametersError):
            mc_mean_intensity(bank, [0.0, 1.0, 2.0], 20_000, seed=1)

    def test_standard_error_scaling(self):
        bank = HAWKES_BANK
        grid = np.linspace(0, 3, 4)
        ses = []
        for n in (50, 200, 800):
            report = mc_mean_intensity(bank, grid, n, seed=5)
            ses.append(report.stderr[-1, 0])
        # Quadrupling the paths should roughly halve the error.
        assert ses[0] / ses[1] == pytest.approx(2.0, rel=0.5)
        assert ses[1] / ses[2] == pytest.approx(2.0, rel=0.5)


class TestGeneratorApply:
    def test_constant_function_is_zero(self):
        assert generator_apply(HAWKES_BANK, IntensityState(), lambda z: 1.0) == 0.0

    def test_linear_intensity_function(self):
        # For F = l1 at the empty baseline state: relaxation vanishes, and
        # each birth rate jumps l1 by its own mark's alpha,
        # mu1 * alpha11 + mu2 * alpha21 = 1.0 * 0.4 + 0.8 * 0.2.
        got = generator_apply(HAWKES_BANK, IntensityState(), lambda z: z[1])
        assert got == pytest.approx(0.56, rel=1e-6)

    def test_first_clone_counts_as_clone(self):
        # At the empty state as elsewhere, F = n1 counts mutants and F = n2
        # counts clones.
        mu1, mu2, _ = HAWKES_BANK.base_rates
        for state in (IntensityState(), IntensityState(counts=(1, 0, 0))):
            assert generator_apply(HAWKES_BANK, state, lambda z: z[0]) == pytest.approx(
                mu1, rel=1e-12)
            assert generator_apply(HAWKES_BANK, state, lambda z: z[2]) == pytest.approx(
                mu2, rel=1e-12)

    def test_death_count_gated_at_empty(self):
        assert generator_apply(HAWKES_BANK, IntensityState(), lambda z: z[4]) == 0.0

    def test_death_count_open_gate(self):
        state = IntensityState(counts=(1, 0, 0))
        got = generator_apply(HAWKES_BANK, state, lambda z: z[4])
        assert got == pytest.approx(HAWKES_BANK.base_rates[2], rel=1e-9)

    def test_integer_bank_and_state(self):
        # A bank keeps its values as given.  With integer rates and shot
        # noise the state vector was once an integer array, so the
        # central difference's step of 1e-6 truncated: -499997 for l1.
        f = lambda z: z[1]
        ints = KernelBank.exponential((2, 1, 1), ((1, 0), (0, 1)), (3, 2), 1, 4)
        floats = KernelBank.exponential((2.0, 1.0, 1.0), ((1.0, 0.0), (0.0, 1.0)), (3.0, 2.0),
                                        1.0, 4.0)
        assert generator_apply(ints, IntensityState(xi=(1, 0, 0), counts=(1, 0, 0)), f) == (
            generator_apply(floats, IntensityState(xi=(1.0, 0.0, 0.0), counts=(1, 0, 0)), f))

    def test_offset_jumps_by_alpha_plus_delta(self):
        # Every offset delta is 0, so lambda1 relaxes to its baseline and
        # jumps by alpha alone.  l1 = 1.9, l2 = 1.1; relaxation 2 * (1 - 1.9);
        # jumps 1.9 * 0.5 + 1.1 * 0.3; total -0.52.
        bank = KernelBank.exponential((1.0, 0.8, 1.2), ((0.5, 0.2), (0.3, 0.4)), (2.0, 3.0),
                                      0.4, 1.0)
        state = IntensityState(xi=(0.9, 0.3, 0.5), counts=(2, 1, 1))
        assert generator_apply(bank, state, lambda z: z[1]) == pytest.approx(-0.52, rel=1e-6)


# Criterion 4's test functions and states (tests/test_acceptance.py).
CRITERION_4_FUNCTIONS = [
    lambda z: 1.0,
    lambda z: z[0] + z[2] - z[4],
    lambda z: z[1],
    lambda z: z[1] * z[3],
    lambda z: z[4] * z[5],
]
CRITERION_4_STATES = [
    IntensityState(),
    IntensityState(xi=(0.3, 0.2, 0.1), counts=(2, 1, 1)),
    IntensityState(xi=(0.5, 0.1, 0.7), counts=(1, 1, 2)),
]


def _row_by_row_drift(bank, state, functions, h, n_reps, seed):
    """Reference: the drift estimate with every function called on one state at a time."""
    config = SimConfig(horizon=h, seed=seed)
    zeta0 = np.array([state.counts[0], bank.base_rates[0] + state.xi[0],
                      state.counts[1], bank.base_rates[1] + state.xi[1],
                      state.counts[2], bank.base_rates[2] + state.xi[2]])
    d = np.empty((len(functions), n_reps))
    batch = simulate_markov_batch(bank, config, n_reps, state)
    zetas = np.empty((6, n_reps))
    zetas[0::2] = batch.counts
    zetas[1::2] = np.array(bank.base_rates)[:, None] + batch.xi
    for k, f in enumerate(functions):
        d[k] = [(f(z) - f(zeta0)) / h for z in zetas.T]
    # Reduced along each function's row, as generator_drift_check does.
    return d.mean(axis=1), d.std(axis=1, ddof=1) / math.sqrt(n_reps)


class TestGeneratorDrift:
    def test_constant_function_exact(self):
        # A constant returns a scalar, also for a block of states.
        for n_reps in (200, BATCH_BLOCK + 1):
            checks = generator_drift_check(HAWKES_BANK, IntensityState(),
                                           [lambda z: 1.0], n_reps=n_reps, seed=1)
            assert checks[0].mc_mean == 0.0 and checks[0].z == 0.0

    def test_flow_only_function_has_no_spread(self):
        # Deaths are off at N = 0, so n3 * l3 only decays: a rounding-level
        # stderr, scored by the zero-spread rule against the secant's O(h) gap.
        state = IntensityState(xi=(0.5, 0.1, 0.7), counts=(1, 1, 2))
        check, = generator_drift_check(HAWKES_BANK, state, [lambda z: z[4] * z[5]],
                                       n_reps=5000, seed=3)
        assert check.mc_stderr <= 1e-12 * abs(check.mc_mean)
        # The secant's gap, n3 * xi3 * beta3^2 * h / 2 to first order.
        assert check.mc_mean - check.analytic == pytest.approx(2 * 0.7 * 1e-3 / 2, rel=1e-2)
        assert check.z == np.inf

    def test_first_clone_drift_matches_engine(self):
        # HAWKES_BANK's clone kernels differ from its mutant kernels, so a
        # first clone's own jump shows in n1 and l1 at the empty state.
        checks = generator_drift_check(HAWKES_BANK, IntensityState(),
                                       [lambda z: z[0], lambda z: z[1]],
                                       n_reps=60_000, seed=5)
        assert [c.analytic for c in checks] == pytest.approx([1.0, 0.56], rel=1e-6)
        assert all(abs(c.z) < 4.0 for c in checks)

    def test_population_drift_close(self):
        checks = generator_drift_check(HAWKES_BANK, IntensityState(),
                                       [lambda z: z[0] + z[2] - z[4]],
                                       n_reps=20_000, seed=2)
        assert abs(checks[0].z) < 4.0

    @pytest.mark.parametrize("h", [1e-3, 1e-2])
    @pytest.mark.parametrize("bank", [CROSS_BANK, HAWKES_BANK], ids=["cross", "hawkes"])
    def test_block_evaluation_matches_row_by_row(self, bank, h):
        # The engine runs two full blocks and a last block of one path.
        n_reps = 2 * BATCH_BLOCK + 1
        for k, state in enumerate(CRITERION_4_STATES):
            checks = generator_drift_check(bank, state, CRITERION_4_FUNCTIONS, h=h,
                                           n_reps=n_reps, seed=404 + k)
            means, ses = _row_by_row_drift(bank, state, CRITERION_4_FUNCTIONS, h, n_reps,
                                           404 + k)
            assert [c.mc_mean for c in checks] == means.tolist()
            assert [c.mc_stderr for c in checks] == ses.tolist()

    @pytest.mark.parametrize("h", [0.0, -1e-3, math.nan, math.inf])
    def test_window_checked_by_name(self, h):
        with pytest.raises(ValueError, match="h must be finite and > 0"):
            generator_drift_check(CROSS_BANK, IntensityState(), [lambda z: z[1]], h=h)

    @pytest.mark.parametrize("n_reps", [0, 1])
    def test_needs_two_replications(self, n_reps):
        with pytest.raises(ValueError, match="at least 2"):
            generator_drift_check(HAWKES_BANK, IntensityState(), [lambda z: z[0]],
                                  n_reps=n_reps, seed=1)

    @pytest.mark.parametrize("bad", [lambda z: z.sum(), lambda z: math.exp(z[1])],
                             ids=["sum", "math"])
    def test_rejects_a_function_that_is_not_elementwise(self, bad):
        with pytest.raises(ValueError, match="test function 1 "):
            generator_drift_check(HAWKES_BANK, IntensityState(), [lambda z: z[0], bad],
                                  n_reps=BATCH_BLOCK + 1, seed=1)


class TestSummaries:
    def test_knee_estimator_on_linear_ramp(self):
        f = np.linspace(0, 1, 51)
        cdf = np.maximum(f - 0.5, 0.0) / 0.5
        assert _knee_estimate(f, cdf) == pytest.approx(0.5, abs=0.05)

    def test_knee_estimator_flat(self):
        f = np.linspace(0, 1, 11)
        assert _knee_estimate(f, np.zeros_like(f)) == 1.0

    @pytest.mark.filterwarnings("error")
    def test_sweep_where_every_run_ends_empty(self):
        # No run holds a site, so there is no CDF to read a knee from: fc_hat
        # once read f_grid[-1], and numpy warned of an empty slice twice.
        result = phase_transition_sweep(DYING_BANK, [0.0, 0.5, 1.0], 10.0, 2, seed=0)
        assert math.isnan(result.fc_hat)
        assert np.isnan(result.avg_cdf).all() and np.isnan(result.r_gap_over_n).all()


class TestWorkerCount:
    """Results are the same bit for bit whatever the number of workers."""

    BANKS = {"poisson": KernelBank.poisson((2.0, 1.0, 1.0)), "cross": CROSS_BANK,
             "dying": DYING_BANK}

    @pytest.mark.parametrize("name", BANKS)
    def test_sweep(self, name):
        one, two = (phase_transition_sweep(self.BANKS[name], np.linspace(0.0, 1.0, 21), 60.0,
                                           5, seed=3, threads=threads)
                    for threads in (1, 2))
        assert repr(one.to_dict()) == repr(two.to_dict())
        assert one.n_capped == two.n_capped == 0

    @pytest.mark.parametrize("name", BANKS)
    def test_rho(self, name):
        one, two = (rho_convergence_check(self.BANKS[name], 0.5, 0.5, 60.0, 5, seed=3,
                                          threads=threads)
                    for threads in (1, 2))
        assert one.terminal_rho.tobytes() == two.terminal_rho.tobytes()
        assert one.zero_returns.tolist() == two.zero_returns.tolist()
        assert (one.limit_paper, one.limit_renewal) == (two.limit_paper, two.limit_renewal)
        assert one.n_capped == two.n_capped == 0


class TestCappedSweep:
    def test_capped_runs_counted(self, monkeypatch):
        # Every run stops at its fifth event, long before the horizon.
        monkeypatch.setattr(experiments, "SimConfig", partial(SimConfig, max_events=5))
        result = phase_transition_sweep(KernelBank.poisson((2.0, 1.0, 1.0)),
                                        [0.0, 0.5, 1.0], 50.0, 3, seed=1)
        assert result.n_capped == 3
        assert "n_capped" not in result.to_dict()

    def test_capped_rho_runs_counted(self, monkeypatch):
        # Every run stops at its fifth event; terminal_rho reads [0.67, 1, 1]
        # here, and nothing once said that the runs were truncated.
        monkeypatch.setattr(experiments, "SimConfig", partial(SimConfig, max_events=5))
        report = rho_convergence_check(KernelBank.poisson((2.0, 1.0, 1.0)), 0.75, 0.25,
                                       50.0, 3, seed=1)
        assert report.n_capped == 3
        assert "n_capped" not in report.to_dict()

    def test_capped_mc_paths_counted(self, monkeypatch):
        # Every batch path stops at its fifth event, so the grid samples
        # past it are NaN; the report counts the paths that stopped.
        bank, grid = KernelBank.poisson((2.0, 1.0, 1.0)), np.linspace(0.0, 5.0, 6)
        assert mc_mean_intensity(bank, grid, 200, seed=1).n_capped == 0
        monkeypatch.setattr(experiments, "SimConfig", partial(SimConfig, max_events=5))
        report = mc_mean_intensity(bank, grid, 200, seed=1)
        assert report.n_capped == report.n_paths == 200
        assert np.isnan(report.mean[-1]).all()

    def test_capped_drift_paths_counted(self, monkeypatch):
        # Every batch path stops at its fifth event, long before h = 10:
        # F = n1 then reads about 0.26 against the generator's 2.0, and
        # every check of the run counts the 1000 truncated paths.
        bank, state = KernelBank.poisson((2.0, 1.0, 1.0)), IntensityState()
        assert generator_drift_check(bank, state, [lambda z: z[0]], h=10.0, n_reps=1000,
                                     seed=1)[0].n_capped == 0
        monkeypatch.setattr(experiments, "SimConfig", partial(SimConfig, max_events=5))
        checks = generator_drift_check(bank, state, [lambda z: z[0], lambda z: z[2]],
                                       h=10.0, n_reps=1000, seed=1)
        assert [chk.n_capped for chk in checks] == [1000, 1000]
        assert checks[0].analytic == 2.0 and checks[0].mc_mean < 0.5

    def test_rho_capped_flag_is_the_paths(self):
        # A run is capped exactly when its path stopped at max_events, not
        # when it merely has a few events.
        bank = KernelBank.poisson((2.0, 1.0, 1.0))
        config = SimConfig(horizon=2.0, seed=4, max_events=8)
        flags = [experiments._rho_worker(bank, 0.75, 0.25, config, i).capped for i in range(8)]
        assert flags == [simulate(bank, config, i).capped for i in range(8)]
        assert any(flags) and not all(flags)


class TestRecords:
    """Each replication returns one named record; the aggregates read its fields."""

    def test_sweep_worker_record(self):
        config = SimConfig(horizon=30.0, seed=2)
        run = experiments._sweep_worker(CROSS_BANK, config, np.linspace(0.0, 1.0, 5), 0.5, 0)
        assert isinstance(run, experiments.SweepRun)
        assert run._fields == ("cdf", "r_over_n", "r_ref", "zero_frac", "capped")

    def test_rho_worker_record(self):
        config = SimConfig(horizon=30.0, seed=2)
        run = experiments._rho_worker(CROSS_BANK, 0.5, 0.5, config, 0)
        assert isinstance(run, experiments.RhoRun)
        assert run._fields == ("rho", "returns", "capped")

    def test_replicate_stacks_each_field_in_run_order(self):
        worker = partial(experiments._sweep_worker, CROSS_BANK, SimConfig(horizon=30.0, seed=2),
                         np.linspace(0.0, 1.0, 5), 0.5)
        runs = experiments._replicate(worker, 4, threads=1)
        assert isinstance(runs, experiments.SweepRun)
        one_by_one = [worker(i) for i in range(4)]
        for name in runs._fields:
            stacked = getattr(runs, name)
            assert isinstance(stacked, np.ndarray) and len(stacked) == 4
            assert stacked.tobytes() == np.array([getattr(r, name) for r in one_by_one]).tobytes()
        assert runs.cdf.shape == (4, 5)

    def test_replicate_needs_one_run(self):
        def no_run(i):
            raise AssertionError("a run was started")

        with pytest.raises(ValueError, match="n_runs"):
            experiments._replicate(no_run, 0, threads=1)


class TestRhoCheck:
    @pytest.mark.filterwarnings("error")
    def test_every_run_ends_empty(self):
        report = rho_convergence_check(DYING_BANK, 0.5, 0.5, 10.0, 2, seed=0)
        assert np.isnan(report.terminal_rho).all()
        assert math.isnan(report.mean_rho)

    def test_short_run_shape(self):
        report = rho_convergence_check(KernelBank.poisson((2.0, 1.0, 1.0)),
                                       f=0.75, epsilon=0.0, horizon=200.0,
                                       n_runs=5, seed=3)
        assert report.terminal_rho.shape == (5,)
        assert report.limit_paper == pytest.approx(0.25)
        assert report.limit_renewal == pytest.approx(0.25)
        assert 0.0 <= report.mean_rho <= 1.0

    def test_needs_one_run(self):
        # Zero runs once reported a NaN mean_rho as a result.
        with pytest.raises(ValueError, match="n_runs"):
            rho_convergence_check(KernelBank.poisson((2.0, 1.0, 1.0)), f=0.75,
                                  epsilon=0.0, horizon=10.0, n_runs=0, seed=3)


class TestGof:
    def test_insufficient_data_sentinel(self):
        bank = KernelBank.poisson((2.0, 1.0, 1.0))
        path = simulate(bank, SimConfig(horizon=5.0, seed=1))
        report = gof_report(path, bank)
        assert report[3].insufficient and report[3].p_value is None

    def test_well_specified_passes(self):
        bank = KernelBank.poisson((2.0, 1.0, 1.0))
        path = simulate(bank, SimConfig(horizon=500.0, seed=2))
        report = gof_report(path, bank)
        assert all(not e.insufficient for e in report.values())
        assert all(e.p_value > 0.01 for e in report.values())
