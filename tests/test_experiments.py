import math

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

    def test_needs_two_paths(self):
        with pytest.raises(ValueError):
            mc_mean_intensity(KernelBank.poisson((1.0, 1.0, 1.0)),
                              np.linspace(0, 1, 3), 1, seed=1)

    def test_unsorted_grid_rejected_before_any_path(self):
        # The renewal curve would only have rejected the grid after every
        # path was simulated.
        with pytest.raises(ValueError, match="t_grid"):
            mc_mean_intensity(HAWKES_BANK, [0.0, 10.0, 5.0], 10**6, seed=1)

    @pytest.mark.parametrize("grid", [[0.0, math.nan, 2.0], [-1.0, 0.0, 1.0], [0.0, math.inf]],
                             ids=["nan", "negative", "inf"])
    def test_bad_grid_error_names_t_grid(self, grid):
        # These once raised from SimConfig, naming record_grid or the horizon.
        with pytest.raises(ValueError, match="^t_grid"):
            mc_mean_intensity(HAWKES_BANK, grid, 10**6, seed=1)

    @pytest.mark.parametrize("grid", [[0.0, 1.0, 1.0], [1.0, 2.0]],
                             ids=["repeated", "late_start"])
    def test_renewal_grid_rejected_before_any_path(self, grid):
        # SimConfig accepts these grids; the renewal curve does not, and
        # 10^6 paths would take minutes before it raised.
        with pytest.raises(ValueError, match="t_grid must increase from 0"):
            mc_mean_intensity(HAWKES_BANK, grid, 10**6, seed=1)

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
        # l1 = 1.9, l2 = 1.1; relaxation 2 * (0.3*2 + 0.2*1 - 0.9) = -0.2;
        # jumps 1.9 * (0.5 + 0.3) + 1.1 * (0.3 + 0.2) = 2.07.
        bank = KernelBank.exponential((1.0, 0.8, 1.2), ((0.5, 0.2), (0.3, 0.4)), (2.0, 3.0),
                                      0.4, 1.0, deltas=((0.3, 0.1), (0.2, 0.05)),
                                      death_delta=0.2)
        state = IntensityState(xi=(0.9, 0.3, 0.5), counts=(2, 1, 1))
        assert generator_apply(bank, state, lambda z: z[1]) == pytest.approx(1.87, rel=1e-6)


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
    zetas = np.empty((n_reps, 6))
    zetas[:, 0::2] = batch.counts
    zetas[:, 1::2] = np.array(bank.base_rates) + batch.xi
    for k, f in enumerate(functions):
        d[k] = [(f(z) - f(zeta0)) / h for z in zetas]
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
