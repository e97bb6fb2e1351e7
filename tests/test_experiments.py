import numpy as np
import pytest

from hawkes_evolve import (
    IntensityState,
    KernelBank,
    SimConfig,
    generator_apply,
    generator_drift_check,
    gof_report,
    mc_mean_intensity,
    rho_convergence_check,
    simulate,
    simulate_markov,
    zero_occupation_fraction,
)
from hawkes_evolve.experiments import _knee_estimate
from hawkes_evolve.simulate import BATCH_BLOCK

HAWKES_BANK = KernelBank.exponential(
    (1.0, 0.8, 1.2), ((0.4, 0.6), (0.2, 0.3)), (1.0, 1.5), 0.4, 1.0)
CROSS_BANK = KernelBank.exponential(
    (1.0, 0.8, 1.2), ((0.4, 0.6), (0.4, 0.6)), (1.0, 1.5), 0.4, 1.0)


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

    def test_blocks_do_not_depend_on_threads(self):
        grid = np.linspace(0.0, 2.0, 5)
        n = BATCH_BLOCK + 52
        one = mc_mean_intensity(HAWKES_BANK, grid, n, seed=9, threads=1)
        two = mc_mean_intensity(HAWKES_BANK, grid, n, seed=9, threads=2)
        assert np.array_equal(one.mean, two.mean)
        assert np.array_equal(one.stderr, two.stderr)

    def test_needs_two_paths(self):
        with pytest.raises(ValueError):
            mc_mean_intensity(KernelBank.poisson((1.0, 1.0, 1.0)),
                              np.linspace(0, 1, 3), 1, seed=1)

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
        # both birth rates jump l1 by the mutant's alpha, since a clone
        # opening the path becomes a mutant.
        bank = HAWKES_BANK
        expected = (bank.base_rates[0] + bank.base_rates[1]) * bank.birth_kernels[0][0].alpha
        got = generator_apply(bank, IntensityState(), lambda z: z[1])
        assert got == pytest.approx(expected, rel=1e-6)

    def test_first_clone_counts_as_mutant(self):
        bank = HAWKES_BANK
        assert generator_apply(bank, IntensityState(), lambda z: z[0]) == pytest.approx(
            bank.base_rates[0] + bank.base_rates[1], rel=1e-12)
        assert generator_apply(bank, IntensityState(), lambda z: z[2]) == 0.0
        # Off the empty state a clone stays a clone.
        state = IntensityState(counts=(1, 0, 0))
        assert generator_apply(bank, state, lambda z: z[0]) == pytest.approx(
            bank.base_rates[0], rel=1e-12)

    def test_death_count_gated_at_empty(self):
        assert generator_apply(HAWKES_BANK, IntensityState(), lambda z: z[4]) == 0.0

    def test_death_count_open_gate(self):
        state = IntensityState(counts=(1, 0, 0))
        got = generator_apply(HAWKES_BANK, state, lambda z: z[4])
        assert got == pytest.approx(HAWKES_BANK.base_rates[2], rel=1e-9)

    def test_offset_jumps_by_alpha_plus_delta(self):
        # l1 = 1.9, l2 = 1.1; relaxation 2 * (0.3*2 + 0.2*1 - 0.9) = -0.2;
        # jumps 1.9 * (0.5 + 0.3) + 1.1 * (0.3 + 0.2) = 2.07.
        bank = KernelBank.exponential((1.0, 0.8, 1.2), ((0.5, 0.2), (0.3, 0.4)), (2.0, 3.0),
                                      0.4, 1.0, deltas=((0.3, 0.1), (0.2, 0.05)),
                                      death_delta=0.2)
        state = IntensityState(xi=(0.9, 0.3, 0.5), counts=(2, 1, 1))
        assert generator_apply(bank, state, lambda z: z[1]) == pytest.approx(1.87, rel=1e-6)


class TestGeneratorDrift:
    def test_constant_function_exact(self):
        checks = generator_drift_check(HAWKES_BANK, IntensityState(),
                                       [lambda z: 1.0], n_reps=200, seed=1)
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
        # HAWKES_BANK's clone kernels differ from its mutant kernels, so
        # the first-clone rule shows in n1 and l1 at the empty state.
        checks = generator_drift_check(HAWKES_BANK, IntensityState(),
                                       [lambda z: z[0], lambda z: z[1]],
                                       n_reps=60_000, seed=5)
        assert [c.analytic for c in checks] == pytest.approx([1.8, 0.72], rel=1e-6)
        assert all(abs(c.z) < 4.0 for c in checks)

    def test_population_drift_close(self):
        checks = generator_drift_check(HAWKES_BANK, IntensityState(),
                                       [lambda z: z[0] + z[2] - z[4]],
                                       n_reps=20_000, seed=2)
        assert abs(checks[0].z) < 4.0


class TestSummaries:
    def test_zero_occupation_quantiles(self):
        bank = KernelBank.poisson((1.0, 1.0, 3.0))
        paths = [simulate(bank, SimConfig(horizon=100.0, seed=s)) for s in range(8)]
        summary = zero_occupation_fraction(paths)
        assert np.all((summary.fractions >= 0) & (summary.fractions <= 1))
        assert summary.quantiles[0.5] == summary.median

    def test_zero_occupation_divides_by_elapsed_time(self):
        start = IntensityState(counts=(1, 0, 1), clock=100.0)
        paths = [simulate_markov(HAWKES_BANK, SimConfig(horizon=3.0, seed=s),
                                 initial_state=start) for s in range(200)]
        summary = zero_occupation_fraction(paths)
        expected = [p.zero_occupation_time / 3.0 for p in paths]
        assert summary.fractions.tolist() == expected
        assert summary.median > 0.1

    def test_knee_estimator_on_linear_ramp(self):
        f = np.linspace(0, 1, 51)
        cdf = np.maximum(f - 0.5, 0.0) / 0.5
        assert _knee_estimate(f, cdf) == pytest.approx(0.5, abs=0.05)

    def test_knee_estimator_flat(self):
        f = np.linspace(0, 1, 11)
        assert _knee_estimate(f, np.zeros_like(f)) == 1.0


class TestRhoCheck:
    def test_short_run_shape(self):
        report = rho_convergence_check(KernelBank.poisson((2.0, 1.0, 1.0)),
                                       f=0.75, epsilon=0.0, horizon=200.0,
                                       n_runs=5, seed=3)
        assert report.terminal_rho.shape == (5,)
        assert report.limit_paper == pytest.approx(0.25)
        assert report.limit_renewal == pytest.approx(0.25)
        assert 0.0 <= report.mean_rho <= 1.0


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
