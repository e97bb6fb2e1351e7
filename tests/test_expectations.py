import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hawkes_evolve import (
    DegenerateParametersError,
    KernelBank,
    NoStationaryRateError,
    RegimeKind,
    abc_coefficients,
    asymptotic_rates,
    bank_from_json,
    bank_to_json,
    classify_regime,
    critical_fitness,
    expected_count,
    expected_intensity_paper,
    expected_intensity_renewal,
    univariate_remark_intensity,
)


rates = st.floats(0.1, 3.0)
jumps = st.floats(0.0, 1.5)
decays = st.floats(0.5, 3.0)


@st.composite
def random_banks(draw, jumps=jumps):
    return KernelBank.exponential(
        draw(st.tuples(rates, rates, rates)),
        draw(st.tuples(st.tuples(jumps, jumps), st.tuples(jumps, jumps))),
        draw(st.tuples(decays, decays)), draw(jumps), draw(decays))


# Mutant and clone rows alike: the bank the Monte Carlo checks read.
CROSS_BANK = KernelBank.exponential(
    (1.0, 0.8, 1.2), ((0.4, 0.6), (0.4, 0.6)), (1.0, 1.5), 0.4, 1.0)


def univariate_bank(lam0=1.0, alpha=1.0, beta=2.0):
    """Bank where only process 1 self-excites; processes 2 and 3 are idle."""
    return KernelBank.exponential(
        (lam0, 1.0, 1.0), ((alpha, 0.0), (0.0, 0.0)), (beta, 3.0), 0.0, 1.0)


class TestABCCoefficients:
    def test_poisson(self):
        bank = KernelBank.poisson((2.0, 1.0, 1.0))
        c = abc_coefficients(bank, 1)
        assert (c.a, c.b, c.c) == (0.0, 0.0, 2.0)

    def test_univariate_example(self):
        c = abc_coefficients(univariate_bank(), 1)
        assert (c.a, c.b, c.c) == pytest.approx((-0.5, 0.0, 1.5))

    def test_equal_betas_degenerate(self):
        bank = KernelBank.exponential(
            (1.0, 1.0, 1.0), ((0.5, 0.2), (0.1, 0.3)), (2.0, 2.0), 0.1, 1.0)
        with pytest.raises(DegenerateParametersError):
            abc_coefficients(bank, 1)

    def test_equal_betas_poisson_allowed(self):
        bank = KernelBank.exponential(
            (1.0, 1.0, 1.0), ((0.0, 0.0), (0.0, 0.0)), (2.0, 2.0), 0.0, 1.0)
        assert abc_coefficients(bank, 1).c == 1.0

    @given(
        base=st.tuples(*[st.floats(0.1, 5)] * 2),
        alphas=st.tuples(*[st.floats(0, 2)] * 4),
        b1=st.floats(0.5, 3), gap=st.floats(0.1, 3),
    )
    @settings(max_examples=100, deadline=None)
    def test_curve_starts_at_base_rate(self, base, alphas, b1, gap):
        bank = KernelBank.exponential(
            (base[0], base[1], 1.0),
            ((alphas[0], alphas[1]), (alphas[2], alphas[3])),
            (b1, b1 + gap), 0.0, 1.0)
        for i in (1, 2):
            c = abc_coefficients(bank, i)
            assert c.a + c.b + c.c == pytest.approx(bank.base_rates[i - 1], rel=1e-9)


class TestClosedFormIntensity:
    def test_starts_at_base_rate(self):
        bank = KernelBank.exponential(
            (1.0, 0.8, 1.2), ((0.4, 0.6), (0.2, 0.3)), (1.0, 1.5), 0.4, 1.0)
        for i in (1, 2, 3):
            assert expected_intensity_paper(bank, i, 0.0) == pytest.approx(
                bank.base_rates[i - 1])

    def test_death_limit(self):
        bank = KernelBank.exponential(
            (1.0, 1.0, 1.0), ((0.0, 0.0), (0.0, 0.0)), (1.0, 2.0), 1.0, 2.0)
        assert expected_intensity_paper(bank, 3, 200.0) == pytest.approx(1.5)

    def test_poisson_is_flat(self):
        bank = KernelBank.poisson((2.0, 1.0, 1.0))
        t = np.linspace(0, 30, 7)
        assert expected_intensity_paper(bank, 1, t) == pytest.approx([2.0] * 7)

    @pytest.mark.parametrize("i", [0, 4])
    def test_index_checked(self, i):
        # The message once read "index must be 1 or 2", from abc_coefficients.
        with pytest.raises(ValueError, match="index must be 1, 2 or 3"):
            expected_intensity_paper(KernelBank.poisson((2.0, 1.0, 1.0)), i, 1.0)


class TestRenewal:
    def test_poisson_matches_paper_exactly(self):
        bank = KernelBank.poisson((2.0, 1.0, 1.0))
        grid = np.linspace(0, 10, 21)
        for i in (1, 2, 3):
            paper = np.broadcast_to(expected_intensity_paper(bank, i, grid), grid.shape)
            renewal = expected_intensity_renewal(bank, i, grid)
            assert np.max(np.abs(paper - renewal)) < 1e-12

    def test_univariate_steady_state(self):
        grid = np.linspace(0, 25, 26)
        y = expected_intensity_renewal(univariate_bank(), 1, grid)
        assert y[-1] == pytest.approx(2.0, abs=1e-4)

    def test_univariate_matches_remark_formula(self):
        grid = np.linspace(0, 10, 201)
        y = expected_intensity_renewal(univariate_bank(), 1, grid)
        remark = univariate_remark_intensity(1.0, 1.0, 2.0, grid)
        assert np.max(np.abs(y - remark)) < 1e-5

    def test_paper_and_remark_disagree(self):
        # The two analytic routes have different steady states (1.5 vs 2.0);
        # they are kept separate deliberately.
        paper = expected_intensity_paper(univariate_bank(), 1, 50.0)
        remark = univariate_remark_intensity(1.0, 1.0, 2.0, 50.0)
        assert paper == pytest.approx(1.5, abs=1e-6)
        assert remark == pytest.approx(2.0, abs=1e-6)

    @given(bank=random_banks())
    @settings(max_examples=40, deadline=None)
    def test_solves_the_renewal_equation(self, bank):
        # y_i(t) = lambda0_i + sum_j int_0^t phi_ji(t - u) y_j(u) du, with the
        # integral by the trapezoid rule on a fine grid.
        grid = np.linspace(0.0, 5.0, 4001)
        h = grid[1]
        y = {i: expected_intensity_renewal(bank, i, grid) for i in (1, 2, 3)}
        # phi_ji(t) = alpha exp(-beta t), read from the tables; the entries
        # that couple births and deaths are zero.
        for i in (1, 2, 3):
            for m in range(400, grid.size, 400):
                lag = grid[m] - grid[:m + 1]
                rhs = bank.base_rates[i - 1]
                for j in (1, 2, 3):
                    phi = bank.jumps[j - 1][i - 1] * np.exp(-bank.betas[i - 1] * lag)
                    f = phi * y[j][:m + 1]
                    rhs += h * (f.sum() - 0.5 * (f[0] + f[-1]))
                assert rhs == pytest.approx(y[i][m], rel=1e-5)

    @given(bank=random_banks())
    @settings(max_examples=40, deadline=None)
    def test_count_slope_is_intensity(self, bank):
        h = 1e-4
        grid = [0.0, 0.5, 2.0, 5.0]
        for i in (1, 2, 3):
            y = expected_intensity_renewal(bank, i, grid)
            assert y[0] == bank.base_rates[i - 1]
            assert expected_count(bank, i, 0.0, "renewal") == 0.0
            for t, y_t in zip(grid[1:], y[1:]):
                slope = (expected_count(bank, i, t + h, "renewal")
                         - expected_count(bank, i, t - h, "renewal")) / (2 * h)
                assert slope == pytest.approx(y_t, rel=1e-6)

    def test_renewal_curve_consistency(self):
        bank = univariate_bank()
        assert expected_intensity_renewal(bank, 1, [0.0])[0] == pytest.approx(1.0, abs=1e-9)
        counts = [expected_count(bank, 1, t, "renewal") for t in np.linspace(0, 10, 11)]
        assert counts[0] == 0.0
        assert all(b >= a for a, b in zip(counts, counts[1:]))

    # Jumps of at most 0.2 against decay rates of at least 0.5 keep every
    # column of the branching matrix below 0.8: subcritical by construction.
    @given(bank=random_banks(jumps=st.floats(0.0, 0.2)))
    @settings(max_examples=40, deadline=None)
    def test_tends_to_stationary_rates(self, bank):
        limits = asymptotic_rates(bank, "renewal")
        for i in (1, 2, 3):
            assert expected_intensity_renewal(bank, i, [0.0, 2000.0])[-1] == pytest.approx(
                limits[i - 1], rel=1e-8)

    @pytest.mark.parametrize("grid, points", [([1.0, 2.0], [1, 2]), ([1.0, 2.0, 2.0], [1, 2, 2])],
                             ids=["late_start", "repeated"])
    def test_each_time_is_solved_alone(self, grid, points):
        # These grids were once refused by a rule that a grid increase from
        # 0, left from a solver that stepped forward from t = 0.
        for i in (1, 2, 3):
            from_zero = expected_intensity_renewal(CROSS_BANK, i, [0.0, 1.0, 2.0])
            assert expected_intensity_renewal(CROSS_BANK, i, grid).tolist() == \
                from_zero[points].tolist()

    def test_stationary_rates_at_long_horizons(self):
        # The horizons a long Monte Carlo run reads, asked directly.  The
        # largest relative errors were 9.3e-14 at t = 1e4 and 2.5e-11 at 1e5.
        limits = asymptotic_rates(CROSS_BANK, "renewal")
        for i in (1, 2, 3):
            assert expected_intensity_renewal(CROSS_BANK, i, [1e4, 1e5]) == pytest.approx(
                [limits[i - 1]] * 2, rel=1e-9, abs=0)


class TestExpectedCount:
    def test_zero_horizon(self):
        assert expected_count(KernelBank.poisson((2.0, 1.0, 1.0)), 1, 0.0) == 0.0

    def test_poisson_mean(self):
        assert expected_count(KernelBank.poisson((2.0, 1.0, 1.0)), 1, 3.0) == pytest.approx(6.0)

    def test_death_count_closed_form(self):
        bank = KernelBank.exponential(
            (1.0, 1.0, 1.0), ((0.0, 0.0), (0.0, 0.0)), (1.0, 2.0), 1.0, 2.0)
        expected = 1.5 + (math.exp(-2.0) - 1.0) / 4.0
        assert expected_count(bank, 3, 1.0, "paper") == pytest.approx(expected)
        # Quadrature of the closed-form curve agrees with its antiderivative.
        from scipy.integrate import quad

        by_quad, _ = quad(lambda t: expected_intensity_paper(bank, 3, t), 0.0, 1.0)
        assert by_quad == pytest.approx(expected, abs=1e-9)
        # The renewal route has a different steady state (self-excitation
        # feeds back through the renewal integral), so its count differs.
        assert expected_count(bank, 3, 1.0, "renewal") > expected

    def test_count_derivative_is_intensity(self):
        bank = KernelBank.exponential(
            (1.0, 0.8, 1.2), ((0.4, 0.6), (0.2, 0.3)), (1.0, 1.5), 0.4, 1.0)
        h = 1e-5
        for i in (1, 2, 3):
            for t in (0.5, 2.0, 7.0):
                slope = (expected_count(bank, i, t + h, "paper")
                         - expected_count(bank, i, t - h, "paper")) / (2 * h)
                assert slope == pytest.approx(
                    expected_intensity_paper(bank, i, t), rel=1e-4)


class TestTimeChecks:
    """NaN passes a ``t < 0`` check; every mean curve must refuse it.

    At t = inf the paper intensity reads its limit; the renewal route,
    whose expm(inf * M) is NaN, refuses it, and so does every count.
    """

    BANK = KernelBank.exponential(
        (1.0, 0.8, 1.2), ((0.4, 0.6), (0.2, 0.3)), (1.0, 1.5), 0.4, 1.0)

    @pytest.mark.parametrize("t", [math.nan, [0.0, math.nan]], ids=["scalar", "array"])
    def test_paper_intensity(self, t):
        with pytest.raises(ValueError, match="t must be >= 0"):
            expected_intensity_paper(self.BANK, 1, t)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_renewal_intensity(self, t):
        with pytest.raises(ValueError, match="t must be finite and >= 0"):
            expected_intensity_renewal(self.BANK, 2, [0.0, t])

    @pytest.mark.parametrize("method", ["paper", "renewal"])
    def test_count(self, method):
        with pytest.raises(ValueError, match="t must be finite and >= 0"):
            expected_count(self.BANK, 1, math.nan, method)

    def test_renewal_count_at_infinity(self):
        with pytest.raises(ValueError, match="t must be finite and >= 0"):
            expected_count(self.BANK, 1, math.inf, "renewal")

    @pytest.mark.parametrize("method, t, message", [
        ("bogus", 0.0, "unknown method 'bogus'"),
        ("bogus", math.nan, "unknown method 'bogus'"),
        ("paper", math.inf, "t must be finite and >= 0"),
    ], ids=["method_at_zero", "method_before_t", "paper_at_infinity"])
    def test_count_checked_before_the_zero_shortcut(self, method, t, message):
        # An unknown method at t = 0 once returned 0.0, and the paper count
        # at t = inf returned inf where the renewal count refuses it.
        with pytest.raises(ValueError, match=message):
            expected_count(self.BANK, 1, t, method)

    @pytest.mark.parametrize("i", [1, 2, 3])
    def test_paper_intensity_at_infinity_is_the_limit(self, i):
        limit = asymptotic_rates(self.BANK, "paper")[i - 1]
        assert expected_intensity_paper(self.BANK, i, math.inf) == limit


class TestAsymptoticRates:
    def test_poisson_both_methods(self):
        bank = KernelBank.poisson((2.0, 1.0, 1.0))
        assert asymptotic_rates(bank, "paper") == pytest.approx((2.0, 1.0, 1.0))
        assert asymptotic_rates(bank, "renewal") == pytest.approx((2.0, 1.0, 1.0))

    def test_univariate_methods_differ(self):
        bank = univariate_bank()
        assert asymptotic_rates(bank, "paper")[0] == pytest.approx(1.5)
        assert asymptotic_rates(bank, "renewal")[0] == pytest.approx(2.0)

    def test_death_rate_paper(self):
        bank = KernelBank.exponential(
            (1.0, 1.0, 1.0), ((0.0, 0.0), (0.0, 0.0)), (1.0, 2.0), 1.0, 2.0)
        assert asymptotic_rates(bank, "paper")[2] == pytest.approx(1.5)

    def test_supercritical_branching_refused(self):
        bank = KernelBank.exponential(
            (1.0, 1.0, 1.0), ((3.0, 0.0), (0.0, 0.0)), (2.0, 3.0), 0.0, 1.0)
        with pytest.raises(NoStationaryRateError):
            asymptotic_rates(bank, "renewal")

    @pytest.mark.parametrize("a3", [1.0, 1.5], ids=["critical", "supercritical"])
    def test_supercritical_deaths_refused(self, a3):
        # The births alone are subcritical; the death kernel's norm a3 / b3 is not.
        bank = KernelBank.exponential(
            (1.0, 1.0, 1.0), ((0.4, 0.2), (0.1, 0.3)), (2.0, 3.0), a3, 1.0)
        with pytest.raises(NoStationaryRateError):
            asymptotic_rates(bank, "renewal")

    @pytest.mark.parametrize("where, name", [
        (("birth_kernels", 0, 1), r"birth_kernels\[0\]\[1\]"),
        (("death_kernel",), "death_kernel"),
    ], ids=["birth", "death"])
    def test_offsets_refused(self, where, name):
        # An offset makes its kernel's L1 norm infinite.  No bank carries
        # one: a file's is refused when read, naming the kernel.
        doc = json.loads(bank_to_json(KernelBank.exponential(
            (1.0, 1.0, 1.0), ((0.4, 0.2), (0.1, 0.3)), (2.0, 3.0), 0.4, 1.0)))
        node = doc
        for key in where:
            node = node[key]
        node["delta"] = 0.1
        with pytest.raises(ValueError, match=f"^{name} delta must be 0"):
            bank_from_json(json.dumps(doc))


class TestCriticalFitness:
    def test_poisson(self):
        bank = KernelBank.poisson((2.0, 1.0, 1.0))
        assert critical_fitness(bank, "paper") == pytest.approx(0.5)
        assert critical_fitness(bank, "renewal") == pytest.approx(0.5)

    def test_equal_parameter_special_case(self):
        # All jump sizes and decay rates equal; the closed form collapses to
        # lam3 / (lam1 + lam2 * a / (a + b)).
        bank = KernelBank.exponential(
            (1.5, 1.0, 1.0), ((1.0, 1.0), (1.0, 1.0)), (1.0, 1.0), 1.0, 1.0)
        assert critical_fitness(bank, "paper") == pytest.approx(0.5)

    @given(bank=random_banks())
    # The paper limit of the mutant rate is exactly 0 here:
    # 1 + 1/1 - 1/(1 * 0.5).
    @example(bank=KernelBank.exponential(
        (1.0, 1.0, 1.0), ((1.0, 0.0), (0.0, 1.0)), (1.0, 0.5), 0.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_is_the_ratio_of_the_asymptotic_rates(self, bank):
        import warnings

        for method in ("paper", "renewal"):
            try:
                lam = asymptotic_rates(bank, method)
            except NoStationaryRateError:
                continue
            if lam[0] == 0:
                with pytest.raises(DegenerateParametersError):
                    critical_fitness(bank, method)
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                assert critical_fitness(bank, method) == lam[2] / lam[0]

    def test_equal_decay_rates(self):
        # HAWKES_BANK with both birth decay rates at 1: the paper curve is
        # singular there, but its limit is not, and it is the limit of
        # nearby distinct rates.
        bank = KernelBank.exponential(
            (1.0, 0.8, 1.2), ((0.4, 0.6), (0.2, 0.3)), (1.0, 1.0), 0.4, 1.0)
        lam = asymptotic_rates(bank, "paper")
        assert (lam[0], lam[2]) == pytest.approx((1.56, 1.68), rel=1e-12)
        assert critical_fitness(bank, "paper") == pytest.approx(1.68 / 1.56, rel=1e-12)
        near = KernelBank.exponential(
            (1.0, 0.8, 1.2), ((0.4, 0.6), (0.2, 0.3)), (1.0, 1.0 + 1e-7), 0.4, 1.0)
        assert asymptotic_rates(near, "paper") == pytest.approx(lam, rel=1e-6)
        with pytest.raises(DegenerateParametersError):
            abc_coefficients(bank, 1)
        report = classify_regime(bank)
        assert report.fc_paper == pytest.approx(1.68 / 1.56, rel=1e-12)

    def test_bounds_hold_silently(self):
        bank = KernelBank.exponential(
            (1.0, 0.8, 1.2), ((0.4, 0.6), (0.2, 0.3)), (1.0, 1.5), 0.4, 1.0)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fc = critical_fitness(bank, "paper")
        assert fc > 0


class TestRegimes:
    def test_regime_trichotomy(self):
        assert classify_regime(KernelBank.poisson((1.0, 1.0, 3.0))).regime \
            is RegimeKind.SUBCRITICAL
        # The critical case, deaths equal to births in the mean, is subcritical.
        assert classify_regime(KernelBank.poisson((1.0, 1.0, 2.0))).regime \
            is RegimeKind.SUBCRITICAL
        report = classify_regime(KernelBank.poisson((2.0, 1.0, 1.0)))
        assert report.regime is RegimeKind.PHASE_TRANSITION
        assert report.fc_paper == pytest.approx(0.5)
        assert classify_regime(KernelBank.poisson((1.0, 2.0, 1.5))).regime \
            is RegimeKind.CONCENTRATION_AT_ONE

    def test_exploding_bank_has_no_regime(self):
        # The paper limits are negative here and would read subcritical,
        # but the branching matrix is supercritical: the births explode.
        bank = KernelBank.exponential(
            (1.0, 1.0, 1.2), ((6.0, 0.0), (0.0, 6.0)), (2.0, 2.5), 0.4, 1.0)
        with pytest.raises(NoStationaryRateError):
            classify_regime(bank)

    def test_report_json_fields(self):
        doc = classify_regime(KernelBank.poisson((2.0, 1.0, 1.0))).to_dict()
        assert set(doc) == {"lambda_asym_paper", "lambda_asym_renewal",
                            "fc_paper", "fc_renewal", "regime"}
        assert doc["regime"] == "phase_transition"

