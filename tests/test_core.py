import json
import math
import tracemalloc

import numpy as np
import pytest

from hawkes_evolve import (
    EventLog,
    ExpKernel,
    IntensityState,
    KernelBank,
    Mark,
    SimConfig,
    bank_from_json,
    bank_to_json,
    simulate_markov,
)


def exp_bank(alphas=((0.5, 0.2), (0.3, 0.4)), betas=(2.0, 3.0), a3=0.4, b3=1.0,
             base=(1.0, 0.8, 1.2), **kw):
    return KernelBank.exponential(base, alphas, betas, a3, b3, **kw)


class TestKernels:
    def test_eval_at_zero(self):
        assert ExpKernel(1.0, 2.0)(0.0) == 1.0

    def test_eval_decay(self):
        assert ExpKernel(1.0, 2.0)(math.log(2)) == pytest.approx(0.25, abs=1e-15)

    def test_eval_zero_alpha(self):
        assert ExpKernel(0.0, 5.0)(3.7) == 0.0

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            ExpKernel(1.0, 2.0)(-0.1)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ExpKernel(-1.0, 2.0)
        with pytest.raises(ValueError):
            ExpKernel(1.0, 0.0)
        with pytest.raises(ValueError):
            ExpKernel(1.0, 2.0, -0.5)

    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("field", ["alpha", "beta", "delta"])
    def test_non_finite_parameters_rejected(self, field, value):
        params = {"alpha": 1.0, "beta": 2.0, "delta": 0.0, field: value}
        with pytest.raises(ValueError, match=field):
            ExpKernel(**params)


class TestKernelBank:
    def test_shared_beta_enforced(self):
        with pytest.raises(ValueError):
            KernelBank(
                (1.0, 1.0, 1.0),
                ((ExpKernel(0.1, 2.0), ExpKernel(0.1, 3.0)),
                 (ExpKernel(0.1, 2.5), ExpKernel(0.1, 3.0))),
                ExpKernel(0.1, 1.0),
            )

    def test_non_exponential_kernel_rejected(self):
        k = ExpKernel(0.1, 2.0)
        with pytest.raises(ValueError):
            KernelBank((1.0, 1.0, 1.0), ((k, k), (k, k)), lambda t: 0.1 * math.exp(-t))
        with pytest.raises(ValueError):
            KernelBank((1.0, 1.0, 1.0), ((k, lambda t: 0.0), (k, k)), k)

    def test_positive_base_rates(self):
        with pytest.raises(ValueError):
            KernelBank.poisson((1.0, 0.0, 1.0))

    @pytest.mark.parametrize("rate", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_base_rates_rejected(self, rate):
        with pytest.raises(ValueError, match="base_rates"):
            KernelBank.poisson((1.0, rate, 1.0))

    def test_betas_are_the_decay_rates_of_xi(self):
        bank = exp_bank(betas=(2.0, 3.0), b3=1.5)
        assert bank.betas == (2.0, 3.0, 1.5)

    def test_offsets_are_the_deltas_by_mark_and_target(self):
        # Row m - 1, column i - 1: the offset of mark m's kernel on lambda_i.
        # The deltas are asymmetric, so a transposed table fails here.
        bank = exp_bank(deltas=((0.1, 0.2), (0.3, 0.4)), death_delta=0.5)
        assert bank.offsets == ((0.1, 0.2, 0.0), (0.3, 0.4, 0.0), (0.0, 0.0, 0.5))
        assert exp_bank().offsets == ((0.0,) * 3,) * 3

    def test_poisson_constructor(self):
        bank = KernelBank.poisson((2.0, 1.0, 1.0))
        assert all(
            bank.birth_kernels[j][i].alpha == 0 for j in range(2) for i in range(2)
        )

    def test_json_round_trip(self):
        bank = exp_bank()
        again = bank_from_json(bank_to_json(bank))
        assert again == bank

    def test_json_unknown_bank_key(self):
        doc = json.loads(bank_to_json(exp_bank()))
        doc["extra"] = 1
        with pytest.raises(ValueError):
            bank_from_json(json.dumps(doc))

    def test_json_unknown_kernel_key(self):
        doc = json.loads(bank_to_json(exp_bank()))
        doc["death_kernel"]["gamma"] = 1
        with pytest.raises(ValueError):
            bank_from_json(json.dumps(doc))

    @pytest.mark.parametrize("where, field", [
        (("base_rates", 1), "base_rates"),
        (("birth_kernels", 0, 1, "alpha"), "alpha"),
        (("death_kernel", "beta"), "beta"),
    ], ids=["base_rate", "alpha", "beta"])
    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    def test_json_non_finite_values_rejected(self, where, field, value):
        # json.loads reads NaN and Infinity.  A NaN base rate once made the
        # engine reject every candidate, so a path never ended.
        doc = json.loads(bank_to_json(exp_bank()))
        node = doc
        for key in where[:-1]:
            node = node[key]
        node[where[-1]] = value
        with pytest.raises(ValueError, match=field):
            bank_from_json(json.dumps(doc))

    def test_json_default_delta(self):
        doc = json.loads(bank_to_json(exp_bank()))
        del doc["death_kernel"]["delta"]
        assert bank_from_json(json.dumps(doc)).death_kernel.delta == 0.0


class TestIntensityState:
    """The gate as the Markov engine reads it from a starting state."""

    @staticmethod
    def intensities_from(state):
        config = SimConfig(horizon=1.0, seed=1, record_grid=(0.0,))
        return tuple(simulate_markov(exp_bank(), config, initial_state=state)
                     .intensity_samples[0, :3])

    def test_gate_closed_when_empty(self):
        assert self.intensities_from(IntensityState()) == (1.0, 0.8, 0.0)

    def test_gate_open(self):
        state = IntensityState(xi=(0.3, 0.0, 0.5), counts=(1, 0, 0))
        assert self.intensities_from(state) == (1.3, 0.8, 1.7)

    def test_gate_closes_on_balance(self):
        state = IntensityState(xi=(0.0, 0.0, 9.0), counts=(2, 1, 3))
        assert self.intensities_from(state)[2] == 0.0

    def test_negative_population_rejected(self):
        with pytest.raises(ValueError):
            IntensityState(counts=(0, 0, 1))


class TestEventLog:
    def test_strictly_increasing(self):
        with pytest.raises(ValueError):
            EventLog([1.0, 1.0], [Mark.MUTANT, Mark.CLONE])

    def test_first_event_may_be_a_clone(self):
        assert EventLog([0.5], [Mark.CLONE]).counts() == (0, 1, 0)

    def test_prefix_population_nonnegative(self):
        with pytest.raises(ValueError):
            EventLog([0.5, 1.0, 1.5], [Mark.MUTANT, Mark.DEATH, Mark.DEATH])

    def test_initial_counts_allow_a_first_death(self):
        log = EventLog([0.5], [Mark.DEATH], initial_counts=(2, 0, 0))
        assert log.counts() == (2, 0, 1)

    def test_counts_at_time(self):
        log = EventLog([0.5, 1.0, 2.0], [Mark.MUTANT, Mark.CLONE, Mark.DEATH])
        assert log.counts(0.9) == (1, 0, 0)
        assert log.counts(1.0) == (1, 1, 0)
        assert log.counts(0.1) == (0, 0, 0)
        assert log.counts() == (1, 1, 1)

    def test_marks_outside_one_to_three_rejected(self):
        for mark in (0, 4, 259, 1.5):
            with pytest.raises(ValueError):
                EventLog([0.5], [mark], initial_counts=(1, 0, 0))

    def test_non_finite_times_rejected(self):
        for times in ([math.nan, 1.0], [0.5, math.inf]):
            with pytest.raises(ValueError):
                EventLog(times, [Mark.MUTANT, Mark.CLONE])

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            EventLog([-0.5], [Mark.MUTANT])

    def test_build_peak_memory_per_event(self):
        # The checks' temporaries are freed before the read-only copies
        # (8 + 1 bytes per event) are made.
        n = 200_000
        times = np.arange(1.0, n + 1.0)
        marks = np.resize(np.array([1, 2, 3], dtype=np.int8), n)
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            log = EventLog(times, marks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(log) == n
        assert peak / n <= 10

    def test_arrays_are_read_only_copies(self):
        times = np.array([0.5, 1.0])
        log = EventLog(times, [1, 2])
        times[0] = 0.7
        assert log.times.dtype == np.float64 and log.marks.dtype == np.int8
        assert log.times.tolist() == [0.5, 1.0] and log.marks.tolist() == [1, 2]
        with pytest.raises(ValueError):
            log.times[0] = 0.1
        with pytest.raises(ValueError):
            log.marks[0] = 2
