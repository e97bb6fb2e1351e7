import hashlib
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from hawkes_evolve import (
    EventLog,
    IntensityState,
    KernelBank,
    Mark,
    SimConfig,
    bank_from_json,
    bank_to_json,
    generator_drift_check,
    intensities_at,
    simulate_markov,
    simulate_markov_batch,
)
from hawkes_evolve import experiments


def exp_bank(alphas=((0.5, 0.2), (0.3, 0.4)), betas=(2.0, 3.0), a3=0.4, b3=1.0,
             base=(1.0, 0.8, 1.2), **kw):
    return KernelBank.exponential(base, alphas, betas, a3, b3, **kw)


HAWKES_BANK = KernelBank.exponential(
    (1.0, 0.8, 1.2), ((0.4, 0.6), (0.2, 0.3)), (1.0, 1.5), 0.4, 1.0)


def death_delta_file(value):
    """exp_bank()'s file text with the death kernel's "delta" set to value."""
    doc = json.loads(bank_to_json(exp_bank()))
    doc["death_kernel"]["delta"] = value
    return json.dumps(doc)


class TestKernels:
    def test_invalid_parameters(self):
        with pytest.raises(ValueError, match="alpha"):
            exp_bank(alphas=((0.5, 0.2), (-1.0, 0.4)))
        with pytest.raises(ValueError, match="beta"):
            exp_bank(betas=(2.0, 0.0))

    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("field", ["alpha", "beta", "delta"])
    def test_non_finite_parameters_rejected(self, field, value):
        build = {"alpha": lambda: exp_bank(alphas=((0.5, value), (0.3, 0.4))),
                 "beta": lambda: exp_bank(b3=value),
                 # No constructor takes an offset: a file's is refused when read.
                 "delta": lambda: bank_from_json(death_delta_file(value))}[field]
        with pytest.raises(ValueError, match=field):
            build()


class TestKernelBank:
    def test_shared_beta_enforced(self):
        # The file holds one beta per kernel; the bank, one per intensity.
        for j, i in [(1, 0), (0, 1)]:
            doc = json.loads(bank_to_json(exp_bank()))
            doc["birth_kernels"][j][i]["beta"] = 2.5
            with pytest.raises(ValueError, match=f"kernels targeting intensity {i + 1} must "
                                                 "share their decay rate"):
                bank_from_json(json.dumps(doc))

    def test_malformed_tables_rejected(self):
        bank = exp_bank()
        zero = ((0.0,) * 3,) * 3
        with pytest.raises(ValueError, match="alpha table must be 3x3"):
            KernelBank(bank.base_rates, bank.jumps[:2], bank.betas)
        with pytest.raises(ValueError, match="betas must be three"):
            KernelBank(bank.base_rates, bank.jumps, bank.betas[:2])
        # Births never move lambda3 and deaths never move lambda1 or lambda2.
        for m, i in [(0, 2), (1, 2), (2, 0), (2, 1)]:
            table = [list(row) for row in zero]
            table[m][i] = 0.1
            with pytest.raises(ValueError, match="alpha table"):
                KernelBank(bank.base_rates, tuple(map(tuple, table)), bank.betas)

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

    def test_jumps_are_the_alphas_by_mark_and_target(self):
        # Row m - 1, column i - 1: the jump of xi_i at an event of mark m.
        # The alphas are asymmetric, so a transposed table fails here.
        assert exp_bank().jumps == ((0.5, 0.2, 0.0), (0.3, 0.4, 0.0), (0.0, 0.0, 0.4))

    def test_poisson_constructor(self):
        bank = KernelBank.poisson((2.0, 1.0, 1.0))
        assert not np.any(bank.jumps)

    def test_json_round_trip(self):
        bank = exp_bank()
        again = bank_from_json(bank_to_json(bank))
        assert again == bank

    @pytest.mark.parametrize("bank, digest", [
        (HAWKES_BANK, "6cff31466836308a9b22627374f3552070983c6b0b0c9e2c2427abf272e2790f"),
        (KernelBank.exponential((2, 1, 1), ((1, 0), (0, 1)), (3, 2), 1, 4),
         "c1c60bd1305359f150e208c6b45be8bc79437e5cd7ea69565c18e6661bbadfac"),
    ], ids=["hawkes", "int_built"])
    def test_json_text_pinned(self, bank, digest):
        # The bank file format, byte for byte: key order, nesting, and each
        # number as it was given (an int-built bank writes ints).
        assert hashlib.sha256(bank_to_json(bank).encode()).hexdigest() == digest

    def test_json_unknown_bank_key(self):
        doc = json.loads(bank_to_json(exp_bank()))
        doc["extra"] = 1
        with pytest.raises(ValueError):
            bank_from_json(json.dumps(doc))

    def test_json_unknown_kernel_key(self):
        # The message once read "unknown kernel keys", naming no kernel.
        for name, kernel_of in [("death_kernel", lambda doc: doc["death_kernel"]),
                                ("birth_kernels[1][0]", lambda doc: doc["birth_kernels"][1][0])]:
            doc = json.loads(bank_to_json(exp_bank()))
            kernel_of(doc)["gamma"] = 1
            with pytest.raises(ValueError, match=re.escape(f"{name} has unknown keys: ['gamma']")):
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

    @pytest.mark.parametrize("where, value, field", [
        (("birth_kernels", 0, 1, "alpha"), None, r"birth_kernels\[0\]\[1\] alpha"),
        (("birth_kernels", 1, 0, "beta"), "1.5", r"birth_kernels\[1\]\[0\] beta"),
        (("death_kernel", "delta"), True, "death_kernel delta"),
        (("birth_kernels", 1), 5, "birth_kernels"),
        (("base_rates",), 2.0, "base_rates"),
    ], ids=["null", "string", "bool", "row_not_a_list", "rates_not_a_list"])
    def test_json_non_numeric_values_rejected(self, where, value, field):
        # A ValueError, which the CLI reports with exit code 2, not a TypeError.
        doc = json.loads(bank_to_json(exp_bank()))
        node = doc
        for key in where[:-1]:
            node = node[key]
        node[where[-1]] = value
        with pytest.raises(ValueError, match=field):
            bank_from_json(json.dumps(doc))

    @pytest.mark.parametrize("where, message", [
        (("base_rates",), "the bank document is missing 'base_rates'"),
        (("birth_kernels",), "the bank document is missing 'birth_kernels'"),
        (("death_kernel",), "the bank document is missing 'death_kernel'"),
        (("birth_kernels", 0, 1, "alpha"), r"birth_kernels\[0\]\[1\] is missing 'alpha'"),
        (("birth_kernels", 1, 0, "beta"), r"birth_kernels\[1\]\[0\] is missing 'beta'"),
        (("death_kernel", "alpha"), "death_kernel is missing 'alpha'"),
    ], ids=["base_rates", "birth_kernels", "death_kernel", "birth_alpha", "birth_beta",
            "death_alpha"])
    def test_json_missing_key_named(self, where, message):
        # A missing key once escaped as a KeyError whose text was only the key.
        doc = json.loads(bank_to_json(exp_bank()))
        node = doc
        for key in where[:-1]:
            node = node[key]
        del node[where[-1]]
        with pytest.raises(ValueError, match=f"^{message}$"):
            bank_from_json(json.dumps(doc))

    def test_json_default_delta(self):
        # A file without "delta" and one with "delta": 0 load as the same bank.
        doc = json.loads(bank_to_json(exp_bank()))
        doc["death_kernel"]["delta"] = 0
        with_zero = bank_from_json(json.dumps(doc))
        for kernel in [*doc["birth_kernels"][0], *doc["birth_kernels"][1], doc["death_kernel"]]:
            del kernel["delta"]
        assert bank_from_json(json.dumps(doc)) == with_zero == exp_bank()


class TestIntensityState:
    """The gate at a state, as the engines read it.

    The scalar engines start empty.  The batched engine starts from a
    state, and records lambda3 ungated, so the tests from a nonempty
    state read the gate by its effect on the first event.
    """

    @staticmethod
    def first_row_and_marks(state):
        """The batch's first grid row, and the mark index (0, 1 or 2) of each path's first event."""
        config = SimConfig(horizon=100.0, seed=1, max_events=1)
        batch = simulate_markov_batch(exp_bank(), config, 2000, state, record_grid=(0.0,))
        assert batch.capped.all()
        return tuple(batch.intensity_samples[0, :, 0]), np.argmax(
            batch.counts - np.array(state.counts)[:, None], axis=0)

    def test_gate_closed_when_empty(self):
        path = simulate_markov(exp_bank(), SimConfig(horizon=1.0, seed=1))
        assert tuple(intensities_at(path, exp_bank(), (0.0,))[0, :3]) == (1.0, 0.8, 0.0)

    def test_gate_open(self):
        state = IntensityState(xi=(0.3, 0.0, 0.5), counts=(1, 0, 0))
        row, marks = self.first_row_and_marks(state)
        assert row == (1.3, 0.8, 1.7)
        # About 45% of first events are deaths at these rates.
        assert (marks == 2).sum() > 500

    def test_gate_closes_on_balance(self):
        # N = 0 with lambda3 = 10.2 ungated: an open gate would make about
        # 85% of first events deaths.
        state = IntensityState(xi=(0.0, 0.0, 9.0), counts=(2, 1, 3))
        row, marks = self.first_row_and_marks(state)
        assert row == (1.0, 0.8, 10.2)
        assert not (marks == 2).any()

    def test_negative_population_rejected(self):
        with pytest.raises(ValueError):
            IntensityState(counts=(0, 0, 1))

    @pytest.mark.parametrize("state", [
        dict(xi=(math.nan, 0.0, 0.0)),
        dict(xi=(0.0, math.inf, 0.0)),
        dict(xi=(0.0, 0.0, -0.5)),
        dict(xi=(0.3, 0.2)),
        dict(counts=(1.5, 0, 0)),
        dict(counts=(-1, 2, 0)),
        dict(counts=(1, 0)),
    ], ids=["nan_xi", "infinite_xi", "negative_xi", "two_xi", "fractional_count",
            "negative_count", "two_counts"])
    def test_malformed_state_rejected_before_any_path(self, state, monkeypatch):
        # A NaN xi once made the drift check run forever, and a fractional
        # count was truncated by the batch but not by the generator.
        def no_path(*args):
            raise AssertionError("a path was started")

        monkeypatch.setattr(experiments, "simulate_markov_batch", no_path)
        with pytest.raises(ValueError, match="shot noise|counts"):
            generator_drift_check(exp_bank(), IntensityState(**state), [lambda z: z[0]],
                                  n_reps=2000)


class TestEventLog:
    def test_strictly_increasing(self):
        with pytest.raises(ValueError):
            EventLog([1.0, 1.0], [Mark.MUTANT, Mark.CLONE])

    def test_first_event_may_be_a_clone(self):
        assert EventLog([0.5], [Mark.CLONE]).counts() == (0, 1, 0)

    def test_prefix_population_nonnegative(self):
        with pytest.raises(ValueError):
            EventLog([0.5, 1.0, 1.5], [Mark.MUTANT, Mark.DEATH, Mark.DEATH])

    def test_counts_at_time(self):
        log = EventLog([0.5, 1.0, 2.0], [Mark.MUTANT, Mark.CLONE, Mark.DEATH])
        assert log.counts(0.9) == (1, 0, 0)
        assert log.counts(1.0) == (1, 1, 0)
        assert log.counts(0.1) == (0, 0, 0)
        assert log.counts() == (1, 1, 1)

    def test_marks_outside_one_to_three_rejected(self):
        for mark in (0, 4, 259, 1.5):
            with pytest.raises(ValueError):
                EventLog([0.5], [mark])

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
