import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hawkes_evolve import (
    Event,
    EventLog,
    ExpKernel,
    IntensityState,
    KernelBank,
    Mark,
    apply_jump,
    bank_from_json,
    bank_to_json,
    intensities_at,
    l1_norm,
    propagate,
    shot_noise_from_history,
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

    def test_l1_exponential(self):
        assert l1_norm(ExpKernel(1.0, 2.0)) == 0.5

    def test_l1_zero(self):
        assert l1_norm(ExpKernel(0.0, 1.0)) == 0.0

    def test_l1_offset_is_infinite(self):
        assert l1_norm(ExpKernel(1.0, 2.0, 0.1)) == math.inf


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

    def test_json_default_delta(self):
        doc = json.loads(bank_to_json(exp_bank()))
        del doc["death_kernel"]["delta"]
        assert bank_from_json(json.dumps(doc)).death_kernel.delta == 0.0


class TestIntensityState:
    def test_gate_closed_when_empty(self):
        bank = exp_bank()
        assert intensities_at(bank, IntensityState()) == (1.0, 0.8, 0.0)

    def test_gate_open(self):
        bank = exp_bank()
        state = IntensityState(xi=(0.3, 0.0, 0.5), counts=(1, 0, 0))
        assert intensities_at(bank, state) == (1.3, 0.8, 1.7)

    def test_gate_closes_on_balance(self):
        bank = exp_bank()
        state = IntensityState(xi=(0.0, 0.0, 9.0), counts=(2, 1, 3))
        assert intensities_at(bank, state)[2] == 0.0

    def test_negative_population_rejected(self):
        with pytest.raises(ValueError):
            IntensityState(counts=(0, 0, 1))

    def test_propagate_identity(self):
        state = IntensityState(xi=(1.0, 0.5, 0.2), counts=(1, 1, 0), clock=3.0)
        assert propagate(state, 0.0, exp_bank()) == state

    def test_propagate_decay(self):
        state = IntensityState(xi=(1.0, 0.0, 0.0))
        out = propagate(state, math.log(2), exp_bank())
        assert out.xi[0] == pytest.approx(0.25, abs=1e-15)

    def test_propagate_offset_floor(self):
        # With offsets the shot noise relaxes to delta_ji * n_j, not zero.
        bank = exp_bank(deltas=((0.3, 0.0), (0.0, 0.0)))
        state = IntensityState(counts=(2, 0, 0))
        out = propagate(state, 50.0, bank)
        assert out.xi[0] == pytest.approx(0.6, rel=1e-9)

    @given(dt1=st.floats(0, 20), dt2=st.floats(0, 20),
           xi=st.tuples(*[st.floats(0, 10)] * 3))
    @settings(max_examples=200, deadline=None)
    def test_propagate_semigroup(self, dt1, dt2, xi):
        bank = exp_bank()
        state = IntensityState(xi=xi, counts=(1, 1, 1))
        two_steps = propagate(propagate(state, dt1, bank), dt2, bank)
        one_step = propagate(state, dt1 + dt2, bank)
        assert two_steps.xi == pytest.approx(one_step.xi, rel=1e-12, abs=1e-12)

    def test_apply_jump_mutant(self):
        bank = exp_bank(alphas=((0.5, 0.2), (0.3, 0.4)))
        out = apply_jump(IntensityState(), Mark.MUTANT, bank)
        assert out.xi == (0.5, 0.2, 0.0)
        assert out.counts == (1, 0, 0)

    def test_apply_jump_death(self):
        out = apply_jump(IntensityState(counts=(1, 0, 0)), Mark.DEATH, exp_bank())
        assert out.xi == (0.0, 0.0, 0.4)
        assert out.counts == (1, 0, 1)

    def test_apply_jump_clone_leaves_death_noise(self):
        out = apply_jump(IntensityState(counts=(1, 0, 0)), Mark.CLONE, exp_bank())
        assert out.xi[2] == 0.0 and out.counts == (1, 1, 0)

    def test_death_on_empty_rejected(self):
        with pytest.raises(ValueError):
            apply_jump(IntensityState(), Mark.DEATH, exp_bank())


class TestEventLog:
    def test_strictly_increasing(self):
        with pytest.raises(ValueError):
            EventLog((Event(1.0, Mark.MUTANT), Event(1.0, Mark.CLONE)))

    def test_first_event_must_be_mutant(self):
        with pytest.raises(ValueError):
            EventLog((Event(0.5, Mark.CLONE),))

    def test_prefix_population_nonnegative(self):
        with pytest.raises(ValueError):
            EventLog((Event(0.5, Mark.MUTANT), Event(1.0, Mark.DEATH),
                      Event(1.5, Mark.DEATH)))

    def test_initial_counts_relax_first_mark(self):
        log = EventLog((Event(0.5, Mark.DEATH),), initial_counts=(2, 0, 0))
        assert log.counts() == (2, 0, 1)
        assert log.population_size() == 1

    def test_counts_at_time(self):
        log = EventLog((Event(0.5, Mark.MUTANT), Event(1.0, Mark.CLONE),
                        Event(2.0, Mark.DEATH)))
        assert log.counts(0.9) == (1, 0, 0)
        assert log.counts(1.0) == (1, 1, 0)
        assert log.population_size() == 1


def test_reconstruction_matches_direct_sums():
    """Replaying propagate/apply_jump reproduces the defining kernel sums.

    The second bank has offsets: each jump adds alpha + delta, the
    kernel's value at lag zero, and the shot noise then relaxes to the
    floor delta * n.
    """
    rng = np.random.default_rng(7)
    events = []
    t, n = 0.0, 0
    for _ in range(60):
        t += rng.exponential(0.5)
        if n == 0:
            mark = Mark.MUTANT
        else:
            mark = Mark(rng.integers(1, 4))
        if mark is Mark.DEATH:
            n -= 1
        else:
            n += 1
        events.append(Event(t, mark))
    log = EventLog(tuple(events))
    for bank in (exp_bank(), exp_bank(deltas=((0.3, 0.1), (0.2, 0.05)), death_delta=0.2)):
        state = IntensityState()
        prev = 0.0
        for ev in log:
            state = propagate(state, ev.time - prev, bank)
            state = apply_jump(state, ev.mark, bank)
            prev = ev.time
        horizon = prev + 1.3
        state = propagate(state, horizon - prev, bank)
        direct = shot_noise_from_history(bank, log.events, horizon)
        assert state.xi == pytest.approx(direct, rel=1e-9)
