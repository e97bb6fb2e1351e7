"""The benchmark's span tracer wraps package functions by module and name.

``perfbench/spans.py`` lists them in ``BOUNDARIES`` as (module, attribute)
pairs, and a traced run fails if a pair no longer resolves.  The file is
loaded by path and only read: no bytecode is cached next to it.  A
wrapped name must also stay on the call path: a caller that bypasses it
leaves the span's metrics at zero.  The workloads' own calls must also
meet the package's contracts, such as what a drift test function may be.
A traced run's counters read the package's results, and must agree with
the package's own account of them.
"""

import importlib
import importlib.util
import sys
from collections import defaultdict
from pathlib import Path

from hawkes_evolve import KernelBank, SimConfig, generator_drift_check, simulate_population

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPANS = PERFBENCH / "spans.py"


def load_spans(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_boundary_resolves_to_a_callable(monkeypatch):
    spans = load_spans(monkeypatch)
    assert spans.BOUNDARIES
    missing = [
        (module_name, attr) for module_name, attr, _, _ in spans.BOUNDARIES
        if not callable(getattr(importlib.import_module("hawkes_evolve." + module_name),
                                attr, None))
    ]
    assert missing == []


def test_simulate_dispatches_through_the_thinning_name(monkeypatch):
    # The package exports a function named simulate, which hides the
    # module of that name from attribute access.
    simulate_module = importlib.import_module("hawkes_evolve.simulate")
    calls = []
    engine = simulate_module.simulate_thinning_general

    def counting(*args, **kwargs):
        calls.append(args)
        return engine(*args, **kwargs)

    monkeypatch.setattr(simulate_module, "simulate_thinning_general", counting)
    bank = KernelBank.poisson((2.0, 1.0, 1.0))
    path = simulate_module.simulate(bank, SimConfig(horizon=1.0, seed=1, engine="thinning"))
    assert len(calls) == 1
    assert path.final_state.clock == 1.0


def test_drift_workload_functions_meet_the_block_contract(monkeypatch):
    # workloads.py imports its sibling exact.py as a top-level module, and
    # its dataclasses need the module itself in sys.modules.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    drift = workloads.DriftCheck
    for seed, state in enumerate(drift.states):
        checks = generator_drift_check(workloads.cross_bank(), state, drift.functions,
                                       h=drift.h, n_reps=64, seed=seed)
        assert len(checks) == len(drift.functions)


def test_population_counters_read_the_partition(monkeypatch):
    spans = load_spans(monkeypatch)
    pop = simulate_population(KernelBank.poisson((2.0, 1.0, 1.0)),
                              SimConfig(horizon=200.0, seed=3))
    counts = defaultdict(float)
    spans._count_population(counts, "population.simulate_population", pop)
    sites = pop.partition.sites()
    assert counts["population.events_applied"] == len(pop.path.events) > 0
    assert counts["population.final_sites"] == len(sites) > 0
    n1, n2, n3 = pop.path.events.counts()
    assert counts["population.final_individuals"] == sum(k for _, k in sites) == n1 + n2 - n3
