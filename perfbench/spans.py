"""Spans and counts recorded at hawkes_evolve's module boundaries.

``Tracer.install`` replaces public functions in the module namespaces
where the package looks them up, so a call that crosses from one layer
into the next records one span: name, start, end and the span that was
open when it began.  ``uninstall`` puts the originals back.  The spans
stay in memory until the run ends; the per-layer metrics are computed
from them and from counts taken from each call's result.
"""

from __future__ import annotations

import importlib
import statistics
import time
from array import array
from collections import defaultdict


def _count_path(counts, name, path):
    counts[name + ".events"] += len(path.events)


def _count_population(counts, name, pop):
    counts["population.events_applied"] += len(pop.path.events)
    counts["population.final_sites"] += pop.partition.site_count
    counts["population.final_individuals"] += pop.partition.total


# (module, attribute, span name, counter).  Each attribute is where a
# caller looks the function up: the dispatcher ``simulate.simulate``
# finds the engines in its own module, while ``experiments`` and ``cli``
# imported the names they use.  The benchmark itself calls
# ``experiments.mc_mean_intensity``, ``experiments.generator_drift_check``,
# ``cli.run`` and ``simulate.simulate`` through their modules.
BOUNDARIES = (
    ("cli", "run", "cli", None),
    ("cli", "phase_transition_sweep", "experiments.phase_transition_sweep", None),
    ("experiments", "mc_mean_intensity", "experiments.mc_mean_intensity", None),
    ("experiments", "generator_drift_check", "experiments.generator_drift_check", None),
    ("experiments", "generator_apply", "experiments.generator_apply", None),
    ("experiments", "expected_intensity_paper", "expectations.paper", None),
    ("experiments", "expected_intensity_renewal", "expectations.renewal", None),
    ("experiments", "critical_fitness", "expectations.critical_fitness", None),
    ("experiments", "simulate_population", "population.simulate_population", _count_population),
    ("experiments", "simulate_markov", "simulate.markov", _count_path),
    ("simulate", "simulate_markov", "simulate.markov", _count_path),
    ("simulate", "simulate_thinning_general", "simulate.thinning", _count_path),
)


class Tracer:
    """In-memory span recorder.

    Span k is (names[name_ids[k]], starts[k], ends[k], parents[k]), with
    parent -1 for a span opened outside any other.  Flat arrays keep a
    run's 10^5 spans out of the garbage collector's way.
    """

    def __init__(self):
        self.names = sorted({name for _, _, name, _ in BOUNDARIES})
        self.name_ids = array("b")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.counts = defaultdict(float)
        self._stack = [-1]
        self._saved: list = []

    def __len__(self) -> int:
        return len(self.name_ids)

    def _wrap(self, name, fn, counter):
        name_id = self.names.index(name)
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        stack, counts, clock = self._stack, self.counts, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(name_ids)
            name_ids.append(name_id)
            parents.append(stack[-1])
            stack.append(idx)
            ends.append(0.0)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if counter is not None:
                counter(counts, name, result)
            return result

        return traced

    def spans(self):
        """(name, start, end, parent) of every span, in the order they opened."""
        names = self.names
        for name_id, start, end, parent in zip(self.name_ids, self.starts, self.ends,
                                               self.parents):
            yield names[name_id], start, end, parent

    def install(self):
        for module_name, attr, name, counter in BOUNDARIES:
            module = importlib.import_module("hawkes_evolve." + module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, counter))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def layer_metrics(self, rounds: int, factor: float) -> dict:
        """Per-layer metrics; counts and times are per traced round.

        Times are multiplied by ``factor``, the run's rescaling to the
        reference speed, and rates divided by it.
        """
        busy = defaultdict(float)
        calls = defaultdict(int)
        child = defaultdict(float)
        markov_us = []
        for name, start, end, parent in self.spans():
            busy[name] += (end - start) * factor
            calls[name] += 1
            if parent >= 0:
                child[parent] += (end - start) * factor
            if name == "simulate.markov":
                markov_us.append((end - start) * factor * 1e6)
        self_time = defaultdict(float)
        for idx, (name, start, end, _) in enumerate(self.spans()):
            self_time[name] += (end - start) * factor - child[idx]

        def per_round(x):
            return x / rounds

        def rate(events, seconds):
            return events / seconds if seconds > 0 else 0.0

        def pct(q):
            if len(markov_us) < 2:
                return markov_us[0] if markov_us else 0.0
            return statistics.quantiles(markov_us, n=100, method="inclusive")[q - 1]

        pop_calls = max(calls["population.simulate_population"], 1)
        c = self.counts
        return {
            "expectations.renewal.calls": ("count", per_round(calls["expectations.renewal"])),
            "expectations.renewal.busy_s": ("s", per_round(busy["expectations.renewal"])),
            "expectations.paper.busy_s": ("s", per_round(busy["expectations.paper"])),
            "expectations.critical_fitness.busy_s":
                ("s", per_round(busy["expectations.critical_fitness"])),
            "simulate.markov.calls": ("count", per_round(calls["simulate.markov"])),
            "simulate.markov.busy_s": ("s", per_round(busy["simulate.markov"])),
            "simulate.markov.events": ("count", per_round(c["simulate.markov.events"])),
            "simulate.markov.events_per_s":
                ("1/s", rate(c["simulate.markov.events"], busy["simulate.markov"])),
            "simulate.markov.call_us.p50": ("us", pct(50)),
            "simulate.markov.call_us.p99": ("us", pct(99)),
            "simulate.thinning.calls": ("count", per_round(calls["simulate.thinning"])),
            "simulate.thinning.busy_s": ("s", per_round(busy["simulate.thinning"])),
            "simulate.thinning.events": ("count", per_round(c["simulate.thinning.events"])),
            "simulate.thinning.events_per_s":
                ("1/s", rate(c["simulate.thinning.events"], busy["simulate.thinning"])),
            "population.self_s": ("s", per_round(self_time["population.simulate_population"])),
            "population.events_applied": ("count", per_round(c["population.events_applied"])),
            "population.final_sites": ("count", c["population.final_sites"] / pop_calls),
            "population.final_individuals":
                ("count", c["population.final_individuals"] / pop_calls),
            "experiments.mc_mean_intensity.self_s":
                ("s", per_round(self_time["experiments.mc_mean_intensity"])),
            "experiments.phase_transition_sweep.self_s":
                ("s", per_round(self_time["experiments.phase_transition_sweep"])),
            "experiments.generator_drift_check.self_s":
                ("s", per_round(self_time["experiments.generator_drift_check"])),
            "experiments.generator_apply.busy_s":
                ("s", per_round(busy["experiments.generator_apply"])),
            "cli.self_s": ("s", per_round(self_time["cli"])),
        }

    def write_spans(self, path: str) -> None:
        """Spans as CSV rows: id, parent, name, start_s, end_s."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for idx, (name, start, end, parent) in enumerate(self.spans()):
                fh.write(f"{idx},{parent},{name},{start:.9f},{end:.9f}\n")
