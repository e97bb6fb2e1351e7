"""The benchmark's four workloads.

Each workload builds its inputs from the run's seed in ``__init__`` (the
set-up that ``setup_s`` times).  ``chunks(r)`` lists round ``r``'s calls
into the package's public functions, each a zero-argument callable that
the runner times on its own; ``score`` then checks the round's outputs,
untimed, against ``exact``'s reference values or against properties the
method must have.  Round ``r`` of a run with seed ``s`` draws from
program seed ``1000 * s + r``, so a seed fixes every input.
"""

from __future__ import annotations

import importlib
import json
import math
import os
from dataclasses import dataclass, field
from functools import partial

import numpy as np

import exact
from hawkes_evolve import IntensityState, KernelBank, bank_to_json

cli = importlib.import_module("hawkes_evolve.cli")
experiments = importlib.import_module("hawkes_evolve.experiments")
simulate_mod = importlib.import_module("hawkes_evolve.simulate")

# The bank of tests/test_acceptance.py: every jump at 0.4 of its decay rate.
CROSS = dict(base=(1.0, 0.8, 1.2), alphas=((0.4, 0.6), (0.4, 0.6)), betas=(1.0, 1.5),
             death_alpha=0.4, death_beta=1.0)
POISSON_BASE = (2.0, 1.0, 1.0)

# Bound on |z| for every Monte Carlo comparison.  A normal z reaches 6
# about twice in 10^9 draws, so a correct program passes every check of
# every run; a bias of six standard errors fails.
Z_BOUND = 6.0
# The averaged terminal site CDF of a 4-run sweep at horizon 5000 sits
# 0.015-0.05 from its limit, almost all of it at f = f_c where sites
# below f_c have not all died out yet.
CDF_BOUND = 0.1


def cross_bank() -> KernelBank:
    return KernelBank.exponential(CROSS["base"], CROSS["alphas"], CROSS["betas"],
                                  CROSS["death_alpha"], CROSS["death_beta"])


def round_seed(seed: int, r: int) -> int:
    return 1000 * seed + r


@dataclass
class Round:
    """Outcome of one round: replications done and operations attempted/failed."""

    replications: int
    attempted: int
    failed: int = 0
    errors: list = field(default_factory=list)


class Workload:
    def check(self) -> list:
        """Checks over all rounds of the run, after the last one."""
        return []


class McCross(Workload):
    """mc_mean_intensity on CROSS_BANK over t = 0, 1, ..., 10 with the Markov engine."""

    paths = 1500

    def __init__(self, seed: int, threads: int, work_dir: str):
        self.seed = seed
        self.bank = cross_bank()
        self.grid = np.linspace(0.0, 10.0, 11)

    def chunks(self, r: int) -> list:
        seed = round_seed(self.seed, r)
        return [lambda: experiments.mc_mean_intensity(self.bank, self.grid, self.paths, seed)]

    def score(self, r: int, outputs) -> Round:
        report, = outputs
        lam, _ = exact.first_moments(CROSS["base"][:2], CROSS["alphas"], CROSS["betas"],
                                     self.grid)
        errors = []
        for i in (1, 2):
            z = (report.mean[1:, i - 1] - lam[1:, i - 1]) / report.stderr[1:, i - 1]
            if np.max(np.abs(z)) >= Z_BOUND:
                errors.append(f"round {r}: lambda{i} grid mean off the exact mean, "
                              f"max |z| = {np.max(np.abs(z)):.2f}")
            target = report.comparisons[(i, "renewal")].target
            gap = np.max(np.abs(target - lam[:, i - 1]) / lam[:, i - 1])
            if gap > 1e-5:
                errors.append(f"round {r}: renewal curve {i} is {gap:.2e} from the exact mean")
        return Round(self.paths, self.paths, 0, errors)


class EnginesCross(Workload):
    """Both engines on CROSS_BANK, horizon 50, the same path indices."""

    paths = 40
    horizon = 50.0

    def __init__(self, seed: int, threads: int, work_dir: str):
        self.bank = cross_bank()
        self.configs = {e: simulate_mod.SimConfig(horizon=self.horizon, seed=seed, engine=e)
                        for e in ("markov", "thinning")}
        self.counts = {e: [] for e in self.configs}

    def _both_engines(self, k: int) -> dict:
        return {engine: simulate_mod.simulate(self.bank, config, path_index=k)
                for engine, config in self.configs.items()}

    def chunks(self, r: int) -> list:
        return [partial(self._both_engines, k)
                for k in range(r * self.paths, (r + 1) * self.paths)]

    def score(self, r: int, outputs) -> Round:
        failed = 0
        for paths in outputs:
            for engine, path in paths.items():
                failed += path.capped
                self.counts[engine].append(path.final_state.counts)
        n = len(outputs) * len(self.configs)
        return Round(n - failed, n, failed)

    def check(self) -> list:
        errors = []
        _, count = exact.first_moments(CROSS["base"][:2], CROSS["alphas"], CROSS["betas"],
                                       [self.horizon])
        expected = float(count[0].sum())
        counts = {e: np.asarray(rows, dtype=float) for e, rows in self.counts.items()}
        for engine, rows in counts.items():
            births = rows[:, 0] + rows[:, 1]
            z = (births.mean() - expected) / (births.std(ddof=1) / math.sqrt(births.size))
            if abs(z) >= Z_BOUND:
                errors.append(f"{engine}: mean N1+N2 {births.mean():.2f} against exact "
                              f"{expected:.2f}, z = {z:.2f}")
        # Both engines draw from the same seed and path index, so their
        # paths are coupled: test the per-path differences, paired.
        diffs = counts["markov"] - counts["thinning"]
        for i in range(3):
            d = diffs[:, i]
            diff, se = d.mean(), d.std(ddof=1) / math.sqrt(d.size)
            if (se == 0 and diff != 0) or (se > 0 and abs(diff / se) >= Z_BOUND):
                errors.append(f"engines disagree on mean N{i + 1}: {diff:.3f} (se {se:.3f})")
        return errors


class SweepCli(Workload):
    """``hawkes-evolve sweep`` through ``cli.run`` on the Poisson bank (2, 1, 1)."""

    runs = 4

    def __init__(self, seed: int, threads: int, work_dir: str):
        self.seed = seed
        self.threads = threads
        self.out = work_dir
        self.bank_path = os.path.join(work_dir, "bank.json")
        os.makedirs(work_dir, exist_ok=True)
        with open(self.bank_path, "w", encoding="utf-8") as fh:
            fh.write(bank_to_json(KernelBank.poisson(POISSON_BASE)))

    def chunks(self, r: int) -> list:
        argv = ["sweep", "--bank", self.bank_path, "--f-grid", "0:1:0.02",
                "--horizon", "5000", "--runs", str(self.runs),
                "--seed", str(round_seed(self.seed, r)),
                "--threads", str(self.threads), "--out", self.out]
        return [lambda: cli.run(argv)]

    def score(self, r: int, outputs) -> Round:
        code, = outputs
        if code != 0:
            return Round(0, 1, 1, [f"round {r}: sweep exited with {code}"])
        with open(os.path.join(self.out, "sweep.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        f_c = exact.poisson_critical_fitness(POISSON_BASE)
        errors = []
        for key in ("fc_paper", "fc_renewal"):
            if doc[key] is None or not math.isclose(doc[key], f_c, rel_tol=1e-12):
                errors.append(f"round {r}: {key} = {doc[key]}, exact {f_c}")
        if abs(doc["fc_hat"] - f_c) > 0.05:
            errors.append(f"round {r}: fc_hat = {doc['fc_hat']:.4f}, exact {f_c}")
        gap = np.max(np.abs(np.asarray(doc["avg_cdf"])
                            - exact.limit_site_cdf(doc["f_grid"], f_c)))
        if not gap <= CDF_BOUND:
            errors.append(f"round {r}: avg_cdf is {gap:.3f} from the limit (bound {CDF_BOUND})")
        return Round(self.runs, 1, 0, errors)


class DriftCheck(Workload):
    """generator_drift_check on CROSS_BANK at criterion 4's three states, h = 1e-3."""

    reps = 20_000
    h = 1e-3
    states = (
        IntensityState(),
        IntensityState(xi=(0.3, 0.2, 0.1), counts=(2, 1, 1)),
        IntensityState(xi=(0.5, 0.1, 0.7), counts=(1, 1, 2)),  # deaths switched off
    )
    functions = (
        lambda z: 1.0,
        lambda z: z[0] + z[2] - z[4],
        lambda z: z[1],
        lambda z: z[1] * z[3],
        lambda z: z[4] * z[5],
    )

    def __init__(self, seed: int, threads: int, work_dir: str):
        self.seed = seed
        self.bank = cross_bank()

    def chunks(self, r: int) -> list:
        return [partial(self._drift, state, 3 * round_seed(self.seed, r) + k)
                for k, state in enumerate(self.states)]

    def _drift(self, state, seed: int) -> list:
        return experiments.generator_drift_check(self.bank, state, self.functions,
                                                 h=self.h, n_reps=self.reps, seed=seed)

    def score(self, r: int, outputs) -> Round:
        errors = []
        for k, (state, checks) in enumerate(zip(self.states, outputs)):
            hand = exact.generator_values(counts=state.counts, xi=state.xi, **CROSS)
            window = exact.drift_window_correction(CROSS["base"], CROSS["betas"],
                                                   CROSS["death_beta"], state.counts,
                                                   state.xi, self.h)
            for name, chk in zip(exact.TEST_FUNCTIONS, checks):
                scale = max(1.0, abs(hand[name]))
                if abs(chk.analytic - hand[name]) > 1e-6 * scale:
                    errors.append(f"state {k} {name}: generator_apply {chk.analytic} "
                                  f"against {hand[name]}")
                target = hand[name] + window[name]
                if abs(chk.mc_mean - target) > Z_BOUND * chk.mc_stderr + 1e-9 * scale:
                    errors.append(f"round {r} state {k} {name}: drift {chk.mc_mean:.4f} "
                                  f"(se {chk.mc_stderr:.4f}) against {target:.4f}")
        n = len(self.states) * self.reps
        return Round(n, n, 0, errors)


WORKLOADS = {
    "mc_cross": McCross,
    "engines_cross": EnginesCross,
    "sweep_cli": SweepCli,
    "drift_check": DriftCheck,
}
