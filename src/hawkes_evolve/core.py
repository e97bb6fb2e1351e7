"""Model parameters, excitation kernels and the Markov intensity state.

Three counting processes drive the population: mutant births (type 1),
clone births (type 2) and deaths (type 3).  The first two are mutually
exciting, the third is self exciting and gated by the population size.
This module holds the static parameters (the kernel tables and baseline
rates), the event log of a realization, and the shot-noise state record.
Every kernel is alpha e^{-beta t}, with no constant offset, which is
what makes (counts, shot noise) a Markov process: the shot noise decays
in closed form between events and jumps by ``KernelBank.jumps`` at each
one.  The engines in ``simulate`` run that recursion on plain floats.
"""

from __future__ import annotations

import enum
import json
import math
import numbers
from dataclasses import dataclass

import numpy as np


class DegenerateParametersError(ValueError):
    """Raised when a closed form is singular for the given parameters."""


class Mark(enum.IntEnum):
    """Type of an event: mutant birth, clone birth, or death."""

    MUTANT = 1
    CLONE = 2
    DEATH = 3


@dataclass(frozen=True)
class KernelBank:
    """Baseline rates and exponential excitation kernels of the three processes, as tables.

    An event of mark m raises the intensity of process i by the kernel
    alpha * exp(-beta * t): ``jumps[m - 1][i - 1]`` is its alpha, and
    ``betas[i - 1]`` the decay rate that every kernel on intensity i
    shares, which is what makes the system Markov.  Births never move
    lambda3 and deaths never move lambda1 or lambda2, so those entries
    are zero.  Values are kept as given and validated once, here.
    """

    base_rates: tuple[float, float, float]
    jumps: tuple[tuple[float, float, float], ...]
    betas: tuple[float, float, float]

    def __post_init__(self):
        if len(self.base_rates) != 3 or not all(0 < r < math.inf for r in self.base_rates):
            raise ValueError(f"base_rates must be three finite numbers > 0, got {self.base_rates}")
        if len(self.betas) != 3 or not all(0 < b < math.inf for b in self.betas):
            raise ValueError(f"betas must be three finite numbers > 0, got {self.betas}")
        jumps = self.jumps
        if len(jumps) != 3 or any(len(row) != 3 for row in jumps) or not all(
                0 <= x < math.inf for row in jumps for x in row):
            raise ValueError(f"alpha table must be 3x3 of finite numbers >= 0, got {jumps}")
        if jumps[0][2] or jumps[1][2] or jumps[2][0] or jumps[2][1]:
            raise ValueError(f"births never move lambda3 and deaths never move lambda1 "
                             f"or lambda2, got alpha table {jumps}")

    @classmethod
    def exponential(cls, base_rates, alphas, betas, death_alpha, death_beta) -> "KernelBank":
        """Build a bank from the kernel parameters.

        ``alphas[j][i]`` is the jump of intensity i+1 at a type-(j+1)
        event; ``betas[i]`` is the decay rate attached to intensity i+1.
        """
        (a11, a12), (a21, a22) = alphas
        return cls(tuple(base_rates),
                   ((a11, a12, 0.0), (a21, a22, 0.0), (0.0, 0.0, death_alpha)),
                   (betas[0], betas[1], death_beta))

    @classmethod
    def poisson(cls, base_rates) -> "KernelBank":
        """Bank with all excitation switched off (three Poisson processes)."""
        return cls.exponential(base_rates, ((0.0, 0.0), (0.0, 0.0)), (1.0, 1.0), 0.0, 1.0)


@dataclass(frozen=True, eq=False)
class EventLog:
    """Strictly ordered marked events of one realization, as read-only arrays.

    ``times`` (float64) are finite, non-negative and strictly increasing;
    ``marks`` (int8) take the ``Mark`` values 1, 2 and 3.  Counted from
    the empty state at t = 0, the running population size
    N = N1 + N2 - N3 stays non-negative at every prefix.
    """

    times: np.ndarray = ()
    marks: np.ndarray = ()

    def __post_init__(self):
        # Validate the inputs as given and copy them last, so the checks'
        # temporaries and the copies are never held at once.
        times = np.asarray(self.times, dtype=np.float64)
        marks = np.asarray(self.marks)
        if times.ndim != 1 or marks.shape != times.shape:
            raise ValueError(f"times and marks must be 1-D of one length, got shapes "
                             f"{times.shape} and {marks.shape}")
        if marks.size and (marks.dtype.kind not in "iu" or marks.min() < 1 or marks.max() > 3):
            raise ValueError("event marks must be 1, 2 or 3")
        if not np.isfinite(times).all():
            raise ValueError("event times must be finite")
        if times.size:
            if times[0] < 0:
                raise ValueError(f"event time must be >= 0, got {times[0]}")
            bad = np.flatnonzero(times[1:] <= times[:-1])
            if bad.size:
                raise ValueError(f"event times must be strictly increasing at index {bad[0] + 1}")
            # Running N in place: 1 - 2 (m // 3) is +1 for a birth and
            # -1 for a death, and int32 holds the sum below 2^31 events.
            run = marks.astype(np.int32 if marks.size < 2**31 else np.int64)
            run //= 3
            run *= -2
            run += 1
            np.cumsum(run, out=run)
            if run.min() < 0:
                raise ValueError(f"population size goes negative at index {np.argmax(run < 0)}")
            del run
        times = times.copy()
        marks = marks.astype(np.int8)
        times.flags.writeable = False
        marks.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "marks", marks)

    def __len__(self) -> int:
        return self.times.size

    def counts(self, t: float = math.inf) -> tuple[int, int, int]:
        """(N1, N2, N3) counted over events with time <= t."""
        k = int(np.searchsorted(self.times, t, side="right"))
        return tuple(np.bincount(self.marks[:k], minlength=4)[1:].tolist())


@dataclass(frozen=True)
class IntensityState:
    """A state of the Markov couple: shot noise (xi1, xi2, xi3) and counts (N1, N2, N3).

    The scalar engines start empty and report their final state as one;
    the batched engine, and so the generator drift check, can start
    from one at t = 0.  Validated once, here: three finite xi >= 0 and
    three integer counts >= 0 with N = N1 + N2 - N3 >= 0.
    """

    xi: tuple[float, float, float] = (0.0, 0.0, 0.0)
    counts: tuple[int, int, int] = (0, 0, 0)

    def __post_init__(self):
        if len(self.xi) != 3 or not all(
                isinstance(x, numbers.Real) and 0 <= x < math.inf for x in self.xi):
            raise ValueError(f"shot noise must be three finite numbers >= 0, got {self.xi}")
        if len(self.counts) != 3 or not all(
                isinstance(c, numbers.Integral) and c >= 0 for c in self.counts):
            raise ValueError(f"counts must be three integers >= 0, got {self.counts}")
        if self.population_size < 0:
            raise ValueError(f"population size negative for counts {self.counts}")

    @property
    def population_size(self) -> int:
        return self.counts[0] + self.counts[1] - self.counts[2]


def _kernel_to_dict(bank: KernelBank, m: int, i: int) -> dict:
    return {"alpha": bank.jumps[m][i], "beta": bank.betas[i], "delta": 0.0}


def _number(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number, got {value!r}")
    return float(value)


def _require_keys(d: dict, keys: tuple[str, ...], what: str) -> None:
    missing = [k for k in keys if k not in d]
    if missing:
        raise ValueError(f"{what} is missing {', '.join(map(repr, missing))}")


def _kernel_from_dict(d, what: str) -> tuple[float, float]:
    if not isinstance(d, dict):
        raise ValueError(f"{what} must be a JSON object, got {d!r}")
    unknown = set(d) - {"alpha", "beta", "delta"}
    if unknown:
        raise ValueError(f"{what} has unknown keys: {sorted(unknown)}")
    _require_keys(d, ("alpha", "beta"), what)
    if _number(d.get("delta", 0.0), f"{what} delta") != 0:
        raise ValueError(f"{what} delta must be 0 (a kernel has no constant offset), "
                         f"got {d['delta']!r}")
    return _number(d["alpha"], f"{what} alpha"), _number(d["beta"], f"{what} beta")


def bank_to_json(bank: KernelBank) -> str:
    """Serialize a bank to its JSON document, one kernel object per (mark, target)."""
    return json.dumps({
        "base_rates": list(bank.base_rates),
        "birth_kernels": [[_kernel_to_dict(bank, j, i) for i in range(2)] for j in range(2)],
        "death_kernel": _kernel_to_dict(bank, 2, 2),
    }, indent=2)


def bank_from_json(text: str) -> KernelBank:
    """Parse the JSON bank document; unknown, missing and non-numeric entries are rejected.

    The file holds one beta per kernel, so this is where the rule that
    the kernels on one intensity share their decay rate is checked.  A
    kernel's ``"delta"``, a constant offset, must be 0 or absent: it is
    read so that files written with it still load.
    """
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError(f"a bank document must be a JSON object, got {doc!r}")
    unknown = set(doc) - {"base_rates", "birth_kernels", "death_kernel"}
    if unknown:
        raise ValueError(f"unknown bank keys: {sorted(unknown)}")
    _require_keys(doc, ("base_rates", "birth_kernels", "death_kernel"), "the bank document")
    rates = doc["base_rates"]
    if not isinstance(rates, list) or len(rates) != 3:
        raise ValueError(f"base_rates must be a list of three numbers, got {rates!r}")
    bk = doc["birth_kernels"]
    if not isinstance(bk, list) or len(bk) != 2 or any(
            not isinstance(row, list) or len(row) != 2 for row in bk):
        raise ValueError("birth_kernels must be a 2x2 array of kernels")
    births = [[_kernel_from_dict(bk[j][i], f"birth_kernels[{j}][{i}]") for i in range(2)]
              for j in range(2)]
    death = _kernel_from_dict(doc["death_kernel"], "death_kernel")
    for i in range(2):
        if births[0][i][1] != births[1][i][1]:
            raise ValueError(f"kernels targeting intensity {i + 1} must share their decay "
                             f"rate, got {births[0][i][1]} and {births[1][i][1]}")
    return KernelBank.exponential(
        [_number(r, "base_rates entry") for r in rates],
        [[k[0] for k in row] for row in births], [k[1] for k in births[0]], death[0], death[1])
