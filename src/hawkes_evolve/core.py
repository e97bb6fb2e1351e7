"""Model parameters, excitation kernels and the Markov intensity state.

Three counting processes drive the population: mutant births (type 1),
clone births (type 2) and deaths (type 3).  The first two are mutually
exciting, the third is self exciting and gated by the population size.
This module holds the static parameters (kernels, baseline rates), the
event log of a realization, and the shot-noise state record.  Every
kernel is exponential, which is what makes (counts, shot noise) a
Markov process: the shot noise decays in closed form between events
and jumps by ``KernelBank.jumps`` at each one.  The engines in
``simulate`` run that recursion on plain floats.
"""

from __future__ import annotations

import enum
import json
import math
import numbers
from dataclasses import dataclass

import numpy as np


class UnsupportedKernelError(ValueError):
    """Raised when an operation needs a kernel structure the bank lacks."""


class DegenerateParametersError(ValueError):
    """Raised when a closed form is singular for the given parameters."""


class Mark(enum.IntEnum):
    """Type of an event: mutant birth, clone birth, or death."""

    MUTANT = 1
    CLONE = 2
    DEATH = 3


@dataclass(frozen=True)
class ExpKernel:
    """Excitation kernel delta + alpha * exp(-beta * t)."""

    alpha: float
    beta: float
    delta: float = 0.0

    def __post_init__(self):
        if not 0 <= self.alpha < math.inf:
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha}")
        if not 0 < self.beta < math.inf:
            raise ValueError(f"beta must be finite and > 0, got {self.beta}")
        if not 0 <= self.delta < math.inf:
            raise ValueError(f"delta must be finite and >= 0, got {self.delta}")


@dataclass(frozen=True)
class KernelBank:
    """Baseline rates and excitation kernels of the three processes.

    ``birth_kernels[j][i]`` is the effect of a type-(j+1) event on the
    intensity of process i+1, for i, j in {0, 1}.  Every kernel is an
    ``ExpKernel``, and the two kernels targeting intensity i share their
    decay rate, which is what makes the system Markov.
    """

    base_rates: tuple[float, float, float]
    birth_kernels: tuple[tuple[ExpKernel, ExpKernel], tuple[ExpKernel, ExpKernel]]
    death_kernel: ExpKernel

    def __post_init__(self):
        if len(self.base_rates) != 3 or not all(0 < r < math.inf for r in self.base_rates):
            raise ValueError(f"base_rates must be three finite numbers > 0, got {self.base_rates}")
        kernels = [k for row in self.birth_kernels for k in row] + [self.death_kernel]
        if not all(isinstance(k, ExpKernel) for k in kernels):
            raise ValueError("every kernel of a bank must be an ExpKernel")
        for i in range(2):
            k1, k2 = self.birth_kernels[0][i], self.birth_kernels[1][i]
            if k1.beta != k2.beta:
                raise ValueError(
                    f"kernels targeting intensity {i + 1} must share their decay "
                    f"rate, got {k1.beta} and {k2.beta}"
                )

    @classmethod
    def exponential(cls, base_rates, alphas, betas, death_alpha, death_beta,
                    deltas=None, death_delta=0.0) -> "KernelBank":
        """Build a bank from the kernel parameters.

        ``alphas[j][i]`` is the jump of intensity i+1 at a type-(j+1)
        event; ``betas[i]`` is the decay rate attached to intensity i+1.
        """
        if deltas is None:
            deltas = ((0.0, 0.0), (0.0, 0.0))
        bk = tuple(
            tuple(ExpKernel(alphas[j][i], betas[i], deltas[j][i]) for i in range(2))
            for j in range(2)
        )
        return cls(tuple(base_rates), bk, ExpKernel(death_alpha, death_beta, death_delta))

    @property
    def betas(self) -> tuple[float, float, float]:
        """The decay rates of (xi1, xi2, xi3)."""
        (k11, k12), _ = self.birth_kernels
        return (k11.beta, k12.beta, self.death_kernel.beta)

    @property
    def jumps(self) -> tuple[tuple[float, float, float], ...]:
        """Row m - 1: the jump of (xi1, xi2, xi3) at an event of mark m."""
        (k11, k12), (k21, k22) = self.birth_kernels
        return ((k11.alpha, k12.alpha, 0.0), (k21.alpha, k22.alpha, 0.0),
                (0.0, 0.0, self.death_kernel.alpha))

    @property
    def offsets(self) -> tuple[tuple[float, float, float], ...]:
        """Row m - 1: the offset delta of mark m's kernels on (lambda1, lambda2, lambda3)."""
        (k11, k12), (k21, k22) = self.birth_kernels
        return ((k11.delta, k12.delta, 0.0), (k21.delta, k22.delta, 0.0),
                (0.0, 0.0, self.death_kernel.delta))

    @classmethod
    def poisson(cls, base_rates) -> "KernelBank":
        """Bank with all excitation switched off (three Poisson processes)."""
        return cls.exponential(base_rates, ((0.0, 0.0), (0.0, 0.0)), (1.0, 1.0), 0.0, 1.0)


def require_zero_offsets(bank: KernelBank, what: str) -> None:
    """Raise UnsupportedKernelError, naming ``what``, if any kernel has an offset delta."""
    if np.any(bank.offsets):
        raise UnsupportedKernelError(f"{what}: kernels with a constant offset are not supported")


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


_KERNEL_KEYS = {"alpha", "beta", "delta"}


def _kernel_to_dict(kernel: ExpKernel) -> dict:
    return {"alpha": kernel.alpha, "beta": kernel.beta, "delta": kernel.delta}


def _number(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number, got {value!r}")
    return float(value)


def _kernel_from_dict(d, what: str) -> ExpKernel:
    if not isinstance(d, dict):
        raise ValueError(f"{what} must be a JSON object, got {d!r}")
    unknown = set(d) - _KERNEL_KEYS
    if unknown:
        raise ValueError(f"unknown kernel keys: {sorted(unknown)}")
    return ExpKernel(_number(d["alpha"], f"{what} alpha"), _number(d["beta"], f"{what} beta"),
                     _number(d.get("delta", 0.0), f"{what} delta"))


def bank_to_json(bank: KernelBank) -> str:
    """Serialize a bank to its JSON document."""
    doc = {
        "base_rates": list(bank.base_rates),
        "birth_kernels": [
            [_kernel_to_dict(bank.birth_kernels[j][i]) for i in range(2)] for j in range(2)
        ],
        "death_kernel": _kernel_to_dict(bank.death_kernel),
    }
    return json.dumps(doc, indent=2)


def bank_from_json(text: str) -> KernelBank:
    """Parse the JSON bank document; unknown keys and non-numeric entries are rejected."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError(f"a bank document must be a JSON object, got {doc!r}")
    unknown = set(doc) - {"base_rates", "birth_kernels", "death_kernel"}
    if unknown:
        raise ValueError(f"unknown bank keys: {sorted(unknown)}")
    rates = doc["base_rates"]
    if not isinstance(rates, list) or len(rates) != 3:
        raise ValueError(f"base_rates must be a list of three numbers, got {rates!r}")
    bk = doc["birth_kernels"]
    if not isinstance(bk, list) or len(bk) != 2 or any(
            not isinstance(row, list) or len(row) != 2 for row in bk):
        raise ValueError("birth_kernels must be a 2x2 array of kernels")
    kernels = tuple(tuple(_kernel_from_dict(bk[j][i], f"birth_kernels[{j}][{i}]")
                          for i in range(2)) for j in range(2))
    return KernelBank(tuple(_number(r, "base_rates entry") for r in rates), kernels,
                      _kernel_from_dict(doc["death_kernel"], "death_kernel"))
