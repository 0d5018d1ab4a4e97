"""Seeded random variate streams for workload generation.

The paper runs each configuration with 10 (main memory) or 30 (disk)
distinct random-number seeds and averages the results.  To make those runs
reproducible and mutually independent we give every consumer (arrivals,
update counts, item choices, slack, disk-access coin flips, ...) its own
:class:`RandomStream`, derived from a master seed through a
:class:`StreamFactory`.

Only the distributions the paper needs are exposed; all are thin wrappers
over :class:`random.Random` with validation and the paper's conventions
(e.g. normal variates for update counts are truncated below at 1).
"""

from __future__ import annotations

import random
from typing import Sequence, TypeVar

T = TypeVar("T")


def check_probability(probability: float) -> float:
    """``probability``, if it lies in [0, 1]; ``ValueError`` otherwise."""
    if not 0.0 <= probability <= 1.0:
        raise ValueError(f"probability must be in [0, 1], got {probability}")
    return probability


class RandomStream:
    """One independently seeded stream of random variates."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._rng = random.Random(seed)
        self.random = self._rng.random
        """Bound uniform draw on [0, 1), for hot loops: ``random() < p``
        is the draw :meth:`coin` makes, without its per-call check, so
        such a caller validates ``p`` once with
        :func:`check_probability`."""

    def exponential(self, mean: float) -> float:
        """Exponential variate with the given mean (not rate)."""
        if mean <= 0:
            raise ValueError(f"mean must be positive, got {mean}")
        return self._rng.expovariate(1.0 / mean)

    def normal(self, mean: float, std: float) -> float:
        """Normal variate."""
        if std < 0:
            raise ValueError(f"std must be non-negative, got {std}")
        return self._rng.gauss(mean, std)

    def positive_int_normal(self, mean: float, std: float, minimum: int = 1) -> int:
        """Rounded normal variate truncated below at ``minimum``.

        Used for the paper's "updates per transaction ~ N(20, 10)": a
        transaction must touch at least one item, so the left tail is
        clamped rather than resampled (resampling would shift the mean
        noticeably for std/mean this large; clamping matches the usual
        simulation practice).
        """
        value = int(round(self._rng.gauss(mean, std)))
        return max(minimum, value)

    def uniform(self, low: float, high: float) -> float:
        """Uniform variate on [low, high]."""
        if high < low:
            raise ValueError(f"empty range [{low}, {high}]")
        return self._rng.uniform(low, high)

    def randint(self, low: int, high: int) -> int:
        """Uniform integer on [low, high] inclusive."""
        if high < low:
            raise ValueError(f"empty range [{low}, {high}]")
        return self._rng.randint(low, high)

    def choice(self, items: Sequence[T]) -> T:
        """Uniform choice from a non-empty sequence."""
        if not items:
            raise ValueError("cannot choose from an empty sequence")
        return self._rng.choice(items)

    def sample_without_replacement(self, population: int, k: int) -> list[int]:
        """``k`` distinct integers uniform on [0, population)."""
        if k > population:
            raise ValueError(f"cannot sample {k} items from population {population}")
        return self._rng.sample(range(population), k)

    def coin(self, probability: float) -> bool:
        """Bernoulli trial."""
        return self._rng.random() < check_probability(probability)


class StreamFactory:
    """Derives named, independent :class:`RandomStream` objects.

    Each name maps deterministically to a sub-seed of the master seed, so
    adding a new consumer never perturbs the variates seen by existing
    ones — run-to-run comparisons between algorithms stay paired.
    """

    def __init__(self, master_seed: int) -> None:
        self.master_seed = master_seed

    def stream(self, name: str) -> RandomStream:
        """Return the stream for ``name`` (same name -> same stream)."""
        # A stable string hash; Python's hash() is salted per process, so
        # derive the sub-seed explicitly.
        subkey = 0
        for char in name:
            subkey = (subkey * 131 + ord(char)) % (2**31 - 1)
        return RandomStream((self.master_seed * 2654435761 + subkey) % (2**63 - 1))
