"""Zipfian key popularity (YCSB's request distribution [16]).

Implements the Gray et al. bounded zipfian generator YCSB uses (constant
0.99 by default) plus the scrambled variant that decorrelates popularity
from key order.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np

__all__ = [
    "ZipfianGenerator",
    "ScrambledZipfianGenerator",
    "UniformGenerator",
    "LatestGenerator",
]


class ZipfianGenerator:
    """Draws integers in [0, n) with zipfian popularity (item 0 hottest)."""

    def __init__(self, n_items: int, theta: float = 0.99, rng: np.random.Generator = None):
        if n_items < 1:
            raise ValueError(f"need at least one item: {n_items}")
        if not 0 < theta < 1:
            raise ValueError(f"theta must be in (0, 1): {theta}")
        self.n_items = n_items
        self.theta = theta
        self.rng = rng or np.random.default_rng(0)
        self._zetan = self._zeta(n_items, theta)
        self._zeta2 = self._zeta(2, theta)
        self._alpha = 1.0 / (1.0 - theta)
        if n_items > 2:
            self._eta = (1 - (2.0 / n_items) ** (1 - theta)) / (
                1 - self._zeta2 / self._zetan
            )
        else:
            # Gray's eta is 0/0 for n <= 2; the first two branches of
            # next() fully cover that case.
            self._eta = 0.0

    @staticmethod
    def _zeta(n: int, theta: float) -> float:
        # Direct sum; n is bounded (YCSB default record counts are small).
        return float(np.sum(1.0 / np.power(np.arange(1, n + 1), theta)))

    def _rank(self, u: float) -> int:
        """The rank a uniform draw ``u`` maps to, in Python floats (a
        vectorised ``np.power`` may differ in the last ulp by CPU)."""
        uz = u * self._zetan
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5**self.theta:
            return min(1, self.n_items - 1)
        rank = int(self.n_items * (self._eta * u - self._eta + 1) ** self._alpha)
        return min(rank, self.n_items - 1)

    def next(self) -> int:
        return self._rank(self.rng.random())

    def sample(self, count: int) -> np.ndarray:
        """``count`` draws of :meth:`next`, from one ``rng.random(count)``
        call (the same doubles the per-draw calls consume)."""
        rank = self._rank
        return np.array([rank(u) for u in self.rng.random(count).tolist()], dtype=np.int64)


@functools.lru_cache(maxsize=8)
def _scrambled(n_items: int) -> tuple:
    """Where each of ``n_items`` ranks lands: its blake2b hash mod n."""
    return tuple(
        int.from_bytes(
            hashlib.blake2b(rank.to_bytes(8, "little"), digest_size=8).digest(), "little"
        ) % n_items
        for rank in range(n_items)
    )


class ScrambledZipfianGenerator:
    """Zipfian ranks hashed over the item space (YCSB 'scrambled zipfian'),
    so hot items are spread across the key space — and hence across
    partitions, as in the paper's YCSB runs."""

    def __init__(self, n_items: int, theta: float = 0.99, rng: np.random.Generator = None):
        self._inner = ZipfianGenerator(n_items, theta, rng)
        self.n_items = n_items
        self._table = _scrambled(n_items)

    def next(self) -> int:
        return self._table[self._inner.next()]

    def sample(self, count: int) -> np.ndarray:
        return np.asarray(self._table, dtype=np.int64)[self._inner.sample(count)]


class LatestGenerator:
    """YCSB's 'latest' distribution (workload D): popularity skews toward
    the most recently inserted items — zipfian over recency rank."""

    def __init__(self, n_items: int, theta: float = 0.99, rng: np.random.Generator = None):
        self._inner = ZipfianGenerator(n_items, theta, rng)
        self.n_items = n_items

    def set_last_item(self, n_items: int) -> None:
        """Grow the item space after an insert (newest item = hottest)."""
        if n_items > self.n_items:
            self.n_items = n_items

    def next(self) -> int:
        rank = self._inner.next()  # 0 = hottest = newest
        return max(self.n_items - 1 - rank, 0)

    def sample(self, count: int) -> np.ndarray:
        return np.fromiter((self.next() for _ in range(count)), dtype=np.int64, count=count)


class UniformGenerator:
    """Uniform item choice (YCSB's uniform request distribution)."""

    def __init__(self, n_items: int, rng: np.random.Generator = None):
        if n_items < 1:
            raise ValueError(f"need at least one item: {n_items}")
        self.n_items = n_items
        self.rng = rng or np.random.default_rng(0)

    def next(self) -> int:
        return int(self.rng.integers(self.n_items))

    def sample(self, count: int) -> np.ndarray:
        return self.rng.integers(0, self.n_items, size=count)
