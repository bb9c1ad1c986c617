"""Action/observation spaces, a minimal stand-in for ``gym.spaces``."""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from repro.utils.seeding import RngLike, get_rng


class BoxSpace:
    """Continuous box space ``[low, high]^n``."""

    def __init__(self, low: Union[float, Sequence[float]], high: Union[float, Sequence[float]], dimension: int = None):
        low = np.asarray(low, dtype=np.float64)
        high = np.asarray(high, dtype=np.float64)
        if low.ndim == 0:
            if dimension is None:
                raise ValueError("dimension required for scalar bounds")
            low = np.full(dimension, float(low))
        if high.ndim == 0:
            high = np.full(low.shape, float(high))
        if low.shape != high.shape:
            raise ValueError("low and high must have the same shape")
        if np.any(high < low):
            raise ValueError("expected low <= high")
        self.low = low
        self.high = high

    @property
    def dimension(self) -> int:
        return int(self.low.size)

    def sample(self, rng: RngLike = None) -> np.ndarray:
        return get_rng(rng).uniform(self.low, self.high)

    def contains(self, value: Sequence[float]) -> bool:
        value = np.asarray(value, dtype=np.float64)
        return bool(np.all(value >= self.low) and np.all(value <= self.high))

    def __repr__(self) -> str:
        return f"BoxSpace(dim={self.dimension})"


class DiscreteSpace:
    """Finite space ``{0, ..., n-1}`` used by the switching baseline."""

    def __init__(self, n: int):
        if n <= 0:
            raise ValueError("n must be positive")
        self.n = int(n)

    @property
    def dimension(self) -> int:
        return 1

    def sample(self, rng: RngLike = None) -> int:
        return int(get_rng(rng).integers(0, self.n))

    def contains(self, value) -> bool:
        value = int(value)
        return 0 <= value < self.n

    def __repr__(self) -> str:
        return f"DiscreteSpace(n={self.n})"
