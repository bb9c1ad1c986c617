"""External-disturbance models ``omega(t)``.

The paper's plants experience a bounded external disturbance sampled at every
step.  Only a uniform box disturbance (used by the oscillator) and the
trivial zero disturbance are required, but the interface is open-ended so
verification code can ask for the bounding box of whatever model is plugged
in.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from repro.systems.sets import Box
from repro.utils.seeding import RngLike, get_rng


class DisturbanceModel:
    """Interface: draw a batch of disturbance vectors and report their bound."""

    dimension: int = 1

    def sample_batch(self, rng: RngLike = None, count: int = 1) -> np.ndarray:  # pragma: no cover - abstract
        """Sample ``count`` independent disturbances, shape ``(count, dim)``."""

        raise NotImplementedError

    def bound(self) -> Box:  # pragma: no cover - abstract
        raise NotImplementedError


class NoDisturbance(DisturbanceModel):
    """Always-zero disturbance (used by the 3-D system and cartpole)."""

    def __init__(self, dimension: int = 1):
        if dimension < 1:
            raise ValueError("dimension must be positive")
        self.dimension = dimension

    def sample_batch(self, rng: RngLike = None, count: int = 1) -> np.ndarray:
        return np.zeros((count, self.dimension))

    def bound(self) -> Box:
        return Box(np.zeros(self.dimension), np.zeros(self.dimension))


class UniformDisturbance(DisturbanceModel):
    """Uniformly-distributed disturbance on a symmetric or general box."""

    def __init__(self, low: Union[float, Sequence[float]], high: Optional[Union[float, Sequence[float]]] = None):
        if high is None:
            box = Box.symmetric(np.abs(np.atleast_1d(np.asarray(low, dtype=np.float64))))
        else:
            box = Box(low, high)
        self._box = box
        self.dimension = box.dimension

    def sample_batch(self, rng: RngLike = None, count: int = 1) -> np.ndarray:
        return self._box.sample(get_rng(rng), count=count)

    def bound(self) -> Box:
        return self._box
