"""Random measurement-noise models.

The paper's measurement noise is "a random variable sampled from a uniform
distribution and added to the system state s(t) at every step", with a
magnitude of 10-15 % of the system state value bound.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from repro.utils.seeding import get_rng


class UniformMeasurementNoise:
    """Additive uniform noise ``delta ~ U[-bound, bound]`` per component."""

    def __init__(self, bound: Union[float, Sequence[float]]):
        self.bound = np.atleast_1d(np.asarray(bound, dtype=np.float64))
        if np.any(self.bound < 0):
            raise ValueError("noise bound must be non-negative")

    def perturb_batch(self, states: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Perturb an ``(N, state_dim)`` batch with one vectorised draw."""

        rng = get_rng(rng)
        states = np.atleast_2d(np.asarray(states, dtype=np.float64))
        return states + rng.uniform(-self.bound, self.bound, size=states.shape)

    def magnitude(self) -> np.ndarray:
        return self.bound.copy()


class GaussianMeasurementNoise:
    """Additive Gaussian noise truncated to the perturbation bound.

    Not used in the paper's tables but provided for the robustness ablation:
    Gaussian sensors are the more common model in practice.
    """

    def __init__(self, std: Union[float, Sequence[float]], bound_multiplier: float = 3.0):
        self.std = np.atleast_1d(np.asarray(std, dtype=np.float64))
        if np.any(self.std < 0):
            raise ValueError("noise std must be non-negative")
        self.bound_multiplier = float(bound_multiplier)

    def perturb_batch(self, states: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Perturb an ``(N, state_dim)`` batch with one vectorised draw."""

        rng = get_rng(rng)
        states = np.atleast_2d(np.asarray(states, dtype=np.float64))
        noise = rng.normal(0.0, self.std, size=states.shape)
        limit = self.bound_multiplier * self.std
        return states + np.clip(noise, -limit, limit)

    def magnitude(self) -> np.ndarray:
        return self.bound_multiplier * self.std
