"""Deterministic seeding helpers.

Every stochastic component in the reproduction (environments, policies,
attacks, Monte-Carlo estimators) accepts an explicit seed or RNG; these
helpers centralise the conversion and provide a process-wide default seed so
experiments are repeatable end to end.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

RngLike = Union[None, int, np.random.Generator]

_GLOBAL_SEED: Optional[int] = None


def set_global_seed(seed: int) -> None:
    """Set a process-wide default seed used when components receive ``None``."""

    global _GLOBAL_SEED
    _GLOBAL_SEED = int(seed)
    np.random.seed(seed)


def get_rng(seed: RngLike = None) -> np.random.Generator:
    """Normalise ``seed`` into a :class:`numpy.random.Generator`.

    ``None`` falls back to the global seed (if set) and otherwise to fresh OS
    entropy; an existing generator is passed through unchanged.
    """

    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None:
        seed = _GLOBAL_SEED
    return np.random.default_rng(seed)
