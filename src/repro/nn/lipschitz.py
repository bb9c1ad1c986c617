"""Lipschitz-constant bounds and estimates for controllers.

The paper (footnote 1) bounds the Lipschitz constant of a feed-forward
network as the product over layers of the operator norm ``||W||`` of each
weight matrix, multiplied by the Lipschitz constant of each activation
(1 for ReLU/Tanh, 1/4 for Sigmoid).  That product is what Table I reports as
``L``, what the robust distillation step drives down, and what scales the
Bernstein error ``epsilon`` behind every verification verdict.

This module is the one home of that constant:

* :func:`network_lipschitz` -- the footnote-1 bound from exact (SVD) layer
  norms, each widened by LAPACK's singular-value error bound, with the
  running product rounded upward, so it never falls below the exact
  product of the computed norms.
* :func:`empirical_lipschitz` -- a sampled lower estimate (largest
  finite-difference slope over random points and directions) for any
  row-batched function: ``network.predict`` or a controller's batched
  control law.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.nn.layers import Linear
from repro.nn.network import MLP

# LAPACK's SVD returns singular values with |s_i - sigma_i| <= p(m, n) * u *
# sigma_1, where u = 2**-53 is the unit roundoff and p(m, n) grows modestly
# with the matrix shape (LAPACK Users' Guide, section 4.9).  Each layer norm
# is widened by p * u with p = 4 * 2048, which covers p(m, n) = 4 * max(m, n)
# for layers up to 2048 units wide (the catalog's networks are at most 64).
_LAYER_NORM_MARGIN = 4 * 2048 * 2.0**-53


def network_lipschitz(network: MLP) -> float:
    """Footnote-1 product-of-layer-norms bound, sound under floating point.

    Each linear layer contributes ``np.linalg.norm(W, 2) * (1 + margin)``
    and each activation its constant; every multiply is rounded upward.
    """

    constant = 1.0
    for layer in network.layers:
        if isinstance(layer, Linear):
            factor = np.linalg.norm(layer.weight.data, 2) * (1.0 + _LAYER_NORM_MARGIN)
        else:
            factor = layer.lipschitz_constant
        constant = np.nextafter(constant * factor, np.inf)
    return float(constant)


def empirical_lipschitz(
    function: Callable[[np.ndarray], np.ndarray],
    low: np.ndarray,
    high: np.ndarray,
    samples: int = 512,
    epsilon: float = 1e-3,
    seed: Optional[int] = 0,
) -> float:
    """Sampling lower estimate of the Lipschitz constant over a box domain.

    ``function`` maps an ``(N, d)`` batch of points to ``(N, m)`` outputs.
    For random points in ``[low, high]`` and random unit directions, measures
    ``||f(x + eps d) - f(x)|| / eps`` and returns the maximum.  Always at most
    the analytic bound of :func:`network_lipschitz` (up to sampling error),
    which the property-based tests rely on.
    """

    low = np.asarray(low, dtype=np.float64)
    high = np.asarray(high, dtype=np.float64)
    if low.shape != high.shape:
        raise ValueError("low and high must have the same shape")
    if np.any(high < low):
        raise ValueError("expected low <= high elementwise")
    rng = np.random.default_rng(seed)
    dimension = low.size
    points = rng.uniform(low, high, size=(samples, dimension))
    directions = rng.normal(size=(samples, dimension))
    norms = np.linalg.norm(directions, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    directions /= norms
    outputs = function(points)
    perturbed = function(points + epsilon * directions)
    deltas = np.linalg.norm(np.atleast_2d(perturbed - outputs), axis=-1)
    return float(np.max(deltas) / epsilon)
