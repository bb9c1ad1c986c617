"""Central finite differences, the reference for the closed-form gradients.

Not a test module (no ``test_`` prefix): the gradient checks in the suite
import :func:`numerical_gradient` and compare each hand-written VJP with it.
"""

from __future__ import annotations

from typing import Callable

import numpy as np


def numerical_gradient(loss: Callable[[], float], array: np.ndarray, epsilon: float = 1e-6) -> np.ndarray:
    """``d loss / d array`` by central differences, one entry at a time.

    ``loss`` takes no arguments and reads ``array``, which is nudged in
    place (a network weight's ``.data``, a batch of states) and restored.
    """

    grad = np.zeros_like(array, dtype=np.float64)
    flat, grad_flat = array.reshape(-1), grad.reshape(-1)
    for index in range(flat.size):
        original = flat[index]
        flat[index] = original + epsilon
        plus = float(loss())
        flat[index] = original - epsilon
        minus = float(loss())
        flat[index] = original
        grad_flat[index] = (plus - minus) / (2.0 * epsilon)
    return grad
