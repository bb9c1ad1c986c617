"""Controller interface and generic controller wrappers.

A controller is a memoryless map from observed states to control commands
(the plant clips the command to its bound), evaluated on batches: its one
method, :meth:`Controller.batch_control`, maps an ``(N, state_dim)`` batch
to ``(N, control_dim)`` controls, and a single state is a batch of one.
Controllers are used in four places: as experts fed to the adaptive mixer,
as the teacher during distillation, as the student produced by
distillation, and as baselines in the evaluation harness -- so the
interface is deliberately minimal.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from repro.nn.network import MLP
from repro.utils.seeding import RngLike, get_rng


class Controller:
    """Base controller: a memoryless map from a batch of states to controls."""

    #: Human-readable name used in result tables.
    name: str = "controller"

    def batch_control(self, states: np.ndarray) -> np.ndarray:  # pragma: no cover - abstract
        """Controls ``(N, control_dim)`` for an ``(N, state_dim)`` batch of states."""

        raise NotImplementedError


class FunctionController(Controller):
    """Wrap a row-batched function ``(N, state_dim) -> (N, control_dim)`` as a controller."""

    def __init__(self, function: Callable[[np.ndarray], np.ndarray], name: str = "function"):
        self._function = function
        self.name = name

    def batch_control(self, states: np.ndarray) -> np.ndarray:
        states = np.atleast_2d(np.asarray(states, dtype=np.float64))
        return np.asarray(self._function(states), dtype=np.float64).reshape(len(states), -1)


class LinearStateFeedback(Controller):
    """Linear state feedback ``u = -K s`` (optionally with an offset)."""

    def __init__(self, gain: Sequence[Sequence[float]], offset: Optional[Sequence[float]] = None, name: str = "linear"):
        self.gain = np.atleast_2d(np.asarray(gain, dtype=np.float64))
        self.offset = (
            np.zeros(self.gain.shape[0]) if offset is None else np.asarray(offset, dtype=np.float64)
        )
        self.name = name

    def batch_control(self, states: np.ndarray) -> np.ndarray:
        states = np.atleast_2d(np.asarray(states, dtype=np.float64))
        return -(states @ self.gain.T) + self.offset


class NeuralController(Controller):
    """Wrap an :class:`repro.nn.MLP` (optionally with output scaling) as a controller.

    ``output_low``/``output_high`` rescale a tanh-squashed network output to
    the control bound; when omitted the raw network output is used, which is
    the convention for the distilled student network κ*.
    """

    def __init__(
        self,
        network: MLP,
        output_low: Optional[Sequence[float]] = None,
        output_high: Optional[Sequence[float]] = None,
        name: str = "neural",
    ):
        self.network = network
        self.name = name
        if (output_low is None) != (output_high is None):
            raise ValueError("output_low and output_high must be provided together")
        if output_low is not None:
            self.output_low = np.asarray(output_low, dtype=np.float64)
            self.output_high = np.asarray(output_high, dtype=np.float64)
            self._scale = (self.output_high - self.output_low) / 2.0
            self._offset = (self.output_high + self.output_low) / 2.0
        else:
            self.output_low = None
            self.output_high = None
            self._scale = None
            self._offset = None

    def batch_control(self, states: np.ndarray) -> np.ndarray:
        states = np.atleast_2d(np.asarray(states, dtype=np.float64))
        outputs = np.atleast_2d(self.network.predict(states))
        if self._scale is not None:
            outputs = outputs * self._scale + self._offset
        return outputs


class ZeroController(Controller):
    """Always outputs zero control; the do-nothing baseline used in tests."""

    name = "zero"

    def __init__(self, control_dim: int = 1):
        self.control_dim = int(control_dim)

    def batch_control(self, states: np.ndarray) -> np.ndarray:
        return np.zeros((len(np.atleast_2d(states)), self.control_dim))


class RandomController(Controller):
    """Uniformly random control inside a bound; a worst-case style baseline."""

    name = "random"

    def __init__(self, low: Sequence[float], high: Sequence[float], rng: RngLike = None):
        self.low = np.atleast_1d(np.asarray(low, dtype=np.float64))
        self.high = np.atleast_1d(np.asarray(high, dtype=np.float64))
        self._rng = get_rng(rng)

    def batch_control(self, states: np.ndarray) -> np.ndarray:
        return self._rng.uniform(self.low, self.high, size=(len(np.atleast_2d(states)), self.low.size))
