"""The workhorse ``MLP`` and its one gradient path.

Every gradient in the repository comes from :meth:`MLP._vjp`, the layerwise
vector-Jacobian product of a forward pass that :meth:`MLP._run` recorded:
the regression losses through :meth:`MLP.mse_gradients`, and the PPO policy
loss, the DDPG actor and the FGSM input gradient with their own closed-form
upstream gradients.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.nn.layers import Activation, Linear, Module, make_activation


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so that it matches ``shape``.

    NumPy broadcasting can add leading dimensions and stretch size-1 axes;
    the corresponding gradient must be summed back over those axes.
    """

    if grad.shape == shape:
        return grad
    # Sum over extra leading dimensions.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over broadcast (size-1) axes.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class MLP(Module):
    """Multi-layer perceptron with a configurable output activation.

    This is the architecture used everywhere in the reproduction: policy
    networks, value/critic networks, neural experts and the distilled
    student controller are all ``MLP`` instances with different sizes.

    Parameters
    ----------
    input_dim, output_dim:
        Sizes of the input (system state) and output (control / value).
    hidden_sizes:
        Widths of the hidden layers, e.g. ``(32, 32)``.
    activation:
        Name of the hidden activation (``"tanh"``, ``"relu"``, ``"sigmoid"``).
    output_activation:
        Name of the final activation, default ``"identity"``.  Policies that
        need bounded outputs use ``"tanh"`` followed by explicit scaling.
    seed:
        Seed for the weight initialisation generator.
    """

    def __init__(
        self,
        input_dim: int,
        output_dim: int,
        hidden_sizes: Sequence[int] = (32, 32),
        activation: str = "tanh",
        output_activation: str = "identity",
        seed: Optional[int] = None,
    ):
        if input_dim <= 0 or output_dim <= 0:
            raise ValueError("MLP dimensions must be positive")
        rng = np.random.default_rng(seed)
        self.input_dim = input_dim
        self.output_dim = output_dim
        self.hidden_sizes = tuple(int(size) for size in hidden_sizes)
        self.activation_name = activation
        self.output_activation_name = output_activation

        sizes = [input_dim, *self.hidden_sizes, output_dim]
        layers: List[Module] = []
        for index in range(len(sizes) - 1):
            layers.append(Linear(sizes[index], sizes[index + 1], rng=rng))
            is_last = index == len(sizes) - 2
            layers.append(make_activation(output_activation if is_last else activation))
        self.layers = layers
        # Per layer: (weight, bias, activation name), read by _run and _vjp.
        self._plan = tuple(
            (linear.weight, linear.bias, activation.name)
            for linear, activation in zip(layers[0::2], layers[1::2])
        )

    # ------------------------------------------------------------------
    def mse_gradients(
        self,
        inputs: np.ndarray,
        targets: np.ndarray,
        input_grad: bool = False,
        out: Optional[Sequence[np.ndarray]] = None,
    ) -> Tuple[float, Optional[np.ndarray], List[np.ndarray]]:
        """The loss and gradients of one MSE regression step.

        Runs the forward pass on ``(N, input_dim)`` rows and hands
        :meth:`_vjp` the gradient of ``mean((output - targets)**2)``:
        ``(1 / n) * diff`` once per factor of ``diff * diff``, summed.
        Inputs and targets are cast to float64 first.

        Returns ``(loss, input gradient or None, parameter gradients)``: one
        gradient per weight and bias, layer by layer (the :meth:`parameters`
        order when every parameter requires grad), ``None`` for one that
        does not; with ``out`` they are written into its arrays (see
        :meth:`_vjp`).
        """

        saved: list = []
        output = self._run(np.asarray(inputs, dtype=np.float64), saved)
        diff = output - np.asarray(targets, dtype=np.float64)
        share = np.float64(1.0) / diff.size * diff
        grad = _unbroadcast(share + share, output.shape)
        input_gradient, parameter_grads = self._vjp(saved, grad, input_grad, out)
        return (diff * diff).mean(), input_gradient, parameter_grads

    def _vjp(
        self, saved: list, grad: np.ndarray, input_grad: bool, out: Optional[Sequence[np.ndarray]] = None
    ):
        """The layerwise VJP of the forward pass recorded in ``saved``.

        ``grad`` is the upstream gradient of the network output.  Walks the
        layers in reverse: activation VJP, then ``g.sum(axis=0)`` for the
        bias, ``x^T @ g`` for the weight and ``g @ W^T`` for the layer input.
        On ``(k, n, d)`` stacks the weight and bias gradients are also
        summed over the blocks.  The first layer's input VJP runs only when
        ``input_grad`` is set.

        ``out``, when given, holds one array per weight and bias, layer by
        layer (an optimizer's :attr:`~repro.nn.optim.Optimizer.grads`, views
        of its flat gradient): each gradient is written into its array
        instead of a new one.  Returns ``(input gradient or None, [weight,
        bias, ...] gradients)``, ``None`` for a parameter that does not
        require grad.
        """

        layer_grads: list = [None] * (2 * len(saved))
        for index in reversed(range(len(saved))):
            layer_input, weight, name, activated = saved[index]
            weight_param, bias_param, _ = self._plan[index]
            weight_out, bias_out = (None, None) if out is None else out[2 * index : 2 * index + 2]
            grad = _activation_vjp(name, activated, grad)
            if grad.ndim == 2:
                if weight_param.requires_grad:
                    layer_grads[2 * index] = np.matmul(layer_input.T, grad, out=weight_out)
                if bias_param.requires_grad:
                    layer_grads[2 * index + 1] = np.add.reduce(grad, axis=0, out=bias_out)
            else:
                if weight_param.requires_grad:
                    layer_grads[2 * index] = _into(
                        _unbroadcast(np.swapaxes(layer_input, -1, -2) @ grad, weight.shape), weight_out
                    )
                if bias_param.requires_grad:
                    layer_grads[2 * index + 1] = _into(_unbroadcast(grad, bias_param.data.shape), bias_out)
            if index or input_grad:
                grad = grad @ weight.T
        return (grad if input_grad else None), layer_grads

    def _input_vjp(self, saved: list, grad: np.ndarray) -> np.ndarray:
        """The input gradient of the forward pass recorded in ``saved``, and
        nothing else: the activation and ``g @ W^T`` steps of :meth:`_vjp`,
        bit for bit, without any weight or bias gradient."""

        for _, weight, name, activated in reversed(saved):
            grad = _activation_vjp(name, activated, grad) @ weight.T
        return grad

    def predict(self, inputs: np.ndarray) -> np.ndarray:
        """Forward pass on 1-D or 2-D inputs."""

        array = np.asarray(inputs, dtype=np.float64)
        single = array.ndim == 1
        output = self._run(array[None, :] if single else array)
        return output[0] if single else output

    def _run(self, rows: np.ndarray, saved: Optional[list] = None) -> np.ndarray:
        """The forward loop shared by :meth:`predict` and every gradient.

        The verification kernels also run it on ``(k, 64, input_dim)`` stacks
        of row blocks; each 2-D slice rounds as it would alone.  With
        ``saved`` it records, per layer, ``(layer input, weight, activation
        name, activation output)`` for :meth:`_vjp`.
        """

        output = rows
        for weight_param, bias_param, name in self._plan:
            weight = weight_param.data
            hidden = output @ weight
            hidden += bias_param.data
            activated = _apply_activation_array_named(name, hidden, out=hidden)
            if saved is not None:
                saved.append((output, weight, name, activated))
            output = activated
        return output

    # ------------------------------------------------------------------
    def linear_layers(self) -> List[Linear]:
        return [layer for layer in self.layers if isinstance(layer, Linear)]

    def activations(self) -> List[Activation]:
        return [layer for layer in self.layers if isinstance(layer, Activation)]

    def clone(self) -> "MLP":
        """Deep copy with identical weights (used for target networks)."""

        copy = MLP(
            self.input_dim,
            self.output_dim,
            hidden_sizes=self.hidden_sizes,
            activation=self.activation_name,
            output_activation=self.output_activation_name,
        )
        copy.load_state_dict(self.state_dict())
        return copy

    def architecture(self) -> dict:
        """Describe the architecture as a JSON-serialisable dictionary."""

        return {
            "input_dim": self.input_dim,
            "output_dim": self.output_dim,
            "hidden_sizes": list(self.hidden_sizes),
            "activation": self.activation_name,
            "output_activation": self.output_activation_name,
        }

    @classmethod
    def from_architecture(cls, spec: dict) -> "MLP":
        return cls(
            spec["input_dim"],
            spec["output_dim"],
            hidden_sizes=spec.get("hidden_sizes", (32, 32)),
            activation=spec.get("activation", "tanh"),
            output_activation=spec.get("output_activation", "identity"),
        )


def _into(value: np.ndarray, out: Optional[np.ndarray]) -> np.ndarray:
    """``value``, copied into ``out`` when one is given."""

    if out is None:
        return value
    out[...] = value
    return out


def _apply_activation_array_named(
    name: str, values: np.ndarray, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """The activation ``name`` of ``values``; ``out=values`` evaluates it in place."""

    if name == "relu":
        return np.maximum(values, 0.0, out=out)
    if name == "tanh":
        return np.tanh(values, out=out)
    if name == "sigmoid":
        exp = np.exp(np.negative(values, out=out), out=out)
        return np.divide(1.0, np.add(1.0, exp, out=out), out=out)
    return values


def _activation_vjp(name: str, activated: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """The activations' VJPs, from the activation output ``activated``."""

    if name == "tanh":
        slope = np.square(activated)
        return np.multiply(grad, np.subtract(1.0, slope, out=slope), out=slope)
    if name == "relu":
        return grad * (activated > 0).astype(np.float64)
    if name == "sigmoid":
        return grad * activated * (1.0 - activated)
    return grad


def soft_update(target: Module, source: Module, tau: float) -> None:
    """Polyak averaging ``target <- (1 - tau) * target + tau * source``."""

    if not 0.0 <= tau <= 1.0:
        raise ValueError("tau must be in [0, 1]")
    target_params = target.parameters()
    source_params = source.parameters()
    if len(target_params) != len(source_params):
        raise ValueError("target and source have different parameter counts")
    for target_param, source_param in zip(target_params, source_params):
        target_param.data = (1.0 - tau) * target_param.data + tau * source_param.data


def hard_update(target: Module, source: Module) -> None:
    """Copy parameters from ``source`` into ``target``."""

    soft_update(target, source, tau=1.0)
