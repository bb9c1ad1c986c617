"""Network containers: ``Sequential`` and the workhorse ``MLP``."""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.autodiff import Tensor, is_grad_enabled
from repro.autodiff.tensor import _unbroadcast
from repro.nn.layers import Activation, Linear, Module, make_activation


class Sequential(Module):
    """Apply a list of modules in order."""

    def __init__(self, layers: Sequence[Module]):
        self.layers = list(layers)

    def forward(self, inputs: Tensor) -> Tensor:
        output = inputs
        for layer in self.layers:
            output = layer(output)
        return output

    def __iter__(self):
        return iter(self.layers)

    def __len__(self) -> int:
        return len(self.layers)


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

    # ------------------------------------------------------------------
    def forward(self, inputs: Tensor) -> Tensor:
        """The whole network as one tape node.

        The node's parents are the input followed by every layer's weight and
        bias.  Its VJP is :meth:`_vjp`, bit-identical to the layer-by-layer
        composition; the input VJP of the first layer is skipped when the
        input does not require grad.  1-D input is run as a ``(1, d)`` row,
        like :meth:`predict`.
        """

        linears = self.linear_layers()
        parameters = [tensor for layer in linears for tensor in (layer.weight, layer.bias)]
        single = inputs.data.ndim == 1
        rows = inputs.data[None, :] if single else inputs.data
        if not is_grad_enabled() or not (
            inputs.requires_grad or any(parameter.requires_grad for parameter in parameters)
        ):
            output = self._run(rows)
            return Tensor(output[0] if single else output)
        saved: list = []
        output = self._run(rows, saved)

        def backward_fn(grad: np.ndarray):
            grad = grad[None, :] if single else grad
            input_grad, parameter_grads = self._vjp(saved, grad, inputs.requires_grad)
            if input_grad is not None and single:
                input_grad = input_grad[0]
            return [input_grad] + parameter_grads

        return Tensor._from_op(output[0] if single else output, (inputs, *parameters), backward_fn, "mlp")

    def mse_gradients(
        self, inputs: np.ndarray, targets: np.ndarray, input_grad: bool = False
    ) -> Tuple[float, Optional[np.ndarray], List[np.ndarray]]:
        """One MSE regression step without a tape.

        Runs the forward pass on ``(N, input_dim)`` rows, takes the gradient of
        ``mean((output - targets)**2)`` the way :func:`repro.autodiff.
        functional.mse_loss`'s node does, and walks the same layerwise VJP as
        the :meth:`forward` node, so the results are bit for bit what
        ``mse_loss(self(Tensor(inputs)), targets).backward()`` leaves behind.
        Inputs and targets are cast to float64 exactly as ``Tensor()`` casts
        them.

        Returns ``(loss, input gradient or None, parameter gradients)``: one
        gradient per weight and bias, layer by layer (the :meth:`parameters`
        order when every parameter requires grad), ``None`` for one that
        does not.
        """

        saved: list = []
        output = self._run(np.asarray(inputs, dtype=np.float64), saved)
        diff = output - np.asarray(targets, dtype=np.float64)
        share = np.float64(1.0) / diff.size * diff
        grad = _unbroadcast(share + share, output.shape)
        input_gradient, parameter_grads = self._vjp(saved, grad, input_grad)
        return (diff * diff).mean(), input_gradient, parameter_grads

    def _vjp(self, saved: list, grad: np.ndarray, input_grad: bool):
        """The layerwise VJP of the forward pass recorded in ``saved``.

        Walks the layers in reverse with the same float64 ops, in the same
        order, as a tape of separate ``matmul``, ``add`` and activation nodes
        -- activation VJP, then ``g.sum(axis=0)`` for the bias, ``x^T @ g``
        for the weight and ``g @ W^T`` for the layer input -- so every
        gradient is bit-identical to the layer-by-layer composition.  The
        first layer's input VJP runs only when ``input_grad`` is set.
        Returns ``(input gradient or None, [weight, bias, ...] gradients)``.
        """

        linears = self.linear_layers()
        layer_grads = []
        for index in reversed(range(len(saved))):
            layer_input, weight, name, activated = saved[index]
            linear = linears[index]
            grad = _activation_vjp(name, activated, grad)
            layer_grads.append(
                (
                    _unbroadcast(np.swapaxes(layer_input, -1, -2) @ grad, weight.shape)
                    if linear.weight.requires_grad
                    else None,
                    _unbroadcast(grad, linear.bias.data.shape) if linear.bias.requires_grad else None,
                )
            )
            if index or input_grad:
                grad = _unbroadcast(grad @ np.swapaxes(weight, -1, -2), layer_input.shape)
        return (grad if input_grad else None), [g for pair in reversed(layer_grads) for g in pair]

    def predict(self, inputs: np.ndarray) -> np.ndarray:
        """Plain-array forward pass (no graph), accepting 1-D or 2-D inputs."""

        array = np.asarray(inputs, dtype=np.float64)
        single = array.ndim == 1
        output = self._run(array[None, :] if single else array)
        return output[0] if single else output

    def _run(self, rows: np.ndarray, saved: Optional[list] = None) -> np.ndarray:
        """The forward loop shared by :meth:`predict` and the tape node.

        The verification kernels also run it on ``(k, 64, input_dim)`` stacks
        of row blocks; each 2-D slice rounds as it would alone.  With ``saved`` it records, per layer, ``(layer input, weight,
        activation name, activation output)`` for the node's VJP.
        """

        output = rows
        for linear, activation in zip(self.layers[0::2], self.layers[1::2]):
            weight = linear.weight.data
            activated = _apply_activation_array_named(activation.name, output @ weight + linear.bias.data)
            if saved is not None:
                saved.append((output, weight, activation.name, activated))
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


def _apply_activation_array_named(name: str, values: np.ndarray) -> np.ndarray:
    if name == "relu":
        return np.maximum(values, 0.0)
    if name == "tanh":
        return np.tanh(values)
    if name == "sigmoid":
        return 1.0 / (1.0 + np.exp(-values))
    return values


def _activation_vjp(name: str, activated: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """The activation nodes' VJPs, from the activation output ``activated``."""

    if name == "tanh":
        return grad * (1.0 - activated ** 2)
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
