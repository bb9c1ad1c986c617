"""Layer primitives: modules, fully-connected layers, and activations."""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

import numpy as np

from repro.autodiff import Tensor


class Module:
    """Base class for anything that owns parameters.

    Sub-modules are discovered automatically from instance attributes (or
    lists of them), so a network simply assigns its layers to attributes.
    """

    # -- parameter management ------------------------------------------------
    def parameters(self) -> List[Tensor]:
        """Return every trainable tensor owned by this module (recursively)."""

        found: List[Tensor] = []
        seen = set()
        for value in self.__dict__.values():
            if isinstance(value, Tensor) and value.requires_grad:
                if id(value) not in seen:
                    seen.add(id(value))
                    found.append(value)
            elif isinstance(value, Module):
                for parameter in value.parameters():
                    if id(parameter) not in seen:
                        seen.add(id(parameter))
                        found.append(parameter)
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        for parameter in item.parameters():
                            if id(parameter) not in seen:
                                seen.add(id(parameter))
                                found.append(parameter)
                    elif isinstance(item, Tensor) and item.requires_grad:
                        if id(item) not in seen:
                            seen.add(id(item))
                            found.append(item)
        return found

    def named_modules(self, prefix: str = "") -> Iterator[tuple]:
        """Yield ``(name, module)`` pairs for this module and its children."""

        yield prefix or "root", self
        for name, value in self.__dict__.items():
            child_prefix = f"{prefix}.{name}" if prefix else name
            if isinstance(value, Module):
                yield from value.named_modules(child_prefix)
            elif isinstance(value, (list, tuple)):
                for index, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_modules(f"{child_prefix}[{index}]")

    def zero_grad(self) -> None:
        for parameter in self.parameters():
            parameter.zero_grad()

    def num_parameters(self) -> int:
        return int(sum(parameter.size for parameter in self.parameters()))

    # -- state dict ------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Flatten all parameters into name -> array, for serialisation."""

        state: Dict[str, np.ndarray] = {}
        for module_name, module in self.named_modules():
            for attr_name, value in module.__dict__.items():
                if isinstance(value, Tensor) and value.requires_grad:
                    state[f"{module_name}.{attr_name}"] = value.numpy()
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        for module_name, module in self.named_modules():
            for attr_name, value in module.__dict__.items():
                if isinstance(value, Tensor) and value.requires_grad:
                    key = f"{module_name}.{attr_name}"
                    if key not in state:
                        raise KeyError(f"missing parameter {key!r} in state dict")
                    loaded = np.asarray(state[key], dtype=np.float64)
                    if loaded.shape != value.data.shape:
                        raise ValueError(
                            f"shape mismatch for {key!r}: expected {value.data.shape}, got {loaded.shape}"
                        )
                    value.data = loaded.copy()


class Linear(Module):
    """Fully-connected layer computing ``inputs @ weight + bias``.

    Weights are stored with shape ``(in_features, out_features)`` so that a
    batch of row-vector states maps directly through matrix multiplication.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: Optional[np.random.Generator] = None,
        weight_scale: Optional[float] = None,
    ):
        if in_features <= 0 or out_features <= 0:
            raise ValueError("Linear layer dimensions must be positive")
        rng = rng if rng is not None else np.random.default_rng()
        if weight_scale is None:
            # Xavier/Glorot scaling keeps tanh networks in the linear regime.
            weight_scale = float(np.sqrt(2.0 / (in_features + out_features)))
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Tensor(
            rng.normal(0.0, weight_scale, size=(in_features, out_features)),
            requires_grad=True,
        )
        self.bias = Tensor(np.zeros(out_features), requires_grad=True)


class Activation(Module):
    """Base class for parameter-free activations.

    Each activation reports the Lipschitz constant used in the paper's
    footnote-1 bound.
    """

    #: Lipschitz constant of the activation as a scalar function.
    lipschitz_constant: float = 1.0

    name: str = "activation"


class ReLU(Activation):
    lipschitz_constant = 1.0
    name = "relu"


class Tanh(Activation):
    lipschitz_constant = 1.0
    name = "tanh"


class Sigmoid(Activation):
    lipschitz_constant = 0.25
    name = "sigmoid"


class Identity(Activation):
    lipschitz_constant = 1.0
    name = "identity"


ACTIVATIONS = {
    "relu": ReLU,
    "tanh": Tanh,
    "sigmoid": Sigmoid,
    "identity": Identity,
    "linear": Identity,
}


def make_activation(name: str) -> Activation:
    """Instantiate an activation by name (``relu``, ``tanh``, ``sigmoid``...)."""

    key = name.lower()
    if key not in ACTIVATIONS:
        raise ValueError(f"unknown activation {name!r}; choose from {sorted(ACTIVATIONS)}")
    return ACTIVATIONS[key]()
