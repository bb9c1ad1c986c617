"""A small neural-network library on NumPy arrays.

Provides exactly what the Cocktail reproduction needs: fully-connected
networks with ReLU/Tanh/Sigmoid activations, SGD and Adam optimisers,
parameter serialisation, and the Lipschitz-constant computation described
in the paper's footnote 1 (product of per-layer operator norms, with a 1/4
factor for sigmoid layers).  Weights are :class:`repro.autodiff.Tensor`
parameter holders; their gradients come from one path, :meth:`MLP._vjp`
(see :meth:`MLP.mse_gradients` for the regression losses).
"""

from repro.nn.layers import Activation, Identity, Linear, Module, ReLU, Sigmoid, Tanh
from repro.nn.network import MLP
from repro.nn.optim import SGD, Adam, Optimizer
from repro.nn.lipschitz import empirical_lipschitz, network_lipschitz
from repro.nn.serialization import load_state_dict, save_state_dict, state_dict_from_module

__all__ = [
    "Module",
    "Linear",
    "Activation",
    "ReLU",
    "Tanh",
    "Sigmoid",
    "Identity",
    "MLP",
    "Optimizer",
    "SGD",
    "Adam",
    "network_lipschitz",
    "empirical_lipschitz",
    "save_state_dict",
    "load_state_dict",
    "state_dict_from_module",
]
