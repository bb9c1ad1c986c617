"""Control-system substrate: plants, safe regions, and trajectory simulation.

This package replaces the OpenAI-gym environments used by the paper with
direct implementations of the three discrete-time nonlinear systems defined
in Section IV -- the Van der Pol oscillator, the 3-D polynomial system from
Sassi et al. (example 15), and the cartpole -- plus the catalog extensions
(inverted pendulum, adaptive cruise control).  Which plants exist, and how
:func:`make_system` resolves a name, is decided by the scenario registry
(:mod:`repro.scenarios`): registering a new scenario makes it available
here, to the expert factory, to the verifier and to the CLI at once.
"""

from repro.systems.sets import Box
from repro.systems.disturbance import NoDisturbance, UniformDisturbance
from repro.systems.base import ControlSystem
from repro.systems.vanderpol import VanDerPolOscillator
from repro.systems.linear3d import ThreeDimensionalSystem
from repro.systems.cartpole import CartPole
from repro.systems.pendulum import InvertedPendulum
from repro.systems.acc import AdaptiveCruiseControl
from repro.systems.simulation import (
    Trajectory,
    TrajectoryBatch,
    rollout,
    rollout_batch,
    sample_initial_states,
)

__all__ = [
    "Box",
    "ControlSystem",
    "NoDisturbance",
    "UniformDisturbance",
    "VanDerPolOscillator",
    "ThreeDimensionalSystem",
    "CartPole",
    "InvertedPendulum",
    "AdaptiveCruiseControl",
    "Trajectory",
    "TrajectoryBatch",
    "rollout",
    "rollout_batch",
    "sample_initial_states",
    "make_system",
]


def make_system(name: str, **kwargs) -> ControlSystem:
    """Instantiate a registered scenario's plant by name.

    Resolution goes through the scenario registry, so aliases
    (``"oscillator"``) and parameter-overridable variants
    (``"vanderpol?mu=1.5"``) work everywhere a system name is accepted;
    explicit keyword arguments win over variant overrides.
    """

    from repro.scenarios import make_scenario_system

    return make_scenario_system(name, **kwargs)
