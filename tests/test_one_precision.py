"""Training, rollout and verification run in one precision, float64.

No config field, constructor or function argument selects another one: the
entry points below reject a ``dtype`` keyword outright, and no canonical
config (the run-store key material) carries a precision.
"""

import numpy as np
import pytest

from repro.core.config import CocktailConfig, MixingConfig
from repro.experiments.digest import canonicalize
from repro.experts import make_default_experts
from repro.nn.network import MLP
from repro.rl.buffers import RolloutBuffer
from repro.rl.gae import compute_gae_batch
from repro.rl.ppo import PPOConfig
from repro.systems import make_system
from repro.systems.simulation import rollout_batch
from repro.verification.sweep import SweepJob
from repro.verification.verifier import verify_controller


def _system():
    return make_system("vanderpol")


def _network():
    system = _system()
    return MLP(system.state_dim, system.control_dim, hidden_sizes=(4,), seed=0)


def _rollout(**keywords):
    system = _system()
    states = system.initial_set.sample(np.random.default_rng(0), count=2)
    return rollout_batch(system, make_default_experts(system)[0], states, horizon=3, rng=0, **keywords)


def _gae(**keywords):
    zeros = np.zeros((2, 1))
    return compute_gae_batch(zeros, zeros, zeros.astype(bool), 0.99, 0.95, np.zeros(1), **keywords)


_ENTRY_POINTS = {
    "MixingConfig": lambda **kw: MixingConfig(**kw),
    "PPOConfig": lambda **kw: PPOConfig(**kw),
    "RolloutBuffer": lambda **kw: RolloutBuffer(**kw),
    "compute_gae_batch": _gae,
    "rollout_batch": _rollout,
    "verify_controller": lambda **kw: verify_controller(_system(), _network(), **kw),
    "SweepJob": lambda **kw: SweepJob(
        name="job", system="vanderpol", architecture=_network().architecture(), weights={}, **kw
    ),
    "SweepJob.from_network": lambda **kw: SweepJob.from_network("job", "vanderpol", _network(), **kw),
}


@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
def test_entry_point_takes_no_precision(entry):
    call = _ENTRY_POINTS[entry]
    call()  # the float64 default still works
    with pytest.raises(TypeError, match="dtype"):
        call(dtype="float64")


def test_rollout_batch_has_no_native_switch():
    with pytest.raises(TypeError, match="native"):
        _rollout(native=True)


def _keys(value):
    if isinstance(value, dict):
        for key, item in value.items():
            yield key
            yield from _keys(item)
    elif isinstance(value, list):
        for item in value:
            yield from _keys(item)


@pytest.mark.parametrize(
    "config",
    [
        CocktailConfig(),
        CocktailConfig.fast(seed=0),
        PPOConfig(),
        SweepJob.from_network("job", "vanderpol", _network()),
    ],
    ids=["cocktail-default", "cocktail-fast", "ppo", "sweep-job"],
)
def test_canonical_config_carries_no_precision(config):
    assert "dtype" not in set(_keys(canonicalize(config)))

