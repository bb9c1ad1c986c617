"""Bit-level pins of the RL training paths that drive the control MDP.

Each case trains a small policy end to end -- a DDPG expert (with an int
seed and with a ``Generator`` shared by the trainer and the environment),
the DDPG mixing policy (Remark 1), the switching baseline ``A_S`` at
widths 1 and 4 and the PPO mixing policy (Algorithm 1) at widths 1 and 16
-- and compares a sha256 digest of the trained weights with a recorded
value.  The digests pin the random-stream order of the environment
(initial states, disturbances, resets) together with every gradient step,
so any change to how an episode is stepped or restarted shows up here.
The values were recorded before the environment became one lockstep
class.  The three 3d cases were re-recorded once, when the SDA Riccati
solver replaced SciPy's and moved the 3d LQR gain in its last bits; the
switching cases at the same time, when the switching kernel started calling
each expert once on its gathered rows instead of once per row.

The 3d experts are LQR plus polynomial and the vanderpol plant is
stochastic, so the cases cover batched expert calls, the gathered
switching call and the disturbance draws.  Like ``tests/test_gradient_digests.py``
they assume IEEE float64 NumPy with the default BLAS on x86-64.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.switching import SwitchingTrainer
from repro.core.config import MixingConfig
from repro.core.mixing import MixingTrainer
from repro.experts import make_default_experts
from repro.experts.ddpg_expert import DDPGExpertSpec, train_ddpg_expert
from repro.systems import make_system
from test_gradient_digests import _digest


def _weights_digest(module) -> str:
    return _digest(*[parameter.data for parameter in module.parameters()])


@pytest.mark.parametrize(
    "rng,expected",
    [("generator", "42ea5fc4898d5ca3"), ("int", "f68d0fd58835ad3a")],
)
def test_ddpg_expert_matches_the_recorded_digest(rng, expected):
    spec = DDPGExpertSpec(hidden_sizes=(16,), episodes=40, seed=0, name="tiny")
    rng = np.random.default_rng(5) if rng == "generator" else 0
    expert = train_ddpg_expert(make_system("vanderpol"), spec, rng=rng, episodes=40)
    assert _weights_digest(expert.actor) == expected


MIXING_CASES = {
    "ddpg-3d": ("3d", dict(algorithm="ddpg", epochs=12), "392d788d6b5858b1"),
    "ddpg-vanderpol": ("vanderpol", dict(algorithm="ddpg", epochs=6), "e514b91a4ca7a264"),
    "ppo-3d-width16": ("3d", dict(epochs=2, steps_per_epoch=256, num_envs=16), "5e370003c5dc201f"),
    "ppo-vanderpol-width1": (
        "vanderpol", dict(epochs=1, steps_per_epoch=128, num_envs=1), "96a98ff1f254bcef"
    ),
}


@pytest.mark.parametrize("case", sorted(MIXING_CASES))
def test_mixing_policy_matches_the_recorded_digest(case):
    name, overrides, expected = MIXING_CASES[case]
    system = make_system(name)
    trainer = MixingTrainer(
        system, make_default_experts(system), MixingConfig(seed=0, **overrides), rng=0
    )
    assert _weights_digest(trainer.train().policy) == expected


SWITCHING_DIGESTS = {1: "be413334c2fdadd2", 4: "9697e3ff4c298a11"}


@pytest.mark.parametrize("width", sorted(SWITCHING_DIGESTS))
def test_switching_policy_matches_the_recorded_digest(width):
    system = make_system("3d")
    config = MixingConfig(epochs=2, steps_per_epoch=128, num_envs=width, seed=0)
    trainer = SwitchingTrainer(system, make_default_experts(system), config, rng=0)
    assert _weights_digest(trainer.train().policy) == SWITCHING_DIGESTS[width]
