"""Reinforcement-learning substrate: PPO and DDPG implemented from scratch.

The paper trains (a) the expert neural controllers with DDPG under different
hyper-parameters and (b) the adaptive-mixing policy with PPO (Algorithm 1,
line 10; Remark 1 notes DDPG also works).  Neither PyTorch nor an RL library
is available offline, so this package implements both algorithms on
:mod:`repro.nn`.  Their losses take closed-form gradients: the PPO surrogate
through the policies' ``log_prob_vjp``, the DDPG actor through the critic's
input gradient, and both critics through :meth:`repro.nn.MLP.mse_gradients`,
all ending in the one layerwise VJP, :meth:`repro.nn.MLP._vjp`.
"""

from repro.rl.spaces import BoxSpace, DiscreteSpace
from repro.rl.env import ControlEnv, RewardFunction
from repro.rl.buffers import ReplayBuffer, RolloutBuffer
from repro.rl.gae import compute_gae, compute_gae_batch
from repro.rl.policies import (
    CategoricalMLPPolicy,
    DeterministicMLPPolicy,
    GaussianMLPPolicy,
    QNetwork,
    ValueNetwork,
)
from repro.rl.ppo import PPOConfig, PPOTrainer
from repro.rl.ddpg import DDPGConfig, DDPGTrainer

__all__ = [
    "BoxSpace",
    "DiscreteSpace",
    "ControlEnv",
    "RewardFunction",
    "RolloutBuffer",
    "ReplayBuffer",
    "compute_gae",
    "compute_gae_batch",
    "GaussianMLPPolicy",
    "CategoricalMLPPolicy",
    "DeterministicMLPPolicy",
    "ValueNetwork",
    "QNetwork",
    "PPOConfig",
    "PPOTrainer",
    "DDPGConfig",
    "DDPGTrainer",
]
