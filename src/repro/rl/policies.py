"""Policy and value networks used by PPO and DDPG.

All networks are thin wrappers around :class:`repro.nn.MLP`:

* :class:`GaussianMLPPolicy` -- diagonal-Gaussian stochastic policy for PPO
  over continuous actions (the mixing weights of Section III-A).
* :class:`CategoricalMLPPolicy` -- softmax policy for PPO over a finite set
  of actions (the switching baseline A_S of [4]).
* :class:`DeterministicMLPPolicy` -- tanh-squashed deterministic actor used
  by DDPG (the expert controllers).
* :class:`ValueNetwork` / :class:`QNetwork` -- state-value and state-action
  critics.

The training losses take closed-form gradients: each policy pairs an array
forward that can record itself (``log_prob``/``actions`` with ``saved=``)
with the matching VJP (``log_prob_vjp``/``actions_vjp``), which ends in
:meth:`repro.nn.MLP._vjp`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.autodiff import Tensor
from repro.nn.layers import Module
from repro.nn.network import MLP
from repro.utils.seeding import RngLike, get_rng

_LOG_2PI = float(np.log(2.0 * np.pi))


class GaussianMLPPolicy(Module):
    """Diagonal Gaussian policy: mean from an MLP, state-independent log std."""

    def __init__(
        self,
        state_dim: int,
        action_dim: int,
        action_low: Sequence[float],
        action_high: Sequence[float],
        hidden_sizes: Sequence[int] = (64, 64),
        activation: str = "tanh",
        init_log_std: float = -0.5,
        seed: Optional[int] = None,
    ):
        self.state_dim = state_dim
        self.action_dim = action_dim
        self.action_low = np.asarray(action_low, dtype=np.float64)
        self.action_high = np.asarray(action_high, dtype=np.float64)
        if self.action_low.shape != (action_dim,) or self.action_high.shape != (action_dim,):
            raise ValueError("action bounds must have shape (action_dim,)")
        self.mean_net = MLP(state_dim, action_dim, hidden_sizes, activation=activation, seed=seed)
        self.log_std = Tensor(np.full(action_dim, float(init_log_std)), requires_grad=True)

    # -- the PPO loss: log-probabilities and their VJP -------------------------
    def log_prob(self, states: np.ndarray, actions: np.ndarray, saved: Optional[list] = None) -> np.ndarray:
        """Log density of each row of ``actions`` at the matching row of
        ``states``, summed over the action dimension.

        With ``saved`` it records the forward pass for :meth:`log_prob_vjp`.
        """

        network_saved = [] if saved is not None else None
        mean = self.mean_net._run(np.asarray(states, dtype=np.float64), network_saved)
        log_std = self.log_std.data
        std = np.exp(log_std)
        diff = np.asarray(actions, dtype=np.float64) - mean
        z = diff / std
        if saved is not None:
            saved += [network_saved, std, diff, z]
        return (z * z * (-0.5) - log_std - 0.5 * _LOG_2PI).sum(axis=-1)

    def log_prob_vjp(self, saved: list, grad: np.ndarray) -> List[np.ndarray]:
        """Gradients of ``sum(grad * log_prob)`` for :meth:`parameters`.

        ``log_prob = sum(-z^2 / 2 - log_std) - const`` with
        ``z = (a - mean) / exp(log_std)``: the mean gets ``z / std`` per row
        (through :meth:`MLP._vjp`), and ``log_std`` gets ``-1`` from its own
        term plus ``z^2`` through ``std``, each summed over the rows.
        """

        network_saved, std, diff, z = saved
        grad = np.broadcast_to(grad[:, None], z.shape).copy()
        share = grad * (-0.5) * z
        grad_z = share + share
        grad_std = (-grad_z * diff / (std ** 2)).sum(axis=0)
        grad_log_std = (-grad).sum(axis=0) + grad_std * std
        _, grads = self.mean_net._vjp(network_saved, -(grad_z / std), False)
        return grads + [grad_log_std]

    def entropy(self) -> float:
        """Entropy of the Gaussian; its gradient for ``log_std`` is one."""

        return float(self.log_std.data.sum() + 0.5 * self.action_dim * (1.0 + _LOG_2PI))

    # -- rollouts --------------------------------------------------------------
    def act(self, state: np.ndarray, rng: RngLike = None, deterministic: bool = False) -> Tuple[np.ndarray, float]:
        """Sample a clipped action and return it with its log probability."""

        generator = get_rng(rng)
        mean = self.mean_net.predict(np.asarray(state, dtype=np.float64))
        std = np.exp(self.log_std.data)
        if deterministic:
            action = mean
        else:
            action = mean + std * generator.normal(size=self.action_dim)
        log_prob = float(
            np.sum(-0.5 * ((action - mean) / std) ** 2 - np.log(std) - 0.5 * np.log(2.0 * np.pi))
        )
        return np.clip(action, self.action_low, self.action_high), log_prob

    def act_batch(
        self, states: np.ndarray, rng: RngLike = None, deterministic: bool = False
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Sample one clipped action per row of ``states``.

        The vectorised counterpart of :meth:`act`: one ``(N, state_dim)``
        forward pass and one ``(N, action_dim)`` noise draw.  With ``N = 1``
        it consumes the generator stream exactly like a single :meth:`act`
        call and returns the same action/log-probability bit for bit.
        Returns ``(actions (N, action_dim), log_probs (N,))``.
        """

        generator = get_rng(rng)
        states = np.atleast_2d(np.asarray(states, dtype=np.float64))
        mean = np.atleast_2d(self.mean_net.predict(states))
        std = np.exp(self.log_std.data)
        if deterministic:
            actions = mean
        else:
            actions = mean + std * generator.normal(size=(len(states), self.action_dim))
        log_probs = np.sum(
            -0.5 * ((actions - mean) / std) ** 2 - np.log(std) - 0.5 * np.log(2.0 * np.pi),
            axis=1,
        )
        return np.clip(actions, self.action_low, self.action_high), log_probs

    def mean_action(self, state: np.ndarray) -> np.ndarray:
        mean = self.mean_net.predict(np.asarray(state, dtype=np.float64))
        return np.clip(mean, self.action_low, self.action_high)

    def mean_actions(self, states: np.ndarray) -> np.ndarray:
        """Deterministic (mean) actions for an ``(N, state_dim)`` batch."""

        states = np.atleast_2d(np.asarray(states, dtype=np.float64))
        means = np.atleast_2d(self.mean_net.predict(states))
        return np.clip(means, self.action_low, self.action_high)


class CategoricalMLPPolicy(Module):
    """Softmax policy over ``num_actions`` discrete choices (switching baseline)."""

    def __init__(
        self,
        state_dim: int,
        num_actions: int,
        hidden_sizes: Sequence[int] = (64, 64),
        activation: str = "tanh",
        seed: Optional[int] = None,
    ):
        if num_actions < 2:
            raise ValueError("a categorical policy needs at least two actions")
        self.state_dim = state_dim
        self.num_actions = num_actions
        self.logits_net = MLP(state_dim, num_actions, hidden_sizes, activation=activation, seed=seed)

    def log_prob(self, states: np.ndarray, actions: np.ndarray, saved: Optional[list] = None) -> np.ndarray:
        """Log probability of integer actions under the softmax distribution.

        With ``saved`` it records the forward pass for :meth:`log_prob_vjp`.
        """

        network_saved = [] if saved is not None else None
        logits = self.logits_net._run(np.asarray(states, dtype=np.float64), network_saved)
        # log softmax = logits - logsumexp(logits)
        max_logits = np.max(logits, axis=-1, keepdims=True)
        exp = np.exp(logits - max_logits)
        total = exp.sum(axis=-1, keepdims=True)
        log_probs = logits - (np.log(total) + max_logits)
        actions = np.asarray(actions, dtype=int).reshape(-1)
        if saved is not None:
            saved += [network_saved, actions, exp, total]
        return log_probs[np.arange(len(actions)), actions]

    def log_prob_vjp(self, saved: list, grad: np.ndarray) -> List[np.ndarray]:
        """Gradients of ``sum(grad * log_prob)`` for :meth:`parameters`: the
        logits get ``grad`` at the taken action minus ``grad * softmax``."""

        network_saved, actions, exp, total = saved
        picked = np.zeros(exp.shape)
        picked[np.arange(len(actions)), actions] += grad
        grad_total = (-picked).sum(axis=-1, keepdims=True) / total
        grad_logits = picked + np.broadcast_to(grad_total, exp.shape) * exp
        _, grads = self.logits_net._vjp(network_saved, grad_logits, False)
        return grads

    def act(self, state: np.ndarray, rng: RngLike = None, deterministic: bool = False) -> Tuple[int, float]:
        generator = get_rng(rng)
        logits = self.logits_net.predict(np.asarray(state, dtype=np.float64))
        logits = logits - np.max(logits)
        probabilities = np.exp(logits)
        probabilities /= probabilities.sum()
        if deterministic:
            action = int(np.argmax(probabilities))
        else:
            action = int(generator.choice(self.num_actions, p=probabilities))
        return action, float(np.log(probabilities[action] + 1e-12))

    def act_batch(
        self, states: np.ndarray, rng: RngLike = None, deterministic: bool = False
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Sample one action per row of ``states``.

        Returns ``(actions (N,) int, log_probs (N,))``.  With ``N = 1`` the
        generator stream and the sampled action match a single :meth:`act`
        call (one ``choice`` draw per row, in row order).
        """

        generator = get_rng(rng)
        states = np.atleast_2d(np.asarray(states, dtype=np.float64))
        logits = np.atleast_2d(self.logits_net.predict(states))
        logits = logits - np.max(logits, axis=1, keepdims=True)
        probabilities = np.exp(logits)
        probabilities /= probabilities.sum(axis=1, keepdims=True)
        if deterministic:
            actions = np.argmax(probabilities, axis=1)
        else:
            actions = np.array(
                [int(generator.choice(self.num_actions, p=row)) for row in probabilities]
            )
        rows = np.arange(len(states))
        log_probs = np.log(probabilities[rows, actions] + 1e-12)
        return actions, log_probs

    def probabilities(self, state: np.ndarray) -> np.ndarray:
        logits = self.logits_net.predict(np.asarray(state, dtype=np.float64))
        logits = logits - np.max(logits)
        exp = np.exp(logits)
        return exp / exp.sum()


class DeterministicMLPPolicy(Module):
    """Tanh-squashed deterministic actor ``a = low + (tanh(f(s)) + 1)/2 * (high - low)``."""

    def __init__(
        self,
        state_dim: int,
        action_dim: int,
        action_low: Sequence[float],
        action_high: Sequence[float],
        hidden_sizes: Sequence[int] = (64, 64),
        activation: str = "relu",
        seed: Optional[int] = None,
    ):
        self.state_dim = state_dim
        self.action_dim = action_dim
        self.action_low = np.asarray(action_low, dtype=np.float64)
        self.action_high = np.asarray(action_high, dtype=np.float64)
        self.net = MLP(
            state_dim,
            action_dim,
            hidden_sizes,
            activation=activation,
            output_activation="tanh",
            seed=seed,
        )
        self._scale = (self.action_high - self.action_low) / 2.0
        self._offset = (self.action_high + self.action_low) / 2.0

    def actions(self, states: np.ndarray, saved: Optional[list] = None) -> np.ndarray:
        """Noise-free, unclipped actions for an ``(N, state_dim)`` batch.

        With ``saved`` it records the forward pass for :meth:`actions_vjp`.
        """

        return self.net._run(np.asarray(states, dtype=np.float64), saved) * self._scale + self._offset

    def actions_vjp(self, saved: list, grad: np.ndarray) -> List[np.ndarray]:
        """Gradients of ``sum(grad * actions)`` for :meth:`parameters`."""

        _, grads = self.net._vjp(saved, grad * self._scale, False)
        return grads

    def act(self, state: np.ndarray, noise_scale: float = 0.0, rng: RngLike = None) -> np.ndarray:
        action = self.net.predict(np.asarray(state, dtype=np.float64)) * self._scale + self._offset
        if noise_scale > 0.0:
            action = action + noise_scale * self._scale * get_rng(rng).normal(size=self.action_dim)
        return np.clip(action, self.action_low, self.action_high)

    def act_batch(self, states: np.ndarray, noise_scale: float = 0.0, rng: RngLike = None) -> np.ndarray:
        """Deterministic actions for an ``(N, state_dim)`` batch (optional
        exploration noise, one draw per row)."""

        actions = self.actions(np.atleast_2d(states))
        if noise_scale > 0.0:
            actions = actions + noise_scale * self._scale * get_rng(rng).normal(
                size=(len(actions), self.action_dim)
            )
        return np.clip(actions, self.action_low, self.action_high)


class ValueNetwork(Module):
    """State-value function V(s) for PPO."""

    def __init__(self, state_dim: int, hidden_sizes: Sequence[int] = (64, 64), activation: str = "tanh", seed: Optional[int] = None):
        self.net = MLP(state_dim, 1, hidden_sizes, activation=activation, seed=seed)

    def value(self, state: np.ndarray) -> float:
        return float(np.atleast_1d(self.net.predict(np.asarray(state, dtype=np.float64)))[0])

    def values(self, states: np.ndarray) -> np.ndarray:
        return self.net.predict(np.atleast_2d(np.asarray(states, dtype=np.float64)))[:, 0]


class QNetwork(Module):
    """State-action value function Q(s, a) for DDPG."""

    def __init__(
        self,
        state_dim: int,
        action_dim: int,
        hidden_sizes: Sequence[int] = (64, 64),
        activation: str = "relu",
        seed: Optional[int] = None,
    ):
        self.state_dim = state_dim
        self.action_dim = action_dim
        self.net = MLP(state_dim + action_dim, 1, hidden_sizes, activation=activation, seed=seed)

    @staticmethod
    def joined(states: np.ndarray, actions: np.ndarray) -> np.ndarray:
        """The network's input rows ``[s, a]``."""

        return np.concatenate(
            [np.atleast_2d(np.asarray(states, dtype=np.float64)), np.atleast_2d(np.asarray(actions, dtype=np.float64))],
            axis=-1,
        )

    def q_values(self, states: np.ndarray, actions: np.ndarray) -> np.ndarray:
        return self.net.predict(self.joined(states, actions))[:, 0]
