"""Tests for the PPO trainer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rl.env import ControlEnv, RewardFunction
from repro.rl.policies import CategoricalMLPPolicy
from repro.rl.ppo import PPOConfig, PPOTrainer
from repro.rl.spaces import BoxSpace, DiscreteSpace


class PointMassEnv:
    """1-D toy environment: drive the state to zero with small actions.

    Matches the ControlEnv API closely enough for the PPO trainer; kept
    minimal so learning tests stay fast and deterministic.
    """

    def __init__(self, horizon=20, seed=0):
        self.horizon = horizon
        self.observation_space = BoxSpace([-2.0], [2.0])
        self.action_space = BoxSpace([-1.0], [1.0])
        self._rng = np.random.default_rng(seed)
        self._state = None
        self._steps = 0

    @property
    def state_dim(self):
        return 1

    @property
    def action_dim(self):
        return 1

    def reset(self, initial_state=None):
        self._state = self._rng.uniform(-1.0, 1.0, size=1) if initial_state is None else np.asarray(initial_state)
        self._steps = 0
        return self._state.copy()

    def step(self, action):
        action = np.clip(np.atleast_1d(action), -1.0, 1.0)
        self._state = self._state + 0.2 * action
        self._steps += 1
        reward = -float(self._state[0] ** 2) - 0.01 * float(action[0] ** 2)
        done = self._steps >= self.horizon
        return self._state.copy(), reward, done, {}


class DiscretePointMassEnv(PointMassEnv):
    """Discrete variant: action 0 pushes left, action 1 pushes right."""

    def __init__(self, horizon=20, seed=0):
        super().__init__(horizon=horizon, seed=seed)
        self.action_space = DiscreteSpace(2)

    def step(self, action):
        direction = -1.0 if int(np.atleast_1d(action)[0]) == 0 else 1.0
        return super().step(np.array([direction]))


class TestPPOConfig:
    def test_invalid_objective(self):
        with pytest.raises(ValueError):
            PPOConfig(objective="trpo")

    def test_invalid_gamma(self):
        with pytest.raises(ValueError):
            PPOConfig(gamma=1.5)

    def test_invalid_epochs(self):
        with pytest.raises(ValueError):
            PPOConfig(epochs=0)


class TestPPOMechanics:
    def _trainer(self, objective="clip"):
        env = PointMassEnv(seed=0)
        config = PPOConfig(
            epochs=2,
            steps_per_epoch=128,
            minibatch_size=64,
            update_iterations=3,
            objective=objective,
            hidden_sizes=(16, 16),
            seed=0,
        )
        return PPOTrainer(env, config=config, rng=0)

    def test_collect_rollouts_fills_buffer(self):
        trainer = self._trainer()
        buffer = trainer.collect_rollouts(100)
        assert len(buffer) == 100
        arrays = buffer.arrays()
        assert arrays["states"].shape == (100, 1)
        assert np.any(arrays["dones"])

    def test_update_returns_statistics(self):
        trainer = self._trainer()
        buffer = trainer.collect_rollouts(128)
        stats = trainer.update(buffer)
        for key in ("policy_loss", "value_loss", "approx_kl", "kl_coefficient"):
            assert key in stats and np.isfinite(stats[key])

    @pytest.mark.parametrize("objective", ["clip", "kl"])
    def test_train_logs_every_epoch(self, objective):
        trainer = self._trainer(objective=objective)
        logger = trainer.train()
        assert logger.epochs() == 2
        assert len(logger.series("mean_return")) == 2

    def test_policy_parameters_change_after_update(self):
        trainer = self._trainer()
        before = [parameter.numpy() for parameter in trainer.policy.parameters()]
        buffer = trainer.collect_rollouts(128)
        trainer.update(buffer)
        after = [parameter.numpy() for parameter in trainer.policy.parameters()]
        assert any(not np.allclose(b, a) for b, a in zip(before, after))

    def test_value_network_learns_returns(self):
        trainer = self._trainer()
        buffer = trainer.collect_rollouts(128)
        first = trainer.update(buffer)
        losses = []
        for _ in range(5):
            buffer = trainer.collect_rollouts(128)
            losses.append(trainer.update(buffer)["value_loss"])
        assert losses[-1] < first["value_loss"] * 2.0  # does not blow up


class TestPPOLearning:
    def test_continuous_control_improves(self):
        env = PointMassEnv(seed=1)
        config = PPOConfig(
            epochs=12,
            steps_per_epoch=400,
            minibatch_size=100,
            update_iterations=5,
            policy_lr=3e-3,
            value_lr=3e-3,
            hidden_sizes=(16, 16),
            seed=1,
        )
        trainer = PPOTrainer(env, config=config, rng=1)
        logger = trainer.train()
        returns = logger.series("mean_return")
        assert np.mean(returns[-3:]) > np.mean(returns[:3])

    def test_categorical_policy_training_runs(self):
        env = DiscretePointMassEnv(seed=0)
        policy = CategoricalMLPPolicy(1, 2, hidden_sizes=(16,), seed=0)
        config = PPOConfig(epochs=3, steps_per_epoch=200, minibatch_size=64, hidden_sizes=(16,), seed=0)
        trainer = PPOTrainer(env, policy=policy, config=config, rng=0)
        logger = trainer.train()
        assert logger.epochs() == 3
        assert all(np.isfinite(value) for value in logger.series("policy_loss"))


class TestPPOOnControlEnv:
    def test_runs_on_vanderpol_control_env(self, vanderpol):
        env = ControlEnv(vanderpol, reward=RewardFunction(), horizon=30, rng=0)
        config = PPOConfig(epochs=1, steps_per_epoch=90, minibatch_size=45, hidden_sizes=(16,), seed=0)
        trainer = PPOTrainer(env, config=config, rng=0)
        logger = trainer.train()
        assert logger.epochs() == 1


class TestPolicyLossRatio:
    """The clip surrogate's ratio is ``exp(new - old)`` of the log-probs.

    Dividing the log-probs instead (``log_prob / log_prob_orig``) is also 1
    at the old policy, so only the shifted case tells the two apart.  The
    entropy bonus is off, so the loss is the surrogate alone.
    """

    @staticmethod
    def _trainer_and_batch(categorical, seed, rows):
        from repro.autodiff import Tensor, no_grad

        rng = np.random.default_rng(seed)
        config = PPOConfig(hidden_sizes=(8,), entropy_coefficient=0.0, clip_ratio=0.2, seed=seed)
        states = rng.uniform(-1.0, 1.0, size=(rows, 1))
        if categorical:
            policy = CategoricalMLPPolicy(1, 2, hidden_sizes=(8,), seed=seed)
            trainer = PPOTrainer(DiscretePointMassEnv(), policy=policy, config=config, rng=seed)
            actions = rng.integers(0, 2, size=(rows, 1)).astype(float)
            query = actions.astype(int).reshape(-1)
        else:
            trainer = PPOTrainer(PointMassEnv(), config=config, rng=seed)
            actions = rng.uniform(-1.0, 1.0, size=(rows, 1))
            query = actions
        with no_grad():
            own = trainer.policy.log_prob(Tensor(states), query).data
        batch = {
            "states": states,
            "actions": actions,
            "advantages": rng.normal(size=rows),
            "log_probs": own,
        }
        return trainer, batch

    @given(
        categorical=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**16),
        rows=st.integers(min_value=1, max_value=24),
        delta=st.floats(min_value=-0.18, max_value=0.18),
    )
    @settings(max_examples=40, deadline=None)
    def test_clip_loss_is_the_exp_log_ratio_surrogate(self, categorical, seed, rows, delta):
        trainer, batch = self._trainer_and_batch(categorical, seed, rows)
        advantages = batch["advantages"]

        at_old = float(trainer._policy_loss(batch).data)
        assert at_old == pytest.approx(-np.mean(advantages), rel=1e-12, abs=1e-12)

        # exp(-delta) stays inside the [0.8, 1.2] clip band for |delta| <= 0.18.
        shifted = dict(batch, log_probs=batch["log_probs"] + delta)
        loss = float(trainer._policy_loss(shifted).data)
        assert loss == pytest.approx(-np.mean(np.exp(-delta) * advantages), rel=1e-9, abs=1e-12)
