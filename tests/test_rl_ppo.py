"""Tests for the PPO trainer."""

import numpy as np
import pytest
from finite_differences import numerical_gradient
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.optim import Adam
from repro.rl.env import ControlEnv, RewardFunction
from repro.rl.policies import CategoricalMLPPolicy
from repro.rl.ppo import PPOConfig, PPOTrainer, _inside
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
        rng = np.random.default_rng(seed)
        config = PPOConfig(hidden_sizes=(8,), entropy_coefficient=0.0, clip_ratio=0.2, seed=seed)
        states = rng.uniform(-1.0, 1.0, size=(rows, 1))
        if categorical:
            policy = CategoricalMLPPolicy(1, 2, hidden_sizes=(8,), seed=seed)
            trainer = PPOTrainer(DiscretePointMassEnv(), policy=policy, config=config, rng=seed)
            actions = rng.integers(0, 2, size=(rows, 1)).astype(float)
        else:
            trainer = PPOTrainer(PointMassEnv(), config=config, rng=seed)
            actions = rng.uniform(-1.0, 1.0, size=(rows, 1))
        batch = {
            "states": states,
            "actions": actions,
            "advantages": rng.normal(size=rows),
            "log_probs": trainer.policy.log_prob(states, actions),
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

        at_old, _ = trainer._policy_gradients(batch)
        assert at_old == pytest.approx(-np.mean(advantages), rel=1e-12, abs=1e-12)

        # exp(-delta) stays inside the [0.8, 1.2] clip band for |delta| <= 0.18.
        shifted = dict(batch, log_probs=batch["log_probs"] + delta)
        loss, _ = trainer._policy_gradients(shifted)
        assert loss == pytest.approx(-np.mean(np.exp(-delta) * advantages), rel=1e-9, abs=1e-12)


class TestPolicyGradients:
    """``_policy_gradients`` against central differences of its own loss.

    The old log-probs sit ``delta`` away from the current ones, with
    ``delta`` either near 0 or near +-0.6, so some rows are inside the
    ``[0.8, 1.2]`` clip band and some far outside it: the finite
    differences never straddle a kink of the clipped surrogate.
    """

    @pytest.mark.parametrize(
        "categorical,objective,entropy",
        [(False, "clip", 0.0), (False, "kl", 0.0), (False, "clip", 0.05), (False, "kl", 0.05),
         (True, "clip", 0.0), (True, "kl", 0.0)],
    )
    def test_match_finite_differences(self, categorical, objective, entropy):
        rng = np.random.default_rng(21)
        rows = 10
        config = PPOConfig(hidden_sizes=(5,), objective=objective, entropy_coefficient=entropy,
                           kl_coefficient=0.7, seed=3)
        states = rng.uniform(-1.0, 1.0, size=(rows, 1))
        if categorical:
            policy = CategoricalMLPPolicy(1, 3, hidden_sizes=(5,), seed=3)
            trainer = PPOTrainer(DiscretePointMassEnv(), policy=policy, config=config, rng=3)
            actions = rng.integers(0, 3, size=(rows, 1)).astype(float)
        else:
            trainer = PPOTrainer(PointMassEnv(), config=config, rng=3)
            actions = rng.uniform(-1.0, 1.0, size=(rows, 1))
        delta = rng.choice([-0.6, 0.0, 0.6], size=rows) + rng.uniform(-0.05, 0.05, size=rows)
        batch = {
            "states": states,
            "actions": actions,
            "advantages": rng.normal(size=rows),
            "log_probs": trainer.policy.log_prob(states, actions) + delta,
        }
        _, grads = trainer._policy_gradients(batch)
        parameters = trainer.policy.parameters()
        assert len(grads) == len(parameters)
        for parameter, grad in zip(parameters, grads):
            numeric = numerical_gradient(lambda: trainer._policy_gradients(batch)[0], parameter.data)
            np.testing.assert_allclose(grad, numeric, rtol=1e-6, atol=1e-9)



class _CriticEnv:
    state_dim = 3
    action_dim = 1
    action_space = BoxSpace([-1.0], [1.0])


class TestValueStep:
    """The critic update: ``mse_gradients`` of ``V(s)`` against the returns
    (float32 buffers cast to float64), the global-norm clip, then Adam."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("max_grad_norm", [5.0, 1e-3])
    def test_is_the_clipped_adam_step_on_the_mse_gradients(self, dtype, max_grad_norm):
        config = PPOConfig(hidden_sizes=(7, 5), max_grad_norm=max_grad_norm, seed=4)
        trainer = PPOTrainer(_CriticEnv(), config=config)
        twin = trainer.value_network.net.clone()
        optimizer = Adam(twin.parameters(), lr=config.value_lr)
        rng = np.random.default_rng(15)
        batch = {"states": rng.normal(size=(11, 3)).astype(dtype), "returns": rng.normal(size=11).astype(dtype)}
        states = batch["states"].astype(np.float64)
        returns = batch["returns"].astype(np.float64).reshape(-1, 1)

        for _ in range(3):
            mse = np.mean((twin.predict(states) - returns) ** 2)
            loss = trainer._value_step(batch)
            assert loss == pytest.approx(mse, rel=1e-12)
            _, _, grads = twin.mse_gradients(states, returns)
            norm = np.sqrt(sum(np.sum(grad ** 2) for grad in grads))
            scale = max_grad_norm / norm if norm > max_grad_norm else 1.0
            for parameter, grad in zip(twin.parameters(), grads):
                parameter.grad = grad * scale if scale != 1.0 else grad
            optimizer.step()
            for left, right in zip(trainer.value_network.parameters(), twin.parameters()):
                np.testing.assert_array_equal(left.data, right.data)


class TestApproximateKL:
    def _trainer_and_batch(self, rows=2000):
        trainer = PPOTrainer(PointMassEnv(), config=PPOConfig(hidden_sizes=(8,), seed=5), rng=5)
        rng = np.random.default_rng(5)
        states = rng.uniform(-1.0, 1.0, size=(rows, 1))
        actions, log_probs = trainer.policy.act_batch(states, rng=rng)
        # Keep rows whose sample the clip left alone, so the stored log-prob is the action's.
        inside = np.all(np.abs(actions) < 1.0, axis=1)
        return trainer, {"states": states[inside], "actions": actions[inside], "log_probs": log_probs[inside]}

    def test_zero_at_the_old_policy(self):
        trainer, batch = self._trainer_and_batch()
        assert trainer._approximate_kl(batch) == pytest.approx(0.0, abs=1e-12)

    def test_positive_once_the_mean_moves(self):
        trainer, batch = self._trainer_and_batch()
        std = float(np.exp(trainer.policy.log_std.data[0]))
        trainer.policy.mean_net.linear_layers()[-1].bias.data += 0.5 * std
        # KL of a mean shift by half a standard deviation is 0.5^2 / 2.
        assert trainer._approximate_kl(batch) == pytest.approx(0.125, rel=0.2)


@pytest.mark.parametrize(
    "low,high,values",
    [(0.8, 1.2, [0.79, 0.8, 1.0, 1.2, 1.21]), (-1e9, 0.0, [-2e9, -1e9, -1.0, 0.0, 1e-12])],
    ids=["clip-band", "min-window"],
)
def test_inside_marks_where_the_clip_passes_the_gradient(low, high, values):
    """Both ends are inclusive: the clip's gradient is 1 there."""

    np.testing.assert_array_equal(_inside(np.array(values), low, high), [0.0, 1.0, 1.0, 1.0, 0.0])

@pytest.mark.xfail(strict=True, reason=(
    "known defect: collect_rollouts stores the clipped action (act_batch clips "
    "to the action box) next to the log-prob of the unclipped sample, so at the "
    "old policy the importance ratio is not 1 on every clipped row; fixing it "
    "changes trained weights. TestPolicyLossRatio misses it because it builds "
    "its log-probs from the stored actions"
))
def test_rollout_log_probs_match_stored_actions():
    trainer = PPOTrainer(PointMassEnv(seed=0), config=PPOConfig(hidden_sizes=(8,), seed=0), rng=0)
    arrays = trainer.collect_rollouts(200).arrays()
    assert np.any(np.abs(arrays["actions"]) == 1.0), "the rollout should hold clipped actions"
    recomputed = trainer.policy.log_prob(arrays["states"], arrays["actions"])
    np.testing.assert_allclose(recomputed, arrays["log_probs"], rtol=1e-9)
