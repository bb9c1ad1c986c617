"""Tests for the policy and value networks."""

import numpy as np
import pytest
from finite_differences import numerical_gradient

from repro.rl.policies import (
    CategoricalMLPPolicy,
    DeterministicMLPPolicy,
    GaussianMLPPolicy,
    QNetwork,
    ValueNetwork,
)


class TestGaussianPolicy:
    def _policy(self):
        return GaussianMLPPolicy(2, 2, action_low=[-1.5, -1.5], action_high=[1.5, 1.5], hidden_sizes=(16,), seed=0)

    def test_act_within_bounds(self):
        policy = self._policy()
        actions, log_probs = policy.act_batch(np.tile([0.3, -0.4], (50, 1)), rng=np.random.default_rng(0))
        assert actions.shape == (50, 2) and log_probs.shape == (50,)
        assert np.all(actions >= -1.5) and np.all(actions <= 1.5)
        assert np.all(np.isfinite(log_probs))

    def test_deterministic_action_is_mean(self):
        policy = self._policy()
        states = np.array([[0.1, 0.2], [3.0, -2.0]])
        actions, _ = policy.act_batch(states, deterministic=True)
        np.testing.assert_allclose(actions, policy.mean_actions(states))

    def test_log_prob_matches_act(self):
        policy = self._policy()
        states = np.tile([0.5, -0.5], (20, 1))
        actions, log_probs = policy.act_batch(states, rng=np.random.default_rng(1))
        # act_batch() clips the actions; for unclipped samples the densities agree.
        inside = np.all(np.abs(actions) < 1.5, axis=1)
        assert inside.any()
        np.testing.assert_allclose(policy.log_prob(states, actions)[inside], log_probs[inside], rtol=1e-9)

    def test_log_prob_matches_the_gaussian_formula(self):
        policy = self._policy()
        policy.log_std.data[:] = np.log([0.5, 2.0])
        state = np.array([[0.2, 0.1]])
        action = policy.mean_net.predict(state) + np.array([[0.5, -1.0]])
        expected = sum(
            -0.5 * (value / sigma) ** 2 - np.log(sigma) - 0.5 * np.log(2 * np.pi)
            for value, sigma in zip([0.5, -1.0], [0.5, 2.0])
        )
        np.testing.assert_allclose(policy.log_prob(state, action), [expected], rtol=1e-12)

    def test_log_prob_is_largest_at_the_mean(self):
        policy = self._policy()
        states = np.random.default_rng(2).normal(size=(4, 2))
        mean = policy.mean_net.predict(states)
        at_mean = policy.log_prob(states, mean)
        for offset in ([0.3, 0.0], [0.0, -0.2], [1.0, 1.0]):
            assert np.all(policy.log_prob(states, mean + np.array(offset)) < at_mean)

    def test_recording_leaves_the_log_prob_unchanged(self):
        policy = self._policy()
        rng = np.random.default_rng(3)
        states, actions = rng.normal(size=(5, 2)), rng.normal(size=(5, 2))
        saved: list = []
        np.testing.assert_array_equal(policy.log_prob(states, actions, saved), policy.log_prob(states, actions))
        assert len(saved) == 4

    def test_entropy_positive_with_unit_std(self):
        policy = self._policy()
        policy.log_std.data[:] = 0.0
        assert policy.entropy() > 0.0

    def test_entropy_increases_with_std(self):
        policy = self._policy()
        policy.log_std.data[:] = np.log(0.1)
        small = policy.entropy()
        policy.log_std.data[:] = np.log(2.0)
        assert policy.entropy() > small

    def test_bounds_shape_validation(self):
        with pytest.raises(ValueError):
            GaussianMLPPolicy(2, 2, action_low=[-1.0], action_high=[1.0, 1.0])

    def test_parameters_include_log_std(self):
        policy = self._policy()
        ids = {id(parameter) for parameter in policy.parameters()}
        assert id(policy.log_std) in ids


class TestCategoricalPolicy:
    def _policy(self, num_actions=3):
        return CategoricalMLPPolicy(2, num_actions, hidden_sizes=(16,), seed=0)

    def test_act_returns_valid_index(self):
        policy = self._policy()
        actions, _ = policy.act_batch(np.zeros((100, 2)), rng=np.random.default_rng(0))
        assert actions.shape == (100,)
        assert set(actions.tolist()) <= {0, 1, 2}

    def test_deterministic_act_is_argmax(self):
        policy = self._policy()
        states = np.array([[0.4, 0.1], [-2.0, 1.0]])
        actions, _ = policy.act_batch(states, deterministic=True)
        np.testing.assert_array_equal(actions, np.argmax(policy.logits_net.predict(states), axis=1))

    def test_log_prob_matches_probabilities(self):
        policy = self._policy()
        states = np.array([[0.1, 0.2], [0.3, -0.1]])
        actions = np.array([0, 2])
        log_probs = policy.log_prob(states, actions)
        exp = np.exp(policy.logits_net.predict(states))
        probabilities = exp / exp.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(log_probs, np.log(probabilities[[0, 1], actions]), rtol=1e-6)

    def test_log_probs_over_every_action_normalise(self):
        policy = self._policy(num_actions=4)
        states = np.random.default_rng(4).normal(size=(6, 2)) * 3.0
        total = sum(np.exp(policy.log_prob(states, np.full(6, action))) for action in range(4))
        np.testing.assert_allclose(total, np.ones(6), rtol=1e-12)

    def test_requires_two_actions(self):
        with pytest.raises(ValueError):
            CategoricalMLPPolicy(2, 1)


class TestDeterministicPolicy:
    def test_output_within_bounds(self):
        policy = DeterministicMLPPolicy(3, 2, action_low=[-5, -1], action_high=[5, 1], hidden_sizes=(16,), seed=0)
        states = np.random.default_rng(0).normal(size=(50, 3)) * 10
        actions = policy.act_batch(states)
        assert np.all(actions >= [-5, -1]) and np.all(actions <= [5, 1])

    def test_noise_changes_action_but_stays_bounded(self):
        policy = DeterministicMLPPolicy(2, 1, action_low=[-1], action_high=[1], seed=0)
        states = np.tile([0.1, 0.1], (8, 1))
        clean = policy.act_batch(states)
        noisy = policy.act_batch(states, noise_scale=0.5, rng=np.random.default_rng(0))
        assert not np.any(np.isclose(clean, noisy))
        assert np.all(np.abs(noisy) <= 1.0)

    def test_act_batch_clips_the_noise_free_actions(self):
        policy = DeterministicMLPPolicy(2, 2, action_low=[-1, 0], action_high=[1, 4], hidden_sizes=(8,), seed=1)
        states = np.random.default_rng(5).normal(size=(30, 2)) * 10.0
        actions = policy.actions(states)
        np.testing.assert_array_equal(policy.act_batch(states), np.clip(actions, [-1, 0], [1, 4]))
        # tanh reaches its bounds only in the limit, so the affine map stays inside the box.
        assert np.all(actions >= [-1, 0]) and np.all(actions <= [1, 4])


class TestValueAndQNetworks:
    def test_value_network_values(self):
        value_net = ValueNetwork(3, hidden_sizes=(8,), seed=0)
        values = value_net.values(np.zeros((5, 3)))
        assert values.shape == (5,)
        assert value_net.values(np.zeros(3)).shape == (1,)

    def test_q_network_shapes(self):
        q_net = QNetwork(3, 2, hidden_sizes=(8,), seed=0)
        q_values = q_net.q_values(np.zeros((4, 3)), np.zeros((4, 2)))
        assert q_values.shape == (4,)

    def test_joined_rows_put_the_state_before_the_action(self):
        joined = QNetwork.joined(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[5.0], [6.0]]))
        np.testing.assert_array_equal(joined, [[1.0, 2.0, 5.0], [3.0, 4.0, 6.0]])
        np.testing.assert_array_equal(QNetwork.joined(np.array([1.0, 2.0]), np.array([3.0])), [[1.0, 2.0, 3.0]])

    def test_q_network_gradient_flows_to_action_input(self):
        """The critic's input VJP, sliced to the action columns, is
        ``d sum(Q) / d a`` -- the gradient DDPG's actor follows."""

        q_net = QNetwork(2, 1, hidden_sizes=(8,), seed=0)
        rng = np.random.default_rng(1)
        states, actions = rng.normal(size=(3, 2)), rng.normal(size=(3, 1))
        saved: list = []
        q_net.net._run(q_net.joined(states, actions), saved)
        input_grad, _ = q_net.net._vjp(saved, np.ones((3, 1)), True)
        numeric = numerical_gradient(lambda: q_net.q_values(states, actions).sum(), actions)
        np.testing.assert_allclose(input_grad[:, 2:], numeric, rtol=1e-6, atol=1e-9)


def _gaussian():
    return GaussianMLPPolicy(2, 2, action_low=[-1.5, -1.5], action_high=[1.5, 1.5], hidden_sizes=(8,), seed=0)


def _categorical():
    return CategoricalMLPPolicy(2, 3, hidden_sizes=(8,), seed=0)


def _deterministic():
    return DeterministicMLPPolicy(2, 2, action_low=[-1, 0], action_high=[1, 4], hidden_sizes=(8,), seed=0)


# Every policy and critic entry point, as ``(make, call(module, states, actions))``.
_ENTRY_POINTS = {
    "gaussian-log_prob": (_gaussian, lambda p, s, a: p.log_prob(s, a)),
    "gaussian-act_batch": (_gaussian, lambda p, s, a: p.act_batch(s, rng=0)),
    "gaussian-mean_actions": (_gaussian, lambda p, s, a: p.mean_actions(s)),
    "categorical-log_prob": (_categorical, lambda p, s, a: p.log_prob(s, np.array([0, 2, 1, 0]))),
    "categorical-act_batch": (_categorical, lambda p, s, a: p.act_batch(s, rng=0)),
    "deterministic-actions": (_deterministic, lambda p, s, a: p.actions(s)),
    "deterministic-act_batch": (_deterministic, lambda p, s, a: p.act_batch(s, noise_scale=0.1, rng=0)),
    "value-values": (lambda: ValueNetwork(2, hidden_sizes=(8,), seed=0), lambda p, s, a: p.values(s)),
    "q-q_values": (lambda: QNetwork(2, 2, hidden_sizes=(8,), seed=0), lambda p, s, a: p.q_values(s, a)),
}


class TestFloat64EntryPoints:
    """Training runs in float64 only: a float32 batch handed to any policy or
    critic entry point is computed as its float64 cast, bit for bit."""

    @pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
    def test_float32_inputs_run_as_their_float64_cast(self, entry):
        make, call = _ENTRY_POINTS[entry]
        rng = np.random.default_rng(7)
        states = rng.normal(size=(4, 2)).astype(np.float32)
        actions = rng.normal(size=(4, 2)).astype(np.float32)
        narrow = call(make(), states, actions)
        wide = call(make(), states.astype(np.float64), actions.astype(np.float64))
        narrow = narrow if isinstance(narrow, tuple) else (narrow,)
        wide = wide if isinstance(wide, tuple) else (wide,)
        for got, expected in zip(narrow, wide):
            got, expected = np.asarray(got), np.asarray(expected)
            if got.dtype.kind == "f":
                assert got.dtype == np.float64
            assert got.dtype == expected.dtype
            assert got.tobytes() == expected.tobytes()


def _assert_matches_finite_differences(policy, loss, grads):
    assert len(grads) == len(policy.parameters())
    for parameter, grad in zip(policy.parameters(), grads):
        np.testing.assert_allclose(grad, numerical_gradient(loss, parameter.data), rtol=1e-6, atol=1e-8)


class TestClosedFormVJPs:
    """Each policy's VJP against central differences of ``sum(g * f)``."""

    @pytest.mark.parametrize("action_dim", [1, 3])
    def test_gaussian_log_prob_vjp(self, action_dim):
        policy = GaussianMLPPolicy(2, action_dim, [-1.0] * action_dim, [1.0] * action_dim,
                                   hidden_sizes=(5,), seed=3)
        policy.log_std.data[:] = np.linspace(-0.7, 0.4, action_dim)
        rng = np.random.default_rng(4)
        states, actions = rng.normal(size=(6, 2)), rng.normal(size=(6, action_dim))
        upstream = rng.normal(size=6)
        saved: list = []
        policy.log_prob(states, actions, saved)
        grads = policy.log_prob_vjp(saved, upstream)
        _assert_matches_finite_differences(policy, lambda: upstream @ policy.log_prob(states, actions), grads)

    def test_categorical_log_prob_vjp(self):
        policy = CategoricalMLPPolicy(2, 4, hidden_sizes=(5,), seed=3)
        rng = np.random.default_rng(5)
        states, actions = rng.normal(size=(7, 2)), rng.integers(0, 4, size=(7, 1)).astype(float)
        upstream = rng.normal(size=7)
        saved: list = []
        policy.log_prob(states, actions, saved)
        grads = policy.log_prob_vjp(saved, upstream)
        _assert_matches_finite_differences(policy, lambda: upstream @ policy.log_prob(states, actions), grads)

    def test_deterministic_actions_vjp(self):
        policy = DeterministicMLPPolicy(2, 2, [-3.0, 0.0], [1.0, 2.0], hidden_sizes=(5,), seed=3)
        rng = np.random.default_rng(6)
        states, upstream = rng.normal(size=(5, 2)), rng.normal(size=(5, 2))
        saved: list = []
        policy.actions(states, saved)
        grads = policy.actions_vjp(saved, upstream)
        _assert_matches_finite_differences(policy, lambda: np.sum(upstream * policy.actions(states)), grads)
