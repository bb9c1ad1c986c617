"""Tests for the expert controllers and the default expert factory."""

import hashlib

import numpy as np
import pytest

from repro.experts import (
    Controller,
    FunctionController,
    LinearStateFeedback,
    LQRController,
    NeuralController,
    PolynomialController,
    RandomController,
    VanDerPolFeedbackLinearization,
    ZeroController,
    linearize,
    make_default_experts,
)
from repro.experts.ddpg_expert import DDPGExpertSpec, train_ddpg_expert
from repro.nn.network import MLP
from repro.scenarios import list_scenarios
from repro.systems import make_system
from repro.systems.simulation import rollout, safe_control_rate

#: sha256 prefix over ``gain``, ``A`` and ``B`` (each made contiguous) of every
#: default expert of the catalog scenarios plus ``vanderpol?mu=1.5``, in that
#: order; recorded when ``linearize`` still stepped the plant one state at a time.
EXPERT_GAIN_DIGEST = "25386f726b166418"


class TestBaseControllers:
    def test_function_controller(self):
        controller = FunctionController(lambda states: states[:, :1] * 2.0, name="double")
        np.testing.assert_allclose(controller.batch_control(np.array([[1.5], [-1.0]])), [[3.0], [-2.0]])
        assert controller.name == "double"

    def test_zero_controller(self):
        controller = ZeroController(control_dim=2)
        np.testing.assert_allclose(controller.batch_control(np.ones((4, 3))), np.zeros((4, 2)))

    def test_random_controller_bounded(self):
        controller = RandomController([-1.0], [1.0], rng=0)
        controls = controller.batch_control(np.zeros((50, 2)))
        assert controls.shape == (50, 1)
        assert np.all(np.abs(controls) <= 1.0)
        assert len(np.unique(controls)) == 50  # one draw per row

    def test_linear_state_feedback(self):
        controller = LinearStateFeedback([[1.0, 2.0]])
        np.testing.assert_allclose(controller.batch_control(np.array([[1.0, 1.0]])), [[-3.0]])

    def test_linear_state_feedback_batch_matches_single(self):
        controller = LinearStateFeedback([[0.5, -0.3]])
        states = np.random.default_rng(0).normal(size=(10, 2))
        batch = controller.batch_control(states)
        singles = np.concatenate([controller.batch_control(state[None, :]) for state in states])
        np.testing.assert_allclose(batch, singles)

    def test_controller_output_is_2d_array(self):
        controller = FunctionController(lambda states: np.full(len(states), 3.0))
        assert controller.batch_control(np.zeros(2)).shape == (1, 1)
        assert controller.batch_control(np.zeros((5, 2))).shape == (5, 1)


class TestNeuralController:
    def test_wraps_mlp(self):
        net = MLP(2, 1, hidden_sizes=(8,), seed=0)
        controller = NeuralController(net, name="student")
        states = np.array([[0.3, -0.3], [0.1, 0.2]])
        np.testing.assert_allclose(controller.batch_control(states), net.predict(states))

    def test_output_scaling(self):
        net = MLP(2, 1, hidden_sizes=(8,), output_activation="tanh", seed=0)
        controller = NeuralController(net, output_low=[-20.0], output_high=[20.0])
        outputs = controller.batch_control(np.random.default_rng(0).normal(size=(50, 2)) * 5)
        assert np.all(np.abs(outputs) <= 20.0)

    def test_scaling_requires_both_bounds(self):
        net = MLP(2, 1, seed=0)
        with pytest.raises(ValueError):
            NeuralController(net, output_low=[-1.0])

    def test_batch_matches_single(self):
        net = MLP(3, 2, hidden_sizes=(8,), seed=1)
        controller = NeuralController(net)
        states = np.random.default_rng(0).normal(size=(5, 3))
        np.testing.assert_allclose(
            controller.batch_control(states),
            np.concatenate([controller.batch_control(s[None, :]) for s in states]),
        )


class TestLQR:
    def test_linearize_vanderpol_at_origin(self, vanderpol):
        A, B = linearize(vanderpol)
        np.testing.assert_allclose(A, [[1.0, 0.05], [-0.05, 1.05]], atol=1e-6)
        np.testing.assert_allclose(B, [[0.0], [0.05]], atol=1e-6)

    def test_lqr_stabilises_vanderpol_near_origin(self, vanderpol):
        controller = LQRController(vanderpol, state_cost=1.0, control_cost=1.0)
        trajectory = rollout(vanderpol, controller, [0.5, 0.5], rng=0)
        assert trajectory.safe
        assert np.linalg.norm(trajectory.states[-1]) < np.linalg.norm(trajectory.states[0])

    def test_cheaper_control_gives_larger_gains(self, threed):
        aggressive = LQRController(threed, control_cost=0.05)
        gentle = LQRController(threed, control_cost=10.0)
        assert np.linalg.norm(aggressive.gain) > np.linalg.norm(gentle.gain)

    def test_linearize_returns_contiguous_jacobians(self, cartpole):
        A, B = linearize(cartpole, state_equilibrium=np.full(4, 0.01), control_equilibrium=[0.5])
        assert A.shape == (4, 4) and B.shape == (4, 1)
        assert A.flags.c_contiguous and B.flags.c_contiguous
        # d(position')/d(velocity) = dt, d(angle')/d(angular velocity) = dt.
        assert A[0, 1] == pytest.approx(cartpole.dt) and A[2, 3] == pytest.approx(cartpole.dt)

    def test_expert_gains_keep_their_bits(self):
        digest = hashlib.sha256()
        for name in list(list_scenarios()) + ["vanderpol?mu=1.5"]:
            for expert in make_default_experts(make_system(name)):
                for attribute in ("gain", "A", "B"):
                    if hasattr(expert, attribute):
                        digest.update(np.ascontiguousarray(getattr(expert, attribute)).tobytes())
        assert digest.hexdigest()[:16] == EXPERT_GAIN_DIGEST

    def test_batch_control_matches_single(self, cartpole):
        controller = LQRController(cartpole, control_cost=0.1)
        states = np.random.default_rng(0).normal(size=(6, 4)) * 0.1
        np.testing.assert_allclose(
            controller.batch_control(states),
            np.concatenate([controller.batch_control(s[None, :]) for s in states]),
        )


class TestPolynomial:
    def test_linear_factory(self):
        controller = PolynomialController.linear([1.0, 2.0, 3.0])
        np.testing.assert_allclose(controller.batch_control(np.array([[1.0, 1.0, 1.0]])), [[-6.0]])
        assert controller.degree() == 1

    def test_quadratic_terms(self):
        controller = PolynomialController([[(1.0, (2, 0)), (-1.0, (0, 1))]])
        np.testing.assert_allclose(controller.batch_control(np.array([[3.0, 2.0]])), [[9.0 - 2.0]])
        assert controller.degree() == 2

    def test_default_three_dimensional_is_low_gain(self, threed):
        controller = PolynomialController.default_three_dimensional()
        outputs = controller.batch_control(threed.safe_region.sample(np.random.default_rng(0), 100))
        assert np.max(np.abs(outputs)) < 2.0  # small controls within the unit box

    def test_requires_polynomials(self):
        with pytest.raises(ValueError):
            PolynomialController([])

    def test_coefficients_roundtrip(self):
        controller = PolynomialController.linear([0.5, 1.5])
        coefficients = controller.coefficients()
        assert 0 in coefficients and len(coefficients[0]) == 2


class TestFeedbackLinearization:
    def test_cancels_nonlinearity(self, vanderpol):
        controller = VanDerPolFeedbackLinearization(k1=4.0, k2=6.0)
        states = np.array([[1.5, -0.8], [-0.4, 1.9], [0.0, 0.3]])
        controls = controller.batch_control(states)
        # After cancellation the closed loop is s2' = s2 + tau*(-k1 s1 - k2 s2)
        next_states = vanderpol.dynamics_batch(states, controls, np.zeros((3, 1)))
        expected_s2 = states[:, 1] + vanderpol.dt * (-4.0 * states[:, 0] - 6.0 * states[:, 1])
        np.testing.assert_allclose(next_states[:, 1], expected_s2, atol=1e-9)

    def test_high_safe_rate(self, vanderpol):
        controller = VanDerPolFeedbackLinearization()
        assert safe_control_rate(vanderpol, controller, samples=60, rng=0) > 0.85


class TestFactory:
    @pytest.mark.parametrize("fixture", ["vanderpol", "threed", "cartpole"])
    def test_returns_two_named_experts(self, fixture, request):
        system = request.getfixturevalue(fixture)
        experts = make_default_experts(system)
        assert len(experts) == 2
        assert experts[0].name == "kappa1"
        assert experts[1].name == "kappa2"
        for expert in experts:
            assert isinstance(expert, Controller)
            output = expert.batch_control(system.initial_set.center[None, :])
            assert output.shape == (1, system.control_dim)

    def test_experts_have_complementary_quality(self, vanderpol):
        kappa1, kappa2 = make_default_experts(vanderpol)
        sr1 = safe_control_rate(vanderpol, kappa1, samples=80, rng=0)
        sr2 = safe_control_rate(vanderpol, kappa2, samples=80, rng=0)
        assert sr1 > sr2  # kappa1 is the stronger expert

    def test_invalid_mode(self, vanderpol):
        with pytest.raises(ValueError):
            make_default_experts(vanderpol, mode="imitation")

    def test_unknown_system(self):
        class Custom:
            name = "custom"

        with pytest.raises(ValueError):
            make_default_experts(Custom())


class TestDDPGExpert:
    def test_tiny_training_produces_controller(self, vanderpol):
        spec = DDPGExpertSpec(hidden_sizes=(16,), episodes=2, seed=0, name="tiny")
        expert = train_ddpg_expert(vanderpol, spec, rng=0, episodes=1)
        assert expert.name == "tiny"
        output = expert.batch_control(np.array([[0.1, -0.1]]))
        assert output.shape == (1, 1)
        assert np.all(np.abs(output) <= 20.0)
        assert expert.network.num_parameters() > 0

    def test_ddpg_factory_mode(self, vanderpol):
        experts = make_default_experts(vanderpol, mode="ddpg", rng=0, ddpg_episodes=1)
        assert len(experts) == 2
        assert experts[0].name == "kappa1"
