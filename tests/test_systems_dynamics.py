"""Tests for the three plants' dynamics against hand-computed values.

Every value is checked on a row of :meth:`ControlSystem.dynamics_batch`,
the one update each plant implements.
"""

import numpy as np
import pytest

from repro.systems import CartPole, ThreeDimensionalSystem, VanDerPolOscillator, make_system
from repro.systems.base import ControlSystem
from repro.systems.disturbance import NoDisturbance, UniformDisturbance
from repro.systems.sets import Box


def one_step(system, state, control, disturbance):
    """``f(s, u, omega)`` for one state: the batch-of-one row."""

    return system.dynamics_batch(state[None, :], control[None, :], disturbance[None, :])[0]


class TestRegistry:
    @pytest.mark.parametrize(
        "name,cls",
        [
            ("vanderpol", VanDerPolOscillator),
            ("oscillator", VanDerPolOscillator),
            ("3d", ThreeDimensionalSystem),
            ("cartpole", CartPole),
        ],
    )
    def test_make_system(self, name, cls):
        assert isinstance(make_system(name), cls)

    def test_unknown_system(self):
        with pytest.raises(ValueError):
            make_system("quadrotor")


class TestVanDerPol:
    def test_paper_constants(self, vanderpol):
        assert vanderpol.dt == pytest.approx(0.05)
        assert vanderpol.horizon == 100
        assert vanderpol.safe_region == Box([-2, -2], [2, 2])
        assert vanderpol.control_bound == Box([-20], [20])

    def test_dynamics_hand_computed(self, vanderpol):
        state = np.array([0.5, -1.0])
        control = np.array([2.0])
        next_state = one_step(vanderpol, state, control, np.zeros(1))
        # s1' = 0.5 + 0.05 * (-1) = 0.45
        # s2' = -1 + 0.05 * ((1 - 0.25) * (-1) - 0.5 + 2) = -1 + 0.05 * 0.75 = -0.9625
        np.testing.assert_allclose(next_state, [0.45, -0.9625])

    def test_disturbance_added_to_second_state(self, vanderpol):
        state = np.array([0.0, 0.0])
        next_state = one_step(vanderpol, state, np.array([0.0]), np.array([0.03]))
        np.testing.assert_allclose(next_state, [0.0, 0.03])

    def test_origin_is_equilibrium(self, vanderpol):
        next_state = one_step(vanderpol, np.zeros(2), np.zeros(1), np.zeros(1))
        np.testing.assert_allclose(next_state, np.zeros(2))

    def test_disturbance_bound(self, vanderpol):
        bound = vanderpol.disturbance.bound()
        np.testing.assert_allclose(bound.low, [-0.05])
        np.testing.assert_allclose(bound.high, [0.05])


class TestThreeDimensional:
    def test_paper_constants(self, threed):
        assert threed.state_dim == 3
        assert threed.safe_region == Box.symmetric(0.5, dimension=3)
        assert threed.control_bound == Box([-10], [10])
        assert threed.horizon == 100

    def test_dynamics_hand_computed(self, threed):
        state = np.array([0.1, 0.2, 0.4])
        control = np.array([1.0])
        next_state = one_step(threed, state, control, np.zeros(3))
        # x' = 0.1 + 0.05*(0.2 + 0.5*0.16) = 0.114
        # y' = 0.2 + 0.05*0.4 = 0.22
        # z' = 0.4 + 0.05*1 = 0.45
        np.testing.assert_allclose(next_state, [0.114, 0.22, 0.45])

    def test_no_disturbance(self, threed):
        assert isinstance(threed.disturbance, NoDisturbance)


class TestCartPole:
    def test_paper_constants(self, cartpole):
        assert cartpole.dt == pytest.approx(0.02)
        assert cartpole.horizon == 200
        assert cartpole.total_mass == pytest.approx(1.1)
        assert cartpole.pole_mass == pytest.approx(0.1)
        np.testing.assert_allclose(cartpole.safe_region.low[[0, 2]], [-2.4, -0.209])
        np.testing.assert_allclose(cartpole.safe_region.high[[0, 2]], [2.4, 0.209])
        assert cartpole.initial_set == Box.symmetric(0.2, dimension=4)

    def test_upright_equilibrium(self, cartpole):
        next_state = one_step(cartpole, np.zeros(4), np.zeros(1), np.zeros(4))
        np.testing.assert_allclose(next_state, np.zeros(4), atol=1e-12)

    def test_pole_falls_without_control(self, cartpole):
        state = np.array([0.0, 0.0, 0.05, 0.0])
        for _ in range(30):
            state = one_step(cartpole, state, np.zeros(1), np.zeros(4))
        assert state[2] > 0.05  # gravity increases the angle

    def test_force_pushes_cart(self, cartpole):
        next_state = one_step(cartpole, np.zeros(4), np.array([5.0]), np.zeros(4))
        assert next_state[1] > 0.0  # positive force accelerates the cart

    def test_hand_computed_acceleration(self, cartpole):
        # At theta = 0, with force f: psi = f / mt, theta_acc = -psi / (l*(4/3 - mp/mt)),
        # s_acc = psi - mp*l*theta_acc/mt.
        force = 2.0
        psi = force / 1.1
        theta_acc = -psi / (1.0 * (4.0 / 3.0 - 0.1 / 1.1))
        s_acc = psi - 0.1 * 1.0 * theta_acc / 1.1
        next_state = one_step(cartpole, np.zeros(4), np.array([force]), np.zeros(4))
        np.testing.assert_allclose(next_state[1], 0.02 * s_acc)
        np.testing.assert_allclose(next_state[3], 0.02 * theta_acc)


class TestControlSystemBase:
    def test_step_batch_validates_state_shape(self, vanderpol):
        with pytest.raises(ValueError):
            vanderpol.step_batch(np.zeros((1, 3)), np.zeros((1, 1)))

    def test_step_batch_clips_control(self, vanderpol):
        # A huge command must have the same effect as the saturated one.
        states, zeros = np.zeros((2, 2)), np.zeros((2, 1))
        a = vanderpol.dynamics_batch(states, vanderpol.clip_control_batch([[1000.0], [-1000.0]]), zeros)
        b = vanderpol.dynamics_batch(states, vanderpol.clip_control_batch([[20.0], [-20.0]]), zeros)
        np.testing.assert_array_equal(a, b)

    def test_clip_control_batch(self, vanderpol):
        np.testing.assert_array_equal(
            vanderpol.clip_control_batch([[100.0], [-100.0], [3.0]]), [[20.0], [-20.0], [3.0]]
        )
        with pytest.raises(ValueError):
            vanderpol.clip_control_batch([[1.0, 2.0]])

    def test_is_safe_batch(self, vanderpol):
        np.testing.assert_array_equal(
            vanderpol.is_safe_batch([[0.0, 0.0], [2.5, 0.0], [-2.0, 2.0]]), [True, False, True]
        )

    def test_initial_states_inside_x0(self, any_system):
        states = any_system.initial_set.sample(np.random.default_rng(0), count=20)
        assert np.all(any_system.initial_set.contains_batch(states))
        assert np.all(any_system.is_safe_batch(states))

    def test_state_scale_positive(self, any_system):
        assert np.all(any_system.state_scale() > 0)

    def test_describe_fields(self, any_system):
        description = any_system.describe()
        assert description["state_dim"] == any_system.state_dim
        assert description["horizon"] == any_system.horizon
        assert len(description["safe_region"]) == any_system.state_dim

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            ControlSystem(
                state_dim=2,
                control_dim=1,
                safe_region=Box.symmetric(1.0, dimension=3),  # wrong dimension
                initial_set=Box.symmetric(1.0, dimension=2),
                control_bound=Box.symmetric(1.0, dimension=1),
                horizon=10,
            )


class TestDisturbanceModels:
    def test_no_disturbance(self):
        model = NoDisturbance(3)
        np.testing.assert_array_equal(model.sample_batch(count=4), np.zeros((4, 3)))
        assert model.bound().volume() == 0.0

    def test_uniform_disturbance_bounded(self):
        model = UniformDisturbance(0.1)
        samples = model.sample_batch(np.random.default_rng(0), count=200)
        assert samples.shape == (200, 1)
        assert np.all(np.abs(samples) <= 0.1)

    def test_uniform_disturbance_asymmetric(self):
        model = UniformDisturbance([-0.2, 0.0], [0.0, 0.3])
        samples = model.sample_batch(np.random.default_rng(0), count=100)
        assert np.all((-0.2 <= samples[:, 0]) & (samples[:, 0] <= 0.0))
        assert np.all((0.0 <= samples[:, 1]) & (samples[:, 1] <= 0.3))

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            NoDisturbance(0)
