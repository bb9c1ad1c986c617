"""Tests for interval dynamics and reachable-set computation."""

import numpy as np
import pytest
from verification_reference import interval_dynamics

from repro.nn.network import MLP
from repro.systems import CartPole, ThreeDimensionalSystem, VanDerPolOscillator
from repro.systems.sets import Box
from repro.verification.intervals import Interval
from repro.verification.partition import partition_network
from repro.verification.reachability import reachable_sets
from repro.verification.verifier import verify_controller


class TestIntervalDynamics:
    @pytest.mark.parametrize(
        "system_factory",
        [VanDerPolOscillator, ThreeDimensionalSystem, CartPole],
        ids=["vanderpol", "3d", "cartpole"],
    )
    def test_encloses_concrete_steps(self, system_factory):
        system = system_factory()
        rng = np.random.default_rng(0)
        # A small state box near the origin and a small control interval.
        state_box = Box(np.full(system.state_dim, -0.1), np.full(system.state_dim, 0.1))
        control_interval = Interval(np.full(system.control_dim, -0.5), np.full(system.control_dim, 0.5))
        disturbance_box = system.disturbance.bound()
        image = interval_dynamics(
            system, Interval.from_box(state_box), control_interval, Interval.from_box(disturbance_box)
        )
        states = state_box.sample(rng, count=100)
        controls = rng.uniform(-0.5, 0.5, size=(100, system.control_dim))
        disturbances = system.disturbance.sample_batch(rng, count=100)
        for next_state in system.dynamics_batch(states, controls, disturbances):
            assert image.contains(next_state), f"{system.name}: {next_state} outside {image}"

    def test_point_interval_matches_dynamics_exactly(self):
        system = VanDerPolOscillator()
        state = np.array([0.3, -0.2])
        control = np.array([1.0])
        image = interval_dynamics(
            system, Interval.point(state), Interval.point(control), Interval.point([0.0])
        )
        expected = system.dynamics_batch(state[None, :], control[None, :], np.zeros((1, 1)))[0]
        np.testing.assert_allclose(image.lower, expected, atol=1e-12)
        np.testing.assert_allclose(image.upper, expected, atol=1e-12)

    def test_wider_input_gives_wider_output(self):
        system = ThreeDimensionalSystem()
        narrow = interval_dynamics(
            system,
            Interval([-0.05] * 3, [0.05] * 3),
            Interval([-0.1], [0.1]),
            Interval.point([0.0, 0.0, 0.0]),
        )
        wide = interval_dynamics(
            system,
            Interval([-0.2] * 3, [0.2] * 3),
            Interval([-1.0], [1.0]),
            Interval.point([0.0, 0.0, 0.0]),
        )
        assert np.all(wide.width >= narrow.width - 1e-12)


class TestReachability:
    def _trained_student(self, system, seed=0):
        """A small stabilising network obtained by regressing an LQR law."""

        from repro.experts.lqr import LQRController
        from repro.nn.optim import Adam

        teacher = LQRController(system, control_cost=1.0)
        rng = np.random.default_rng(seed)
        states = system.safe_region.sample(rng, count=800)
        controls = teacher.batch_control(states)
        net = MLP(system.state_dim, system.control_dim, hidden_sizes=(12, 12), activation="tanh", seed=seed)
        optimizer = Adam(net.parameters(), lr=5e-3)
        for _ in range(250):
            _, _, grads = net.mse_gradients(states, controls)
            optimizer.apply_gradients(grads)
        return net

    def test_reachable_boxes_enclose_simulated_trajectories(self):
        system = VanDerPolOscillator(disturbance_bound=0.01)
        network = self._trained_student(system)
        initial_box = Box([0.1, 0.1], [0.2, 0.2])
        approx = partition_network(network, system.safe_region, target_error=0.3, degree=3)
        result = reachable_sets(system, approx, initial_box, steps=5)
        rng = np.random.default_rng(0)
        states = initial_box.sample(rng, count=30)
        for step in range(1, min(len(result.boxes), 6)):
            states = system.step_batch(states, network.predict(states), rng=rng)
            inside = result.boxes[step].contains_batch(states, tolerance=1e-6)
            assert np.all(inside), (
                f"step {step}: states {states[~inside]} escape reach box {result.boxes[step]}"
            )

    def test_verified_status_for_stable_loop(self):
        system = ThreeDimensionalSystem()
        network = self._trained_student(system, seed=1)
        initial_box = Box([-0.05] * 3, [0.05] * 3)
        result = verify_controller(
            system, network, target_error=0.3, degree=3, reach_initial_box=initial_box, reach_steps=5
        ).reachability
        assert result.status in ("verified", "unsafe", "resource-exhausted")
        assert len(result.boxes) >= 1
        assert result.elapsed_seconds >= 0.0

    def test_unsafe_initial_box_detected(self):
        system = VanDerPolOscillator()
        network = self._trained_student(system)
        outside = Box([1.9, 1.9], [2.5, 2.5])  # partially outside the safe region
        approx = partition_network(network, system.safe_region, target_error=0.5, degree=2)
        result = reachable_sets(system, approx, outside, steps=3)
        assert result.status == "unsafe"
        assert not result.safe

    def test_work_budget_exhaustion(self):
        system = VanDerPolOscillator()
        network = self._trained_student(system)
        initial_box = Box([0.0, 0.0], [0.1, 0.1])
        approx = partition_network(network, system.safe_region, target_error=0.3, degree=3)
        result = reachable_sets(system, approx, initial_box, steps=10, work_budget=1)
        assert result.status == "resource-exhausted"
        assert result.steps_completed < 10

    def test_full_run_counts_every_step(self):
        system = VanDerPolOscillator()
        network = self._trained_student(system)
        approx = partition_network(network, system.safe_region, target_error=0.5, degree=2)
        result = reachable_sets(system, approx, Box([0.0, 0.0], [0.05, 0.05]), steps=5)
        assert result.status == "verified"
        assert result.steps_completed == 5
        assert len(result.boxes) == 6
        assert result.work == 5 * approx.total_coefficients()

    def test_stopped_run_counts_the_step_that_stopped_it(self):
        # A run that stops at step k (unsafe box or exhausted budget) reports
        # k + 1 steps and keeps only the boxes it reached.
        system = VanDerPolOscillator()
        network = self._trained_student(system)
        approx = partition_network(network, system.safe_region, target_error=0.5, degree=2)
        outside = Box([1.9, 1.9], [2.5, 2.5])
        unsafe = reachable_sets(system, approx, outside, steps=4)
        assert (unsafe.status, unsafe.steps_completed, unsafe.work) == ("unsafe", 1, 0)
        assert unsafe.boxes == [outside]
        inside = Box([0.0, 0.0], [0.05, 0.05])
        budget = 2 * approx.total_coefficients()
        exhausted = reachable_sets(system, approx, inside, steps=4, work_budget=budget)
        assert (exhausted.status, exhausted.steps_completed) == ("resource-exhausted", 3)
        assert exhausted.work == 3 * approx.total_coefficients()
        assert len(exhausted.boxes) == 3

    def test_invalid_steps(self):
        system = VanDerPolOscillator()
        network = self._trained_student(system)
        approx = partition_network(network, system.safe_region, target_error=0.5, degree=2)
        with pytest.raises(ValueError):
            reachable_sets(system, approx, Box([0, 0], [0.1, 0.1]), steps=0)
