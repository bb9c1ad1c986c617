"""Tests for the control-invariant-set computation (Fig. 3 machinery)."""

import numpy as np
import pytest

from repro.experts.base import NeuralController
from repro.experts.feedback_linearization import VanDerPolFeedbackLinearization
from repro.nn.network import MLP
from repro.nn.optim import Adam
from repro.systems import VanDerPolOscillator
from repro.systems.sets import Box
from repro.systems.simulation import rollout
from repro.verification.invariant import compute_invariant_set
from repro.verification.verifier import verify_controller

GRID_RESOLUTION = 20


@pytest.fixture(scope="module")
def oscillator_student():
    """A small network regressed onto a stabilising controller of the oscillator."""

    system = VanDerPolOscillator(disturbance_bound=0.01)
    teacher = VanDerPolFeedbackLinearization(k1=3.0, k2=4.0)
    rng = np.random.default_rng(0)
    states = system.safe_region.sample(rng, count=1000)
    controls = np.stack([system.clip_control(teacher(state)) for state in states])
    net = MLP(2, 1, hidden_sizes=(12, 12), activation="tanh", seed=0)
    optimizer = Adam(net.parameters(), lr=5e-3)
    for _ in range(300):
        _, _, grads = net.mse_gradients(states, controls)
        optimizer.apply_gradients(grads)
    return system, net


@pytest.fixture(scope="module")
def invariant_result(oscillator_student):
    """One shared invariant-set computation (the expensive step) for all tests."""

    system, net = oscillator_student
    result = compute_invariant_set(
        system, net, grid_resolution=GRID_RESOLUTION, target_error=0.5, degree=3, max_partitions=4096
    )
    return system, net, result


class TestInvariantSet:
    def test_result_structure(self, invariant_result):
        _, _, result = invariant_result
        assert len(result.cells) == GRID_RESOLUTION**2
        assert result.invariant_mask.shape == (GRID_RESOLUTION**2,)
        assert 0.0 <= result.volume_fraction() <= 1.0
        assert result.iterations >= 1
        assert result.elapsed_seconds >= 0.0
        assert result.work == GRID_RESOLUTION**2

    def test_invariant_set_is_nontrivial(self, invariant_result):
        """A well-stabilised oscillator must yield a sizeable invariant set."""

        _, _, result = invariant_result
        assert result.volume_fraction() > 0.3

    def test_invariant_cells_subset_of_safe_region(self, invariant_result):
        system, _, result = invariant_result
        for cell in result.invariant_cells:
            assert system.safe_region.contains_box(cell, tolerance=1e-9)

    def test_origin_neighbourhood_is_invariant(self, invariant_result):
        _, _, result = invariant_result
        assert result.contains(np.array([0.05, 0.05]))

    def test_trajectories_from_invariant_set_remain_safe(self, invariant_result):
        """The paper's Fig. 3 check: simulate from inside X_I and verify safety."""

        system, net, result = invariant_result
        controller = NeuralController(net)
        rng = np.random.default_rng(1)
        cells = result.invariant_cells
        indices = rng.choice(len(cells), size=min(15, len(cells)), replace=False)
        for index in indices:
            initial_state = cells[index].sample(rng)
            trajectory = rollout(system, controller, initial_state, horizon=60, rng=rng)
            assert trajectory.safe

    def test_contains_query_outside(self, invariant_result):
        _, _, result = invariant_result
        assert not result.contains(np.array([5.0, 5.0]))

    def test_grid_resolution_validation(self, oscillator_student):
        system, net = oscillator_student
        with pytest.raises(ValueError):
            compute_invariant_set(system, net, grid_resolution=1)

    def test_coarse_grid_is_more_conservative(self, oscillator_student, invariant_result):
        """A too-coarse grid cannot certify invariance (more conservative)."""

        system, net = oscillator_student
        coarse = compute_invariant_set(system, net, grid_resolution=6, target_error=0.5, degree=3)
        _, _, fine = invariant_result
        assert coarse.volume_fraction() <= fine.volume_fraction() + 1e-9


class TestVerifierDriver:
    def test_report_contains_both_analyses(self, oscillator_student):
        system, net = oscillator_student
        report = verify_controller(
            system,
            net,
            name="student",
            target_error=0.5,
            degree=2,
            reach_initial_box=Box([0.0, 0.0], [0.1, 0.1]),
            reach_steps=5,
            invariant_grid=6,
        )
        assert report.controller_name == "student"
        assert report.lipschitz_constant > 0
        assert report.num_partitions >= 1
        assert report.reachability is not None
        assert report.invariant is not None
        assert report.total_seconds >= report.partition_seconds
        summary = report.summary()
        assert {"controller", "lipschitz", "partitions", "total_seconds"} <= set(summary)

    def test_reach_only_report(self, oscillator_student):
        system, net = oscillator_student
        report = verify_controller(
            system,
            net,
            target_error=0.5,
            degree=2,
            reach_initial_box=Box([0.0, 0.0], [0.05, 0.05]),
            reach_steps=3,
        )
        assert report.invariant is None
        assert report.reachability is not None

    def test_higher_lipschitz_means_more_work(self, oscillator_student):
        """The verifiability claim: inflating the weights (larger L) increases
        the partition count, the work proxy behind longer verification."""

        system, net = oscillator_student
        inflated = net.clone()
        for layer in inflated.linear_layers():
            layer.weight.data *= 2.0
        base_report = verify_controller(system, net, target_error=0.5, degree=2, max_partitions=8192)
        inflated_report = verify_controller(system, inflated, target_error=0.5, degree=2, max_partitions=8192)
        assert inflated_report.lipschitz_constant > base_report.lipschitz_constant
        assert inflated_report.num_partitions >= base_report.num_partitions
