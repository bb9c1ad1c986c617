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
from repro.verification.partition import PartitionedApproximation, partition_network
from repro.verification.reachability import reachable_sets
from repro.verification.verifier import verify_controller
from test_utils_parallel import _fake_cpu_count

GRID_RESOLUTION = 20


@pytest.fixture(scope="module")
def oscillator_student():
    """A small network regressed onto a stabilising controller of the oscillator."""

    system = VanDerPolOscillator(disturbance_bound=0.01)
    teacher = VanDerPolFeedbackLinearization(k1=3.0, k2=4.0)
    rng = np.random.default_rng(0)
    states = system.safe_region.sample(rng, count=1000)
    controls = system.clip_control_batch(teacher.batch_control(states))
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
    approximation = partition_network(net, system.safe_region, target_error=0.5, degree=3, max_partitions=4096)
    result = compute_invariant_set(system, approximation, grid_resolution=GRID_RESOLUTION)
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
        approximation = partition_network(net, system.safe_region, target_error=0.5, degree=2)
        with pytest.raises(ValueError):
            compute_invariant_set(system, approximation, grid_resolution=1)

    def test_coarse_grid_is_more_conservative(self, oscillator_student, invariant_result):
        """A too-coarse grid cannot certify invariance (more conservative)."""

        system, net = oscillator_student
        approximation = partition_network(net, system.safe_region, target_error=0.5, degree=3, max_partitions=2048)
        coarse = compute_invariant_set(system, approximation, grid_resolution=6)
        _, _, fine = invariant_result
        assert coarse.volume_fraction() <= fine.volume_fraction() + 1e-9


    def test_uses_the_partition_it_is_given(self, oscillator_student):
        """No second partitioning: the result reports the caller's surrogate."""

        system, net = oscillator_student
        approximation = partition_network(net, system.safe_region, target_error=0.5, degree=2, max_partitions=16)
        result = compute_invariant_set(system, approximation, grid_resolution=6)
        assert result.num_partitions == approximation.num_partitions <= 16
        assert result.approximation_error == approximation.max_error


class TestGridFanOut:
    """With two CPUs half of the grid's control enclosures run on a worker."""

    @staticmethod
    def _compute(student, monkeypatch, cpus):
        system, net = student
        _fake_cpu_count(monkeypatch, cpus)
        approximation = partition_network(net, system.safe_region, target_error=0.5, degree=3, max_partitions=4096)
        return compute_invariant_set(system, approximation, grid_resolution=GRID_RESOLUTION)

    def test_the_cpu_count_changes_no_result(self, oscillator_student, monkeypatch):
        rows = []
        original = PartitionedApproximation.control_bounds_batch

        def record(self, lows, highs):
            rows.append(len(lows))  # only calls made in this process land here
            return original(self, lows, highs)

        monkeypatch.setattr(PartitionedApproximation, "control_bounds_batch", record)
        inline = self._compute(oscillator_student, monkeypatch, 1)
        assert rows == [GRID_RESOLUTION**2 // 2] * 2
        rows.clear()
        fanned = self._compute(oscillator_student, monkeypatch, 2)
        assert rows == [GRID_RESOLUTION**2 // 2]
        assert 0 < inline.invariant_mask.sum() < GRID_RESOLUTION**2
        assert inline.invariant_mask.tobytes() == fanned.invariant_mask.tobytes()
        assert (inline.iterations, inline.work) == (fanned.iterations, fanned.work)

    def test_killed_worker_raises_a_typed_error_naming_the_task(self, oscillator_student, monkeypatch):
        import os
        import signal

        from repro.utils.parallel import WorkerLost

        parent = os.getpid()
        original = PartitionedApproximation.control_bounds_batch

        def die_in_the_worker(self, lows, highs):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return original(self, lows, highs)

        monkeypatch.setattr(PartitionedApproximation, "control_bounds_batch", die_in_the_worker)
        with pytest.raises(WorkerLost, match="invariant_control_bounds") as caught:
            self._compute(oscillator_student, monkeypatch, 2)
        assert caught.value.tasks == ["invariant_control_bounds"]


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

    def test_driver_partitions_once_for_both_analyses(self, oscillator_student, monkeypatch):
        from repro.verification import verifier

        calls = []

        def counting_partition(*args, **kwargs):
            calls.append(1)
            return partition_network(*args, **kwargs)

        monkeypatch.setattr(verifier, "partition_network", counting_partition)
        system, net = oscillator_student
        report = verify_controller(
            system,
            net,
            target_error=0.5,
            degree=2,
            reach_initial_box=Box([0.0, 0.0], [0.1, 0.1]),
            reach_steps=3,
            invariant_grid=6,
        )
        assert calls == [1]
        assert report.reachability.num_partitions == report.invariant.num_partitions == report.num_partitions

    def test_analyses_match_direct_calls_on_the_driver_partition(self, oscillator_student):
        """``verify_controller`` = one ``partition_network`` + each analysis on it."""

        system, net = oscillator_student
        initial_box = Box([0.0, 0.0], [0.1, 0.1])
        report = verify_controller(
            system,
            net,
            target_error=0.5,
            degree=2,
            reach_initial_box=initial_box,
            reach_steps=5,
            invariant_grid=6,
        )
        approximation = partition_network(
            net,
            system.safe_region,
            target_error=0.5,
            degree=2,
            max_partitions=2048,
            lipschitz_constant=report.lipschitz_constant,
        )
        reach = reachable_sets(system, approximation, initial_box, steps=5)
        reported = report.reachability
        assert (reach.status, reach.steps_completed, reach.work) == (
            reported.status, reported.steps_completed, reported.work
        )
        assert len(reach.boxes) == len(reported.boxes)
        for direct, driven in zip(reach.boxes, reported.boxes):
            assert direct.low.tobytes() == driven.low.tobytes()
            assert direct.high.tobytes() == driven.high.tobytes()
        invariant = compute_invariant_set(system, approximation, grid_resolution=6)
        np.testing.assert_array_equal(invariant.invariant_mask, report.invariant.invariant_mask)
        assert (invariant.iterations, invariant.work) == (report.invariant.iterations, report.invariant.work)
