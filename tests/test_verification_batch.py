"""Batched verification against one-row stacks and the frozen reference.

The load-bearing guarantees, mirroring ``tests/test_systems_batch.py`` for
the rollout engine:

* the batched kernels (grids, coefficients, error bounds, enclosures, IBP)
  reproduce their one-row stacks **bit for bit** -- every network forward
  pass runs in fixed-width row blocks, so a box's numbers do not depend on
  how many boxes were batched with it;
* the batched flow and the frozen one-box-at-a-time reference
  (``verification_reference.py``) produce identical partitions, boxes,
  verdicts and work counts for seeded controllers on every catalog system
  -- reach tubes and invariant masks included;
* the sweep harness returns the same verdicts inline and across a pool,
  enforces its per-job work budget, and (store-backed) records every
  ``ok`` result once while an error reruns.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from verification_reference import (
    BernsteinApproximation,
    bernstein_error_bound,
    interval_dynamics,
    network_output_bounds,
    reference_control_bounds,
    reference_invariant_set,
    reference_partition,
    reference_reachable_sets,
    reference_refine,
    reference_verify_controller,
    refined_network_output_bounds,
)

from repro.experiments import RunStore
from repro.nn.network import MLP
from repro.systems import make_system
from repro.systems.sets import Box
from repro.verification.bernstein import (
    bernstein_coefficients_batch,
    bernstein_enclosure_batch,
    bernstein_error_bound_batch,
    bernstein_grid_batch,
)
from repro.verification.intervals import (
    Interval,
    network_output_bounds_batch,
    refined_network_output_bounds_batch,
)
from repro.verification.invariant import compute_invariant_set
from repro.verification.partition import partition_network
from repro.verification.reachability import reachable_sets
from repro.verification.sweep import (
    SweepJob,
    VerificationSweep,
    run_sweep_job,
)
from repro.verification.system_models import interval_dynamics_batch
from repro.verification.verifier import verify_controller

SYSTEM_NAMES = ["vanderpol", "3d", "cartpole"]
#: Every catalog system, for the comparisons against the frozen reference.
REFERENCE_SYSTEMS = ["vanderpol", "3d", "cartpole", "pendulum", "acc"]


def seeded_controller(system, seed=0, scale=0.7):
    """A deterministic small MLP with moderate Lipschitz constant."""

    network = MLP(system.state_dim, system.control_dim, hidden_sizes=(16, 16), seed=seed)
    for layer in network.linear_layers():
        layer.weight.data *= scale
    return network


def random_boxes(domain, count, rng):
    lows = rng.uniform(domain.low, domain.center, size=(count, domain.dimension))
    highs = np.minimum(lows + 0.3 * domain.widths, domain.high)
    return lows, highs


class TestBatchedKernels:
    """Row p of every batched kernel == its one-row stack (or the scalar reference), bitwise."""

    def setup_method(self):
        self.network = MLP(2, 1, hidden_sizes=(16, 16), seed=0)
        rng = np.random.default_rng(3)
        self.lows, self.highs = random_boxes(Box([-2, -2], [2, 2]), 9, rng)
        self.degrees = [3, 3]

    def test_grid_rows_match_single_box(self):
        grids = bernstein_grid_batch(self.lows, self.highs, self.degrees)
        for index in range(self.lows.shape[0]):
            single = bernstein_grid_batch(
                self.lows[index : index + 1], self.highs[index : index + 1], self.degrees
            )[0]
            np.testing.assert_array_equal(grids[index], single)

    def test_coefficient_rows_match_scalar_fit(self):
        stacked = bernstein_coefficients_batch(self.network, self.lows, self.highs, self.degrees)
        for index in range(self.lows.shape[0]):
            scalar = BernsteinApproximation(
                self.network, Box(self.lows[index], self.highs[index]), self.degrees
            )
            np.testing.assert_array_equal(stacked[index], scalar.coefficients)

    def test_error_bound_rows_match_scalar(self):
        lipschitz = 2.5
        batch = bernstein_error_bound_batch(lipschitz, self.lows, self.highs, self.degrees)
        for index in range(self.lows.shape[0]):
            scalar = bernstein_error_bound(
                lipschitz, Box(self.lows[index], self.highs[index]), self.degrees
            )
            assert batch[index] == scalar

    def test_enclosure_rows_match_scalar(self):
        stacked = bernstein_coefficients_batch(self.network, self.lows, self.highs, self.degrees)
        errors = bernstein_error_bound_batch(1.5, self.lows, self.highs, self.degrees)
        lower, upper = bernstein_enclosure_batch(stacked, errors)
        for index in range(self.lows.shape[0]):
            scalar = BernsteinApproximation(
                self.network,
                Box(self.lows[index], self.highs[index]),
                self.degrees,
                lipschitz_constant=1.5,
            ).range_enclosure(include_error=True)
            np.testing.assert_array_equal(lower[index], scalar.lower)
            np.testing.assert_array_equal(upper[index], scalar.upper)

    def test_ibp_rows_match_single_box(self):
        lower, upper = network_output_bounds_batch(self.network, self.lows, self.highs)
        for index in range(self.lows.shape[0]):
            scalar = network_output_bounds(self.network, Box(self.lows[index], self.highs[index]))
            np.testing.assert_array_equal(lower[index], scalar.lower)
            np.testing.assert_array_equal(upper[index], scalar.upper)

    def test_refined_ibp_rows_match_single_box(self):
        lower, upper = refined_network_output_bounds_batch(
            self.network, self.lows, self.highs, splits_per_dim=4
        )
        for index in range(self.lows.shape[0]):
            scalar = refined_network_output_bounds(
                self.network, Box(self.lows[index], self.highs[index]), splits_per_dim=4
            )
            np.testing.assert_array_equal(lower[index], scalar.lower)
            np.testing.assert_array_equal(upper[index], scalar.upper)

    def test_bounds_keep_the_weights_they_were_fitted_on(self):
        domain = Box([-2, -2], [2, 2])
        approx = partition_network(self.network, domain, target_error=0.5, degree=3)
        before = approx.control_bounds_batch(self.lows, self.highs)
        # Mutate the caller's network in place and by rebinding: the
        # approximation holds its own frozen clone, so neither reaches it.
        layers = self.network.linear_layers()
        layers[0].weight.data *= 1.5
        layers[1].weight.data = layers[1].weight.data * 0.5
        after = approx.control_bounds_batch(self.lows, self.highs)
        for old, new in zip(before, after):
            np.testing.assert_array_equal(old, new)
        assert not any(layer.weight.data.flags.writeable for layer in approx.network.linear_layers())
        # The mutation is large enough to move the bounds of a fresh fit.
        refitted = partition_network(self.network, domain, target_error=0.5, degree=3)
        assert not np.array_equal(refitted.control_bounds_batch(self.lows, self.highs)[0], before[0])


class TestIntervalDynamicsBatch:
    @pytest.mark.parametrize("name", SYSTEM_NAMES)
    def test_rows_match_scalar_dynamics(self, name):
        system = make_system(name)
        rng = np.random.default_rng(0)
        lows = rng.uniform(system.safe_region.low, system.safe_region.center, size=(12, system.state_dim))
        highs = lows + 0.1 * system.safe_region.widths
        control_lows = np.tile(system.control_bound.low * 0.5, (12, 1))
        control_highs = np.tile(system.control_bound.high * 0.5, (12, 1))
        disturbance = Interval.from_box(system.disturbance.bound())
        batched = interval_dynamics_batch(
            system, Interval(lows, highs), Interval(control_lows, control_highs), disturbance
        )
        for row in range(12):
            scalar = interval_dynamics(
                system,
                Interval(lows[row], highs[row]),
                Interval(control_lows[row], control_highs[row]),
                disturbance,
            )
            np.testing.assert_array_equal(batched.lower[row], scalar.lower)
            np.testing.assert_array_equal(batched.upper[row], scalar.upper)


def assert_boxes_identical(lows, highs, boxes):
    assert lows.shape[0] == len(boxes)
    for index, box in enumerate(boxes):
        assert lows[index].tobytes() == box.low.tobytes()
        assert highs[index].tobytes() == box.high.tobytes()


def centered_initial_box(system, fraction=0.05):
    return Box(
        system.initial_set.center - fraction * system.initial_set.widths,
        system.initial_set.center + fraction * system.initial_set.widths,
    )


class TestEngineEquivalence:
    """The batched flow agrees with the frozen scalar reference bit for bit."""

    @pytest.mark.parametrize("name", REFERENCE_SYSTEMS)
    def test_partitions_boxes_and_coefficients_identical(self, name):
        system = make_system(name)
        network = seeded_controller(system)
        reference = reference_partition(network, system.safe_region, target_error=0.4, degree=2)
        batched = partition_network(network, system.safe_region, target_error=0.4, degree=2)
        assert reference.num_partitions == batched.num_partitions
        assert reference.refinement_steps == batched.num_partitions - 1
        assert reference.max_error == batched.max_error
        assert reference.total_coefficients() == batched.total_coefficients()
        assert_boxes_identical(batched.lows, batched.highs, reference.boxes)
        for index, model in enumerate(reference.models):
            np.testing.assert_array_equal(model.coefficients, batched.coefficients[index])

    def test_max_partitions_budget_identical(self):
        system = make_system("vanderpol")
        network = seeded_controller(system, scale=1.3)
        reference = reference_partition(
            network, system.safe_region, target_error=1e-3, degree=2, max_partitions=37
        )
        batched = partition_network(
            network, system.safe_region, target_error=1e-3, degree=2, max_partitions=37
        )
        assert reference.num_partitions == batched.num_partitions <= 37
        assert_boxes_identical(batched.lows, batched.highs, reference.boxes)

    @pytest.mark.parametrize("name", REFERENCE_SYSTEMS)
    def test_control_bounds_identical(self, name):
        system = make_system(name)
        network = seeded_controller(system)
        reference = reference_partition(network, system.safe_region, target_error=0.4, degree=2)
        approximation = partition_network(network, system.safe_region, target_error=0.4, degree=2)
        rng = np.random.default_rng(7)
        lows, highs = random_boxes(system.safe_region, 6, rng)
        batched_lower, batched_upper = approximation.control_bounds_batch(lows, highs)
        for index in range(lows.shape[0]):
            query = Box(lows[index], highs[index])
            expected = reference_control_bounds(reference, query)
            single_lower, single_upper = approximation.control_bounds_batch(query.low[None, :], query.high[None, :])
            for lower, upper in ((batched_lower[index], batched_upper[index]), (single_lower[0], single_upper[0])):
                np.testing.assert_array_equal(lower, expected.lower)
                np.testing.assert_array_equal(upper, expected.upper)

    @pytest.mark.parametrize("name", REFERENCE_SYSTEMS)
    def test_reachability_identical(self, name):
        system = make_system(name)
        network = seeded_controller(system)
        reference = reference_partition(network, system.safe_region, target_error=0.4, degree=2)
        approximation = partition_network(network, system.safe_region, target_error=0.4, degree=2)
        initial_box = centered_initial_box(system)
        expected = reference_reachable_sets(system, reference, initial_box, steps=6)
        batched = reachable_sets(system, approximation, initial_box, steps=6)
        assert expected.status == batched.status
        assert expected.steps_completed == batched.steps_completed
        assert expected.work == batched.work
        assert expected.approximation_error == batched.approximation_error
        assert len(expected.boxes) == len(batched.boxes)
        for expected_box, batched_box in zip(expected.boxes, batched.boxes):
            assert expected_box.low.tobytes() == batched_box.low.tobytes()
            assert expected_box.high.tobytes() == batched_box.high.tobytes()

    def test_invariant_set_identical(self):
        system = make_system("vanderpol")
        network = seeded_controller(system)
        reference = reference_partition(network, system.safe_region, target_error=0.4, degree=2)
        expected = reference_invariant_set(system, reference, grid_resolution=10)
        approximation = partition_network(network, system.safe_region, target_error=0.4, degree=2)
        batched = compute_invariant_set(system, approximation, grid_resolution=10)
        np.testing.assert_array_equal(expected.invariant_mask, batched.invariant_mask)
        assert expected.iterations == batched.iterations
        assert expected.work == batched.work
        assert expected.num_partitions == batched.num_partitions

    def test_verify_controller_reports_identical(self):
        system = make_system("vanderpol")
        network = seeded_controller(system)
        deterministic = (
            "controller", "lipschitz", "partitions", "epsilon", "verified",
            "reach_status", "reach_work", "reach_steps", "invariant_fraction", "invariant_work",
        )
        options = dict(
            target_error=0.4,
            degree=2,
            reach_initial_box=Box([0.05, 0.05], [0.15, 0.15]),
            reach_steps=6,
            invariant_grid=8,
        )
        expected = reference_verify_controller(system, network, **options)
        batched = verify_controller(system, network, **options)
        np.testing.assert_array_equal(expected.invariant.invariant_mask, batched.invariant.invariant_mask)
        expected, batched = expected.summary(), batched.summary()
        for key in deterministic:
            assert expected[key] == batched[key], key

    def test_work_budget_exhaustion_identical(self):
        system = make_system("vanderpol")
        network = seeded_controller(system)
        reference = reference_partition(network, system.safe_region, target_error=0.2, degree=3)
        approximation = partition_network(network, system.safe_region, target_error=0.2, degree=3)
        initial_box = Box([0.0, 0.0], [0.1, 0.1])
        expected = reference_reachable_sets(system, reference, initial_box, steps=10, work_budget=1)
        batched = reachable_sets(system, approximation, initial_box, steps=10, work_budget=1)
        assert expected.status == batched.status == "resource-exhausted"
        assert expected.work == batched.work

    @settings(max_examples=60, deadline=None)
    @given(
        dimension=st.integers(1, 4),
        data=st.data(),
        lipschitz=st.floats(0.05, 50.0),
        degree=st.sampled_from([1, 2, 3]),
        max_partitions=st.integers(1, 300),
        target_error=st.floats(1e-3, 5.0),
    )
    def test_frontier_refinement_matches_the_fifo_queue(
        self, dimension, data, lipschitz, degree, max_partitions, target_error
    ):
        low = np.array(data.draw(st.lists(st.floats(-5.0, 5.0), min_size=dimension, max_size=dimension)))
        width = np.array(data.draw(st.lists(st.floats(0.01, 5.0), min_size=dimension, max_size=dimension)))
        domain = Box(low, low + width)
        network = MLP(dimension, 1, hidden_sizes=(4,), seed=0)
        degrees = np.full(dimension, degree, dtype=int)
        boxes, refinements = reference_refine(domain, degrees, lipschitz, target_error, max_partitions)
        batched = partition_network(
            network, domain, target_error, degree=degree, max_partitions=max_partitions, lipschitz_constant=lipschitz
        )
        assert_boxes_identical(batched.lows, batched.highs, boxes)
        assert batched.num_partitions == refinements + 1
        assert batched.max_error == max(bernstein_error_bound(lipschitz, box, degrees) for box in boxes)


class _CountingStore(RunStore):
    """A run store that counts the entries written through it."""

    saves = 0

    def save(self, key, result, **artefacts):
        self.saves += 1
        return super().save(key, result, **artefacts)


DETERMINISTIC_SUMMARY_KEYS = (
    "controller", "lipschitz", "partitions", "epsilon", "verified",
    "reach_status", "reach_work", "reach_steps",
)


class TestVerificationSweep:
    def _jobs(self):
        jobs = []
        for name in SYSTEM_NAMES:
            system = make_system(name)
            network = seeded_controller(system)
            jobs.append(
                SweepJob.from_network(
                    f"seeded@{name}", name, network, target_error=0.5, degree=2, reach_steps=4
                )
            )
        return jobs

    def test_jobs_roundtrip_through_pickling_boundary(self):
        job = self._jobs()[0]
        rebuilt = job.build_network()
        original = seeded_controller(make_system("vanderpol"))
        points = np.random.default_rng(0).uniform(-1, 1, size=(16, 2))
        np.testing.assert_array_equal(rebuilt.predict(points), original.predict(points))

    def test_inline_and_pool_agree(self):
        jobs = self._jobs()
        inline = VerificationSweep(jobs, processes=1).run()
        pooled = VerificationSweep(jobs, processes=2).run()
        assert [result.name for result in inline.results] == [result.name for result in pooled.results]
        for inline_result, pooled_result in zip(inline.results, pooled.results):
            assert inline_result.status == pooled_result.status == "ok"
            for key in DETERMINISTIC_SUMMARY_KEYS:
                assert inline_result.summary[key] == pooled_result.summary[key], key

    def test_scalar_and_batched_sweeps_agree(self):
        jobs = self._jobs()
        report = VerificationSweep(jobs, processes=1).run()
        for job, result in zip(jobs, report.results):
            system = make_system(job.system)
            expected = reference_verify_controller(
                system,
                job.build_network(),
                name=job.name,
                target_error=job.target_error,
                degree=job.degree,
                max_partitions=job.max_partitions,
                reach_initial_box=system.initial_set.scale(job.reach_box_scale),
                reach_steps=job.reach_steps,
            ).summary()
            for key in DETERMINISTIC_SUMMARY_KEYS:
                assert expected[key] == result.summary[key], key

    def test_failed_job_is_contained(self):
        wrong_dims = MLP(4, 1, hidden_sizes=(8,), seed=1)
        jobs = [SweepJob.from_network("bad@vanderpol", "vanderpol", wrong_dims, reach_steps=2)]
        report = VerificationSweep(jobs, processes=1).run()
        assert report.results[0].status == "error"
        assert report.num_failed == 1
        assert "Error" in report.results[0].error or "error" in report.results[0].error

    def test_failed_job_error_includes_the_job_spec(self):
        wrong_dims = MLP(4, 1, hidden_sizes=(8,), seed=1)
        jobs = [
            SweepJob.from_network(
                "bad@vanderpol", "vanderpol", wrong_dims, reach_steps=2, target_error=0.7
            )
        ]
        error = VerificationSweep(jobs, processes=1).run().results[0].error
        # The originating spec travels with the error so a sweep of hundreds
        # of jobs is diagnosable from the report alone.
        assert "job bad@vanderpol" in error
        assert "system=vanderpol" in error
        assert "target_error=0.7" in error
        assert "reach_steps=2" in error

    def test_work_budget_passes_through(self):
        system = make_system("vanderpol")
        job = SweepJob.from_network(
            "wbudget", "vanderpol", seeded_controller(system),
            target_error=0.3, degree=3, reach_steps=8, work_budget=1,
        )
        result = run_sweep_job(job)
        assert result.summary["reach_status"] == "resource-exhausted"

    # The single cache rule of a store-backed sweep: every ``ok`` result is
    # recorded (budgets are counts, so a replay equals a rerun), errors rerun.

    def test_failed_job_leaves_no_entry_and_reruns(self, tmp_path):
        store = _CountingStore(tmp_path)
        wrong_dims = MLP(4, 1, hidden_sizes=(8,), seed=1)
        jobs = [SweepJob.from_network("bad@vanderpol", "vanderpol", wrong_dims, reach_steps=2)]
        for _ in range(2):
            (result,) = VerificationSweep(jobs, processes=1, store=store).run().results
            assert result.status == "error" and not result.cached
        assert store.saves == 0 and store.entries() == []

    def test_work_budget_exhaustion_is_recorded_once_and_replayed(self, tmp_path):
        store = _CountingStore(tmp_path)
        system = make_system("vanderpol")
        jobs = [
            SweepJob.from_network(
                "wbudget", "vanderpol", seeded_controller(system),
                target_error=0.3, degree=3, reach_steps=8, work_budget=1,
            )
        ]
        (fresh,) = VerificationSweep(jobs, processes=1, store=store).run().results
        (replayed,) = VerificationSweep(jobs, processes=1, store=store).run().results
        assert fresh.status == "ok" and not fresh.cached
        assert fresh.summary["reach_status"] == "resource-exhausted"
        assert replayed.cached
        assert replayed.summary == fresh.summary
        assert store.saves == 1 and len(store.entries("verify")) == 1

    def test_report_table_and_csv(self, tmp_path):
        report = VerificationSweep(self._jobs()[:1], processes=1).run()
        table = report.table()
        assert "seeded@vanderpol" in table and "wall clock" in table
        path = report.to_csv(tmp_path / "sweep.csv")
        content = path.read_text().splitlines()
        assert content[0].startswith("job,system,status")
        assert len(content) == 2
