"""Tests for the partition-refined Bernstein surrogate."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from verification_reference import BernsteinApproximation

from repro.experiments.digest import weights_digest
from repro.nn.network import MLP
from repro.nn.serialization import load_state_dict
from repro.scenarios import get_scenario
from repro.systems import make_system
from repro.systems.sets import Box
from repro.verification.intervals import Interval
from repro.verification.partition import partition_network


def partition_boxes(approx):
    return [Box(low, high) for low, high in zip(approx.lows, approx.highs)]


def one_box_bounds(approx, box):
    """Control enclosure over one query box, as a one-row stack."""

    lower, upper = approx.control_bounds_batch(box.low[None, :], box.high[None, :])
    return Interval(lower[0], upper[0])


@pytest.fixture
def small_network():
    return MLP(2, 1, hidden_sizes=(8, 8), activation="tanh", seed=0)


@pytest.fixture
def domain():
    return Box([-2, -2], [2, 2])


class TestPartitioning:
    def test_partitions_cover_domain(self, small_network, domain):
        approx = partition_network(small_network, domain, target_error=0.5, degree=3)
        total_volume = sum(box.volume() for box in partition_boxes(approx))
        assert total_volume == pytest.approx(domain.volume(), rel=1e-9)
        for box in partition_boxes(approx):
            assert domain.contains_box(box, tolerance=1e-9)

    def test_every_partition_meets_error_target(self, small_network, domain):
        approx = partition_network(small_network, domain, target_error=0.5, degree=3, max_partitions=4096)
        assert approx.max_error <= 0.5 + 1e-9

    def test_tighter_target_needs_more_partitions(self, small_network, domain):
        loose = partition_network(small_network, domain, target_error=2.0, degree=3)
        tight = partition_network(small_network, domain, target_error=0.25, degree=3)
        assert tight.num_partitions > loose.num_partitions

    def test_larger_lipschitz_needs_more_partitions(self, domain):
        """The mechanism behind the paper's verification-time claim."""

        small = MLP(2, 1, hidden_sizes=(8, 8), seed=0)
        large = MLP(2, 1, hidden_sizes=(8, 8), seed=0)
        for layer in large.linear_layers():
            layer.weight.data *= 2.0
        small_partitions = partition_network(small, domain, target_error=0.5, degree=3).num_partitions
        large_partitions = partition_network(large, domain, target_error=0.5, degree=3).num_partitions
        assert large_partitions > small_partitions

    def test_max_partitions_respected(self, small_network, domain):
        approx = partition_network(small_network, domain, target_error=1e-4, degree=2, max_partitions=32)
        assert approx.num_partitions <= 32

    def test_invalid_arguments(self, small_network, domain):
        with pytest.raises(ValueError):
            partition_network(small_network, domain, target_error=0.0)
        with pytest.raises(ValueError):
            partition_network(small_network, domain, target_error=0.5, max_partitions=0)

    def test_total_coefficients_positive(self, small_network, domain):
        approx = partition_network(small_network, domain, target_error=1.0, degree=2)
        assert approx.total_coefficients() >= approx.num_partitions * 9  # (2+1)^2 per partition


class TestPiecewiseEvaluation:
    def test_locate_and_evaluate(self, small_network, domain):
        approx = partition_network(small_network, domain, target_error=0.5, degree=3)
        rng = np.random.default_rng(0)
        for point in domain.sample(rng, count=40):
            inside = np.all(point >= approx.lows - 1e-12, axis=-1) & np.all(point <= approx.highs + 1e-12, axis=-1)
            index = int(np.nonzero(inside)[0][0])
            box = Box(approx.lows[index], approx.highs[index])
            surrogate = BernsteinApproximation.from_coefficients(
                small_network, box, approx.coefficients[index], lipschitz_constant=approx.lipschitz_constant
            )
            actual = small_network.predict(point)[0]
            assert abs(surrogate.evaluate(point)[0] - actual) <= approx.max_error + 1e-6

    def test_control_bounds_enclose_network_outputs(self, small_network, domain):
        approx = partition_network(small_network, domain, target_error=0.5, degree=3)
        query = Box([-0.4, -0.3], [0.6, 0.9])
        bounds = one_box_bounds(approx, query)
        outputs = small_network.predict(query.sample(np.random.default_rng(1), count=300))
        assert np.all(outputs >= bounds.lower - 1e-9)
        assert np.all(outputs <= bounds.upper + 1e-9)

    def test_control_bounds_outside_domain_raises(self, small_network, domain):
        approx = partition_network(small_network, domain, target_error=1.0, degree=2)
        with pytest.raises(ValueError):
            one_box_bounds(approx, Box([10, 10], [11, 11]))

    def test_smaller_query_box_gives_tighter_bounds(self, small_network, domain):
        approx = partition_network(small_network, domain, target_error=0.5, degree=3)
        wide = one_box_bounds(approx, Box([-1, -1], [1, 1]))
        narrow = one_box_bounds(approx, Box([-0.1, -0.1], [0.1, 0.1]))
        assert np.all(narrow.upper - narrow.lower <= wide.upper - wide.lower + 1e-9)


@pytest.fixture(scope="module")
def split_approximation():
    network = MLP(2, 1, hidden_sizes=(8, 8), activation="tanh", seed=0)
    return partition_network(network, Box([-2, -2], [2, 2]), target_error=0.5, degree=3)


def _query_stack(approximation, seed, count):
    """``count`` query boxes: random sub-boxes of the domain and, every third
    row, a whole partition (the memoised, covered path)."""

    rng = np.random.default_rng(seed)
    corners = rng.uniform(-2.0, 2.0, size=(2, count, 2))
    lows, highs = corners.min(axis=0), corners.max(axis=0)
    whole = rng.integers(0, approximation.num_partitions, size=count)
    lows[::3] = approximation.lows[whole[::3]]
    highs[::3] = approximation.highs[whole[::3]]
    return lows, highs


class TestSplitStacks:
    """Each query row's enclosure is computed on its own: the invariant-set
    analysis splits its grid stack across processes and concatenates."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        count=st.integers(2, 150),
        where=st.floats(0.0, 1.0),
        warm=st.booleans(),
    )
    def test_split_and_concatenated_equals_the_whole_stack(self, split_approximation, seed, count, where, warm):
        import copy

        lows, highs = _query_stack(split_approximation, seed, count)
        whole_lower, whole_upper = copy.deepcopy(split_approximation).control_bounds_batch(lows, highs)
        approximation = copy.deepcopy(split_approximation)  # a fresh partition memo
        if warm:  # every partition's refined IBP already memoised
            approximation.control_bounds_batch(approximation.lows, approximation.highs)
        split = min(count - 1, 1 + int(where * (count - 1)))
        pieces = [
            approximation.control_bounds_batch(lows[:split], highs[:split]),
            approximation.control_bounds_batch(lows[split:], highs[split:]),
        ]
        assert np.concatenate([lower for lower, _ in pieces]).tobytes() == whole_lower.tobytes()
        assert np.concatenate([upper for _, upper in pieces]).tobytes() == whole_upper.tobytes()


#: (domain, target error, degree, partition budget) per summary case.
SUMMARY_CASES = {
    "refined": (Box([-2, -2], [2, 2]), 0.4, 3, 4096),
    "single-partition": (Box([-0.01, -0.01], [0.01, 0.01]), 0.5, 3, 4096),
    "budget-capped": (Box([-2, -2], [2, 2]), 1e-4, 2, 300),
}


class TestSummaries:
    """The summaries computed once at construction equal the per-model ones."""

    @pytest.mark.parametrize("case", sorted(SUMMARY_CASES))
    def test_summaries_match_the_models(self, small_network, case):
        domain, target, degree, budget = SUMMARY_CASES[case]
        approx = partition_network(
            small_network, domain, target_error=target, degree=degree, max_partitions=budget
        )
        models = [
            BernsteinApproximation.from_coefficients(
                small_network, box, approx.coefficients[index], lipschitz_constant=approx.lipschitz_constant
            )
            for index, box in enumerate(partition_boxes(approx))
        ]
        assert approx.max_error == max(model.error_bound() for model in models)
        assert approx.total_coefficients() == sum(model.num_coefficients() for model in models)
        if case == "single-partition":
            assert approx.num_partitions == 1
        if case == "budget-capped":
            assert approx.num_partitions == budget
            assert approx.max_error > target

    def test_lipschitz_bound_does_not_scale_with_partitions(self, small_network, domain, monkeypatch):
        """Partitioning computes the Lipschitz bound once, never once per
        partition: the bound has no memo, so a per-partition call would cost
        one SVD per layer per box."""

        from repro.verification import partition

        original = partition.network_lipschitz
        calls = []

        def counting_lipschitz(network):
            calls.append(network)
            return original(network)

        monkeypatch.setattr(partition, "network_lipschitz", counting_lipschitz)
        counts = {}
        for target in (0.4, 0.2):
            calls.clear()
            approx = partition_network(small_network, domain, target_error=target, degree=3)
            counts[approx.num_partitions] = len(calls)
        fewer, more = sorted(counts)
        assert 256 <= fewer < more
        assert counts[fewer] == counts[more] == 1


STUDENTS = Path(__file__).resolve().parents[1] / "perfbench" / "students"
STUDENT_SCENARIOS = ("vanderpol", "3d", "cartpole", "pendulum", "acc")


class TestFrozenStudents:
    """``|B_p(x) - kappa*(x)| <= eps_p`` on the five frozen kappa* students.

    Each student is partitioned at its catalog verify budget; a seeded
    sample of partitions and of points inside them is checked with the
    scalar evaluator of ``verification_reference.py``.  The students are
    only read.
    """

    @pytest.mark.parametrize("name", STUDENT_SCENARIOS)
    def test_epsilon_is_sound_on_frozen_students(self, name):
        entry = json.loads((STUDENTS / "manifest.json").read_text())["students"][name]
        network = load_state_dict(STUDENTS / entry["file"])
        assert weights_digest(network.state_dict(), extra=network.architecture()) == entry["weights_digest"]
        system = make_system(name)
        budget = get_scenario(name).verify_budget
        approx = partition_network(
            network,
            system.safe_region,
            target_error=budget["target_error"],
            degree=budget["degree"],
            max_partitions=budget["max_partitions"],
        )
        rng = np.random.default_rng(0)
        indices = rng.choice(approx.num_partitions, size=min(64, approx.num_partitions), replace=False)
        for index in indices:
            box = Box(approx.lows[index], approx.highs[index])
            model = BernsteinApproximation.from_coefficients(
                network, box, approx.coefficients[index], lipschitz_constant=approx.lipschitz_constant
            )
            epsilon = model.error_bound()
            assert epsilon <= approx.max_error
            points = np.vstack([box.center, box.sample(rng, count=8)])
            actual = network.predict(points)
            for point, value in zip(points, actual):
                deviation = np.max(np.abs(model.evaluate(point) - value))
                assert deviation <= epsilon, f"{name} partition {index}: {deviation} > eps_p {epsilon}"
