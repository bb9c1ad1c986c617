"""Shared conformance suite: every registered scenario must satisfy these.

Parametrized over the live registry, so a newly registered scenario is
covered automatically:

* ``dynamics_batch`` is row-independent: row ``i`` of a batch is bit-identical
  to the batch of one on row ``i``;
* ``is_safe_batch`` agrees with per-row ``safe_region.contains``;
* the registered interval inclusion function is Monte-Carlo sound: sampled
  one-step images of random sub-boxes land inside the interval image;
* the default expert pair exists, is named ``kappa1``/``kappa2`` and maps
  batched states to batched controls;
* the disturbance model's batch sampler matches its bound;
* closed-loop rollouts run in float64, a float32 batch of initial states
  rolls out as its float64 cast, and a seed fixes the rollout bit for bit.
"""

import numpy as np
import pytest

from repro.experts import make_default_experts
from repro.scenarios import get_scenario, list_scenarios
from repro.verification.intervals import Interval
from repro.verification.system_models import interval_dynamics_batch

SCENARIOS = list_scenarios()


@pytest.fixture(scope="module")
def bundles():
    """One (spec, system) pair per registered scenario, built once."""

    return {name: (get_scenario(name), get_scenario(name).make_system()) for name in SCENARIOS}


def _random_subboxes(system, rng, count, max_fraction=0.1):
    """Small random boxes inside the safe region, as (low, high) arrays."""

    lows, highs = [], []
    for _ in range(count):
        center = system.safe_region.sample(rng)
        half = system.safe_region.widths * rng.uniform(0.02, max_fraction) / 2.0
        lows.append(np.maximum(center - half, system.safe_region.low))
        highs.append(np.minimum(center + half, system.safe_region.high))
    return np.asarray(lows), np.asarray(highs)


@pytest.mark.parametrize("name", SCENARIOS)
class TestScenarioConformance:
    def test_batched_dynamics_bit_identical(self, name, bundles):
        _, system = bundles[name]
        rng = np.random.default_rng(0)
        states = system.safe_region.sample(rng, count=24)
        controls = system.control_bound.sample(rng, count=24)
        disturbances = system.disturbance.sample_batch(rng, count=24)
        batched = system.dynamics_batch(states, controls, disturbances)
        assert batched.shape == (24, system.state_dim)
        for row in range(24):
            alone = system.dynamics_batch(
                states[row : row + 1], controls[row : row + 1], disturbances[row : row + 1]
            )
            np.testing.assert_array_equal(batched[row], alone[0])

    def test_is_safe_batch_consistent(self, name, bundles):
        _, system = bundles[name]
        rng = np.random.default_rng(1)
        inside = system.safe_region.sample(rng, count=16)
        outside = system.safe_region.sample(rng, count=16) + 2.5 * system.safe_region.widths
        states = np.concatenate([inside, outside], axis=0)
        mask = system.is_safe_batch(states)
        assert mask.shape == (32,)
        for row in range(32):
            assert mask[row] == system.safe_region.contains(states[row])

    def test_interval_inclusion_function_sound(self, name, bundles):
        spec, system = bundles[name]
        assert spec.interval_dynamics is not None, "catalog scenarios must register an inclusion fn"
        rng = np.random.default_rng(2)
        lows, highs = _random_subboxes(system, rng, count=12)
        control_lows = system.control_bound.sample(rng, count=12)
        control_highs = np.minimum(
            control_lows + 0.2 * system.control_bound.widths, system.control_bound.high
        )
        disturbance_box = system.disturbance.bound()
        image = interval_dynamics_batch(
            system,
            Interval(lows, highs),
            Interval(control_lows, control_highs),
            Interval(disturbance_box.low, disturbance_box.high),
        )
        assert image.lower.shape == (12, system.state_dim)
        for box_index in range(12):
            states = rng.uniform(lows[box_index], highs[box_index], size=(40, system.state_dim))
            controls = rng.uniform(
                control_lows[box_index], control_highs[box_index], size=(40, system.control_dim)
            )
            disturbances = rng.uniform(
                disturbance_box.low, disturbance_box.high, size=(40, disturbance_box.dimension)
            )
            images = system.dynamics_batch(states, controls, disturbances)
            assert np.all(images >= image.lower[box_index] - 1e-9), f"{name} box {box_index}"
            assert np.all(images <= image.upper[box_index] + 1e-9), f"{name} box {box_index}"

    def test_interval_scalar_is_batch_of_one(self, name, bundles):
        _, system = bundles[name]
        rng = np.random.default_rng(3)
        lows, highs = _random_subboxes(system, rng, count=4)
        control_lows = np.tile(system.control_bound.low, (4, 1))
        control_highs = np.tile(system.control_bound.high, (4, 1))
        disturbance_box = system.disturbance.bound()
        disturbance = Interval(disturbance_box.low, disturbance_box.high)
        batched = interval_dynamics_batch(
            system, Interval(lows, highs), Interval(control_lows, control_highs), disturbance
        )
        for row in range(4):
            single = interval_dynamics_batch(
                system,
                Interval(lows[row : row + 1], highs[row : row + 1]),
                Interval(control_lows[row : row + 1], control_highs[row : row + 1]),
                disturbance,
            )
            np.testing.assert_array_equal(single.lower[0], batched.lower[row])
            np.testing.assert_array_equal(single.upper[0], batched.upper[row])

    def test_expert_pair_conforms(self, name, bundles):
        _, system = bundles[name]
        experts = make_default_experts(system)
        assert len(experts) >= 2
        assert experts[0].name == "kappa1"
        assert experts[1].name == "kappa2"
        states = np.stack([system.initial_set.center] * 5)
        for expert in experts:
            single = expert.batch_control(states[:1])
            assert single.shape == (1, system.control_dim)
            batched = expert.batch_control(states)
            assert batched.shape == (5, system.control_dim)
            np.testing.assert_allclose(batched[:1], single, atol=1e-12)

    def test_disturbance_batch_within_bound(self, name, bundles):
        _, system = bundles[name]
        rng = np.random.default_rng(4)
        draws = system.disturbance.sample_batch(rng, count=32)
        bound = system.disturbance.bound()
        assert draws.shape == (32, bound.dimension)
        assert np.all(draws >= bound.low - 1e-12)
        assert np.all(draws <= bound.high + 1e-12)

    def test_initial_set_inside_safe_region(self, name, bundles):
        _, system = bundles[name]
        assert system.safe_region.contains_box(system.initial_set)

    def _expert_rollout(self, system, initial_states, seed=0):
        from repro.systems.simulation import rollout_batch

        controller = make_default_experts(system)[0]
        return rollout_batch(
            system, controller, initial_states, horizon=20, rng=np.random.default_rng(seed)
        )

    def test_rollout_runs_float32_initial_states_as_their_float64_cast(self, name, bundles):
        _, system = bundles[name]
        initial_states = system.initial_set.sample(np.random.default_rng(5), count=6)
        narrowed = initial_states.astype(np.float32)
        cast = self._expert_rollout(system, narrowed)
        widened = self._expert_rollout(system, narrowed.astype(np.float64))
        for field in ("states", "observed_states", "controls"):
            assert getattr(cast, field).dtype == np.float64, field
            assert getattr(cast, field).tobytes() == getattr(widened, field).tobytes(), field
        np.testing.assert_array_equal(cast.safe, widened.safe)
        np.testing.assert_array_equal(cast.steps, widened.steps)

    def test_rollout_is_fixed_by_its_seed(self, name, bundles):
        _, system = bundles[name]
        initial_states = system.initial_set.sample(np.random.default_rng(5), count=6)
        first = self._expert_rollout(system, initial_states, seed=3)
        again = self._expert_rollout(system, initial_states, seed=3)
        for field in ("states", "observed_states", "controls", "energy"):
            assert getattr(first, field).tobytes() == getattr(again, field).tobytes(), field
        np.testing.assert_array_equal(first.safe, again.safe)
        np.testing.assert_array_equal(first.steps, again.steps)
