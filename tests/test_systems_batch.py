"""Tests for the batched rollout engine and the vectorised system APIs.

The load-bearing guarantees:

* ``rollout_batch`` with ``N = 1`` reproduces ``rollout`` exactly (same seed
  -> identical states, controls, energy), because ``rollout`` *is* the
  ``N = 1`` case;
* the batched plant and attack kernels are row-independent: row ``i`` of a
  batch equals the batch of one on row ``i``;
* on deterministic plants (no disturbance, no perturbation) a batch of any
  size matches per-trajectory rollouts state for state;
* violation masking freezes trajectories at their first unsafe state.
"""

import numpy as np
import pytest

from repro.attacks import (
    FGSMAttack,
    PGDAttack,
    UniformMeasurementNoise,
    fgsm_perturbation_batch,
    pgd_perturbation_batch,
    perturbation_budget,
)
from repro.experts import FunctionController, LinearStateFeedback, NeuralController, ZeroController
from repro.metrics import evaluate_robustness
from repro.nn.network import MLP
from repro.systems import make_system
from repro.systems.simulation import rollout, rollout_batch, sample_initial_states


def _stabilising(states):
    s1, s2 = states[:, 0], states[:, 1]
    return (-(1 - s1**2) * s2 + s1 - 4 * s1 - 6 * s2)[:, None]


def _destabilising(states):
    return 20.0 * np.where(states[:, 1:] != 0, np.sign(states[:, 1:]), 1.0)


stabilising_controller = FunctionController(_stabilising, name="stabilising")
destabilising_controller = FunctionController(_destabilising, name="destabilising")


SYSTEM_NAMES = ["vanderpol", "3d", "cartpole"]


class TestDynamicsBatch:
    @pytest.mark.parametrize("name", SYSTEM_NAMES)
    def test_rows_match_batches_of_one(self, name):
        system = make_system(name)
        rng = np.random.default_rng(0)
        states = system.safe_region.sample(rng, count=16)
        controls = system.control_bound.sample(rng, count=16)
        disturbances = system.disturbance.sample_batch(rng, count=16)
        batched = system.dynamics_batch(states, controls, disturbances)
        for row in range(16):
            alone = system.dynamics_batch(
                states[row : row + 1], controls[row : row + 1], disturbances[row : row + 1]
            )
            np.testing.assert_array_equal(batched[row], alone[0])

    @pytest.mark.parametrize("name", SYSTEM_NAMES)
    def test_step_batch_clips_then_draws_one_disturbance_per_row(self, name):
        system = make_system(name)
        states = system.initial_set.sample(np.random.default_rng(1), count=5)
        controls = 3.0 * system.control_bound.sample(np.random.default_rng(2), count=5)
        stepped = system.step_batch(states, controls, rng=np.random.default_rng(3))
        disturbances = system.disturbance.sample_batch(np.random.default_rng(3), count=5)
        expected = system.dynamics_batch(states, system.clip_control_batch(controls), disturbances)
        np.testing.assert_array_equal(stepped, expected)

    def test_base_class_dynamics_batch_is_the_hook_to_implement(self, vanderpol):
        from repro.systems.base import ControlSystem

        rng = np.random.default_rng(0)
        states = vanderpol.safe_region.sample(rng, count=5)
        controls = vanderpol.control_bound.sample(rng, count=5)
        disturbances = vanderpol.disturbance.sample_batch(rng, count=5)
        with pytest.raises(NotImplementedError):
            ControlSystem.dynamics_batch(vanderpol, states, controls, disturbances)


class TestBatchScalarEquivalence:
    def test_n1_matches_rollout_exactly(self, vanderpol):
        initial = np.array([0.5, -0.5])
        scalar = rollout(vanderpol, stabilising_controller, initial, rng=123)
        batch = rollout_batch(vanderpol, stabilising_controller, initial[None, :], rng=123)
        member = batch.trajectory(0)
        np.testing.assert_array_equal(member.states, scalar.states)
        np.testing.assert_array_equal(member.controls, scalar.controls)
        np.testing.assert_array_equal(member.observed_states, scalar.observed_states)
        assert member.safe == scalar.safe
        assert member.steps == scalar.steps
        assert member.energy == scalar.energy
        assert member.violation_step == scalar.violation_step

    def test_n1_matches_rollout_under_noise(self, vanderpol):
        noise = UniformMeasurementNoise(perturbation_budget(vanderpol, 0.1))
        initial = np.array([0.3, 0.4])
        scalar = rollout(vanderpol, stabilising_controller, initial, perturbation=noise, rng=7)
        batch = rollout_batch(
            vanderpol, stabilising_controller, initial[None, :], perturbation=noise, rng=7
        )
        member = batch.trajectory(0)
        np.testing.assert_array_equal(member.states, scalar.states)
        np.testing.assert_array_equal(member.observed_states, scalar.observed_states)
        assert member.energy == scalar.energy

    def test_n1_matches_rollout_under_fgsm(self, vanderpol):
        controller = LinearStateFeedback([[0.4, 0.6]])
        initial = np.array([0.8, -0.2])
        scalar = rollout(
            vanderpol,
            controller,
            initial,
            perturbation=FGSMAttack(controller, perturbation_budget(vanderpol, 0.1)),
            rng=11,
        )
        batch = rollout_batch(
            vanderpol,
            controller,
            initial[None, :],
            perturbation=FGSMAttack(controller, perturbation_budget(vanderpol, 0.1)),
            rng=11,
        )
        member = batch.trajectory(0)
        np.testing.assert_array_equal(member.states, scalar.states)
        np.testing.assert_array_equal(member.controls, scalar.controls)
        assert member.energy == scalar.energy

    @pytest.mark.parametrize("name", ["3d", "cartpole"])
    def test_deterministic_batch_matches_per_trajectory_scalar(self, name):
        # These plants have no disturbance, so the batch result must equal
        # the scalar rollouts regardless of random-stream interleaving.
        # (Tolerances are last-ulp: BLAS uses different matmul kernels for an
        # (8, n) batch than for a single row, so N > 1 is allclose rather
        # than bit-identical; N = 1 equivalence is exact and tested above.)
        system = make_system(name)
        network = MLP(system.state_dim, system.control_dim, hidden_sizes=(16,), seed=0)
        controller = NeuralController(network)
        initial_states = sample_initial_states(system, 8, rng=0)
        batch = rollout_batch(system, controller, initial_states, horizon=25)
        for index in range(8):
            scalar = rollout(system, controller, initial_states[index], horizon=25)
            member = batch.trajectory(index)
            np.testing.assert_allclose(member.states, scalar.states, rtol=0, atol=1e-12)
            np.testing.assert_allclose(member.controls, scalar.controls, rtol=0, atol=1e-12)
            assert member.energy == pytest.approx(scalar.energy, abs=1e-10)
            assert member.safe == scalar.safe
            assert member.steps == scalar.steps

    def test_evaluate_robustness_chunking_is_consistent(self):
        # On a deterministic plant, chunked evaluation must aggregate to the
        # same result as a single batch.
        system = make_system("cartpole")
        controller = ZeroController(system.control_dim)
        initial_states = sample_initial_states(system, 30, rng=0)
        whole = evaluate_robustness(system, controller, initial_states=initial_states, horizon=40)
        chunked = evaluate_robustness(
            system, controller, initial_states=initial_states, horizon=40, batch_size=7
        )
        assert whole.num_safe == chunked.num_safe
        assert whole.safe_rate == chunked.safe_rate
        np.testing.assert_allclose(whole.energies, chunked.energies)

    def test_evaluate_robustness_chunking_consistent_under_attack(self):
        # The alternating FGSM attack is stateful (step counter); chunked
        # evaluation resets it per chunk so the aggregate on a deterministic
        # plant is independent of batch_size.
        system = make_system("cartpole")
        controller = NeuralController(MLP(4, 1, hidden_sizes=(8,), seed=0))
        initial_states = sample_initial_states(system, 20, rng=0)
        whole = evaluate_robustness(
            system, controller, "attack", fraction=0.1, initial_states=initial_states, horizon=30
        )
        chunked = evaluate_robustness(
            system, controller, "attack", fraction=0.1, initial_states=initial_states, horizon=30,
            batch_size=6,
        )
        assert whole.num_safe == chunked.num_safe
        np.testing.assert_allclose(whole.energies, chunked.energies, rtol=0, atol=1e-10)

    def test_evaluate_robustness_rejects_bad_batch_size(self, vanderpol):
        states = sample_initial_states(vanderpol, 4, rng=0)
        with pytest.raises(ValueError):
            evaluate_robustness(vanderpol, ZeroController(1), initial_states=states, batch_size=0)


class TestViolationMasking:
    def test_mixed_batch_masks_violators(self, vanderpol):
        # Members 0-1 are doomed (destabilised from near the boundary would
        # need per-member controllers, so instead mix unsafe starts with safe
        # ones): member 0 starts outside X, members 1+ start inside.
        initial_states = np.array([[3.0, 3.0], [0.5, 0.5], [0.1, -0.1]])
        batch = rollout_batch(vanderpol, stabilising_controller, initial_states, rng=0)
        assert not batch.safe[0] and batch.steps[0] == 0 and batch.violation_step[0] == 0
        assert batch.energy[0] == 0.0
        assert batch.safe[1] and batch.steps[1] == vanderpol.horizon
        assert batch.safe[2] and batch.steps[2] == vanderpol.horizon
        assert batch.violation_step[1] == -1 and batch.violation_step[2] == -1

    def test_violating_member_freezes_while_others_continue(self, vanderpol):
        # The destabilising controller kills trajectories that start near the
        # boundary quickly while ones starting at the origin survive longer.
        initial_states = np.array([[1.9, 1.9], [0.0, 0.0]])
        batch = rollout_batch(vanderpol, destabilising_controller, initial_states, horizon=30, rng=0)
        assert not batch.safe[0]
        assert batch.steps[0] < batch.steps[1]
        frozen = int(batch.steps[0])
        # After its violation step the trajectory state no longer changes.
        np.testing.assert_array_equal(batch.states[0, frozen], batch.states[0, -1])
        # Its energy equals the 1-norm of the controls it actually applied.
        np.testing.assert_allclose(batch.energy[0], np.sum(np.abs(batch.controls[0, :frozen])))

    def test_energy_stops_accumulating_after_violation(self, vanderpol):
        initial_states = np.array([[1.9, 1.9], [0.0, 0.0]])
        batch = rollout_batch(vanderpol, destabilising_controller, initial_states, horizon=30, rng=0)
        # Controls beyond each member's own steps are zero padding.
        assert np.all(batch.controls[0, int(batch.steps[0]) :] == 0.0)

    def test_all_unsafe_batch_terminates_immediately(self, vanderpol):
        initial_states = np.array([[3.0, 3.0], [-4.0, 0.0]])
        batch = rollout_batch(vanderpol, stabilising_controller, initial_states, rng=0)
        assert not batch.safe.any()
        assert np.all(batch.steps == 0)
        assert batch.states.shape == (2, 1, 2)

    def test_no_stop_on_violation_runs_full_horizon(self, vanderpol):
        initial_states = np.array([[1.9, 1.9], [0.0, 0.0]])
        batch = rollout_batch(
            vanderpol,
            destabilising_controller,
            initial_states,
            horizon=20,
            rng=0,
            stop_on_violation=False,
        )
        assert np.all(batch.steps == 20)
        assert not batch.safe[0]
        assert batch.violation_step[0] >= 0

    def test_batch_summaries(self, vanderpol):
        initial_states = np.array([[3.0, 3.0], [0.5, 0.5], [0.1, -0.1]])
        batch = rollout_batch(vanderpol, stabilising_controller, initial_states, rng=0)
        assert len(batch) == 3
        assert batch.num_safe == 2
        assert batch.safe_rate == pytest.approx(2 / 3)
        assert len(batch.safe_energies()) == 2

    def test_record_states_false_skips_histories(self, vanderpol):
        initial_states = sample_initial_states(vanderpol, 5, rng=0)
        batch = rollout_batch(
            vanderpol, stabilising_controller, initial_states, horizon=10, rng=0, record_states=False
        )
        assert batch.states.shape == (5, 0, 2)
        assert batch.controls.shape == (5, 0, 1)
        assert np.all(batch.steps == 10)
        with pytest.raises(ValueError):
            batch.trajectory(0)

    def test_histories_are_float64_whatever_the_input_precision(self, vanderpol):
        controller = NeuralController(
            MLP(vanderpol.state_dim, vanderpol.control_dim, hidden_sizes=(16, 16), seed=0)
        )
        initial_states = sample_initial_states(vanderpol, 16, rng=0)
        reference = rollout_batch(
            vanderpol, controller, initial_states, rng=np.random.default_rng(0)
        )
        narrowed = initial_states.astype(np.float32)
        cast = rollout_batch(
            vanderpol, controller, narrowed, rng=np.random.default_rng(0)
        )
        widened = rollout_batch(
            vanderpol, controller, narrowed.astype(np.float64), rng=np.random.default_rng(0)
        )
        for batch in (reference, cast):
            for history in (batch.states, batch.observed_states, batch.controls):
                assert history.dtype == np.float64
        # float32 initial states run as their float64 cast, bit for bit.
        for field in ("states", "observed_states", "controls", "energy"):
            assert getattr(cast, field).tobytes() == getattr(widened, field).tobytes(), field


class TestBatchedAttacks:
    def test_fgsm_batch_rows_match_batches_of_one(self, vanderpol):
        controller = LinearStateFeedback([[0.4, 0.6]])
        bound = perturbation_budget(vanderpol, 0.1)
        states = sample_initial_states(vanderpol, 6, rng=0)
        for maximize in (True, False):
            batched = fgsm_perturbation_batch(controller, states, bound, maximize_control=maximize)
            for row in range(6):
                alone = fgsm_perturbation_batch(
                    controller, states[row : row + 1], bound, maximize_control=maximize
                )
                np.testing.assert_allclose(batched[row], alone[0])

    def test_fgsm_batch_neural_controller_rows_match_batches_of_one(self, vanderpol):
        controller = NeuralController(MLP(2, 1, hidden_sizes=(8,), seed=0))
        bound = perturbation_budget(vanderpol, 0.1)
        states = sample_initial_states(vanderpol, 6, rng=1)
        batched = fgsm_perturbation_batch(controller, states, bound)
        for row in range(6):
            alone = fgsm_perturbation_batch(controller, states[row : row + 1], bound)
            np.testing.assert_allclose(batched[row], alone[0])

    def test_pgd_batch_rows_match_batches_of_one(self, vanderpol):
        controller = NeuralController(MLP(2, 1, hidden_sizes=(8,), seed=0))
        bound = perturbation_budget(vanderpol, 0.1)
        states = sample_initial_states(vanderpol, 4, rng=2)
        batched = pgd_perturbation_batch(controller, states, bound, steps=3)
        for row in range(4):
            alone = pgd_perturbation_batch(controller, states[row : row + 1], bound, steps=3)
            np.testing.assert_allclose(batched[row], alone[0])

    def test_noise_batch_respects_bound(self, vanderpol):
        noise = UniformMeasurementNoise(perturbation_budget(vanderpol, 0.1))
        states = sample_initial_states(vanderpol, 50, rng=0)
        perturbed = noise.perturb_batch(states, np.random.default_rng(0))
        assert np.all(np.abs(perturbed - states) <= noise.magnitude() + 1e-12)

    def test_fgsm_attack_probability_mask(self, vanderpol):
        controller = LinearStateFeedback([[0.4, 0.6]])
        attack = FGSMAttack(controller, perturbation_budget(vanderpol, 0.1), probability=0.0)
        states = sample_initial_states(vanderpol, 5, rng=0)
        np.testing.assert_array_equal(attack.perturb_batch(states, np.random.default_rng(0)), states)

    def test_pgd_attack_batch_stays_in_budget(self, vanderpol):
        controller = NeuralController(MLP(2, 1, hidden_sizes=(8,), seed=0))
        bound = perturbation_budget(vanderpol, 0.1)
        attack = PGDAttack(controller, bound, steps=4)
        states = sample_initial_states(vanderpol, 10, rng=0)
        perturbed = attack.perturb_batch(states, np.random.default_rng(0))
        assert np.all(np.abs(perturbed - states) <= bound + 1e-12)
