"""Golden determinism tests for the vectorized training subsystem.

Two load-bearing guarantees pin the PR that vectorized training:

* **Width 1 is the batch-of-one case, bit for bit.**  ``num_envs=1`` /
  ``train_batch_size=1`` runs the historical per-step training flow
  through the batched kernels.  The reference loops in this file are the
  historical per-step bodies: PPO rollout collection with the policy's
  and critic's per-state formulas (it drives row 0 of the same width-1
  ``ControlEnv`` the trainer uses, so it pins the PPO loop against
  ``act_batch``/``values``, not the environment), flat-sequence GAE, and
  per-trajectory dataset collection with one teacher query per state.
  The batched code at width 1 must reproduce them exactly -- same
  random-stream consumption, same floating-point operations, same bits.
  The environment's own random-stream order and bits are pinned by the
  weight digests in ``tests/test_rl_digests.py``, recorded before the
  environment had one batched code path.

* **End-to-end reproducibility.**  ``repro train`` with the same seed and
  flags twice produces byte-identical serialized controllers, at both the
  scalar and the vectorized widths.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import main
from repro.core.config import CocktailConfig, DistillationConfig, MixingConfig
from repro.core.distillation import collect_distillation_dataset
from repro.core.mixing import AdaptiveMixingEnv, MixingTrainer
from repro.rl.gae import compute_gae, compute_gae_batch
from repro.rl.ppo import PPOTrainer
from repro.systems import make_system
from repro.systems.simulation import rollout
from repro.utils.seeding import get_rng, set_global_seed


# ---------------------------------------------------------------------------
# Reference implementations: the historical per-step loops (the PPO one
# drives the shared width-1 environment; see the module docstring).
# ---------------------------------------------------------------------------


def legacy_act(policy, state, rng):
    """The historical one-state Gaussian sample: clipped action, log density."""

    mean = policy.mean_net.predict(np.asarray(state, dtype=np.float64))
    std = np.exp(policy.log_std.data)
    action = mean + std * rng.normal(size=policy.action_dim)
    log_prob = float(np.sum(-0.5 * ((action - mean) / std) ** 2 - np.log(std) - 0.5 * np.log(2.0 * np.pi)))
    return np.clip(action, policy.action_low, policy.action_high), log_prob


def legacy_value(value_network, state):
    """The historical one-state critic value."""

    return float(np.atleast_1d(value_network.net.predict(np.asarray(state, dtype=np.float64)))[0])


def legacy_collect_rollouts(env, policy, value_network, rng, steps):
    """The historical scalar ``PPOTrainer.collect_rollouts`` body, driving
    row 0 of a width-1 environment (per-state policy and value formulas)."""

    transitions = []
    observation = env.reset()[0]
    for _ in range(steps):
        action, log_prob = legacy_act(policy, observation, rng)
        value = legacy_value(value_network, observation)
        next_observations, rewards, dones, _info = env.step(action[None, :])
        reward, done = float(rewards[0]), bool(dones[0])
        transitions.append((observation, action, reward, done, value, log_prob))
        observation = next_observations[0]
        if done:
            observation = env.reset()[0]
    last_value = legacy_value(value_network, observation)
    return transitions, last_value


def legacy_collect_dataset(system, teacher, size, trajectory_fraction, rng):
    """The historical scalar ``collect_distillation_dataset`` body."""

    generator = get_rng(rng)
    trajectory_count = int(size * trajectory_fraction)
    states = []
    while len(states) < trajectory_count:
        initial_state = system.initial_set.sample(generator)
        trajectory = rollout(system, teacher, initial_state, rng=generator)
        for state in trajectory.states:
            if system.safe_region.contains(state):
                states.append(state)
            if len(states) >= trajectory_count:
                break
    remaining = size - len(states)
    if remaining > 0:
        uniform = system.safe_region.sample(generator, count=remaining)
        states.extend(list(uniform))
    states = np.asarray(states[:size])
    controls = np.concatenate([system.clip_control_batch(teacher.batch_control(state[None, :])) for state in states])
    return states, controls


def _mixing_env_and_policy(seed=0):
    set_global_seed(seed)
    system = make_system("vanderpol")
    from repro.experts import make_default_experts

    experts = make_default_experts(system)
    trainer = MixingTrainer(
        system, experts, config=MixingConfig(epochs=1, steps_per_epoch=64, seed=seed), rng=seed
    )
    return system, experts, trainer


class TestVectorizedScalarEquivalence:
    """``num_envs=1`` consumes the stream and computes bits like the legacy loop."""

    def test_collect_rollouts_num_envs_1_matches_legacy_reference(self):
        _system, _experts, trainer = _mixing_env_and_policy(seed=0)
        ppo_config = trainer.config.ppo_config()
        assert trainer.env.num_envs == 1

        # Two identical trainers: one drives the vectorized collection path,
        # the other replays the frozen legacy loop on the same seeds.
        policy_a = trainer._build_warm_started_policy()
        policy_b = trainer._build_warm_started_policy()
        for parameter_a, parameter_b in zip(policy_a.parameters(), policy_b.parameters()):
            np.testing.assert_array_equal(parameter_a.data, parameter_b.data)

        env_a = AdaptiveMixingEnv(trainer.system, trainer.experts, rng=get_rng(123))
        env_b = AdaptiveMixingEnv(trainer.system, trainer.experts, rng=get_rng(123))
        trainer_a = PPOTrainer(env_a, policy=policy_a, config=ppo_config, rng=get_rng(7))
        buffer = trainer_a.collect_rollouts(96)

        # The legacy loop needs the same value network initialisation.
        trainer_b = PPOTrainer(env_b, policy=policy_b, config=ppo_config, rng=get_rng(7))
        for parameter_a, parameter_b in zip(
            trainer_a.value_network.parameters(), trainer_b.value_network.parameters()
        ):
            np.testing.assert_array_equal(parameter_a.data, parameter_b.data)
        transitions, last_value = legacy_collect_rollouts(
            env_b, trainer_b.policy, trainer_b.value_network, trainer_b._rng, 96
        )

        data = buffer.arrays()
        assert len(buffer) == len(transitions) == 96
        for index, (state, action, reward, done, value, log_prob) in enumerate(transitions):
            np.testing.assert_array_equal(data["states"][index], state)
            np.testing.assert_array_equal(data["actions"][index], action)
            assert data["rewards"][index] == reward
            assert bool(data["dones"][index]) == done
            assert data["values"][index] == value
            assert data["log_probs"][index] == log_prob
        np.testing.assert_array_equal(buffer.bootstrap_values(), [last_value])

    def test_gae_batch_single_column_matches_flat_scalar(self):
        rng = np.random.default_rng(3)
        rewards = rng.normal(size=50)
        values = rng.normal(size=50)
        dones = rng.uniform(size=50) < 0.2
        advantages, returns = compute_gae(
            rewards, values, dones, gamma=0.99, lam=0.95, last_value=0.37
        )
        batched_adv, batched_ret = compute_gae_batch(
            rewards[:, None], values[:, None], dones[:, None],
            gamma=0.99, lam=0.95, last_values=np.array([0.37]),
        )
        np.testing.assert_array_equal(batched_adv[:, 0], advantages)
        np.testing.assert_array_equal(batched_ret[:, 0], returns)

    def test_dataset_batch_size_1_matches_legacy_reference(self):
        set_global_seed(0)
        system = make_system("vanderpol")
        from repro.experts import make_default_experts

        experts = make_default_experts(system)
        trainer = MixingTrainer(
            system, experts, config=MixingConfig(epochs=1, steps_per_epoch=64, seed=0), rng=0
        )
        teacher = trainer.train()

        reference_states, reference_controls = legacy_collect_dataset(
            system, teacher, size=300, trajectory_fraction=0.6, rng=11
        )
        dataset = collect_distillation_dataset(
            system, teacher, size=300, trajectory_fraction=0.6, rng=11, batch_size=1
        )
        np.testing.assert_array_equal(dataset.states, reference_states)
        np.testing.assert_array_equal(dataset.controls, reference_controls)

    def test_mixed_controller_rows_match_batches_of_one(self):
        _system, _experts, trainer = _mixing_env_and_policy(seed=0)
        teacher = trainer.train()
        states = trainer.system.safe_region.sample(np.random.default_rng(5), count=8)
        # Wider batches agree numerically (BLAS rounding may differ per row).
        np.testing.assert_allclose(
            teacher.batch_control(states),
            np.concatenate([teacher.batch_control(state[None, :]) for state in states]),
            rtol=1e-12, atol=1e-12,
        )

    def test_full_training_scalar_width_is_seed_stable(self):
        """Same seed + scalar widths twice -> identical policy and students."""

        results = []
        for _ in range(2):
            set_global_seed(0)
            system = make_system("vanderpol")
            from repro.experts import make_default_experts

            experts = make_default_experts(system)
            from repro.core.cocktail import CocktailPipeline

            config = CocktailConfig(
                mixing=MixingConfig(epochs=1, steps_per_epoch=64, num_envs=1, seed=0),
                distillation=DistillationConfig(
                    epochs=4, dataset_size=150, train_batch_size=1, seed=0
                ),
                seed=0,
            )
            result = CocktailPipeline(system, experts, config).run(include_direct_baseline=False)
            results.append(result)
        for key, value in results[0].student.network.state_dict().items():
            np.testing.assert_array_equal(value, results[1].student.network.state_dict()[key])
        np.testing.assert_array_equal(results[0].dataset.states, results[1].dataset.states)


class TestEndToEndGolden:
    """``repro train`` twice with one seed -> byte-identical artefacts, and
    the students' weights digests pinned to their recorded values."""

    #: ``weights_digest`` of each student at ``TRAIN_FLAGS``, by width.
    #: ``kappaD`` trains in a worker process beside ``kappa*`` when two CPUs
    #: are free, so these also pin that it draws the same stream.
    DIGESTS = {
        "vectorized": {
            "kappa_star": "2a5285164f14f2b7e9adc006a676546cf1a8aeb17d16c351d21ba3e6d19e1a46",
            "kappaD": "12f92b126268d86e95993403d3540e8aaee271944b60722b2a45934b4d6a7e8d",
        },
        "scalar": {
            "kappa_star": "3d7bf2ef22a5dbf44417523a9610e7c34729f5cca55ff968f5a798179d9f15be",
            "kappaD": "af84814c66a0bf2327a88b7cf63538e7a1502021243468d2d0d1bec44da15421",
        },
    }

    TRAIN_FLAGS = [
        "--mixing-epochs", "1",
        "--mixing-steps", "64",
        "--distill-epochs", "4",
        "--dataset-size", "150",
        "--eval-samples", "8",
        "--seed", "0",
    ]

    def _train(self, directory, extra=()):
        exit_code = main(
            ["train", "--system", "vanderpol", "--output", str(directory)]
            + self.TRAIN_FLAGS
            + list(extra)
        )
        assert exit_code == 0
        return {
            name: (directory / name).read_bytes()
            for name in ("kappa_star.npz", "kappa_d.npz")
        }

    @pytest.mark.parametrize(
        "widths",
        [
            (),  # default: vectorized (the pinned num_envs / train_batch_size)
            ("--num-envs", "1", "--train-batch-size", "1"),  # scalar path
        ],
        ids=["vectorized", "scalar"],
    )
    def test_train_twice_same_seed_byte_identical(self, tmp_path, widths):
        first = self._train(tmp_path / "run1", widths)
        second = self._train(tmp_path / "run2", widths)
        for name in first:
            assert first[name] == second[name], f"{name} differs between identical runs"

    @pytest.mark.parametrize("width", ["vectorized", "scalar"])
    def test_students_match_the_recorded_digests(self, tmp_path, width):
        from repro.experiments.digest import weights_digest
        from repro.utils.persistence import load_student_controller

        widths = () if width == "vectorized" else ("--num-envs", "1", "--train-batch-size", "1")
        self._train(tmp_path, widths)
        for name, expected in self.DIGESTS[width].items():
            network = load_student_controller(tmp_path, name=name).network
            assert weights_digest(network.state_dict(), extra=network.architecture()) == expected, name

    def test_scalar_and_vectorized_widths_produce_loadable_students(self, tmp_path):
        from repro.utils.persistence import load_student_controller

        self._train(tmp_path / "scalar", ("--num-envs", "1", "--train-batch-size", "1"))
        self._train(tmp_path / "vec", ("--num-envs", "4", "--train-batch-size", "32"))
        for directory in (tmp_path / "scalar", tmp_path / "vec"):
            controller = load_student_controller(directory, name="kappa_star")
            states = make_system("vanderpol").initial_set.sample(np.random.default_rng(0), count=1)
            assert np.all(np.isfinite(controller.batch_control(states)))
