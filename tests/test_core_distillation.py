"""Tests for the distillation step (Section III-B)."""

import numpy as np
import pytest
from finite_differences import numerical_gradient

from repro.core.config import DistillationConfig
from repro.core.distillation import (
    DirectDistiller,
    DistillationDataset,
    RobustDistiller,
    collect_distillation_dataset,
)
from repro.experts import LinearStateFeedback, NeuralController
from repro.nn.lipschitz import network_lipschitz


@pytest.fixture
def teacher():
    """A simple deterministic teacher so regression targets are exact."""

    return LinearStateFeedback([[3.0, 2.0]], name="teacher")


@pytest.fixture
def small_dataset(vanderpol, teacher):
    return collect_distillation_dataset(vanderpol, teacher, size=400, trajectory_fraction=0.5, rng=0)


class TestDistillationConfig:
    def test_probability_validation(self):
        with pytest.raises(ValueError):
            DistillationConfig(adversarial_probability=1.5)

    def test_perturbation_validation(self):
        with pytest.raises(ValueError):
            DistillationConfig(perturbation_fraction=-0.1)

    def test_dataset_size_validation(self):
        with pytest.raises(ValueError):
            DistillationConfig(dataset_size=0)

    def test_trajectory_fraction_validation(self):
        with pytest.raises(ValueError):
            DistillationConfig(trajectory_fraction=1.5)


class TestDataset:
    def test_collect_size_and_safety(self, vanderpol, teacher, small_dataset):
        assert len(small_dataset) == 400
        assert small_dataset.states.shape == (400, 2)
        assert small_dataset.controls.shape == (400, 1)
        # Labels are the clipped teacher outputs.
        for state, control in zip(small_dataset.states[:20], small_dataset.controls[:20]):
            np.testing.assert_allclose(control, np.clip(teacher(state), -20, 20))

    def test_collect_invalid_size(self, vanderpol, teacher):
        with pytest.raises(ValueError):
            collect_distillation_dataset(vanderpol, teacher, size=0)

    def test_uniform_only_dataset(self, vanderpol, teacher):
        dataset = collect_distillation_dataset(vanderpol, teacher, size=100, trajectory_fraction=0.0, rng=0)
        assert len(dataset) == 100
        assert all(vanderpol.safe_region.contains(state) for state in dataset.states)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            DistillationDataset(np.zeros((5, 2)), np.zeros((4, 1)))

    def test_split(self, small_dataset):
        train, valid = small_dataset.split(validation_fraction=0.25, rng=0)
        assert len(train) + len(valid) == len(small_dataset)
        assert len(valid) == 100


class TestDirectDistillation:
    def test_student_learns_linear_teacher(self, vanderpol, teacher, small_dataset):
        config = DistillationConfig(hidden_sizes=(16, 16), epochs=60, dataset_size=400, l2_weight=0.0, seed=0)
        distiller = DirectDistiller(vanderpol, config=config, rng=0)
        student = distiller.distill(small_dataset)
        assert isinstance(student, NeuralController)
        assert student.name == "kappaD"
        error = distiller.evaluate_regression_error(small_dataset)
        assert error < 1.0  # teacher outputs span roughly [-10, 10]

    def test_loss_decreases_over_training(self, vanderpol, small_dataset):
        config = DistillationConfig(hidden_sizes=(16,), epochs=40, seed=0)
        distiller = DirectDistiller(vanderpol, config=config, rng=0)
        distiller.distill(small_dataset)
        losses = distiller.logger.series("loss")
        assert losses[-1] < losses[0]

    def test_evaluate_before_distill_raises(self, vanderpol, small_dataset):
        distiller = DirectDistiller(vanderpol)
        with pytest.raises(RuntimeError):
            distiller.evaluate_regression_error(small_dataset)


class TestRobustDistillation:
    def test_student_name_and_shape(self, vanderpol, small_dataset):
        config = DistillationConfig(hidden_sizes=(16,), epochs=20, seed=0)
        student = RobustDistiller(vanderpol, config=config, rng=0).distill(small_dataset)
        assert student.name == "kappa_star"
        assert student(np.array([0.1, 0.1])).shape == (1,)

    def test_perturbation_bound_scales_with_state_bound(self, vanderpol):
        config = DistillationConfig(perturbation_fraction=0.1)
        distiller = RobustDistiller(vanderpol, config=config)
        np.testing.assert_allclose(distiller.perturbation_bound(), [0.2, 0.2])

    def test_fgsm_states_within_bound(self, vanderpol, small_dataset):
        config = DistillationConfig(hidden_sizes=(8,), perturbation_fraction=0.1, seed=0)
        distiller = RobustDistiller(vanderpol, config=config, rng=0)
        student = distiller._build_student()
        states = small_dataset.states[:32]
        controls = small_dataset.controls[:32]
        adversarial, _ = distiller._fgsm_states(states, controls, student)
        assert np.all(np.abs(adversarial - states) <= 0.2 + 1e-12)
        # FGSM moves every coordinate to the boundary of the Delta box.
        np.testing.assert_allclose(np.abs(adversarial - states), 0.2)

    def test_robust_distillation_reduces_lipschitz_constant(self, vanderpol, teacher, small_dataset):
        shared = dict(hidden_sizes=(24, 24), epochs=50, batch_size=64, seed=0)
        direct = DirectDistiller(vanderpol, config=DistillationConfig(l2_weight=0.0, **shared), rng=0)
        robust = RobustDistiller(
            vanderpol,
            config=DistillationConfig(
                l2_weight=2e-2, adversarial_probability=0.6, perturbation_fraction=0.1, **shared
            ),
            rng=0,
        )
        direct_student = direct.distill(small_dataset)
        robust_student = robust.distill(small_dataset)
        assert network_lipschitz(robust_student.network) < network_lipschitz(direct_student.network)

    def test_robust_student_still_fits_teacher(self, vanderpol, teacher, small_dataset):
        config = DistillationConfig(hidden_sizes=(24, 24), epochs=60, l2_weight=1e-3, seed=0)
        distiller = RobustDistiller(vanderpol, config=config, rng=0)
        distiller.distill(small_dataset)
        assert distiller.evaluate_regression_error(small_dataset) < 3.0

    def test_probability_zero_behaves_like_direct_plus_regularisation(self, vanderpol, small_dataset):
        config = DistillationConfig(hidden_sizes=(8,), epochs=5, adversarial_probability=0.0, seed=0)
        distiller = RobustDistiller(vanderpol, config=config, rng=0)
        student = distiller.distill(small_dataset)
        assert np.isfinite(student(np.zeros(2))).all()

    @pytest.mark.xfail(strict=True, reason=(
        "known defect: RobustDistiller._batch_gradients adds the clean-loss "
        "parameter gradients of the FGSM pass to the adversarial step's, so Adam "
        "steps on clean + adversarial gradients; fixing it changes trained weights"
    ))
    def test_robust_batch_gradients_are_the_adversarial_loss_alone(self, vanderpol):
        """Algorithm 1 line 14: the adversarial branch steps on
        ``l(kappa*(s + delta), u) + lambda ||q||^2`` and nothing else."""

        rng = np.random.default_rng(8)
        states, controls = rng.uniform(-2.0, 2.0, size=(16, 2)), rng.normal(size=(16, 1))
        config = DistillationConfig(hidden_sizes=(12, 12), adversarial_probability=1.0, l2_weight=1e-2, seed=3)
        distiller = RobustDistiller(vanderpol, config=config, rng=3)
        student = distiller._build_student()
        parameters = student.parameters()

        _, actual = distiller._batch_gradients(states, controls, student, parameters, True)

        adversarial, _ = distiller._fgsm_states(states, controls, student)
        _, _, alone = student.mse_gradients(adversarial, controls)
        for parameter, got, mse_grad in zip(parameters, actual, alone):
            expected = mse_grad + 2.0 * config.l2_weight * parameter.data
            np.testing.assert_allclose(got, expected, rtol=1e-12)



class TestBatchGradients:
    """The minibatch gradients of Algorithm 1 lines 13-14 against central
    differences of their losses."""

    @staticmethod
    def _batch():
        rng = np.random.default_rng(8)
        return rng.uniform(-2.0, 2.0, size=(16, 2)), rng.normal(size=(16, 1))

    def test_direct_step_is_the_mse_regression_step(self, vanderpol):
        states, controls = self._batch()
        distiller = DirectDistiller(vanderpol, config=DistillationConfig(hidden_sizes=(12, 12), seed=3))
        student = distiller._build_student()
        loss, grads = distiller._batch_gradients(states, controls, student, student.parameters(), False)
        expected_loss, _, expected = student.mse_gradients(states, controls)
        assert loss == expected_loss
        for left, right in zip(grads, expected):
            np.testing.assert_array_equal(left, right)

    def test_robust_clean_branch_matches_finite_differences(self, vanderpol):
        """``mse + lambda ||q||_2^2`` on the clean branch."""

        states, controls = self._batch()
        config = DistillationConfig(hidden_sizes=(6,), adversarial_probability=0.0, l2_weight=0.05, seed=3)
        distiller = RobustDistiller(vanderpol, config=config, rng=3)
        student = distiller._build_student()
        parameters = student.parameters()
        loss, grads = distiller._batch_gradients(states, controls, student, parameters, False)

        def objective():
            penalty = sum(np.sum(parameter.data ** 2) for parameter in parameters)
            return np.mean((student.predict(states) - controls) ** 2) + config.l2_weight * penalty

        assert loss == pytest.approx(objective(), rel=1e-12)
        for parameter, grad in zip(parameters, grads):
            np.testing.assert_allclose(grad, numerical_gradient(objective, parameter.data), rtol=1e-6, atol=1e-9)

    def test_fgsm_states_step_along_the_input_gradient_sign(self, vanderpol):
        """Algorithm 1 line 13: ``s + Delta * sign(grad_s l)``, with the clean
        pass's parameter gradients returned beside it."""

        states, controls = self._batch()
        config = DistillationConfig(hidden_sizes=(6,), adversarial_probability=1.0, seed=3)
        distiller = RobustDistiller(vanderpol, config=config, rng=3)
        student = distiller._build_student()
        adversarial, clean_grads = distiller._fgsm_states(states, controls, student)

        numeric = numerical_gradient(lambda: np.mean((student.predict(states) - controls) ** 2), states)
        assert np.all(np.abs(numeric) > 1e-7), "every coordinate should have a clear sign"
        np.testing.assert_array_equal(adversarial, states + distiller.perturbation_bound() * np.sign(numeric))
        _, _, expected = student.mse_gradients(states, controls)
        for left, right in zip(clean_grads, expected):
            np.testing.assert_array_equal(left, right)

class TestEpochDraws:
    """``_draw_epoch`` is the one schedule of a distillation's random draws."""

    CONFIG = dict(hidden_sizes=(8,), epochs=3, batch_size=64, adversarial_probability=0.5, seed=0)

    def test_robust_batches_see_the_historical_draw_order(self, vanderpol, small_dataset, monkeypatch):
        """Per epoch: the minibatch permutation, then one ``uniform()`` coin
        per batch, as the loop drew them before the schedule was hoisted."""

        seen = []
        original = RobustDistiller._batch_gradients

        def spy(self, states, controls, student, parameters, adversarial):
            seen.append((states, bool(adversarial)))
            return original(self, states, controls, student, parameters, adversarial)

        monkeypatch.setattr(RobustDistiller, "_batch_gradients", spy)
        rng = np.random.default_rng(3)
        reference = np.random.default_rng(3)
        config = DistillationConfig(**self.CONFIG)
        RobustDistiller(vanderpol, config=config, rng=rng).distill(small_dataset)

        expected = []
        for _ in range(config.epochs):
            order = reference.permutation(len(small_dataset))
            for start in range(0, len(small_dataset), config.batch_size):
                coin = float(reference.uniform()) <= config.adversarial_probability
                expected.append((small_dataset.states[order[start : start + config.batch_size]], coin))
        assert len(seen) == len(expected) == 3 * 7
        assert {flag for _, flag in expected} == {True, False}
        for (states, flag), (want_states, want_flag) in zip(seen, expected):
            np.testing.assert_array_equal(states, want_states)
            assert flag == want_flag
        assert rng.bit_generator.state == reference.bit_generator.state

    @pytest.mark.parametrize("distiller_cls", [RobustDistiller, DirectDistiller])
    def test_skip_ahead_lands_where_distill_does(self, vanderpol, small_dataset, distiller_cls):
        import copy

        rng = np.random.default_rng(4)
        skipped = copy.deepcopy(rng)
        distiller = distiller_cls(vanderpol, config=DistillationConfig(**self.CONFIG), rng=rng)
        distiller.distill(small_dataset)
        for _ in range(distiller.config.epochs):
            distiller._draw_epoch(skipped, len(small_dataset))
        assert skipped.bit_generator.state == rng.bit_generator.state
