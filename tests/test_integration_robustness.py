"""Cross-module integration checks on the robustness story.

These tests tie together distillation, attacks and metrics the same way the
Table II benchmark does, but at unit-test scale: they verify the *mechanism*
(lower Lipschitz constant -> smaller output deviation under the same
perturbation) rather than end-task safe rates, which keeps them fast and
deterministic.
"""

import numpy as np
import pytest

from repro.attacks import FGSMAttack, PGDAttack, perturbation_budget
from repro.core.config import DistillationConfig
from repro.core.distillation import DirectDistiller, RobustDistiller, collect_distillation_dataset
from repro.experts import LinearStateFeedback
from repro.nn.lipschitz import network_lipschitz
from repro.systems import VanDerPolOscillator


@pytest.fixture(scope="module")
def distilled_pair():
    """A (kappa_D, kappa*) pair trained on the same teacher dataset."""

    system = VanDerPolOscillator()
    teacher = LinearStateFeedback([[3.0, 2.0]], name="teacher")
    dataset = collect_distillation_dataset(system, teacher, size=600, trajectory_fraction=0.5, rng=0)
    shared = dict(hidden_sizes=(24, 24), epochs=60, batch_size=64, seed=0)
    direct = DirectDistiller(system, config=DistillationConfig(l2_weight=0.0, **shared), rng=0).distill(dataset)
    robust = RobustDistiller(
        system,
        config=DistillationConfig(l2_weight=2e-2, adversarial_probability=0.6, perturbation_fraction=0.1, **shared),
        rng=0,
    ).distill(dataset)
    return system, direct, robust


class TestLipschitzMechanism:
    def test_robust_student_has_smaller_lipschitz(self, distilled_pair):
        _, direct, robust = distilled_pair
        assert network_lipschitz(robust.network) < network_lipschitz(direct.network)

    def test_smaller_lipschitz_means_smaller_output_shift_under_fgsm(self, distilled_pair):
        system, direct, robust = distilled_pair
        budget = perturbation_budget(system, 0.1)
        rng = np.random.default_rng(0)
        states = system.initial_set.sample(rng, count=40) * 0.8
        mean_shifts = []
        for controller in (direct, robust):
            attack = FGSMAttack(controller, budget, alternate=False)
            perturbed = attack.perturb_batch(states, rng)
            shifts = np.abs(controller.batch_control(perturbed) - controller.batch_control(states))
            mean_shifts.append(np.mean(shifts[:, 0]))
        direct_shift, robust_shift = mean_shifts
        assert robust_shift <= direct_shift

    def test_pgd_shift_bounded_by_lipschitz_times_budget(self, distilled_pair):
        system, _, robust = distilled_pair
        budget = perturbation_budget(system, 0.1)
        lipschitz = network_lipschitz(robust.network)
        rng = np.random.default_rng(1)
        attack = PGDAttack(robust, budget, steps=4)
        states = system.initial_set.sample(rng, count=20) * 0.8
        perturbed = attack.perturb_batch(states, rng)
        shifts = np.abs(robust.batch_control(perturbed) - robust.batch_control(states))[:, 0]
        assert np.all(shifts <= lipschitz * np.linalg.norm(perturbed - states, axis=1) + 1e-9)

    def test_students_agree_on_clean_states(self, distilled_pair):
        system, direct, robust = distilled_pair
        rng = np.random.default_rng(2)
        states = system.initial_set.sample(rng, count=50) * 0.5
        direct_controls = direct.batch_control(states)
        robust_controls = robust.batch_control(states)
        # Both regressed the same teacher; near the origin they should agree
        # to within a couple of control units (the teacher spans ~[-10, 10]).
        assert float(np.mean(np.abs(direct_controls - robust_controls))) < 2.0
