"""State perturbations: adversarial attacks and measurement noise.

The paper's robustness metric is the safe control rate under a bounded state
perturbation ``delta(t)``, which is either optimised (FGSM-style adversarial
attack on the controller, Section IV "the adversarial attack is generated by
FGSM") or random (uniform measurement noise between 10 % and 15 % of the
state bound).  Both are implemented as perturbations (``perturb_batch(states,
rng)``) for :func:`repro.systems.rollout_batch`.
"""

from repro.attacks.noise import UniformMeasurementNoise, GaussianMeasurementNoise
from repro.attacks.fgsm import FGSMAttack, fgsm_perturbation_batch
from repro.attacks.pgd import PGDAttack, pgd_perturbation_batch
from repro.attacks.adversary import WorstCaseSampler, GradientClosedLoopAttack, perturbation_budget

__all__ = [
    "UniformMeasurementNoise",
    "GaussianMeasurementNoise",
    "FGSMAttack",
    "fgsm_perturbation_batch",
    "PGDAttack",
    "pgd_perturbation_batch",
    "WorstCaseSampler",
    "GradientClosedLoopAttack",
    "perturbation_budget",
]
