"""The Cocktail framework: adaptive mixing + robust distillation.

This package is the paper's primary contribution (Section III):

* :mod:`repro.core.mixing` -- the RL-learned system-level adaptive mixing
  strategy that combines the experts with dynamically-assigned, bounded
  weights (Section III-A), producing the mixed controller design ``A_W``.
* :mod:`repro.core.distillation` -- teacher-student distillation of ``A_W``
  into a single student network, either directly (``kappa_D``) or with the
  probabilistic adversarial training and L2 regularisation of Algorithm 1
  lines 11-15 (``kappa*``, Section III-B).
* :mod:`repro.core.cocktail` -- the end-to-end pipeline of Algorithm 1.
"""

from repro.core.config import CocktailConfig, DistillationConfig, EvaluationConfig, MixingConfig
from repro.core.mixing import AdaptiveMixingEnv, MixedController, MixingTrainer
from repro.core.distillation import (
    DirectDistiller,
    DistillationDataset,
    RobustDistiller,
    collect_distillation_dataset,
)
from repro.core.cocktail import CocktailPipeline, CocktailResult, StageWorkerLost

__all__ = [
    "MixingConfig",
    "DistillationConfig",
    "EvaluationConfig",
    "CocktailConfig",
    "AdaptiveMixingEnv",
    "MixedController",
    "MixingTrainer",
    "DistillationDataset",
    "collect_distillation_dataset",
    "DirectDistiller",
    "RobustDistiller",
    "CocktailPipeline",
    "CocktailResult",
    "StageWorkerLost",
]
