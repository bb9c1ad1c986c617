"""Configuration dataclasses for the Cocktail pipeline.

All the symbols of Algorithm 1 appear here: the weight bound ``AB_i``, the
number of epochs ``N`` and steps ``T``, the distillation start epoch ``N_E``
(realised as a separate distillation phase with its own epoch budget), the
perturbation bound ``Delta``, the adversarial probability ``p`` and the
regularisation weight ``lambda``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Tuple

from repro.rl.ppo import PPOConfig

#: Default lockstep environment width and dataset/teacher batch width of a
#: budget-hint config.  Pinned rather than derived from the CPU count, so a
#: config trains the same controller on every machine.
DEFAULT_NUM_ENVS = 16
DEFAULT_TRAIN_BATCH_SIZE = 128


@dataclass
class MixingConfig:
    """Hyper-parameters of the RL-based adaptive mixing step (Section III-A)."""

    #: Per-expert weight bound AB_i (weights live in [-AB_i, AB_i], AB_i >= 1).
    weight_bound: float = 1.5
    #: RL algorithm for the mixing policy: "ppo" (Proposition 1) or "ddpg" (Remark 1).
    algorithm: str = "ppo"
    #: PPO epochs N and steps per epoch.
    epochs: int = 30
    steps_per_epoch: int = 2048
    #: Width of the PPO training environment: the number of mixing MDP
    #: copies advanced in lockstep during rollout collection (the
    #: ``num_envs`` of :class:`repro.core.mixing.AdaptiveMixingEnv` and of
    #: the switching baseline's environment).  DDPG steps one transition at
    #: a time, so the DDPG mixing environment always has width 1.
    num_envs: int = 1
    #: Reward shaping: punishment on safety violation and energy weight.
    punishment: float = -100.0
    energy_weight: float = 0.05
    survival_bonus: float = 1.0
    gamma: float = 0.99
    hidden_sizes: Tuple[int, ...] = (64, 64)
    policy_lr: float = 3e-4
    value_lr: float = 1e-3
    #: PPO objective: "clip" or "kl" (the adaptive-KL form written in the paper).
    objective: str = "clip"
    #: Warm-start value for the policy's initial weight output.  ``None``
    #: starts from the uniform mixture 1/n (a sensible prior that keeps the
    #: mixed controller competitive even with small RL budgets); pass a
    #: vector to start elsewhere, or ``0.0`` to disable the warm start.
    initial_weights: Optional[object] = None
    seed: Optional[int] = None
    verbose: bool = False

    def __post_init__(self) -> None:
        if self.weight_bound < 1.0:
            raise ValueError("the paper requires AB_i >= 1 so a single expert is representable")
        if self.algorithm not in ("ppo", "ddpg"):
            raise ValueError("algorithm must be 'ppo' or 'ddpg'")
        if self.num_envs <= 0:
            raise ValueError("num_envs must be positive")

    def ppo_config(self) -> PPOConfig:
        return PPOConfig(
            epochs=self.epochs,
            steps_per_epoch=self.steps_per_epoch,
            gamma=self.gamma,
            policy_lr=self.policy_lr,
            value_lr=self.value_lr,
            objective=self.objective,
            hidden_sizes=self.hidden_sizes,
            seed=self.seed,
            verbose=self.verbose,
        )


@dataclass
class DistillationConfig:
    """Hyper-parameters of the robust distillation step (Section III-B)."""

    #: Student architecture.
    hidden_sizes: Tuple[int, ...] = (32, 32)
    activation: str = "tanh"
    #: Number of training epochs over the distillation dataset.
    epochs: int = 200
    #: SGD minibatch size for the student's forward/backward passes.
    batch_size: int = 128
    #: Batch width of the *dataset generation* stage: how many teacher
    #: trajectories roll out in lockstep and how many states are labelled
    #: per batched teacher query.  ``1`` is the scalar path (bit-identical
    #: to the historical per-trajectory/per-state loops for the same seed);
    #: larger values run dataset collection at array speed.
    train_batch_size: int = 1
    learning_rate: float = 1e-3
    #: Perturbation bound Delta for the FGSM adversarial examples, expressed
    #: as a fraction of the system state value bound (the paper attacks with
    #: 10-15 % of that bound, and trains with the same or smaller bound).
    perturbation_fraction: float = 0.1
    #: Probability p of taking the adversarial branch at each step (line 12-13).
    adversarial_probability: float = 0.5
    #: L2 regularisation weight lambda (line 14).
    l2_weight: float = 1e-3
    #: Number of states in the distillation dataset and how they are drawn.
    dataset_size: int = 4000
    #: Fraction of the dataset drawn from teacher closed-loop trajectories
    #: (the rest is sampled uniformly from the safe region).  Trajectory
    #: states concentrate the regression on the operating distribution,
    #: which matters for open-loop-unstable plants such as the cartpole.
    trajectory_fraction: float = 0.6
    seed: Optional[int] = None
    verbose: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.adversarial_probability <= 1.0:
            raise ValueError("adversarial_probability must be in [0, 1]")
        if self.perturbation_fraction < 0:
            raise ValueError("perturbation_fraction must be non-negative")
        if not 0.0 <= self.trajectory_fraction <= 1.0:
            raise ValueError("trajectory_fraction must be in [0, 1]")
        if self.dataset_size <= 0:
            raise ValueError("dataset_size must be positive")
        if self.train_batch_size <= 0:
            raise ValueError("train_batch_size must be positive")


@dataclass
class EvaluationConfig:
    """Configuration of the Monte-Carlo evaluation harness.

    The paper's metrics (Sr, e, Tables I-II) are estimated over ``samples``
    closed-loop rollouts; the rollouts run on the batched engine
    (:func:`repro.systems.simulation.rollout_batch`), which advances up to
    ``batch_size`` trajectories in lockstep.
    """

    #: Number of Monte-Carlo rollouts per metric (the paper uses 500).
    samples: int = 500
    #: Trajectories advanced in lockstep per batch; ``None`` runs the whole
    #: sample as a single batch (fastest; chunk to bound peak memory).
    batch_size: Optional[int] = None
    #: Perturbation magnitude for Table II as a fraction of the state bound.
    perturbation_fraction: float = 0.1

    def __post_init__(self) -> None:
        if self.samples <= 0:
            raise ValueError("samples must be positive")
        if self.batch_size is not None and self.batch_size <= 0:
            raise ValueError("batch_size must be positive (or None for one batch)")
        if self.perturbation_fraction < 0:
            raise ValueError("perturbation_fraction must be non-negative")


@dataclass
class CocktailConfig:
    """End-to-end configuration of Algorithm 1."""

    mixing: MixingConfig = field(default_factory=MixingConfig)
    distillation: DistillationConfig = field(default_factory=DistillationConfig)
    evaluation: EvaluationConfig = field(default_factory=EvaluationConfig)
    seed: Optional[int] = None

    @classmethod
    def fast(cls, seed: Optional[int] = 0) -> "CocktailConfig":
        """A small-budget configuration used by tests and the quickstart example."""

        return cls(
            mixing=MixingConfig(epochs=3, steps_per_epoch=256, seed=seed),
            distillation=DistillationConfig(epochs=30, dataset_size=600, seed=seed),
            seed=seed,
        )

    @classmethod
    def from_budget_hints(
        cls, hints: Mapping[str, object], seed: Optional[int] = 0
    ) -> "CocktailConfig":
        """Build a config from a scenario's training budget hints.

        ``hints`` is the ``train_budget`` mapping of a
        :class:`repro.scenarios.ScenarioSpec` (``mixing_epochs``,
        ``mixing_steps``, ``distill_epochs``, ``dataset_size``,
        ``trajectory_fraction``, ``eval_samples``, ``num_envs``,
        ``train_batch_size``); missing keys fall back to the historical CLI
        defaults below (the same table the CLI's budget flags fall back
        to), so a spec only states what is scenario-specific.

        Unlike the raw dataclasses (whose ``num_envs=1`` /
        ``train_batch_size=1`` defaults step one environment and label one
        state at a time), budget-hint configs default to the pinned widths
        :data:`DEFAULT_NUM_ENVS` / :data:`DEFAULT_TRAIN_BATCH_SIZE`, never
        to a CPU-count-derived one: the same hints train the same
        controller on every machine.
        """

        hints = dict(hints or {})
        return cls(
            mixing=MixingConfig(
                epochs=int(hints.get("mixing_epochs", 10)),
                steps_per_epoch=int(hints.get("mixing_steps", 1024)),
                num_envs=int(hints.get("num_envs", DEFAULT_NUM_ENVS)),
                seed=seed,
            ),
            distillation=DistillationConfig(
                epochs=int(hints.get("distill_epochs", 100)),
                dataset_size=int(hints.get("dataset_size", 2500)),
                hidden_sizes=tuple(hints.get("hidden_sizes", (32, 32))),
                l2_weight=float(hints.get("l2_weight", 5e-3)),
                trajectory_fraction=float(hints.get("trajectory_fraction", 0.6)),
                train_batch_size=int(hints.get("train_batch_size", DEFAULT_TRAIN_BATCH_SIZE)),
                seed=seed,
            ),
            evaluation=EvaluationConfig(samples=int(hints.get("eval_samples", 150))),
            seed=seed,
        )
