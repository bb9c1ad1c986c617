"""End-to-end Cocktail pipeline (Algorithm 1).

``CocktailPipeline.run`` executes the whole framework:

1. learn the adaptive mixing policy over the given experts with RL,
   obtaining the mixed controller design ``A_W``;
2. collect a teacher dataset from ``A_W``;
3. distil it into a single student network, robustly (``kappa*``) and --
   optionally, for the baseline comparison -- directly (``kappa_D``).  The
   two distillations share only the dataset and the random stream, so
   ``kappa_D`` trains in a forked worker beside ``kappa*`` on a copy of the
   stream advanced past ``kappa*``'s draws: the same students, bit for bit,
   as training them one after the other.

The returned :class:`CocktailResult` bundles every controller the paper's
tables compare, plus the training loggers, so the benchmark harnesses only
have to evaluate them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import CocktailConfig
from repro.core.distillation import (
    DirectDistiller,
    DistillationDataset,
    RobustDistiller,
    collect_distillation_dataset,
)
from repro.core.mixing import MixedController, MixingTrainer
from repro.experts.base import Controller, NeuralController
from repro.nn.network import MLP
from repro.systems.base import ControlSystem
from repro.utils.logging import TrainingLogger
from repro.utils.parallel import TaskExecutor, default_worker_count
from repro.utils.profiling import StageTimer
from repro.utils.seeding import RngLike, get_rng


@dataclass
class CocktailResult:
    """Everything produced by one run of Algorithm 1."""

    #: The mixed controller design A_W (teacher).
    mixed_controller: MixedController
    #: The robustly-distilled student kappa* -- the framework's output.
    student: NeuralController
    #: The directly-distilled student kappa_D (None unless requested).
    direct_student: Optional[NeuralController]
    #: The experts the run started from.
    experts: List[Controller]
    #: The dataset used for distillation.
    dataset: DistillationDataset
    #: Training loggers keyed by stage name.
    loggers: Dict[str, TrainingLogger] = field(default_factory=dict)
    #: The resolved configuration the run executed with.  Persistence uses
    #: it to stamp records with the full config and its canonical digest
    #: (see :func:`repro.utils.persistence.save_cocktail_result`).
    config: Optional[CocktailConfig] = None
    #: Wall-clock seconds per pipeline stage (mixing, dataset, robust /
    #: direct distillation).  Telemetry emits these as ``StageTiming``
    #: events; they never enter persisted records, which stay timing-free.
    #: With two CPUs ``direct_distillation`` runs beside
    #: ``robust_distillation`` in a worker process, so those two overlap in
    #: wall time and the stages can sum to more than the run took.
    stage_seconds: Dict[str, float] = field(default_factory=dict)

    def controllers(self) -> Dict[str, Controller]:
        """All named controllers of Table I produced by this run."""

        named: Dict[str, Controller] = {}
        for index, expert in enumerate(self.experts, start=1):
            named[f"kappa{index}"] = expert
        named["AW"] = self.mixed_controller
        if self.direct_student is not None:
            named["kappaD"] = self.direct_student
        named["kappa_star"] = self.student
        return named


class CocktailPipeline:
    """Drives Algorithm 1 on one plant with a given set of experts."""

    def __init__(
        self,
        system: ControlSystem,
        experts: Sequence[Controller],
        config: Optional[CocktailConfig] = None,
        rng: RngLike = None,
    ):
        if len(experts) < 2:
            raise ValueError("Cocktail requires at least two experts")
        self.system = system
        self.experts = list(experts)
        self.config = config if config is not None else CocktailConfig()
        self._rng = get_rng(rng if rng is not None else self.config.seed)

    # ------------------------------------------------------------------
    def train_mixing(self) -> MixedController:
        """Step 1: RL-based adaptive mixing, returning ``A_W``."""

        trainer = MixingTrainer(self.system, self.experts, config=self.config.mixing, rng=self._rng)
        mixed = trainer.train()
        self._mixing_logger = trainer.logger
        return mixed

    def collect_dataset(self, teacher: Controller) -> DistillationDataset:
        """Step 2: query the teacher over trajectories and the safe region.

        Teacher rollouts and label queries run ``train_batch_size`` wide
        (``1`` reproduces the historical scalar collection bit for bit).
        """

        return collect_distillation_dataset(
            self.system,
            teacher,
            size=self.config.distillation.dataset_size,
            trajectory_fraction=self.config.distillation.trajectory_fraction,
            rng=self._rng,
            batch_size=self.config.distillation.train_batch_size,
        )

    def distill(self, dataset: DistillationDataset, robust: bool = True) -> NeuralController:
        """Step 3: distil the teacher dataset into a single student network."""

        distiller_cls = RobustDistiller if robust else DirectDistiller
        distiller = distiller_cls(self.system, config=self.config.distillation, rng=self._rng)
        student = distiller.distill(dataset)
        logger_key = "robust_distillation" if robust else "direct_distillation"
        self._distillation_loggers[logger_key] = distiller.logger
        return student

    def _distill_both(
        self, dataset: DistillationDataset, timer: StageTimer
    ) -> Tuple[NeuralController, NeuralController, float]:
        """``kappa*`` here while ``kappa_D`` trains on a one-worker executor.

        ``kappa_D``'s distiller gets a copy of the generator advanced past
        ``kappa*``'s epochs, so it draws exactly what it would after
        ``kappa*``; afterwards this generator skips ``kappa_D``'s epochs and
        ends where the sequential order leaves it.  On one CPU, or inside
        another executor's pool worker or a daemonic process (executors do
        not nest, so a matrix train cell distils both students in its
        worker), the same task runs inline, ``kappa*`` first.  A worker that
        dies raises :class:`~repro.utils.parallel.WorkerLost` naming
        ``direct_distillation``.  Returns both students and ``kappa_D``'s
        seconds.
        """

        import copy

        config = self.config.distillation
        size = len(dataset)
        direct_rng = copy.deepcopy(self._rng)
        _skip_epochs(RobustDistiller(self.system, config=config), direct_rng, size)
        direct = DirectDistiller(self.system, config=config, rng=direct_rng)

        outcomes: Dict[str, Tuple] = {}
        with TaskExecutor(1 if default_worker_count(2) > 1 else 0, outcomes.__setitem__) as executor:
            executor.submit("direct_distillation", _direct_distillation_task, direct, dataset)
            student = timer.timed("robust_distillation", lambda: self.distill(dataset, robust=True))
            executor.drain()
        _skip_epochs(direct, self._rng, size)

        (architecture, weights), logger, seconds = outcomes["direct_distillation"]
        network = MLP.from_architecture(architecture)
        network.load_state_dict(weights)
        self._distillation_loggers["direct_distillation"] = logger
        return student, NeuralController(network, name=direct.controller_name()), seconds

    # ------------------------------------------------------------------
    def run(self, include_direct_baseline: bool = True) -> CocktailResult:
        """Execute the full pipeline and return every controller of Table I."""

        self._distillation_loggers: Dict[str, TrainingLogger] = {}
        timer = StageTimer()

        mixed = timer.timed("mixing", self.train_mixing)
        dataset = timer.timed("dataset", lambda: self.collect_dataset(mixed))
        if include_direct_baseline:
            student, direct_student, direct_seconds = self._distill_both(dataset, timer)
        else:
            student = timer.timed("robust_distillation", lambda: self.distill(dataset, robust=True))
            direct_student = None
        stage_seconds = timer.as_dict()
        if direct_student is not None:
            stage_seconds["direct_distillation"] = direct_seconds

        loggers: Dict[str, TrainingLogger] = dict(self._distillation_loggers)
        if getattr(self, "_mixing_logger", None) is not None:
            loggers["mixing"] = self._mixing_logger
        return CocktailResult(
            mixed_controller=mixed,
            student=student,
            direct_student=direct_student,
            experts=self.experts,
            dataset=dataset,
            loggers=loggers,
            config=self.config,
            stage_seconds=stage_seconds,
        )


def _skip_epochs(distiller, rng: np.random.Generator, size: int) -> None:
    """Advance ``rng`` past every epoch ``distiller`` draws on ``size`` rows."""

    for _ in range(distiller.config.epochs):
        distiller._draw_epoch(rng, size)


def _direct_distillation_task(
    distiller: DirectDistiller, dataset: DistillationDataset
) -> Tuple[Tuple[Dict, Dict], TrainingLogger, float]:
    """``kappa_D``'s distillation as a pool task: ``((architecture,
    state_dict), logger, seconds)``, all picklable."""

    start = time.perf_counter()
    network = distiller.distill(dataset).network
    seconds = time.perf_counter() - start
    return (network.architecture(), network.state_dict()), distiller.logger, seconds
