"""Controller evaluation harness producing the paper's table rows.

``evaluate_controllers`` takes the named controllers of one system (the
experts, ``A_S``, ``A_W``, ``kappa_D``, ``kappa*``) and returns, for each,
the metrics of Table I (clean safe rate, energy, Lipschitz constant), all
measured on the same set of sampled initial states.  Table II is a loop over
:func:`repro.metrics.robustness.evaluate_robustness`, one call per
perturbation regime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.config import EvaluationConfig
from repro.experts.base import Controller
from repro.metrics.lipschitz import controller_lipschitz
from repro.metrics.robustness import RobustnessResult, evaluate_robustness
from repro.systems.base import ControlSystem
from repro.systems.simulation import sample_initial_states
from repro.utils.seeding import get_rng
from repro.utils.tables import ResultTable


@dataclass
class ControllerMetrics:
    """Table I's metrics for one controller on one system."""

    name: str
    clean: RobustnessResult
    lipschitz: Optional[float]

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "safe_rate": self.clean.safe_rate,
            "energy": self.clean.mean_energy,
            "lipschitz": self.lipschitz,
        }


def evaluate_controllers(
    system: ControlSystem,
    controllers: Dict[str, Controller],
    samples: Optional[int] = None,
    seed: int = 0,
    config: Optional[EvaluationConfig] = None,
) -> Dict[str, ControllerMetrics]:
    """Evaluate every named controller on the same sampled initial states.

    The initial states are drawn from ``get_rng(seed)``; each controller's
    clean rollouts then run on a fresh ``get_rng(seed + 1)``, so every
    controller sees the same states and the same disturbance stream.
    ``config`` supplies ``batch_size`` and the default ``samples``; an
    explicitly passed ``samples`` wins over it.
    """

    config = config if config is not None else EvaluationConfig()
    samples = config.samples if samples is None else samples
    initial_states = sample_initial_states(system, samples, rng=get_rng(seed))
    return {
        name: ControllerMetrics(
            name=name,
            clean=evaluate_robustness(
                system,
                controller,
                rng=get_rng(seed + 1),
                initial_states=initial_states,
                batch_size=config.batch_size,
            ),
            lipschitz=controller_lipschitz(controller, system),
        )
        for name, controller in controllers.items()
    }


def metrics_to_table(title: str, metrics: Dict[str, ControllerMetrics]) -> ResultTable:
    """Render a Table-I-style result table (rows Sr / e / L, one column per controller)."""

    table = ResultTable(title, columns=list(metrics.keys()))
    table.add_row("Sr (%)", {name: 100.0 * metric.clean.safe_rate for name, metric in metrics.items()})
    table.add_row("e", {name: metric.clean.mean_energy for name, metric in metrics.items()})
    table.add_row("L", {name: metric.lipschitz for name, metric in metrics.items()})
    return table
