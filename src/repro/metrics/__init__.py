"""Evaluation metrics and the table-building harness.

Everything the paper's tables report lives here.
:func:`evaluate_robustness` is the one Monte-Carlo estimator of the safe
control rate ``Sr`` and the control energy ``e`` (clean, under FGSM attack,
under measurement noise); :func:`evaluate_controllers` turns a dictionary of
named controllers into the rows of Table I (``Sr``, ``e`` and the Lipschitz
constant on shared initial states), and Table II is a loop over
:func:`evaluate_robustness`.  Control-signal traces (Fig. 2) complete the
set.
"""

from repro.metrics.robustness import RobustnessResult, evaluate_robustness
from repro.metrics.lipschitz import controller_lipschitz
from repro.metrics.signals import control_signal_trace
from repro.metrics.evaluation import ControllerMetrics, evaluate_controllers

__all__ = [
    "RobustnessResult",
    "evaluate_robustness",
    "controller_lipschitz",
    "control_signal_trace",
    "ControllerMetrics",
    "evaluate_controllers",
]
