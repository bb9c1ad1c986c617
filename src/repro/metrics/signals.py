"""Control-signal traces under attack (Fig. 2 of the paper).

Fig. 2 plots the normalised control input ``u(t)`` of ``kappa_D`` versus
``kappa*`` while the system is under adversarial attack; the robustly
distilled controller's signal is visibly smoother and smaller.  This module
produces those series so the Fig. 2 benchmark can emit them as CSV.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.attacks.adversary import perturbation_budget
from repro.attacks.fgsm import FGSMAttack
from repro.experts.base import Controller
from repro.systems.base import ControlSystem
from repro.systems.simulation import rollout
from repro.utils.seeding import RngLike, get_rng


@dataclass
class SignalTrace:
    """One control-signal trajectory under attack."""

    controls: np.ndarray
    normalized: np.ndarray
    energy: float
    safe: bool

    def __len__(self) -> int:
        return len(self.controls)


def control_signal_trace(
    system: ControlSystem,
    controller: Controller,
    initial_state: Optional[Sequence[float]] = None,
    attack_fraction: float = 0.1,
    horizon: Optional[int] = None,
    rng: RngLike = None,
) -> SignalTrace:
    """Simulate one attacked trajectory and return its (normalised) control signal.

    The signal is normalised by the control bound so different systems plot
    on the same axis, matching the figure's y-axis convention.
    """

    generator = get_rng(rng)
    if initial_state is None:
        initial_state = system.initial_set.sample(generator)
    attack = FGSMAttack(controller, perturbation_budget(system, attack_fraction))
    trajectory = rollout(
        system,
        controller,
        initial_state,
        horizon=horizon,
        perturbation=attack,
        rng=generator,
        stop_on_violation=False,
    )
    controls = trajectory.controls[:, 0] if trajectory.controls.size else np.zeros(0)
    scale = float(np.max(np.abs(np.concatenate([system.control_bound.low, system.control_bound.high]))))
    normalized = controls / scale if scale > 0 else controls
    return SignalTrace(
        controls=controls,
        normalized=normalized,
        energy=trajectory.energy,
        safe=trajectory.safe,
    )


def compare_signal_traces(
    system: ControlSystem,
    controllers: Dict[str, Controller],
    attack_fraction: float = 0.1,
    horizon: Optional[int] = None,
    seed: int = 0,
) -> Dict[str, SignalTrace]:
    """Trace every controller from the *same* initial state under attack."""

    generator = get_rng(seed)
    initial_state = system.initial_set.sample(generator)
    traces = {}
    for name, controller in controllers.items():
        traces[name] = control_signal_trace(
            system,
            controller,
            initial_state=initial_state,
            attack_fraction=attack_fraction,
            horizon=horizon,
            rng=get_rng(seed + 1),
        )
    return traces
