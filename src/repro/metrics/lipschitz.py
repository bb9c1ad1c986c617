"""Lipschitz-constant reporting for arbitrary controllers.

Table I reports ``L`` for every controller that has a well-defined network
Lipschitz bound: the neural experts, ``kappa_D`` and ``kappa*``; linear
controllers get the norm of their gain; polynomial and other model-based
experts get a sampled estimate over the safe region; the mixed design
``A_W`` and the switching baseline ``A_S`` have no single constant (the
paper prints '-'), represented here as ``None``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.experts.base import Controller, LinearStateFeedback, NeuralController
from repro.experts.lqr import LQRController
from repro.nn.lipschitz import empirical_lipschitz, network_lipschitz
from repro.systems.base import ControlSystem
from repro.systems.simulation import batch_controls


def controller_lipschitz(controller: Controller, system: Optional[ControlSystem] = None) -> Optional[float]:
    """Best-available Lipschitz constant of a controller, or ``None``.

    Neural controllers use the paper's product-of-layer-norms bound; linear
    feedback uses the gain's spectral norm; any other expert (polynomial,
    feedback-linearising) gets a sampled estimate over the safe region
    (requires ``system``); everything else returns ``None`` (rendered as
    '-' in the tables).
    """

    # The mixed design A_W and the switching baseline A_S have no single
    # Lipschitz constant -- the paper prints '-' for them.
    from repro.baselines.switching import SwitchingController
    from repro.core.mixing import MixedController

    if isinstance(controller, (MixedController, SwitchingController)):
        return None

    network = getattr(controller, "network", None)
    if isinstance(controller, NeuralController) or (network is not None and hasattr(network, "layers")):
        return float(network_lipschitz(network if network is not None else controller.network))
    if isinstance(controller, (LinearStateFeedback, LQRController)):
        return float(np.linalg.norm(controller.gain, 2))
    if system is not None and isinstance(controller, Controller):
        # Polynomial experts and model-based experts without an analytic
        # constant (e.g. the feedback-linearising oscillator expert): a
        # finite-difference estimate over the safe region X.
        box = system.safe_region
        return empirical_lipschitz(
            lambda states: batch_controls(controller, states), box.low, box.high, epsilon=1e-4
        )
    return None
