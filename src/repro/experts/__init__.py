"""Expert controllers.

The paper assumes that for each plant "there are often multiple candidate
control methods (experts) available", model-based or neural.  This package
provides both kinds:

* model-based experts -- LQR on a numerical linearisation, polynomial state
  feedback (the controller of Sassi et al. used as κ2 of the 3-D system),
  feedback-linearising controllers for the Van der Pol oscillator and the
  pendulum, and a sampling-based MPC (not used by any default expert pair);
* neural experts -- DDPG-trained actors, matching how the paper obtains κ1
  and κ2 (DDPG with different hyper-parameters).

Every expert is a memoryless :class:`Controller`: it maps a batch of states
to a batch of controls through ``batch_control`` and keeps no state between
calls.

``make_default_experts`` builds the per-system expert pair used by the
examples and benchmarks: analytic experts by default (fast, deterministic)
or DDPG-trained ones when requested.
"""

from repro.experts.base import (
    Controller,
    FunctionController,
    LinearStateFeedback,
    NeuralController,
    RandomController,
    ZeroController,
)
from repro.experts.lqr import LQRController, linearize
from repro.experts.mpc import MPCController
from repro.experts.polynomial import PolynomialController
from repro.experts.feedback_linearization import VanDerPolFeedbackLinearization
from repro.experts.ddpg_expert import DDPGExpertSpec, train_ddpg_expert
from repro.experts.factory import make_default_experts

__all__ = [
    "Controller",
    "NeuralController",
    "FunctionController",
    "LinearStateFeedback",
    "ZeroController",
    "RandomController",
    "LQRController",
    "linearize",
    "MPCController",
    "PolynomialController",
    "VanDerPolFeedbackLinearization",
    "DDPGExpertSpec",
    "train_ddpg_expert",
    "make_default_experts",
]
