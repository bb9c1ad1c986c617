"""The experts' array kernels against the per-row formulas they replace.

The nonlinear experts' one-state formulas, frozen in
``tests/expert_reference.py``, are the reference: every such expert's
``batch_control`` must return exactly their bits, since the rollouts, the
FGSM finite differences and the distillation labels all go through the
kernel.  The linear experts (LQR, linear state feedback) are one matmul, and
a multi-row matmul rounds differently from a one-row call on some rows, so
every catalog expert's kernel is pinned by digest at both ``N = 1`` and a
many-row ``N``.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from expert_reference import reference_controls
from repro.experts.base import Controller
from repro.experts.feedback_linearization import (
    PendulumFeedbackLinearization,
    VanDerPolFeedbackLinearization,
)
from repro.experts.polynomial import PolynomialController
from repro.scenarios import get_scenario, list_scenarios
from repro.systems import InvertedPendulum, ThreeDimensionalSystem, VanDerPolOscillator

#: sha256 prefix, per catalog scenario, over each default expert's controls on
#: 257 safe-region samples (seed 0): first every row called alone
#: (``N = 1``), then all rows in one call (``N = 257``); recorded when every
#: expert still had a scalar ``control`` beside its kernel, and for the three
#: LQR scenarios (3d, acc, cartpole) re-recorded when the SDA Riccati solver
#: replaced SciPy's.
CATALOG_CONTROL_DIGESTS = {
    "3d": "fccf639ca9a1aebe",
    "acc": "35d03a71f7c63aa2",
    "cartpole": "2ca123ad3c213072",
    "pendulum": "7b23338bf206ea68",
    "vanderpol": "f7c5adcee283aebe",
}


def _row_loop(expert: Controller, states) -> np.ndarray:
    return reference_controls(expert, states)


def _experts():
    return [
        (VanDerPolFeedbackLinearization(k1=4.0, k2=6.0, mu=1.0), VanDerPolOscillator()),
        (VanDerPolFeedbackLinearization(k1=2.5, k2=3.0, mu=1.7), VanDerPolOscillator()),
        (PendulumFeedbackLinearization(), InvertedPendulum()),
        (PolynomialController.default_three_dimensional(), ThreeDimensionalSystem()),
        (
            PolynomialController(
                [
                    [(0.5, (2, 1, 0)), (-1.25, (0, 0, 3)), (0.75, (1, 1, 1))],
                    [(-2.0, (0, 2, 0)), (0.1, (0, 0, 0))],
                ]
            ),
            ThreeDimensionalSystem(),
        ),
    ]


@pytest.mark.parametrize("index", range(len(_experts())))
def test_kernel_matches_row_loop_on_safe_region_samples(index):
    expert, system = _experts()[index]
    states = system.safe_region.sample(np.random.default_rng(index), count=100_000)
    np.testing.assert_array_equal(expert.batch_control(states), _row_loop(expert, states))


@pytest.mark.parametrize("index", range(len(_experts())))
def test_kernel_matches_row_loop_on_one_row(index):
    expert, system = _experts()[index]
    state = system.safe_region.sample(np.random.default_rng(10 + index), count=1)
    single = expert.batch_control(state)
    assert single.shape == _row_loop(expert, state).shape
    np.testing.assert_array_equal(single, _row_loop(expert, state))
    flat = expert.batch_control(state[0])
    assert flat.shape == single.shape
    np.testing.assert_array_equal(flat, single)


def test_vanderpol_kernel_squares_through_libm_pow():
    """Rows where ``s1 * s1`` and the scalar ``s1**2`` (libm ``pow``) round
    differently, enough to flip the control's last bit; an array ``s1**2``
    in the kernel fails here."""

    expert = VanDerPolFeedbackLinearization(k1=4.0, k2=6.0, mu=1.0)
    states = np.array(
        [
            [-0.866608361102112, 0.26903890068114444],
            [1.5571066176218546, -1.4818237857776584],
            [1.470896019879993, -1.2184382282988864],
        ]
    )
    np.testing.assert_array_equal(expert.batch_control(states), _row_loop(expert, states))


@pytest.mark.parametrize("name", list_scenarios())
def test_every_catalog_expert_has_its_own_kernel(name):
    spec = get_scenario(name)
    if spec.expert_factory is None:
        pytest.skip(f"{name} registers no expert factory")
    for expert in spec.make_experts(spec.make_system()):
        assert type(expert).batch_control is not Controller.batch_control, (
            f"{name}: {type(expert).__name__} falls back to the row loop"
        )


@pytest.mark.parametrize("name", sorted(CATALOG_CONTROL_DIGESTS))
def test_catalog_expert_controls_keep_their_bits(name):
    assert sorted(CATALOG_CONTROL_DIGESTS) == sorted(
        scenario for scenario in list_scenarios() if get_scenario(scenario).expert_factory is not None
    )
    spec = get_scenario(name)
    system = spec.make_system()
    states = system.safe_region.sample(np.random.default_rng(0), count=257)
    digest = hashlib.sha256()
    for expert in spec.make_experts(system):
        one_row = np.concatenate([expert.batch_control(states[i : i + 1]) for i in range(len(states))])
        digest.update(np.ascontiguousarray(one_row).tobytes())
        digest.update(np.ascontiguousarray(expert.batch_control(states)).tobytes())
    assert digest.hexdigest()[:16] == CATALOG_CONTROL_DIGESTS[name]
