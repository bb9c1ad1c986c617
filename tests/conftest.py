"""Shared fixtures for the test suite.

All fixtures use tiny training budgets: the goal of the unit/integration
tests is correctness of the machinery, not paper-scale results (those are
produced by the benchmark harnesses).
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

# Allow running the tests without installing the package (e.g. straight from
# a source checkout): put src/ on the path if the package is not importable.
_SRC = Path(__file__).resolve().parents[1] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.experts import make_default_experts  # noqa: E402
from repro.systems import CartPole, ThreeDimensionalSystem, VanDerPolOscillator  # noqa: E402


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "scenario_smoke: fast train->evaluate->verify cell for every registered scenario "
        "(the `make scenario-smoke` selection)",
    )


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def vanderpol():
    return VanDerPolOscillator()


@pytest.fixture
def threed():
    return ThreeDimensionalSystem()


@pytest.fixture
def cartpole():
    return CartPole()


@pytest.fixture
def vanderpol_experts(vanderpol):
    return make_default_experts(vanderpol)


@pytest.fixture
def threed_experts(threed):
    return make_default_experts(threed)


@pytest.fixture
def cartpole_experts(cartpole):
    return make_default_experts(cartpole)


@pytest.fixture(params=["vanderpol", "threed", "cartpole"])
def any_system(request, vanderpol, threed, cartpole):
    """Parametrised fixture looping over all three test systems."""

    return {"vanderpol": vanderpol, "threed": threed, "cartpole": cartpole}[request.param]
