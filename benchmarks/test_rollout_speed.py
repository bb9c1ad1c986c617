"""Micro-benchmark: batched vs. scalar Monte-Carlo rollout throughput.

Every table and figure in the paper aggregates hundreds of closed-loop
rollouts, so rollout throughput bounds the wall-clock of the whole benchmark
suite.  This harness times the same ``N``-trajectory evaluation done two
ways -- ``N`` scalar :func:`repro.systems.rollout` calls versus one
:func:`repro.systems.rollout_batch` call -- records the ratio to
``results/rollout_speed.csv`` so future PRs can track the trajectory, and
asserts the batched engine keeps at least the :data:`MIN_SPEEDUP` floor
(ratcheted from the original 3x to 5x; observed ~10-40x depending on the
plant and controller).
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.experts import NeuralController
from repro.nn.network import MLP
from repro.systems import make_system
from repro.systems.simulation import rollout, rollout_batch, sample_initial_states

OUTPUT_DIR = Path(__file__).resolve().parent / "results"

BATCH = 128
REPEATS = 3
#: Minimum batched-vs-scalar speedup, ratcheted from the original 3.0.
MIN_SPEEDUP = 5.0


def _time(function) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        function()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.parametrize("system_name", ["vanderpol", "3d", "cartpole"])
def test_rollout_batch_speedup(system_name):
    system = make_system(system_name)
    controller = NeuralController(
        MLP(system.state_dim, system.control_dim, hidden_sizes=(32, 32), seed=0)
    )
    initial_states = sample_initial_states(system, BATCH, rng=0)

    def scalar_sweep():
        generator = np.random.default_rng(0)
        for initial_state in initial_states:
            rollout(system, controller, initial_state, rng=generator)

    def batched_sweep():
        rollout_batch(system, controller, initial_states, rng=np.random.default_rng(0))

    scalar_time = _time(scalar_sweep)
    batched_time = _time(batched_sweep)
    speedup = scalar_time / batched_time

    # The CSV is a committed record of the trajectory across PRs; refresh an
    # existing row only on demand (REPRO_RECORD=1) so routine test runs that
    # jitter the timings do not dirty the working tree, but always fill in a
    # system whose row is missing (e.g. when regenerating from scratch).
    record = os.environ.get("REPRO_RECORD", "") not in ("", "0")
    csv_path = OUTPUT_DIR / "rollout_speed.csv"
    header = "system,batch,horizon,scalar_seconds,batched_seconds,speedup\n"
    existing = csv_path.read_text() if csv_path.exists() else header
    if record or not any(row.startswith(f"{system_name},") for row in existing.splitlines()):
        OUTPUT_DIR.mkdir(exist_ok=True)
        line = (
            f"{system_name},{BATCH},{system.horizon},"
            f"{scalar_time:.6f},{batched_time:.6f},{speedup:.2f}\n"
        )
        rows = [
            row for row in existing.splitlines(keepends=True) if not row.startswith(f"{system_name},")
        ]
        csv_path.write_text("".join(rows) + line)

    print(
        f"\n{system_name}: {BATCH} rollouts x T={system.horizon}: "
        f"scalar {scalar_time * 1e3:.0f} ms, batched {batched_time * 1e3:.0f} ms "
        f"-> {speedup:.1f}x"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"batched rollout only {speedup:.1f}x faster than scalar on {system_name} "
        f"(floor is {MIN_SPEEDUP}x)"
    )
