"""Scenario catalog demo: register a custom plant, then run the matrix.

Two things the scenario subsystem gives you, in one script:

1. **Registration** -- a damped double integrator is defined from scratch
   (plant + expert pair + interval inclusion function) and registered with
   one ``register_scenario`` call.  That single call makes it available to
   ``make_system``, ``make_default_experts``, the verifier's interval
   models, and the ``(scenario x controller x perturbation)`` matrix
   runner -- no framework edits.
2. **The matrix** -- ``run_scenario_matrix`` fans evaluation cells across
   the batched rollout engine for the custom plant plus two catalog
   scenarios and prints the per-cell table.

Run with ``python examples/scenario_matrix.py`` (add ``--train`` to also
distil and verify a student per scenario; slower but exercises the whole
train -> evaluate -> verify cell).
"""

from __future__ import annotations

import argparse

import numpy as np

from repro import register_scenario, run_scenario_matrix
from repro.experts import LinearStateFeedback
from repro.scenarios import ScenarioSpec, unregister_scenario
from repro.systems import Box, ControlSystem, NoDisturbance
from repro.verification.intervals import Interval


class DoubleIntegrator(ControlSystem):
    """Acceleration-controlled point mass with viscous damping."""

    name = "double-integrator"

    def __init__(self, dt: float = 0.05, horizon: int = 100, damping: float = 0.1):
        self.damping = float(damping)
        super().__init__(
            state_dim=2,
            control_dim=1,
            safe_region=Box.symmetric(2.0, dimension=2),
            initial_set=Box.symmetric(1.0, dimension=2),
            control_bound=Box.symmetric(5.0, dimension=1),
            horizon=horizon,
            disturbance=NoDisturbance(2),
            dt=dt,
        )

    def dynamics_batch(self, states, controls, disturbances):
        states = np.atleast_2d(np.asarray(states, dtype=np.float64))
        controls = np.atleast_2d(np.asarray(controls, dtype=np.float64))
        disturbances = np.atleast_2d(np.asarray(disturbances, dtype=np.float64))
        position, velocity = states[:, 0], states[:, 1]
        u = controls[:, 0]
        next_states = np.stack(
            [position + self.dt * velocity, velocity + self.dt * (u - self.damping * velocity)],
            axis=1,
        )
        if disturbances.shape[-1] == self.state_dim:
            next_states = next_states + disturbances
        return next_states


def double_integrator_experts(system):
    kappa1 = LinearStateFeedback([[3.0, 3.5]], name="kappa1")  # stiff PD
    kappa2 = LinearStateFeedback([[0.8, 1.2]], name="kappa2")  # gentle PD
    return [kappa1, kappa2]


def double_integrator_interval(system, state, control, disturbance):
    position, velocity = state[..., 0], state[..., 1]
    u = control[..., 0]
    next_position = position + velocity.scale(system.dt)
    next_velocity = velocity.scale(1.0 - system.dt * system.damping) + u.scale(system.dt)
    result = Interval(
        np.stack([next_position.lower, next_velocity.lower], axis=-1),
        np.stack([next_position.upper, next_velocity.upper], axis=-1),
    )
    if disturbance.lower.shape[-1] == 2:
        result = result + disturbance
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--train", action="store_true", help="train + verify a student per scenario")
    parser.add_argument("--samples", type=int, default=16, help="rollouts per evaluation cell")
    parser.add_argument("--csv", default=None, help="optional path for the per-cell CSV")
    args = parser.parse_args()

    spec = ScenarioSpec(
        name="double-integrator",
        description="damped double integrator (registered by examples/scenario_matrix.py)",
        system_factory=DoubleIntegrator,
        expert_factory=double_integrator_experts,
        interval_dynamics=double_integrator_interval,
        train_budget=dict(mixing_epochs=2, mixing_steps=256, distill_epochs=25, dataset_size=400),
        verify_budget=dict(target_error=0.8, degree=2, max_partitions=256, reach_steps=5),
    )
    register_scenario(spec)
    print(f"registered scenario {spec.name!r}\n")

    try:
        report = run_scenario_matrix(
            scenarios=["double-integrator", "vanderpol", "pendulum"],
            samples=args.samples,
            train=args.train,
            verify=args.train,
            budget_scale=0.25,
            progress=print,
        )
    finally:
        unregister_scenario("double-integrator")

    print()
    print(report.table())
    if args.csv:
        path = report.to_csv(args.csv)
        print(f"wrote per-cell records to {path}")


if __name__ == "__main__":
    main()
