"""Verification demo: invariant set and reachability of distilled controllers.

Reproduces the mechanics behind Figs. 3 and 4 of the paper on the Van der
Pol oscillator:

1. distil a robust student ``kappa*`` and a direct student ``kappa_D`` from
   the same mixed teacher;
2. over-approximate each with a partitioned Bernstein surrogate;
3. compute the control invariant set (Fig. 3) and a bounded-horizon
   reachable set from a small initial box, reporting the verification time,
   partition count and verdict for each controller.

The robust student's smaller Lipschitz constant needs fewer partitions, so
its verification completes noticeably faster -- the paper's verifiability
claim.
"""

from __future__ import annotations

import argparse

from repro import (
    CocktailConfig,
    CocktailPipeline,
    DistillationConfig,
    MixingConfig,
    make_default_experts,
    make_system,
    set_global_seed,
)
from repro.systems.sets import Box
from repro.verification import verify_controller


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fast", action="store_true")
    parser.add_argument("--grid", type=int, default=20, help="invariant-set grid resolution")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    set_global_seed(args.seed)
    system = make_system("vanderpol")
    experts = make_default_experts(system)

    distillation = DistillationConfig(
        epochs=30 if args.fast else 150,
        dataset_size=800 if args.fast else 3000,
        hidden_sizes=(16, 16),
        l2_weight=5e-3,
        adversarial_probability=0.5,
        seed=args.seed,
    )
    config = CocktailConfig(
        mixing=MixingConfig(epochs=3 if args.fast else 10, steps_per_epoch=512, seed=args.seed),
        distillation=distillation,
        seed=args.seed,
    )
    result = CocktailPipeline(system, experts, config).run()

    reach_box = Box([0.05, 0.05], [0.15, 0.15])
    for name, controller in (("kappa_star", result.student), ("kappaD", result.direct_student)):
        report = verify_controller(
            system,
            controller.network,
            name=name,
            target_error=0.5,
            degree=3,
            max_partitions=4096,
            reach_initial_box=reach_box,
            reach_steps=15,
            invariant_grid=None if args.fast else args.grid,
        )
        summary = report.summary()
        print(f"== {name} ==")
        print(f"  Lipschitz constant    : {summary['lipschitz']:.2f}")
        print(f"  Bernstein partitions  : {summary['partitions']}")
        print(f"  reachability verdict  : {summary['reach_status']} in {summary['reach_seconds']:.2f}s")
        if "invariant_fraction" in summary:
            print(
                f"  invariant set         : {100 * summary['invariant_fraction']:.1f}% of X "
                f"in {summary['invariant_seconds']:.1f}s"
            )
        print(f"  total verification    : {summary['total_seconds']:.2f}s")
        print()


if __name__ == "__main__":
    main()
