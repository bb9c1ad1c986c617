"""Ablation: effect of the adversarial probability p and the L2 weight lambda.

Not a table in the paper: the two knobs are those of the paper's
robust-distillation step (Algorithm 1 lines 11-15).  The ablation sweeps
(p, lambda) on the oscillator with a shared teacher dataset and reports the
student's Lipschitz constant and attacked safe rate, confirming the
mechanism the paper relies on: more adversarial training / regularisation
drives L down and robustness up relative to plain distillation.
"""

from __future__ import annotations

from benchmarks.conftest import run_once
from repro.core.config import DistillationConfig
from repro.core.distillation import DirectDistiller, RobustDistiller, collect_distillation_dataset
from repro.metrics import evaluate_robustness
from repro.nn.lipschitz import network_lipschitz
from repro.utils.tables import ResultTable

SWEEP = [
    ("direct", None, None),
    ("p=0.25, lam=1e-3", 0.25, 1e-3),
    ("p=0.50, lam=5e-3", 0.50, 5e-3),
    ("p=0.75, lam=1e-2", 0.75, 1e-2),
]


def test_ablation_distillation(benchmark, scale, pipeline_results):
    bundle = pipeline_results["vanderpol"]
    system = bundle["system"]
    teacher = bundle["result"].mixed_controller
    dataset = collect_distillation_dataset(
        system, teacher, size=scale.distill_dataset // 2, trajectory_fraction=0.6, rng=0
    )

    def sweep():
        rows = {}
        for label, probability, l2_weight in SWEEP:
            shared = dict(hidden_sizes=(32, 32), epochs=scale.distill_epochs, batch_size=128, seed=0)
            if probability is None:
                distiller = DirectDistiller(system, config=DistillationConfig(l2_weight=0.0, **shared), rng=0)
            else:
                distiller = RobustDistiller(
                    system,
                    config=DistillationConfig(
                        adversarial_probability=probability,
                        l2_weight=l2_weight,
                        perturbation_fraction=0.1,
                        **shared,
                    ),
                    rng=0,
                )
            student = distiller.distill(dataset)
            attacked = evaluate_robustness(
                system, student, perturbation="attack", fraction=0.1, samples=scale.perturbed_samples, rng=0
            )
            rows[label] = {
                "L": network_lipschitz(student.network),
                "Sr attack (%)": 100.0 * attacked.safe_rate,
                "e attack": attacked.mean_energy,
            }
        return rows

    rows = run_once(benchmark, sweep)

    table = ResultTable(f"Distillation ablation (oscillator, {scale.name} scale)", columns=list(rows))
    for metric in ("L", "Sr attack (%)", "e attack"):
        table.add_row(metric, {label: values[metric] for label, values in rows.items()})
    print()
    print(table)

    # The strongest regularisation setting must not have a larger Lipschitz
    # constant than plain distillation.
    assert rows["p=0.75, lam=1e-2"]["L"] <= rows["direct"]["L"]
