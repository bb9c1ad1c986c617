"""Catalog smoke: a fast train -> evaluate -> verify cell for every scenario.

This is the ``make scenario-smoke`` target (selected by the
``scenario_smoke`` marker) and it also runs as part of the ordinary test
collection.  Budgets are deliberately tiny -- the assertion is that every
registered scenario flows through the whole pipeline and produces a
verification verdict, not that the student is strong.
"""

import csv

import pytest

from repro.jobs.messages import MatrixJobSpec
from repro.scenarios import list_scenarios, run_scenario_matrix

TINY_TRAIN = dict(
    mixing_epochs=1,
    mixing_steps=128,
    distill_epochs=10,
    dataset_size=200,
    eval_samples=16,
)
TINY_VERIFY = dict(target_error=1.0, degree=2, max_partitions=128, reach_steps=2)


@pytest.mark.scenario_smoke
def test_every_scenario_trains_evaluates_and_verifies(tmp_path):
    names = list_scenarios()
    assert len(names) >= 5

    report = run_scenario_matrix(
        MatrixJobSpec(
            samples=8,
            train=True,
            verify=True,
            jobs=1,
            seed=0,
            train_overrides=TINY_TRAIN,
            verify_overrides=TINY_VERIFY,
        ),
    )

    covered = {row["scenario"] for row in report.rows}
    assert covered == set(names)

    # Every scenario produced evaluation cells for the experts and the
    # trained student, under every perturbation regime.
    for name in names:
        evaluate_rows = [
            row for row in report.rows if row["scenario"] == name and row["cell"] == "evaluate"
        ]
        controllers = {row["controller"] for row in evaluate_rows}
        assert {"kappa1", "kappa2", "kappa_star"} <= controllers
        assert {row["perturbation"] for row in evaluate_rows} == {"none", "attack", "noise"}
        for row in evaluate_rows:
            assert 0.0 <= row["safe_rate"] <= 1.0
            assert row["mean_energy"] >= 0.0

    # Every scenario's student went through the batched verifier and came
    # back with a verdict (not an error).
    verify_rows = [row for row in report.rows if row["cell"] == "verify"]
    assert {row["scenario"] for row in verify_rows} == set(names)
    for row in verify_rows:
        assert row["status"] == "ok", row
        assert row.get("reach_status") in {"verified", "unsafe", "resource-exhausted"}

    # The cross-scenario CSV covers the whole catalog.
    path = report.to_csv(tmp_path / "matrix.csv")
    with path.open() as handle:
        records = list(csv.DictReader(handle))
    assert len(records) == len(report.rows)
    assert {record["scenario"] for record in records} == set(names)
