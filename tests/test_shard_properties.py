"""Property tests of the matrix shard protocol (Hypothesis).

The shard protocol's correctness rests on three algebraic facts, checked
here over arbitrary grid sizes and shard counts rather than hand-picked
examples:

* **partition** -- for any unit and any ``N``, exactly one of the shards
  ``1/N .. N/N`` owns it (the dealing of plan cells into units, and the
  student-sharing property, live in ``test_matrix_executor.py``);
* **canonical plan** -- :func:`plan_matrix_cells` enumerates the grid in
  the exact row order of a single-process run (all evaluate cells in
  scenario/controller/perturbation order, then one verify cell per
  scenario), which is what makes positions a stable shard currency;
* **merge invariance** -- the merged report is byte-identical to the
  single-process run no matter how many shards ran or in which order they
  completed (evaluation is mocked to keep the property cheap; the real
  engines are pinned by the integration pack in ``test_matrix_shard.py``).
"""

import csv
import io
import tempfile
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.scenarios.matrix as matrix_module
from repro.jobs.messages import MatrixJobSpec
from repro.scenarios import (
    MatrixCell,
    ShardSpec,
    merge_matrix_run,
    plan_matrix_cells,
    run_scenario_matrix,
)

shard_counts = st.integers(min_value=1, max_value=12)
positions = st.integers(min_value=0, max_value=300)


class TestShardSpecValidation:
    @pytest.mark.parametrize(
        "index, count",
        [(0, 0), (3, 2), (0, 4), (-1, 3), (1, 0), (0, 1), (2, 1), (5, 4), (1, -2), (-3, -3),
         (65, 64)],
    )
    def test_out_of_range_specs_raise_with_reason(self, index, count):
        with pytest.raises(ValueError, match="bad shard spec"):
            ShardSpec(index, count)


class TestPartitionProperties:
    @given(position=positions, count=shard_counts)
    @settings(max_examples=200, deadline=None)
    def test_every_position_is_owned_by_exactly_one_shard(self, position, count):
        owners = [index for index in range(1, count + 1) if ShardSpec(index, count).owns(position)]
        assert len(owners) == 1

    @given(count=shard_counts)
    @settings(max_examples=30, deadline=None)
    def test_single_shard_owns_everything(self, count):
        spec = ShardSpec(1, 1)
        assert all(spec.owns(p) for p in range(count * 10))


class TestCanonicalPlan:
    SCENARIOS = ("vanderpol", "pendulum", "cartpole", "acc")

    @given(
        names=st.lists(st.sampled_from(SCENARIOS), min_size=1, max_size=3, unique=True),
        perturbations=st.lists(
            st.sampled_from(("none", "attack", "noise")), min_size=1, max_size=3, unique=True
        ),
        train=st.booleans(),
        verify=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_plan_shape_and_order(self, names, perturbations, train, verify):
        cells = plan_matrix_cells(
            names, perturbations=tuple(perturbations), train=train, verify=verify
        )
        evaluate = [c for c in cells if c.kind == "evaluate"]
        verify_cells = [c for c in cells if c.kind == "verify"]
        # Verify cells exist iff a student is both trained and verified,
        # one per scenario, and always after every evaluate cell.
        assert bool(verify_cells) == (train and verify and bool(names))
        if verify_cells:
            assert [c.scenario for c in verify_cells] == list(names)
            assert cells[: len(evaluate)] == evaluate
        # Every evaluate cell's perturbation block is contiguous and in
        # the requested order; kappa_star appears exactly when training.
        for cell in evaluate:
            assert cell.perturbation in perturbations
        controllers = {name: [] for name in names}
        for cell in evaluate:
            if cell.controller not in controllers[cell.scenario]:
                controllers[cell.scenario].append(cell.controller)
        for name in names:
            assert ("kappa_star" in controllers[name]) == train
            expected = [c for c in controllers[name] for _ in perturbations]
            block = [c.controller for c in evaluate if c.scenario == name]
            assert block == expected

    @given(count=shard_counts)
    @settings(max_examples=12, deadline=None)
    def test_plan_positions_partition_across_shards(self, count):
        cells = plan_matrix_cells(["vanderpol", "pendulum"], perturbations=("none", "noise"))
        seen = []
        for index in range(1, count + 1):
            seen.extend(ShardSpec(index, count).owned(cells))
        assert sorted(seen) == list(range(len(cells)))


def _fake_evaluate(system, controller, perturbation="none", fraction=0.1, samples=32, rng=0, **_):
    """Deterministic stand-in for evaluate_robustness (pure in its args)."""

    name = getattr(controller, "name", type(controller).__name__)
    basis = f"{type(system).__name__}:{name}:{perturbation}:{samples}:{rng}"
    signature = sum(ord(ch) * (i + 1) for i, ch in enumerate(basis))
    return SimpleNamespace(
        safe_rate=round((signature % 97) / 96.0, 6),
        mean_energy=round((signature % 1013) / 7.0, 6),
        samples=samples,
    )


def _rows_csv(report):
    buffer = io.StringIO()
    keys = []
    for row in report.rows:
        for key in row:
            if key not in keys:
                keys.append(key)
    writer = csv.DictWriter(buffer, fieldnames=keys, restval="")
    writer.writeheader()
    writer.writerows(report.rows)
    return buffer.getvalue()


class TestMergeInvariance:
    SPEC = MatrixJobSpec(
        scenarios=["vanderpol", "pendulum"],
        perturbations=("none", "noise"),
        samples=4,
        train=False,
        verify=False,
        seed=0,
        jobs=1,
    )

    @given(count=st.integers(min_value=1, max_value=5), data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_merge_is_invariant_to_shard_count_and_completion_order(self, count, data):
        order = data.draw(st.permutations(list(range(1, count + 1))))
        with mock.patch.object(matrix_module, "evaluate_robustness", _fake_evaluate):
            with tempfile.TemporaryDirectory() as tmp:
                reference = run_scenario_matrix(self.SPEC, run_dir=Path(tmp) / "ref")
                reference_csv = _rows_csv(reference)
                shard_dir = Path(tmp) / "sharded"
                for index in order:
                    run_scenario_matrix(self.SPEC, run_dir=shard_dir, shard=ShardSpec(index, count))
                merged = merge_matrix_run(shard_dir)
        assert merged.rows == reference.rows
        assert _rows_csv(merged) == reference_csv


class TestMatrixCellValue:
    def test_cells_are_hashable_frozen_records(self):
        cell = MatrixCell("evaluate", "vanderpol", "kappa1", "none")
        assert cell == MatrixCell("evaluate", "vanderpol", "kappa1", "none")
        assert len({cell, MatrixCell("verify", "vanderpol", "kappa_star")}) == 2
        with pytest.raises(AttributeError):
            cell.kind = "verify"
