"""The reusable job layer: CLI equivalence, digests, payload cacheability.

The refactor's contract (see ``docs/service.md``): ``repro train`` /
``evaluate`` / ``verify-sweep`` / ``scenarios run`` and the daemon execute
the *same* code through :mod:`repro.jobs.runner`, so

* a job resolved from a spec produces the exact store digest the CLI
  writes (an earlier CLI train is *restored* by a job submission);
* CLI output and error messages are byte-identical to the pre-refactor
  commands (spec-resolution failures carry the historical text);
* a matrix executed through the job layer serialises the byte-identical
  CSV of a direct ``run_scenario_matrix`` call.
"""

import json

import pytest

from repro.cli import main
from repro.jobs.messages import (
    EvaluateJobSpec,
    MatrixJobSpec,
    TrainJobSpec,
    VerifySweepJobSpec,
)
from repro.jobs.runner import (
    JobSpecError,
    execute_evaluate,
    execute_job,
    execute_matrix,
    expand_sweep_specs,
    job_key,
    resolve_job,
    sweep_payload,
)

TINY_TRAIN = ["--mixing-epochs", "1", "--mixing-steps", "64", "--distill-epochs", "2",
              "--dataset-size", "64", "--eval-samples", "8"]
TINY_TRAIN_SPEC = dict(mixing_epochs=1, mixing_steps=64, distill_epochs=2,
                       dataset_size=64, eval_samples=8)

MATRIX_KWARGS = dict(scenarios=["pendulum"], perturbations=("none", "noise"),
                     samples=4, train=False, verify=False, seed=0)
MATRIX_SPEC = MatrixJobSpec(scenarios=("pendulum",), perturbations=("none", "noise"),
                            samples=4, train=False, verify=False, seed=0)


@pytest.fixture
def saved_controller_dir(tmp_path):
    """A hand-crafted save with exactly one controller, no training."""

    from repro.nn import MLP
    from repro.nn.serialization import save_state_dict

    directory = tmp_path / "ctrl"
    directory.mkdir()
    save_state_dict(MLP(2, 1, hidden_sizes=(4,)), directory / "kappa_star.npz")
    (directory / "record.json").write_text(
        json.dumps({"controllers": {"kappa_star": "kappa_star.npz"}})
    )
    return directory


class TestTrainDigestSharing:
    def test_cli_train_is_restored_by_an_identical_job(self, tmp_path, capsys):
        """The job layer resolves to the exact digest the CLI recorded."""

        from repro.experiments import RunStore

        run_dir = tmp_path / "store"
        out = tmp_path / "out"
        code = main(["train", "--system", "pendulum", "--output", str(out),
                     "--run-dir", str(run_dir), *TINY_TRAIN])
        assert code == 0
        assert "recorded the run" in capsys.readouterr().out

        store = RunStore(run_dir)
        spec = TrainJobSpec(system="pendulum", **TINY_TRAIN_SPEC)
        said = []
        payload, cacheable = execute_job(spec, store=store, say=said.append)
        assert cacheable
        assert "restored" not in payload, "job payloads serve identical bytes forever"
        assert payload["metrics"], "a restored train still reports its recorded metrics"
        assert any("restored saved controllers" in line for line in said)

    def test_output_path_is_not_part_of_the_job_identity(self, tmp_path):
        from repro.experiments import RunStore

        store = RunStore(tmp_path / "store")
        base = dict(system="pendulum", **TINY_TRAIN_SPEC)
        with_output = TrainJobSpec(output=str(tmp_path / "a"), **base)
        without = TrainJobSpec(**base)
        assert job_key(store, with_output).digest == job_key(store, without).digest
        reseeded = TrainJobSpec(seed=7, **base)
        assert job_key(store, reseeded).digest != job_key(store, without).digest


class TestEvaluateParity:
    def test_job_output_matches_the_cli_byte_for_byte(self, saved_controller_dir, capsys):
        code = main(["evaluate", "--system", "pendulum",
                     "--controller-dir", str(saved_controller_dir),
                     "--samples", "8", "--seed", "3"])
        assert code == 0
        cli_out = capsys.readouterr().out

        said = []
        payload = execute_evaluate(
            EvaluateJobSpec(system="pendulum", controller_dir=str(saved_controller_dir),
                            samples=8, seed=3),
            say=said.append,
        )
        assert "\n".join(said) + "\n" == cli_out
        assert 0.0 <= payload["safe_rate"] <= 1.0

    def test_resolution_digests_the_weights_not_the_path(self, tmp_path, saved_controller_dir):
        import shutil

        from repro.experiments import RunStore

        copy = tmp_path / "elsewhere"
        shutil.copytree(saved_controller_dir, copy)
        store = RunStore(tmp_path / "store")
        original = EvaluateJobSpec(system="pendulum", controller_dir=str(saved_controller_dir))
        moved = EvaluateJobSpec(system="pendulum", controller_dir=str(copy))
        assert job_key(store, original).digest == job_key(store, moved).digest
        different = EvaluateJobSpec(system="pendulum", controller_dir=str(copy), samples=7)
        assert job_key(store, different).digest != job_key(store, original).digest

    def test_missing_controllers_keep_the_cli_message(self, tmp_path):
        spec = EvaluateJobSpec(system="pendulum", controller_dir=str(tmp_path / "void"))
        with pytest.raises(JobSpecError) as excinfo:
            execute_evaluate(spec)
        assert f"no saved controllers found in {tmp_path / 'void'}" in str(excinfo.value)


class TestSweepSpecErrors:
    """Every historical CLI error survives as the JobSpecError text."""

    def _error(self, *specs):
        with pytest.raises(JobSpecError) as excinfo:
            expand_sweep_specs(VerifySweepJobSpec(specs=specs))
        return str(excinfo.value)

    def _cli_error(self, *specs):
        argv = ["verify-sweep"]
        for spec in specs:
            argv += ["--spec", spec]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        return excinfo.value.code

    def test_malformed_spec_matches_cli(self):
        message = self._error("too:many:colons:here")
        assert message == self._cli_error("too:many:colons:here")
        assert "expected SYSTEM:DIR[:CONTROLLER]" in message

    def test_unknown_system_matches_cli(self, tmp_path):
        entry = f"quadrotor:{tmp_path}:kappa_star"
        assert self._error(entry) == self._cli_error(entry)

    def test_unreadable_record_matches_cli(self, tmp_path):
        entry = f"pendulum:{tmp_path / 'void'}"
        message = self._error(entry)
        assert message == self._cli_error(entry)
        assert "cannot read" in message

    def test_record_without_controllers_matches_cli(self, tmp_path):
        (tmp_path / "record.json").write_text(json.dumps({"controllers": {}}))
        entry = f"pendulum:{tmp_path}"
        message = self._error(entry)
        assert message == self._cli_error(entry)
        assert "records no controllers" in message


class _StubReport:
    num_verified = 1
    num_failed = 0

    def __init__(self, records):
        self._records = records

    def as_records(self):
        return self._records


class TestSweepPayload:
    SPEC = VerifySweepJobSpec(specs=("pendulum:somewhere",))

    def test_strips_wall_clock_and_caches_clean_reports(self):
        report = _StubReport([{"job": "a", "status": "ok", "elapsed_seconds": 1.25}])
        payload, cacheable = sweep_payload(self.SPEC, report)
        assert cacheable
        assert payload["records"] == [{"job": "a", "status": "ok"}]

    def test_errors_are_never_cached(self):
        report = _StubReport([{"job": "a", "status": "error", "elapsed_seconds": 0.1}])
        _, cacheable = sweep_payload(self.SPEC, report)
        assert not cacheable

    def test_time_budget_truncation_is_never_cached(self):
        spec = VerifySweepJobSpec(specs=("pendulum:somewhere",), time_budget=1.0)
        record = {"job": "a", "status": "ok", "reach_status": "resource-exhausted"}
        _, cacheable = sweep_payload(spec, _StubReport([record]))
        assert not cacheable
        # Without a time budget the same truncation is deterministic: cache it.
        _, cacheable = sweep_payload(self.SPEC, _StubReport([dict(record)]))
        assert cacheable


class TestMatrixEquivalence:
    def test_job_layer_csv_is_byte_identical_to_direct_run(self, tmp_path):
        from repro.scenarios import run_scenario_matrix

        # Store-backed rows carry no wall-clock columns, so two independent
        # runs serialise identical bytes -- the byte-identity guarantee the
        # daemon inherits by routing through the same layer.
        direct = run_scenario_matrix(run_dir=tmp_path / "a", **MATRIX_KWARGS)
        through_jobs = execute_matrix(MATRIX_SPEC, run_dir=tmp_path / "b")
        a = direct.to_csv(tmp_path / "direct.csv").read_bytes()
        b = through_jobs.to_csv(tmp_path / "jobs.csv").read_bytes()
        assert a == b

    def test_resolution_is_the_matrix_manifest(self):
        from repro.scenarios.matrix import matrix_manifest

        assert resolve_job(MATRIX_SPEC) == matrix_manifest(
            scenarios=["pendulum"], perturbations=["none", "noise"],
            samples=4, fraction=0.1, train=False, verify=False,
            seed=0, budget_scale=1.0, train_overrides=None,
            verify_overrides=None,
        )

    def test_digest_is_stable_and_sensitive(self, tmp_path):
        from repro.experiments import RunStore

        store = RunStore(tmp_path / "store")
        assert job_key(store, MATRIX_SPEC).digest == job_key(store, MATRIX_SPEC).digest
        bigger = MatrixJobSpec(**dict(
            scenarios=("pendulum",), perturbations=("none", "noise"),
            samples=8, train=False, verify=False, seed=0,
        ))
        assert job_key(store, bigger).digest != job_key(store, MATRIX_SPEC).digest

    def test_unknown_scenario_keeps_the_registry_message(self):
        with pytest.raises(JobSpecError) as excinfo:
            resolve_job(MatrixJobSpec(scenarios=("quadrotor",), train=False, verify=False))
        assert "unknown scenario 'quadrotor'" in str(excinfo.value)
