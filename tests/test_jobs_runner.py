"""The job layer: CLI equivalence and job identity.

``repro train`` / ``evaluate`` / ``verify-sweep`` / ``scenarios run`` and
a library caller execute the *same* code through :mod:`repro.jobs.runner`
(see ``docs/architecture.md``), so

* a job resolved from a spec produces the exact store digest the CLI
  writes (an earlier CLI train is *restored* by ``execute_train``);
* ``resolve_job`` is the job's identity: what it computes, not where it
  runs or writes;
* CLI output and error messages are byte-identical to the pre-refactor
  commands (spec-resolution failures carry the historical text);
* a matrix executed through the job layer serialises the byte-identical
  CSV of a direct ``run_scenario_matrix`` call.
"""

import json
from dataclasses import replace

import pytest

from repro.cli import main
from repro.experiments.digest import config_digest
from repro.jobs.messages import (
    EvaluateJobSpec,
    MatrixJobSpec,
    TrainJobSpec,
    VerifySweepJobSpec,
)
from repro.jobs.runner import (
    JobSpecError,
    execute_evaluate,
    execute_matrix,
    execute_train,
    expand_sweep_specs,
    resolve_job,
)

TINY_TRAIN = ["--mixing-epochs", "1", "--mixing-steps", "64", "--distill-epochs", "2",
              "--dataset-size", "64", "--eval-samples", "8"]
TINY_TRAIN_SPEC = dict(mixing_epochs=1, mixing_steps=64, distill_epochs=2,
                       dataset_size=64, eval_samples=8)

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
        payload = execute_train(spec, store=store, say=said.append)
        assert payload["restored"]
        assert payload["metrics"], "a restored train still reports its recorded metrics"
        assert any("restored saved controllers" in line for line in said)

    def test_output_path_is_not_part_of_the_job_identity(self, tmp_path):
        base = dict(system="pendulum", **TINY_TRAIN_SPEC)
        with_output = TrainJobSpec(output=str(tmp_path / "a"), **base)
        without = TrainJobSpec(**base)
        assert config_digest(resolve_job(with_output)) == config_digest(resolve_job(without))
        reseeded = TrainJobSpec(seed=7, **base)
        assert config_digest(resolve_job(reseeded)) != config_digest(resolve_job(without))

    def test_record_digest_is_the_train_key_with_or_without_a_store(self, tmp_path):
        """One training has one identity: ``record.json`` names the store
        entry whether or not the run also wrote one."""

        from repro.experiments import RunStore

        spec = TrainJobSpec(system="pendulum", **TINY_TRAIN_SPEC)
        store = RunStore(tmp_path / "store")
        key = store.key("train", resolve_job(spec))
        execute_train(replace(spec, output=str(tmp_path / "alone")))
        execute_train(replace(spec, output=str(tmp_path / "stored")), store=store)
        for output in ("alone", "stored"):
            record = json.loads((tmp_path / output / "record.json").read_text())
            assert record["digest"] == key.digest, output
            assert "context" not in record
        assert store.contains(key)

    def test_nowhere_to_publish_saves_nothing(self, tmp_path, monkeypatch):
        """Without an output directory or a store the artefacts would be
        staged and deleted unseen, so nothing is saved; the payload is the
        one a saving run returns."""

        import tempfile

        from repro.utils import persistence

        spec = TrainJobSpec(system="pendulum", **TINY_TRAIN_SPEC)
        saved = execute_train(replace(spec, output=str(tmp_path / "out")))
        calls = []
        monkeypatch.setattr(persistence, "save_cocktail_result", lambda *a, **k: calls.append("save"))
        monkeypatch.setattr(tempfile, "mkdtemp", lambda *a, **k: calls.append("mkdtemp"))
        payload = execute_train(spec)
        assert calls == []
        assert payload == saved
        assert payload["metrics"] and not payload["restored"]

    def test_negative_eval_batch_size_is_rejected_before_training(self, monkeypatch):
        import repro

        def no_training(*args, **kwargs):
            raise AssertionError("a bad spec must not reach training")

        monkeypatch.setattr(repro, "CocktailPipeline", no_training)
        spec = TrainJobSpec(system="pendulum", eval_batch_size=-3, **TINY_TRAIN_SPEC)
        with pytest.raises(ValueError, match="batch_size must be positive"):
            resolve_job(spec)
        with pytest.raises(ValueError, match="batch_size must be positive"):
            execute_train(spec)


#: (spec field, explicit value, where the resolved CocktailConfig keeps it).
TRAIN_BUDGETS = [
    ("mixing_epochs", 2, ("mixing", "epochs")),
    ("mixing_steps", 96, ("mixing", "steps_per_epoch")),
    ("num_envs", 3, ("mixing", "num_envs")),
    ("distill_epochs", 4, ("distillation", "epochs")),
    ("dataset_size", 80, ("distillation", "dataset_size")),
    ("train_batch_size", 5, ("distillation", "train_batch_size")),
    ("eval_samples", 9, ("evaluation", "samples")),
    ("eval_batch_size", 6, ("evaluation", "batch_size")),
]


class TestTrainResolution:
    """Resolution is where a train job's budgets become its identity."""

    def test_every_optional_spec_field_is_a_budget(self):
        from dataclasses import fields

        optional = [item.name for item in fields(TrainJobSpec) if item.default is None]
        assert sorted(optional) == sorted(name for name, _, _ in TRAIN_BUDGETS
                                          if name != "eval_batch_size")

    @pytest.mark.parametrize("name, value, path", TRAIN_BUDGETS,
                             ids=[name for name, _, _ in TRAIN_BUDGETS])
    def test_explicit_budget_reaches_the_config_and_the_digest(self, name, value, path):
        default = resolve_job(TrainJobSpec(system="pendulum"))
        explicit = resolve_job(TrainJobSpec(system="pendulum", **{name: value}))
        section, attribute = path
        assert getattr(getattr(explicit["cocktail"], section), attribute) == value
        assert getattr(getattr(default["cocktail"], section), attribute) != value
        assert config_digest(explicit) != config_digest(default)

    @pytest.mark.parametrize("system", ["3d", "acc", "cartpole", "pendulum", "vanderpol"])
    def test_unset_budgets_take_the_scenario_hints(self, system):
        from repro import CocktailConfig
        from repro.scenarios import resolve_scenario

        scenario, _ = resolve_scenario(system)
        resolved = resolve_job(TrainJobSpec(system=system, seed=4))
        assert resolved["system"] == scenario.name
        assert resolved["params"] == dict(scenario.default_params)
        assert resolved["cocktail"] == CocktailConfig.from_budget_hints(scenario.train_budget, seed=4)

    def test_unknown_system_is_a_spec_error(self):
        with pytest.raises(JobSpecError, match="unknown scenario 'quadrotor'"):
            resolve_job(TrainJobSpec(system="quadrotor"))


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

        copy = tmp_path / "elsewhere"
        shutil.copytree(saved_controller_dir, copy)
        original = EvaluateJobSpec(system="pendulum", controller_dir=str(saved_controller_dir))
        moved = EvaluateJobSpec(system="pendulum", controller_dir=str(copy))
        assert config_digest(resolve_job(original)) == config_digest(resolve_job(moved))
        different = EvaluateJobSpec(system="pendulum", controller_dir=str(copy), samples=7)
        assert config_digest(resolve_job(different)) != config_digest(resolve_job(original))

    @pytest.mark.parametrize(
        "change",
        [dict(perturbation="noise"), dict(fraction=0.2), dict(samples=7),
         dict(batch_size=4), dict(seed=1), dict(controller="kappa_d")],
        ids=lambda change: next(iter(change)),
    )
    def test_every_computing_field_changes_the_digest(self, saved_controller_dir, change):
        from repro.nn import MLP
        from repro.nn.serialization import save_state_dict

        save_state_dict(MLP(2, 1, hidden_sizes=(5,)), saved_controller_dir / "kappa_d.npz")
        (saved_controller_dir / "record.json").write_text(json.dumps({"controllers": {
            "kappa_star": "kappa_star.npz", "kappa_d": "kappa_d.npz"}}))
        base = dict(system="pendulum", controller_dir=str(saved_controller_dir))
        original = resolve_job(EvaluateJobSpec(**base))
        changed = resolve_job(EvaluateJobSpec(**base, **change))
        assert config_digest(changed) != config_digest(original)

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


class TestMatrixEquivalence:
    def test_job_layer_csv_is_byte_identical_to_direct_run(self, tmp_path):
        from repro.scenarios import run_scenario_matrix

        # Store-backed rows carry no wall-clock columns, so two independent
        # runs serialise identical bytes.
        direct = run_scenario_matrix(replace(MATRIX_SPEC, jobs=1), run_dir=tmp_path / "a")
        through_jobs = execute_matrix(MATRIX_SPEC, run_dir=tmp_path / "b")
        a = direct.to_csv(tmp_path / "direct.csv").read_bytes()
        b = through_jobs.to_csv(tmp_path / "jobs.csv").read_bytes()
        assert a == b

    def test_resolution_is_the_matrix_manifest(self):
        from repro.scenarios.matrix import matrix_manifest

        assert resolve_job(MATRIX_SPEC) == matrix_manifest(MATRIX_SPEC) == {
            "scenarios": ["pendulum"], "perturbations": ["none", "noise"],
            "samples": 4, "fraction": 0.1, "train": False, "verify": False,
            "seed": 0, "budget_scale": 1.0, "train_overrides": {},
            "verify_overrides": {},
        }

    def test_digest_is_stable_and_sensitive(self):
        assert config_digest(resolve_job(MATRIX_SPEC)) == config_digest(resolve_job(MATRIX_SPEC))
        bigger = MatrixJobSpec(**dict(
            scenarios=("pendulum",), perturbations=("none", "noise"),
            samples=8, train=False, verify=False, seed=0,
        ))
        assert config_digest(resolve_job(bigger)) != config_digest(resolve_job(MATRIX_SPEC))

    def test_pool_width_is_not_part_of_the_identity(self):
        assert resolve_job(replace(MATRIX_SPEC, jobs=3)) == resolve_job(MATRIX_SPEC)

    @pytest.mark.parametrize(
        "change",
        [dict(scenarios=("vanderpol",)), dict(perturbations=("none",)), dict(samples=5),
         dict(fraction=0.2), dict(train=True), dict(verify=True), dict(seed=1),
         dict(budget_scale=0.5), dict(train_overrides={"mixing_epochs": 1}),
         dict(verify_overrides={"degree": 2})],
        ids=lambda change: next(iter(change)),
    )
    def test_every_grid_field_changes_the_digest(self, change):
        changed = resolve_job(replace(MATRIX_SPEC, **change))
        assert config_digest(changed) != config_digest(resolve_job(MATRIX_SPEC))

    def test_empty_scenarios_resolve_to_the_whole_catalog(self):
        from repro.scenarios import list_scenarios

        catalog = replace(MATRIX_SPEC, scenarios=())
        spelled_out = replace(MATRIX_SPEC, scenarios=tuple(list_scenarios()))
        assert resolve_job(catalog)["scenarios"] == list_scenarios()
        assert config_digest(resolve_job(catalog)) == config_digest(resolve_job(spelled_out))

    def test_unknown_scenario_keeps_the_registry_message(self):
        with pytest.raises(JobSpecError) as excinfo:
            resolve_job(MatrixJobSpec(scenarios=("quadrotor",), train=False, verify=False))
        assert "unknown scenario 'quadrotor'" in str(excinfo.value)
