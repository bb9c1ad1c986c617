"""One budget per job, whichever entry point describes it.

A scenario records its training and verification budgets once
(``ScenarioSpec.train_budget`` / ``verify_budget``).  Every entry point
that trains or verifies must resolve the same budgets from them:

* verification: ``repro verify``, ``repro verify-sweep``, a bare
  ``VerifySweepJobSpec`` (the daemon's path) and the matrix's verify cell
  all build a ``SweepJob`` whose ``cache_config()["budgets"]`` agree;
* training: ``resolve_job(TrainJobSpec(system=s))`` resolves the config
  the matrix trains at ``budget_scale=1``.

The expensive work is stubbed: the verifications and trainings are
recorded, not run.
"""

import json

import pytest

import repro.scenarios.matrix as matrix_module
import repro.verification.sweep as sweep_module
from repro.cli import main
from repro.jobs.messages import MatrixJobSpec, TrainJobSpec, VerifySweepJobSpec
from repro.jobs.runner import expand_sweep_specs, resolve_job
from repro.scenarios import get_scenario, list_scenarios, make_scenario_system, run_scenario_matrix
from repro.verification.sweep import SweepJob, SweepJobResult, scenario_budgets

SCENARIOS = list_scenarios()


def _network(state_dim: int, control_dim: int):
    from repro.nn import MLP

    return MLP(state_dim, control_dim, hidden_sizes=(4,), seed=0)


@pytest.fixture
def saved_controller_dir(tmp_path):
    """One saved kappa_star per catalog scenario: ``{scenario: directory}``."""

    from repro.nn.serialization import save_state_dict

    directories = {}
    for name in SCENARIOS:
        system = make_scenario_system(name)
        directory = tmp_path / name
        directory.mkdir()
        save_state_dict(_network(system.state_dim, system.control_dim), directory / "kappa_star.npz")
        (directory / "record.json").write_text(
            json.dumps({"controllers": {"kappa_star": "kappa_star.npz"}})
        )
        directories[name] = directory
    return directories


@pytest.fixture
def recorded_jobs(monkeypatch):
    """Replace every verification run with a recorder of its SweepJob."""

    jobs = []

    def record(job):
        jobs.append(job)
        return SweepJobResult(name=job.name, system=job.system, status="ok")

    monkeypatch.setattr(sweep_module, "run_sweep_job", record)
    return jobs


def _budgets(job):
    return job.cache_config()["budgets"]


def _matrix_jobs(monkeypatch):
    """The matrix's verify-cell SweepJob and train config per scenario."""

    configs = {}
    verify_jobs = {}

    def train(name, config, seed):
        system = make_scenario_system(name)
        network = _network(system.state_dim, system.control_dim)
        configs[name] = config
        return {
            "network": (network.architecture(), network.state_dict()),
            "experts": [],
            "dataset_size": 0,
            "stage_seconds": {},
            "seconds": 0.0,
        }

    def evaluate(name, controller, perturbation, samples, fraction, seed, student=None):
        return {"safe_rate": 1.0, "mean_energy": 0.0, "samples": samples, "seconds": 0.0}

    def verify(job):
        verify_jobs[job.system] = job
        return SweepJobResult(name=job.name, system=job.system, status="ok")

    monkeypatch.setattr(matrix_module, "_train_task", train)
    monkeypatch.setattr(matrix_module, "_evaluate_task", evaluate)
    monkeypatch.setattr(matrix_module, "_verify_task", verify)
    run_scenario_matrix(MatrixJobSpec(perturbations=("none",), samples=1, jobs=1))
    return verify_jobs, configs


def test_every_verify_path_resolves_the_same_budgets(
    saved_controller_dir, recorded_jobs, monkeypatch, capsys
):
    matrix_jobs, _ = _matrix_jobs(monkeypatch)
    for name in SCENARIOS:
        directory = saved_controller_dir[name]
        recorded_jobs.clear()
        assert main(["verify", "--system", name, "--controller-dir", str(directory)]) == 0
        assert main(["verify-sweep", "--system", name, "--controller-dir", str(directory)]) == 0
        verify_cli, sweep_cli = recorded_jobs
        (bare,) = expand_sweep_specs(VerifySweepJobSpec(specs=(f"{name}:{directory}",)))
        expected = _budgets(matrix_jobs[name])
        assert _budgets(verify_cli) == expected, name
        assert _budgets(sweep_cli) == expected, name
        assert _budgets(bare) == expected, name


def test_verify_budgets_are_the_scenario_hints():
    for name in SCENARIOS:
        hints = get_scenario(name).verify_budget
        job = SweepJob("j", name, {}, {}, **scenario_budgets(name))
        assert {key: getattr(job, key) for key in hints} == dict(hints), name


def test_explicit_verify_sweep_budgets_win(saved_controller_dir):
    directory = saved_controller_dir["cartpole"]
    (job,) = expand_sweep_specs(
        VerifySweepJobSpec(specs=(f"cartpole:{directory}",), degree=4, max_partitions=8)
    )
    budgets = _budgets(job)
    assert budgets["degree"] == 4 and budgets["max_partitions"] == 8
    assert budgets["target_error"] == 0.8  # the scenario hint fills the rest


def test_train_job_resolves_the_matrix_train_config(monkeypatch):
    _, matrix_configs = _matrix_jobs(monkeypatch)
    for name in SCENARIOS:
        assert resolve_job(TrainJobSpec(system=name))["cocktail"] == matrix_configs[name], name
