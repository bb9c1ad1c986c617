"""Resolve and execute job specs -- the job layer.

This module is the single execution path behind the CLI verbs (``repro
train`` / ``evaluate`` / ``verify-sweep`` / ``scenarios run``): each verb
builds a :mod:`repro.jobs.messages` spec and hands it here, so a library
caller and the command line run the same code.

``resolve``
    :func:`resolve_job` turns a declarative spec into its *resolved
    config* -- budget hints applied, scenarios canonicalised, controllers
    replaced by their weight digests -- the dictionary that defines the
    job's identity.  Resolution failures raise :class:`JobSpecError` with
    the same messages the CLI has always printed (the CLI converts them to
    ``SystemExit``).

``execute``
    ``execute_train`` / ``execute_evaluate`` / ``execute_verify_sweep`` /
    ``execute_matrix`` run the job, printing through an injectable ``say``
    so CLI output is byte-identical to the pre-refactor commands.
"""

from __future__ import annotations

import tempfile
from dataclasses import fields, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.jobs.messages import (
    EvaluateJobSpec,
    JobSpec,
    MatrixJobSpec,
    TrainJobSpec,
    VerifySweepJobSpec,
)

__all__ = [
    "JobSpecError",
    "resolve_job",
    "execute_train",
    "execute_evaluate",
    "expand_sweep_specs",
    "execute_verify_sweep",
    "execute_matrix",
]

#: Swallow output by default; the CLI injects ``print``.
_SILENT: Callable[[str], None] = lambda message: None


class JobSpecError(ValueError):
    """A job spec cannot be resolved against this machine's artefacts.

    Raised for unknown scenarios, unreadable controller directories,
    malformed sweep spec strings -- anything wrong with the *description*
    rather than the execution.  Messages are exactly what the CLI verbs
    print, so ``raise SystemExit(str(error))`` preserves historical output.
    """


def _resolve_scenario(name: str):
    from repro.scenarios import resolve_scenario

    try:
        return resolve_scenario(name)
    except ValueError as error:
        raise JobSpecError(str(error))


def _load_controller(directory, name: str):
    """Load a saved student; misses raise the CLI's historical messages."""

    from repro.utils.persistence import load_student_controller

    try:
        return load_student_controller(directory, name=name)
    except FileNotFoundError as error:
        raise JobSpecError(f"no saved controllers found in {directory}: {error}")
    except KeyError as error:
        raise JobSpecError(str(error.args[0]) if error.args else str(error))


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def _resolve_train(spec: TrainJobSpec):
    """(scenario, overrides, CocktailConfig, resolved identity dict).

    The spec's ``None``-default fields are its budgets, each named after
    its ``train_budget`` hint key: an explicit one wins over the scenario's
    hint, and :meth:`CocktailConfig.from_budget_hints` supplies every other
    default.  The evaluation config is rebuilt, not mutated, so its
    validation sees ``eval_batch_size``.
    """

    from repro import CocktailConfig

    scenario, overrides = _resolve_scenario(spec.system)
    explicit = {
        item.name: getattr(spec, item.name)
        for item in fields(spec)
        if item.default is None and getattr(spec, item.name) is not None
    }
    config = CocktailConfig.from_budget_hints({**scenario.train_budget, **explicit}, seed=spec.seed)
    config.evaluation = replace(config.evaluation, batch_size=spec.eval_batch_size or None)
    params = dict(scenario.default_params)
    params.update(overrides)
    # direct_baseline distinguishes this entry (kappa_star + kappa_d +
    # record.json) from the matrix runner's student-only train entries.
    resolved = {
        "system": scenario.name,
        "params": params,
        "cocktail": config,
        "seed": spec.seed,
        "direct_baseline": True,
    }
    return scenario, overrides, config, resolved


def execute_train(
    spec: TrainJobSpec,
    store=None,
    say: Callable[[str], None] = _SILENT,
    force: bool = False,
) -> Dict:
    """Run (or restore) one Cocktail training job.

    With a ``store``, an identical earlier train is restored instead of
    retrained; a fresh run is recorded under its config digest.  With
    ``spec.output`` the artefacts also land in that directory, exactly as
    ``repro train --output`` always has.
    """

    import shutil

    from repro import CocktailPipeline, make_default_experts, make_system, set_global_seed
    from repro.metrics import evaluate_controllers
    from repro.metrics.evaluation import metrics_to_table
    from repro.utils.persistence import save_cocktail_result

    scenario, _overrides, config, resolved = _resolve_train(spec)
    set_global_seed(spec.seed)
    system = make_system(spec.system)
    experts = make_default_experts(system)

    train_key = store.key("train", resolved) if store is not None else None
    if store is not None and not force and store.contains(train_key):
        if spec.output:
            output = Path(spec.output)
            output.mkdir(parents=True, exist_ok=True)
            for artefact in sorted(store.entry_dir(train_key).iterdir()):
                if artefact.is_file() and artefact.name not in ("entry.json", "result.json"):
                    shutil.copyfile(artefact, output / artefact.name)
            say(
                f"restored saved controllers from the run store "
                f"(digest {train_key.digest[:16]}) to {output}"
            )
        else:
            say(
                f"restored saved controllers from the run store "
                f"(digest {train_key.digest[:16]})"
            )
        payload = {"system": spec.system, "seed": spec.seed, "restored": True}
        record_path = store.entry_dir(train_key) / "record.json"
        if record_path.is_file():
            import json

            with record_path.open() as handle:
                payload["metrics"] = json.load(handle).get("record", {}).get("metrics", {})
        return payload

    result = CocktailPipeline(system, experts, config).run()
    metrics = evaluate_controllers(
        system,
        result.controllers(),
        seed=spec.seed,
        config=config.evaluation,
    )
    say(metrics_to_table(f"Cocktail on {spec.system}", metrics))
    record = {name: metric.as_dict() for name, metric in metrics.items()}

    scratch = None
    if spec.output:
        output = Path(spec.output)
    else:
        # Without an output directory the artefacts are staged in a
        # throwaway directory just long enough to publish them to the store.
        scratch = tempfile.mkdtemp(prefix="repro-train-")
        output = Path(scratch)
    try:
        save_cocktail_result(
            result,
            output,
            record={"system": spec.system, "metrics": record, "seed": spec.seed},
            context={"system": scenario.name, "seed": spec.seed},
            digest=train_key.digest if train_key is not None else None,
        )
        if spec.output:
            say(f"saved controllers and record to {output}")
        if store is not None:
            files = {
                path.name: path
                for path in sorted(output.iterdir())
                if path.is_file() and path.suffix in (".npz", ".json")
            }
            store.save(train_key, {"record": "record.json", "system": scenario.name}, files=files)
            say(f"recorded the run in {store.root} (digest {train_key.digest[:16]})")
    finally:
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)
    return {"system": spec.system, "seed": spec.seed, "metrics": record, "restored": False}


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def _resolve_evaluate(spec: EvaluateJobSpec) -> Dict:
    from repro.experiments.digest import weights_digest

    scenario, overrides = _resolve_scenario(spec.system)
    controller = _load_controller(spec.controller_dir, spec.controller)
    params = dict(scenario.default_params)
    params.update(overrides)
    network = controller.network
    return {
        "system": scenario.name,
        "params": params,
        "controller": spec.controller,
        "weights": weights_digest(network.state_dict(), extra=network.architecture()),
        "perturbation": spec.perturbation,
        "fraction": spec.fraction,
        "samples": spec.samples,
        "batch_size": spec.batch_size,
        "seed": spec.seed,
    }


def execute_evaluate(
    spec: EvaluateJobSpec,
    say: Callable[[str], None] = _SILENT,
) -> Dict:
    """Evaluate a saved controller; prints the CLI's historical one-liner."""

    from repro import make_system, set_global_seed
    from repro.metrics import evaluate_robustness

    _resolve_scenario(spec.system)
    set_global_seed(spec.seed)
    system = make_system(spec.system)
    controller = _load_controller(spec.controller_dir, spec.controller)
    outcome = evaluate_robustness(
        system,
        controller,
        perturbation=spec.perturbation,
        fraction=spec.fraction,
        samples=spec.samples,
        rng=spec.seed,
        batch_size=spec.batch_size or None,
    )
    say(
        f"{spec.controller} on {spec.system} ({spec.perturbation}, {spec.samples} samples): "
        f"Sr = {100 * outcome.safe_rate:.1f}%, e = {outcome.mean_energy:.2f}"
    )
    return {
        "controller": spec.controller,
        "system": spec.system,
        "perturbation": spec.perturbation,
        "samples": spec.samples,
        "safe_rate": float(outcome.safe_rate),
        "mean_energy": float(outcome.mean_energy),
    }


# ---------------------------------------------------------------------------
# verify-sweep
# ---------------------------------------------------------------------------


def expand_sweep_specs(spec: VerifySweepJobSpec) -> List:
    """Turn ``SYSTEM:DIR[:CONTROLLER]`` entries into SweepJobs.

    Omitting CONTROLLER expands to every controller recorded in DIR, and
    every failure mode keeps the CLI's historical message (now a
    :class:`JobSpecError`).  Budgets the spec leaves ``None`` resolve per
    entry through :func:`repro.verification.sweep.scenario_budgets`.
    """

    import json

    from repro.verification.sweep import SweepJob, scenario_budgets

    explicit = dict(
        target_error=spec.target_error,
        degree=spec.degree,
        max_partitions=spec.max_partitions,
        reach_steps=spec.reach_steps,
        reach_box_scale=spec.reach_box_scale,
        invariant_grid=spec.invariant_grid or None,
        work_budget=spec.work_budget or None,
        time_budget_seconds=spec.time_budget or None,
    )
    jobs = []
    for entry in spec.specs:
        pieces = entry.split(":")
        if len(pieces) == 2:
            system, directory = pieces
            record_path = Path(directory) / "record.json"
            try:
                with record_path.open() as handle:
                    controllers = sorted(json.load(handle).get("controllers", {}))
            except OSError as error:
                raise JobSpecError(f"cannot read {record_path}: {error}")
            except json.JSONDecodeError as error:
                raise JobSpecError(f"corrupt record {record_path}: {error}")
            if not controllers:
                raise JobSpecError(f"{record_path} records no controllers")
        elif len(pieces) == 3:
            system, directory = pieces[0], pieces[1]
            controllers = [pieces[2]]
        else:
            raise JobSpecError(f"bad --spec {entry!r}; expected SYSTEM:DIR[:CONTROLLER]")
        try:
            parameters = scenario_budgets(system, **explicit)
        except ValueError as error:
            raise JobSpecError(f"bad --spec {entry!r}: {error}")
        for controller in controllers:
            try:
                jobs.append(SweepJob.from_saved(system, directory, controller=controller, **parameters))
            except (OSError, KeyError) as error:
                raise JobSpecError(f"cannot load controller {controller!r} from {directory}: {error}")
    return jobs


def _resolve_verify_sweep(spec: VerifySweepJobSpec) -> Dict:
    jobs = expand_sweep_specs(spec)
    return {"jobs": [job.cache_config() for job in jobs]}


def execute_verify_sweep(
    spec: VerifySweepJobSpec,
    store=None,
    say: Callable[[str], None] = _SILENT,
    force: bool = False,
):
    """Run the verification sweep; returns the :class:`SweepReport`.

    Prints the report table and (store-backed) the replay/execute summary,
    matching ``repro verify-sweep`` byte for byte; the caller owns the CSV
    and the exit code.
    """

    from repro.verification.sweep import VerificationSweep

    jobs = expand_sweep_specs(spec)
    sweep = VerificationSweep(jobs, processes=spec.jobs or None, store=store, force=force)
    report = sweep.run()
    say(report.table())
    if store is not None:
        replayed = sum(result.cached for result in report.results)
        executed = len(report.results) - replayed
        say(f"run store {store.root}: {replayed} job(s) replayed, {executed} executed")
    return report


# ---------------------------------------------------------------------------
# matrix
# ---------------------------------------------------------------------------


def _resolve_matrix(spec: MatrixJobSpec) -> Dict:
    from repro.scenarios.matrix import matrix_manifest

    manifest = matrix_manifest(spec)
    for name in manifest["scenarios"]:
        _resolve_scenario(name)
    return manifest


def execute_matrix(
    spec: MatrixJobSpec,
    store=None,
    run_dir=None,
    say: Callable[[str], None] = _SILENT,
    force: bool = False,
    telemetry: Optional[bool] = None,
):
    """Run the scenario matrix; returns the :class:`ScenarioMatrixReport`.

    Without ``store``/``run_dir`` the matrix runs against a temporary
    store (same rows, no event log).  Sharded topologies stay on
    :func:`repro.scenarios.run_scenario_matrix` directly -- a shard is one
    slice of a run, not a job.
    """

    from repro.scenarios import run_scenario_matrix

    for name in spec.scenarios:
        _resolve_scenario(name)
    return run_scenario_matrix(
        spec,
        progress=say if say is not _SILENT else None,
        store=store,
        run_dir=run_dir,
        force=force,
        telemetry=telemetry,
    )


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


def resolve_job(spec: JobSpec) -> Dict:
    """The spec's resolved config -- the dictionary its digest is taken over.

    Execution context (run directory, worker counts, output paths, CSV
    destinations) is deliberately excluded: two specs that compute
    the same thing must share a digest wherever they run.
    """

    if isinstance(spec, TrainJobSpec):
        return _resolve_train(spec)[3]
    if isinstance(spec, EvaluateJobSpec):
        return _resolve_evaluate(spec)
    if isinstance(spec, VerifySweepJobSpec):
        return _resolve_verify_sweep(spec)
    if isinstance(spec, MatrixJobSpec):
        return _resolve_matrix(spec)
    raise JobSpecError(f"cannot resolve job kind {spec.TYPE!r}")
