"""Command-line interface: ``python -m repro <command>``.

Six sub-commands cover the daily workflow of the reproduction:

``train``
    Run the full Cocktail pipeline (Algorithm 1) on a registered scenario
    and save the distilled controllers plus an experiment record.

``evaluate``
    Evaluate a saved student controller (or the analytic experts) on the
    paper's metrics, optionally under attack or measurement noise.

``verify``
    Run the Bernstein/interval verification analyses (reachability and/or
    invariant set) on a saved student controller and report the timing.

``verify-sweep``
    Verify many saved controllers at once: expand a job matrix from one or
    more ``--spec system:dir[:controller]`` entries (or a single
    ``--system``/``--controller-dir`` pair), fan the jobs out across a
    process pool (``--jobs``) running the batched verification analyses, and
    print an aggregated report (optionally written to ``--csv``).

``scenarios``
    Inspect the scenario catalog (``scenarios list``) or run the full
    ``(scenario x controller x perturbation)`` matrix with per-cell
    evaluation and verification, emitting one cross-scenario CSV
    (``scenarios run``).

``runs``
    Inspect a digest-keyed experiment run store (``runs list``, ``runs
    show DIGEST``), reassemble a sharded matrix run into the canonical
    single-process CSV (``runs merge``), collect garbage (``runs gc``),
    follow a running fleet live from its typed event log (``runs watch``)
    or aggregate cross-run statistics from one or more run directories
    (``runs stats``; see ``docs/telemetry.md``).

Every ``--system`` argument resolves through the scenario registry
(:mod:`repro.scenarios`), so aliases and parameter-overridable variants
such as ``vanderpol?mu=1.5`` are accepted everywhere.  ``train``,
``verify-sweep`` and ``scenarios run`` accept ``--run-dir`` to cache every
pipeline stage in a :class:`repro.experiments.RunStore` keyed by the
digest of its resolved config: rerunning an unchanged command serves the
results from the store, and an interrupted ``scenarios run`` rerun against
the same ``--run-dir`` executes only the missing cells (see
``docs/experiments.md``).
``scenarios run --shard i/N`` splits one matrix into disjoint slices for
hosts sharing a run directory, and ``runs merge`` reproduces the
byte-identical single-process CSV.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence


def _scenario_argument(value: str) -> str:
    """Validate a ``--system`` value against the scenario registry.

    Accepts canonical names, aliases and ``base?key=value`` variants;
    rejects unknown scenarios at parse time with the registered catalog in
    the error message.
    """

    from repro.scenarios import resolve_scenario

    try:
        resolve_scenario(value)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error))
    return value


def _shard_argument(value: str):
    """Validate a ``--shard I/N`` spec at parse time.

    Malformed specs (``0/0``, ``3/2``, non-integers) are argparse errors:
    exit code 2 with the reason on stderr.
    """

    from repro.scenarios import ShardSpec

    try:
        return ShardSpec.parse(value)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error))


def _add_system_argument(parser: argparse.ArgumentParser, default: Optional[str] = "vanderpol") -> None:
    """One ``--system`` flag, choices derived from the registry."""

    from repro.scenarios import list_scenarios

    parser.add_argument(
        "--system",
        default=default,
        type=_scenario_argument,
        metavar="SCENARIO",
        help=f"registered scenario, one of {list_scenarios()} "
        "(aliases and variants like vanderpol?mu=1.5 accepted)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    subparsers = parser.add_subparsers(dest="command", required=True)

    train = subparsers.add_parser("train", help="run the Cocktail pipeline and save the students")
    _add_system_argument(train)
    train.add_argument("--output", type=Path, required=True, help="directory for the saved controllers")
    # Budget flags default to the scenario's train_budget hints (resolved
    # after parsing, once --system is known); explicit values win.
    hint = "(default: the scenario's budget hint)"
    train.add_argument("--mixing-epochs", type=int, default=None, help=f"PPO mixing epochs {hint}")
    train.add_argument("--mixing-steps", type=int, default=None, help=f"PPO steps per epoch {hint}")
    train.add_argument("--distill-epochs", type=int, default=None, help=f"distillation epochs {hint}")
    train.add_argument("--dataset-size", type=int, default=None, help=f"distillation dataset size {hint}")
    train.add_argument("--eval-samples", type=int, default=None, help=f"Monte-Carlo evaluation samples {hint}")
    # Batch widths default to the scenario hint and then to the pinned
    # repro.core.config defaults (16/128); they change the trained
    # controller, never the machine.
    train.add_argument(
        "--num-envs",
        type=int,
        default=None,
        help="width of the PPO mixing environment: MDP copies advanced in "
        "lockstep (default: scenario hint, then 16; 1 = one episode at a time)",
    )
    train.add_argument(
        "--train-batch-size",
        type=int,
        default=None,
        help="lockstep teacher rollouts / labels per batched query during "
        "distillation dataset collection (default: scenario hint, then 128; "
        "1 = one state at a time)",
    )
    train.add_argument(
        "--eval-batch-size",
        type=int,
        default=0,
        help="Monte-Carlo rollouts advanced in lockstep (0 = whole sample as one batch)",
    )
    train.add_argument("--seed", type=int, default=0)
    train.add_argument(
        "--run-dir",
        type=Path,
        default=None,
        help="experiment run store; an identical earlier train is restored from it "
        "instead of retrained, a fresh one is recorded under its config digest",
    )

    evaluate = subparsers.add_parser("evaluate", help="evaluate a saved student controller")
    _add_system_argument(evaluate)
    evaluate.add_argument("--controller-dir", type=Path, required=True)
    evaluate.add_argument(
        "--controller",
        default="kappa_star",
        help="any controller saved in --controller-dir (default kappa_star)",
    )
    evaluate.add_argument("--perturbation", default="none", choices=["none", "attack", "noise"])
    evaluate.add_argument("--fraction", type=float, default=0.1)
    evaluate.add_argument("--samples", type=int, default=200)
    evaluate.add_argument(
        "--batch-size",
        type=int,
        default=0,
        help="Monte-Carlo rollouts advanced in lockstep (0 = whole sample as one batch)",
    )
    evaluate.add_argument("--seed", type=int, default=0)

    verify = subparsers.add_parser("verify", help="verify a saved student controller")
    _add_system_argument(verify)
    verify.add_argument("--controller-dir", type=Path, required=True)
    verify.add_argument(
        "--controller",
        default="kappa_star",
        help="any controller saved in --controller-dir (default kappa_star)",
    )
    # Analysis parameters default to the scenario's verify_budget hints
    # (e.g. the cartpole pins a lower Bernstein degree for its 4-D state).
    hint = "(default: the scenario's budget hint)"
    verify.add_argument("--target-error", type=float, default=None, help=f"Bernstein error target {hint}")
    verify.add_argument("--degree", type=int, default=None, help=f"Bernstein degree {hint}")
    verify.add_argument("--max-partitions", type=int, default=None, help=f"partition cap {hint}")
    verify.add_argument("--reach-steps", type=int, default=None, help=f"reachability horizon {hint}")
    verify.add_argument("--reach-box-scale", type=float, default=None,
                        help=f"initial reach box as a fraction of X0 {hint}")
    verify.add_argument("--invariant-grid", type=int, default=0, help="0 disables the invariant-set analysis")

    sweep = subparsers.add_parser(
        "verify-sweep", help="verify many saved controllers across a process pool"
    )
    sweep.add_argument(
        "--spec",
        action="append",
        default=None,
        metavar="SYSTEM:DIR[:CONTROLLER]",
        help="one verification job source; repeatable; omitting CONTROLLER expands to every "
        "controller recorded in DIR (kappa_star and, when present, kappaD)",
    )
    _add_system_argument(sweep, default=None)
    sweep.add_argument("--controller-dir", type=Path, default=None,
                       help="controller directory for the --system shorthand")
    sweep.add_argument("--jobs", type=int, default=0,
                       help="worker processes for the sweep pool (0 = one per job, capped at the CPU count)")
    # Analysis budgets default to each job's scenario verify_budget hints,
    # exactly as on `repro verify`.
    sweep.add_argument("--target-error", type=float, default=None, help=f"Bernstein error target {hint}")
    sweep.add_argument("--degree", type=int, default=None, help=f"Bernstein degree {hint}")
    sweep.add_argument("--max-partitions", type=int, default=None, help=f"partition cap {hint}")
    sweep.add_argument("--reach-steps", type=int, default=None, help=f"reachability horizon {hint}")
    sweep.add_argument("--reach-box-scale", type=float, default=None,
                       help=f"initial reach box as a fraction of X0 {hint}")
    sweep.add_argument("--invariant-grid", type=int, default=0, help="0 disables the invariant-set analysis")
    sweep.add_argument("--work-budget", type=int, default=0,
                       help="per-job reachability work budget in Bernstein coefficients (0 = unbounded); "
                       "exceeding it aborts with status 'resource-exhausted'")
    sweep.add_argument("--time-budget", type=float, default=0.0,
                       help="per-job wall-clock budget in seconds, checked at phase boundaries (0 = unbounded)")
    sweep.add_argument("--csv", type=Path, default=None, help="write one CSV row per job to this path")
    sweep.add_argument(
        "--run-dir",
        type=Path,
        default=None,
        help="experiment run store; jobs whose (weight digest x budgets) key "
        "is already present are replayed from it instead of re-verified",
    )

    scenarios = subparsers.add_parser(
        "scenarios", help="inspect the scenario catalog or run the cross-scenario matrix"
    )
    scenario_commands = scenarios.add_subparsers(dest="scenario_command", required=True)
    scenario_commands.add_parser("list", help="print every registered scenario")
    run = scenario_commands.add_parser(
        "run", help="run the (scenario x controller x perturbation) matrix"
    )
    run.add_argument(
        "--scenario",
        action="append",
        default=None,
        type=_scenario_argument,
        metavar="SCENARIO",
        help="restrict the matrix to this scenario (repeatable; default: the whole catalog)",
    )
    run.add_argument("--samples", type=int, default=32, help="Monte-Carlo rollouts per evaluation cell")
    run.add_argument("--fraction", type=float, default=0.1, help="attack/noise magnitude fraction")
    run.add_argument("--budget-scale", type=float, default=1.0,
                     help="uniformly scale each scenario's training budget hints")
    run.add_argument("--no-train", action="store_true",
                     help="skip training kappa_star (evaluates the analytic experts only)")
    run.add_argument("--no-verify", action="store_true", help="skip the verification cells")
    run.add_argument("--jobs", type=int, default=0,
                     help="worker processes running the matrix's train/evaluate/verify cells "
                     "(0 = one per CPU, 1 = inline); results do not depend on it")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--csv", type=Path, default=None, help="write one CSV row per matrix cell")
    run.add_argument(
        "--run-dir",
        type=Path,
        default=None,
        help="experiment run store: every cell (train/evaluate/verify) is keyed by its "
        "config digest and flushed as it completes; cells already present are loaded "
        "instead of recomputed, so reruns are incremental",
    )
    run.add_argument(
        "--force",
        action="store_true",
        help="recompute every cell and overwrite the store entries (needs --run-dir)",
    )
    run.add_argument(
        "--shard",
        type=_shard_argument,
        default=None,
        metavar="I/N",
        help="run only shard I of N (1-based) against the shared --run-dir; every shard "
        "writes digest-keyed cells into the same store, and `repro runs merge` "
        "reassembles the full CSV once all cells exist",
    )
    run.add_argument(
        "--shard-time-budget",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="with --shard: wall-clock budget for this shard; on exhaustion the report "
        "status is 'resource-exhausted' and the remaining cells wait for a rerun of "
        "this shard (0 = unbounded)",
    )
    run.add_argument(
        "--no-telemetry",
        action="store_true",
        help="do not append the typed event log under <run-dir>/events/ "
        "(runs with --run-dir write it by default; see `repro runs watch`)",
    )

    runs = subparsers.add_parser("runs", help="inspect or clean an experiment run store")
    runs_commands = runs.add_subparsers(dest="runs_command", required=True)
    runs_list = runs_commands.add_parser("list", help="list every complete store entry")
    runs_list.add_argument("--run-dir", type=Path, required=True)
    runs_list.add_argument("--stage", default=None, help="restrict to one stage (train/evaluate/verify)")
    runs_list.add_argument(
        "--json",
        action="store_true",
        help="emit the entries as JSON with stable (sorted) key order, for scripts",
    )
    runs_show = runs_commands.add_parser("show", help="print one entry's config and result")
    runs_show.add_argument("--run-dir", type=Path, required=True)
    runs_show.add_argument("digest", help="entry digest (any unambiguous prefix)")
    runs_merge = runs_commands.add_parser(
        "merge", help="reassemble a sharded `scenarios run` into the single-process CSV"
    )
    runs_merge.add_argument("--run-dir", type=Path, required=True,
                            help="the run directory the shards wrote into")
    runs_merge.add_argument("--csv", type=Path, default=None,
                            help="write the merged per-cell CSV to this path")
    runs_gc = runs_commands.add_parser(
        "gc", help="remove incomplete entries (and, with --stage, whole stages)"
    )
    runs_gc.add_argument("--run-dir", type=Path, required=True)
    runs_gc.add_argument("--stage", action="append", default=None,
                         help="also remove every complete entry of this stage (repeatable)")
    runs_gc.add_argument("--dry-run", action="store_true", help="report what would be removed")
    runs_watch = runs_commands.add_parser(
        "watch", help="follow a running matrix fleet live from its event log"
    )
    runs_watch.add_argument("--run-dir", type=Path, required=True,
                            help="the run directory a `scenarios run --run-dir` writes into")
    runs_watch.add_argument("--once", action="store_true",
                            help="print one snapshot frame and exit (for scripts and smoke tests)")
    runs_watch.add_argument("--interval", type=float, default=2.0, metavar="SECONDS",
                            help="seconds between frames (default 2)")
    runs_watch.add_argument("--stale-after", type=float, default=15.0, metavar="SECONDS",
                            help="seconds of event silence before an unfinished shard "
                            "is flagged 'stale?' (default 15)")
    runs_stats = runs_commands.add_parser(
        "stats", help="aggregate cross-run fleet statistics from event logs"
    )
    runs_stats.add_argument("--run-dir", type=Path, action="append", required=True,
                            help="a run directory with an events/ log; repeatable to "
                            "aggregate across runs")
    runs_stats.add_argument("--json", action="store_true",
                            help="emit the full statistics as JSON with sorted keys")
    runs_stats.add_argument("--stale-after", type=float, default=15.0, metavar="SECONDS",
                            help="staleness window for the stale-shard diagnostic (default 15)")

    return parser


def _command_train(args: argparse.Namespace) -> int:
    from repro.jobs.messages import TrainJobSpec
    from repro.jobs.runner import JobSpecError, execute_train

    spec = TrainJobSpec(
        system=args.system,
        output=str(args.output),
        mixing_epochs=args.mixing_epochs,
        mixing_steps=args.mixing_steps,
        distill_epochs=args.distill_epochs,
        dataset_size=args.dataset_size,
        eval_samples=args.eval_samples,
        num_envs=args.num_envs,
        train_batch_size=args.train_batch_size,
        eval_batch_size=args.eval_batch_size,
        seed=args.seed,
    )
    store = None
    if args.run_dir is not None:
        from repro.experiments import RunStore

        store = RunStore(args.run_dir)
    try:
        execute_train(spec, store=store, say=print)
    except JobSpecError as error:
        raise SystemExit(str(error))
    return 0


def _command_evaluate(args: argparse.Namespace) -> int:
    from repro.jobs.messages import EvaluateJobSpec
    from repro.jobs.runner import JobSpecError, execute_evaluate

    spec = EvaluateJobSpec(
        system=args.system,
        controller_dir=str(args.controller_dir),
        controller=args.controller,
        perturbation=args.perturbation,
        fraction=args.fraction,
        samples=args.samples,
        batch_size=args.batch_size,
        seed=args.seed,
    )
    try:
        execute_evaluate(spec, say=print)
    except JobSpecError as error:
        raise SystemExit(str(error))
    return 0


def _command_verify(args: argparse.Namespace) -> int:
    from repro.jobs.runner import JobSpecError, _load_controller
    from repro.verification.sweep import SweepJob, run_sweep_job, scenario_budgets

    try:
        controller = _load_controller(args.controller_dir, args.controller)
    except JobSpecError as error:
        raise SystemExit(str(error))
    budgets = scenario_budgets(
        args.system,
        target_error=args.target_error,
        degree=args.degree,
        max_partitions=args.max_partitions,
        reach_steps=args.reach_steps,
        reach_box_scale=args.reach_box_scale,
        invariant_grid=args.invariant_grid or None,
    )
    job = SweepJob.from_network(args.controller, args.system, controller.network, **budgets)
    result = run_sweep_job(job)
    if result.status != "ok":
        raise SystemExit(result.error)
    for key, value in result.summary.items():
        print(f"{key:20s}: {value}")
    return 0


def _command_verify_sweep(args: argparse.Namespace) -> int:
    from repro.jobs.messages import VerifySweepJobSpec
    from repro.jobs.runner import JobSpecError, execute_verify_sweep

    specs = list(args.spec or [])
    if args.system is not None or args.controller_dir is not None:
        if args.system is None or args.controller_dir is None:
            raise SystemExit("--system and --controller-dir must be given together")
        specs.append(f"{args.system}:{args.controller_dir}")
    if not specs:
        raise SystemExit("verify-sweep needs at least one --spec (or --system/--controller-dir)")

    spec = VerifySweepJobSpec(
        specs=tuple(specs),
        target_error=args.target_error,
        degree=args.degree,
        max_partitions=args.max_partitions,
        reach_steps=args.reach_steps,
        reach_box_scale=args.reach_box_scale,
        invariant_grid=args.invariant_grid,
        work_budget=args.work_budget,
        time_budget=args.time_budget,
        jobs=args.jobs,
    )
    store = None
    if args.run_dir is not None:
        from repro.experiments import RunStore

        store = RunStore(args.run_dir)
    try:
        report = execute_verify_sweep(spec, store=store, say=print)
    except JobSpecError as error:
        raise SystemExit(str(error))
    if args.csv is not None:
        path = report.to_csv(args.csv)
        print(f"wrote per-job records to {path}")
    return 0 if report.num_failed == 0 else 1


def _command_scenarios(args: argparse.Namespace) -> int:
    from repro.scenarios import run_scenario_matrix, scenario_specs

    if args.scenario_command == "list":
        header = f"{'name':12s} {'dims':>4s} {'horizon':>8s} {'aliases':24s} description"
        print(header)
        print("-" * len(header))
        for spec in scenario_specs():
            row = spec.describe()
            aliases = ",".join(row["aliases"]) if row["aliases"] else "-"
            print(
                f"{row['name']:12s} {row['state_dim']:4d} {row['horizon']:8d} "
                f"{aliases:24s} {row['description']}"
            )
        return 0

    if args.force and args.run_dir is None:
        raise SystemExit("--force needs --run-dir (there is no store to overwrite)")
    if args.shard_time_budget and args.shard is None:
        raise SystemExit("--shard-time-budget needs --shard")
    if args.shard is not None and args.run_dir is None:
        raise SystemExit("--shard needs --run-dir (shards share one run store)")
    if args.shard is not None and args.csv is not None:
        raise SystemExit("--csv is not available on a single shard (its rows are partial); "
                         "merge the full CSV afterwards with `repro runs merge --csv`")

    from repro.jobs.messages import MatrixJobSpec

    spec = MatrixJobSpec(
        scenarios=tuple(args.scenario or ()),
        samples=args.samples,
        fraction=args.fraction,
        train=not args.no_train,
        verify=not args.no_verify,
        jobs=args.jobs,
        seed=args.seed,
        budget_scale=args.budget_scale,
    )
    telemetry = False if args.no_telemetry else None
    if args.shard is not None:
        report = run_scenario_matrix(
            spec,
            run_dir=args.run_dir,
            force=args.force,
            shard=args.shard,
            shard_time_budget=args.shard_time_budget or None,
            telemetry=telemetry,
            progress=print,
        )
    else:
        # The plain (unsharded) run routes through the job layer, so this
        # path and a library caller's execute_matrix are the same code.
        from repro.jobs.runner import JobSpecError, execute_matrix

        try:
            report = execute_matrix(
                spec, run_dir=args.run_dir, say=print, force=args.force, telemetry=telemetry
            )
        except JobSpecError as error:
            raise SystemExit(str(error))
    print(report.table())
    if args.run_dir is not None:
        print(
            f"run store {args.run_dir}: {report.cells_cached} cell(s) served from the store, "
            f"{report.cells_computed} computed"
        )
    if args.shard is not None:
        print(
            f"shard {report.shard} ({report.status}): {report.cells_skipped} owned cell(s) "
            f"left unrun; assemble the full matrix with "
            f"`repro runs merge --run-dir {args.run_dir}`"
        )
    if args.csv is not None:
        path = report.to_csv(args.csv)
        print(f"wrote per-cell records to {path}")
    return 0


def _runs_watch(args: argparse.Namespace) -> int:
    import time

    from repro.telemetry import EventTailer, fold_events, render_watch
    from repro.telemetry.emitter import events_dir

    root = events_dir(args.run_dir)
    if not root.is_dir():
        raise SystemExit(
            f"no event log under {args.run_dir} (expected {root}); telemetry is written "
            "by `scenarios run --run-dir` -- pass the same --run-dir here"
        )
    tailer = EventTailer(args.run_dir)
    state = fold_events(tailer.poll())
    print(render_watch(state, stale_after=args.stale_after))
    if args.once:
        return 0
    try:
        while not state.all_finished:
            time.sleep(args.interval)
            state = fold_events(tailer.poll(), state=state)
            print()
            print(render_watch(state, stale_after=args.stale_after))
    except KeyboardInterrupt:
        pass
    return 0


def _runs_stats(args: argparse.Namespace) -> int:
    import json

    from repro.telemetry import fleet_stats
    from repro.telemetry.emitter import events_dir

    run_dirs = list(args.run_dir)
    missing = [str(run_dir) for run_dir in run_dirs if not events_dir(run_dir).is_dir()]
    if missing:
        raise SystemExit(
            f"no event log under: {', '.join(missing)} (telemetry is written by "
            "`scenarios run --run-dir`)"
        )
    stats = fleet_stats(run_dirs, stale_after=args.stale_after)
    if args.json:
        print(json.dumps(stats, indent=2, sort_keys=True))
        return 0
    served = stats["cells_computed"] + stats["cells_cached"]
    hit_rate = f"{100.0 * stats['cache_hit_rate']:.1f}%" if served else "-"
    print(
        f"{stats['runs']} run(s), {stats['shards']} shard(s), {stats['events']} event(s) | "
        f"{'all finished' if stats['all_finished'] else 'running'}"
    )
    print(
        f"cells: {stats['cells_computed']} computed, {stats['cells_cached']} cached "
        f"(hit rate {hit_rate})"
    )
    for kind, summary in stats["cell_seconds_by_kind"].items():
        print(
            f"  {kind:10s} {summary['count']:4d} cell(s) | total {summary['total']:8.2f}s | "
            f"mean {summary['mean']:7.3f}s | median {summary['median']:7.3f}s | "
            f"max {summary['max']:7.3f}s"
        )
    for stage, seconds in stats["stage_seconds"].items():
        print(f"  stage {stage:22s} {seconds:8.2f}s")
    for name, row in stats["scenarios"].items():
        pieces = []
        if "verify_jobs" in row:
            pieces.append(f"{row['verified']}/{row['verify_jobs']} verified")
        if "mean_safe_rate" in row:
            pieces.append(f"mean Sr {100.0 * row['mean_safe_rate']:.1f}%")
        print(f"  {name:14s} {' | '.join(pieces)}")
    for straggler in stats["stragglers"]:
        print(
            f"  straggler: {straggler['cell']} {straggler['scenario']}:{straggler['controller']} "
            f"took {straggler['seconds']:.2f}s ({straggler['factor']:.1f}x its kind's median)"
        )
    if stats["stale_shards"]:
        print(f"  stale shard(s): {', '.join(stats['stale_shards'])}")
    return 0


def _command_runs(args: argparse.Namespace) -> int:
    import json

    from repro.experiments import RunStore

    if args.runs_command == "watch":
        return _runs_watch(args)
    if args.runs_command == "stats":
        return _runs_stats(args)

    store = RunStore(args.run_dir)
    if args.runs_command != "gc" and not store.root.is_dir():
        raise SystemExit(f"run directory {store.root} does not exist")

    if args.runs_command == "merge":
        from repro.scenarios import MatrixIncompleteError, MatrixManifestError, merge_matrix_run

        try:
            report = merge_matrix_run(args.run_dir, progress=print)
        except FileNotFoundError:
            raise SystemExit(
                f"no matrix manifest in {args.run_dir}: only sharded `scenarios run "
                f"--shard` runs record one (nothing to merge)"
            )
        except (MatrixIncompleteError, MatrixManifestError) as error:
            raise SystemExit(str(error))
        print(report.table())
        print(
            f"merged {report.num_cells} cell(s) from {store.root} "
            f"({report.cells_cached} replayed)"
        )
        if args.csv is not None:
            path = report.to_csv(args.csv)
            print(f"wrote per-cell records to {path}")
        return 0

    if args.runs_command == "list":
        entries = store.entries(stage=args.stage)
        if args.json:
            print(json.dumps(entries, indent=2, sort_keys=True))
            return 0
        header = f"{'stage':10s} {'digest':18s} {'files':>5s} {'bytes':>10s} created"
        print(header)
        print("-" * len(header))
        import datetime

        for entry in entries:
            created = datetime.datetime.fromtimestamp(entry.get("created_unix", 0.0))
            print(
                f"{entry['stage']:10s} {entry['digest'][:16]:18s} "
                f"{len(entry.get('files', [])):5d} {entry.get('bytes', 0):10d} "
                f"{created:%Y-%m-%d %H:%M:%S}"
            )
        print(f"{len(entries)} entr{'y' if len(entries) == 1 else 'ies'} in {store.root}")
        return 0

    if args.runs_command == "show":
        matches = store.find(args.digest)
        if not matches:
            raise SystemExit(f"no run entry matching digest {args.digest!r} in {store.root}")
        if len(matches) > 1:
            digests = ", ".join(entry["digest"][:16] for entry in matches)
            raise SystemExit(f"digest prefix {args.digest!r} is ambiguous: {digests}")
        entry = matches[0]
        path = Path(entry.pop("path"))
        print(json.dumps(entry, indent=2, sort_keys=True))
        with (path / "result.json").open() as handle:
            print(json.dumps({"result": json.load(handle)}, indent=2, sort_keys=True))
        return 0

    incomplete, removed = store.gc(stages=args.stage, dry_run=args.dry_run)
    verb = "would remove" if args.dry_run else "removed"
    print(f"{verb} {len(incomplete)} incomplete and {len(removed)} complete entr"
          f"{'y' if len(incomplete) + len(removed) == 1 else 'ies'} from {store.root}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""

    args = build_parser().parse_args(argv)
    if args.command == "train":
        return _command_train(args)
    if args.command == "evaluate":
        return _command_evaluate(args)
    if args.command == "verify":
        return _command_verify(args)
    if args.command == "verify-sweep":
        return _command_verify_sweep(args)
    if args.command == "scenarios":
        return _command_scenarios(args)
    if args.command == "runs":
        return _command_runs(args)
    raise SystemExit(f"unknown command {args.command!r}")  # pragma: no cover - argparse guards this


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
