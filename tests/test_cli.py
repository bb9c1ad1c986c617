"""Tests for the ``python -m repro`` command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


def _exit_code(args, capsys=None):
    """Run ``main(args)`` expecting it to bail; return the SystemExit code.

    argparse-level failures exit with code 2 (message on stderr); command
    failures raise ``SystemExit(message)``, whose code *is* the message
    string (printed to stderr, process status 1).
    """

    with pytest.raises(SystemExit) as excinfo:
        main(args)
    return excinfo.value.code


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_train_defaults(self, tmp_path):
        args = build_parser().parse_args(["train", "--output", str(tmp_path / "out")])
        assert args.command == "train"
        assert args.system == "vanderpol"
        # Budget flags default to None at parse time; the command resolves
        # them through the scenario's train_budget hints.
        assert args.mixing_epochs is None

    def test_budget_resolution_prefers_explicit_then_hint(self):
        from repro.verification.sweep import SweepJob, scenario_budgets

        assert scenario_budgets("cartpole", degree=5)["degree"] == 5
        assert scenario_budgets("cartpole", degree=None)["degree"] == 2  # the hint
        # A budget no hint names falls back to the SweepJob field default.
        assert "work_budget" not in scenario_budgets("cartpole")
        assert SweepJob("j", "cartpole", {}, {}, **scenario_budgets("cartpole")).work_budget is None

    def test_unknown_system_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--system", "quadrotor", "--output", str(tmp_path)])

    def test_registered_scenarios_accepted(self, tmp_path):
        for name in ("pendulum", "acc", "oscillator"):
            args = build_parser().parse_args(["train", "--system", name, "--output", str(tmp_path)])
            assert args.system == name

    def test_variant_system_accepted(self, tmp_path):
        args = build_parser().parse_args(
            ["train", "--system", "vanderpol?mu=1.5", "--output", str(tmp_path)]
        )
        assert args.system == "vanderpol?mu=1.5"

    def test_controller_accepts_any_name(self):
        args = build_parser().parse_args(
            ["evaluate", "--controller-dir", "runs/x", "--controller", "kappa_custom"]
        )
        assert args.controller == "kappa_custom"

    def test_scenarios_subcommand_parses(self):
        args = build_parser().parse_args(["scenarios", "list"])
        assert args.command == "scenarios" and args.scenario_command == "list"
        args = build_parser().parse_args(["scenarios", "run", "--scenario", "pendulum", "--no-train"])
        assert args.scenario == ["pendulum"] and args.no_train

    def test_scenarios_run_rejects_unknown_scenario(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenarios", "run", "--scenario", "quadrotor"])

    def test_unknown_verb_is_an_invalid_choice(self, capsys):
        assert _exit_code(["bench"]) == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "verb",
        ["train", "evaluate", "verify", "verify-sweep", "scenarios", "runs"],
    )
    def test_every_verb_prints_its_help(self, verb, capsys):
        assert _exit_code([verb, "--help"]) == 0
        assert f"usage: repro {verb}" in capsys.readouterr().out

    def test_verify_sweep_defaults(self):
        args = build_parser().parse_args(["verify-sweep", "--spec", "vanderpol:runs/vdp"])
        assert args.command == "verify-sweep"
        assert args.spec == ["vanderpol:runs/vdp"]
        assert args.jobs == 0

    def test_verify_sweep_requires_a_source(self):
        with pytest.raises(SystemExit):
            main(["verify-sweep"])

    def test_verify_sweep_rejects_malformed_spec(self):
        with pytest.raises(SystemExit):
            main(["verify-sweep", "--spec", "too:many:colons:here"])


class TestErrorPaths:
    """Each failure mode asserts the exit code AND the message, not just 'raises'."""

    @pytest.fixture
    def saved_controller_dir(self, tmp_path):
        """A hand-crafted save with exactly one controller, no training."""

        from repro.nn import MLP
        from repro.nn.serialization import save_state_dict

        save_state_dict(MLP(2, 1, hidden_sizes=(4,)), tmp_path / "kappa_star.npz")
        (tmp_path / "record.json").write_text(
            json.dumps({"controllers": {"kappa_star": "kappa_star.npz"}})
        )
        return tmp_path

    def test_unknown_scenario_exits_2_with_catalog(self, capsys):
        code = _exit_code(["evaluate", "--system", "quadrotor", "--controller-dir", "x"])
        assert code == 2  # argparse usage error
        stderr = capsys.readouterr().err
        assert "unknown scenario 'quadrotor'" in stderr
        assert "vanderpol" in stderr  # the catalog is listed

    def test_unknown_saved_controller_lists_available(self, saved_controller_dir):
        code = _exit_code(
            [
                "evaluate",
                "--system",
                "vanderpol",
                "--controller-dir",
                str(saved_controller_dir),
                "--controller",
                "kappa_bogus",
            ]
        )
        # SystemExit(message): the message is the code, process status 1.
        assert isinstance(code, str)
        assert "kappa_bogus" in code and "kappa_star" in code

    @pytest.mark.parametrize("command", ["evaluate", "verify"])
    def test_missing_controller_dir_names_the_directory(self, tmp_path, command):
        code = _exit_code(
            [command, "--system", "vanderpol", "--controller-dir", str(tmp_path / "nope")]
        )
        assert isinstance(code, str)
        assert "no saved controllers found" in code and "nope" in code

    def test_malformed_sweep_spec_too_many_fields(self):
        code = _exit_code(["verify-sweep", "--spec", "too:many:colons:here"])
        assert isinstance(code, str)
        assert "bad --spec" in code and "SYSTEM:DIR[:CONTROLLER]" in code

    def test_sweep_spec_unknown_system(self, saved_controller_dir):
        code = _exit_code(["verify-sweep", "--spec", f"quadrotor:{saved_controller_dir}"])
        assert isinstance(code, str)
        assert "bad --spec" in code and "unknown scenario" in code

    def test_sweep_spec_unreadable_record(self, tmp_path):
        code = _exit_code(["verify-sweep", "--spec", f"vanderpol:{tmp_path / 'empty'}"])
        assert isinstance(code, str)
        assert "cannot read" in code and "record.json" in code

    def test_sweep_spec_unknown_controller(self, saved_controller_dir):
        code = _exit_code(
            ["verify-sweep", "--spec", f"vanderpol:{saved_controller_dir}:kappa_bogus"]
        )
        assert isinstance(code, str)
        assert "kappa_bogus" in code

    def test_runs_show_missing_digest(self, tmp_path):
        store = tmp_path / "store"
        store.mkdir()
        code = _exit_code(["runs", "show", "--run-dir", str(store), "deadbeef"])
        assert isinstance(code, str)
        assert "no run entry matching digest 'deadbeef'" in code

    def test_runs_list_missing_directory(self, tmp_path):
        code = _exit_code(["runs", "list", "--run-dir", str(tmp_path / "absent")])
        assert isinstance(code, str)
        assert "does not exist" in code

    def test_scenarios_run_force_without_run_dir(self):
        code = _exit_code(["scenarios", "run", "--scenario", "vanderpol", "--force"])
        assert isinstance(code, str)
        assert "--force needs --run-dir" in code

    def test_scenarios_run_has_no_resume_flag(self, capsys):
        # Reuse is the default against a --run-dir; there is nothing to opt into.
        code = _exit_code(["scenarios", "run", "--scenario", "vanderpol", "--resume"])
        assert code == 2
        assert "unrecognized arguments: --resume" in capsys.readouterr().err

    def test_shard_time_budget_without_shard(self, tmp_path):
        code = _exit_code([
            "scenarios", "run", "--scenario", "vanderpol", "--no-train",
            "--run-dir", str(tmp_path / "store"), "--shard-time-budget", "5",
        ])
        assert code == "--shard-time-budget needs --shard"
        assert not (tmp_path / "store").exists(), "the matrix must not start"

    # "-1/3" is absent: argparse consumes a leading dash as an option flag
    # before the validator runs (still exit 2, but a different message).
    @pytest.mark.parametrize("spec", ["0/0", "3/2", "0/4", "a/b", "1", "1/2/3", "1.5/2", ""])
    def test_malformed_shard_spec_exits_2_with_reason(self, spec, capsys):
        code = _exit_code(["scenarios", "run", "--scenario", "vanderpol", "--shard", spec])
        assert code == 2  # argparse usage error
        assert "bad shard spec" in capsys.readouterr().err

    def test_shard_without_run_dir(self):
        code = _exit_code(["scenarios", "run", "--scenario", "vanderpol", "--shard", "1/2"])
        assert isinstance(code, str)
        assert "--shard needs --run-dir" in code

    @pytest.mark.parametrize(
        "flags", [["--shard-workers", "2"], ["--no-steal"], ["--claim-lease", "5"]]
    )
    def test_retired_shard_flags_are_rejected(self, flags, tmp_path, capsys):
        code = _exit_code(
            ["scenarios", "run", "--scenario", "vanderpol", "--run-dir", str(tmp_path / "s"),
             "--shard", "1/2", *flags]
        )
        assert code == 2  # argparse: unrecognized arguments
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_shard_rejects_csv(self, tmp_path):
        code = _exit_code(
            ["scenarios", "run", "--scenario", "vanderpol", "--run-dir", str(tmp_path / "s"),
             "--shard", "1/2", "--csv", str(tmp_path / "out.csv")]
        )
        assert isinstance(code, str)
        assert "runs merge" in code

    def test_runs_merge_without_manifest(self, tmp_path):
        store = tmp_path / "store"
        store.mkdir()
        code = _exit_code(["runs", "merge", "--run-dir", str(store)])
        assert isinstance(code, str)
        assert "no matrix manifest" in code

    @pytest.mark.parametrize(
        "manifest, message",
        [
            ('{"engine": "batched", "samples": 4}', "unexpected field(s) ['engine']"),
            ("[1, 2]", "is not a matrix manifest: expected a JSON object, got list"),
            ('{"samples": "four"}', "MatrixJobSpec.samples must be an integer, got 'four'"),
            ("{torn", "is not valid JSON"),
            ('{"engine": "batched", "backend": "numpy"}', "unexpected field(s) ['backend', 'engine']"),
            ('"matrix"', "is not a matrix manifest: expected a JSON object, got str"),
            ("", "is not valid JSON"),
            ('{"samples": true}', "MatrixJobSpec.samples must be an integer, got True"),
            ('{"perturbations": "none"}', "MatrixJobSpec.perturbations must be a sequence"),
            ('{"perturbations": ["none", "bogus"]}', "perturbations entries must be one of"),
            ('{"samples": 0}', "MatrixJobSpec.samples must be > 0"),
            ('{"train_overrides": null}', "MatrixJobSpec.train_overrides must be an object"),
        ],
        ids=["unknown-field", "not-an-object", "mistyped-field", "torn-json",
             "unknown-fields-sorted", "bare-string", "empty-file", "bool-as-integer",
             "string-as-sequence", "unknown-perturbation", "non-positive-samples",
             "null-overrides"],
    )
    def test_runs_merge_names_what_is_wrong_with_a_malformed_manifest(
        self, tmp_path, manifest, message
    ):
        store = tmp_path / "store"
        store.mkdir()
        (store / "matrix.json").write_text(manifest)
        code = _exit_code(["runs", "merge", "--run-dir", str(store)])
        assert isinstance(code, str)
        assert code.startswith(str(store / "matrix.json"))
        assert message in code

    def test_runs_merge_has_no_jobs_flag(self, tmp_path, capsys):
        """Replay runs inline, so the merge takes no pool width."""

        store = tmp_path / "store"
        store.mkdir()
        assert _exit_code(["runs", "merge", "--run-dir", str(store), "--jobs", "2"]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_runs_merge_missing_directory(self, tmp_path):
        code = _exit_code(["runs", "merge", "--run-dir", str(tmp_path / "absent")])
        assert isinstance(code, str)
        assert "does not exist" in code


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def trained_dir(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("cli-artifacts")
        exit_code = main(
            [
                "train",
                "--system",
                "vanderpol",
                "--output",
                str(directory),
                "--mixing-epochs",
                "2",
                "--mixing-steps",
                "256",
                "--distill-epochs",
                "25",
                "--dataset-size",
                "500",
                "--eval-samples",
                "30",
                "--seed",
                "0",
            ]
        )
        assert exit_code == 0
        return directory

    def test_train_writes_artifacts(self, trained_dir, capsys):
        assert (trained_dir / "kappa_star.npz").exists()
        assert (trained_dir / "record.json").exists()

    def test_evaluate_saved_controller(self, trained_dir, capsys):
        exit_code = main(
            [
                "evaluate",
                "--system",
                "vanderpol",
                "--controller-dir",
                str(trained_dir),
                "--samples",
                "20",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Sr =" in output and "e =" in output

    def test_evaluate_under_noise(self, trained_dir, capsys):
        exit_code = main(
            [
                "evaluate",
                "--system",
                "vanderpol",
                "--controller-dir",
                str(trained_dir),
                "--perturbation",
                "noise",
                "--samples",
                "10",
            ]
        )
        assert exit_code == 0

    def test_verify_saved_controller(self, trained_dir, capsys):
        exit_code = main(
            [
                "verify",
                "--system",
                "vanderpol",
                "--controller-dir",
                str(trained_dir),
                "--reach-steps",
                "3",
                "--target-error",
                "0.8",
                "--max-partitions",
                "256",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "lipschitz" in output
        assert "reach_status" in output

    def test_verify_sweep_saved_controllers(self, trained_dir, tmp_path, capsys):
        csv_path = tmp_path / "sweep.csv"
        exit_code = main(
            [
                "verify-sweep",
                "--system",
                "vanderpol",
                "--controller-dir",
                str(trained_dir),
                "--jobs",
                "1",
                "--reach-steps",
                "3",
                "--target-error",
                "0.8",
                "--max-partitions",
                "256",
                "--csv",
                str(csv_path),
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        # One line per saved controller (kappa_star + kappaD) plus the footer.
        assert "kappa_star@vanderpol" in output
        assert "kappaD@vanderpol" in output
        assert "wall clock" in output
        rows = csv_path.read_text().splitlines()
        assert rows[0].startswith("job,system,status")
        assert len(rows) == 3

    def test_evaluate_unknown_controller_lists_available(self, trained_dir, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "evaluate",
                    "--system",
                    "vanderpol",
                    "--controller-dir",
                    str(trained_dir),
                    "--controller",
                    "kappa_bogus",
                ]
            )
        message = str(excinfo.value)
        assert "kappa_bogus" in message
        assert "kappa_star" in message  # the error lists what was found

    def test_scenarios_list_command(self, capsys):
        assert main(["scenarios", "list"]) == 0
        output = capsys.readouterr().out
        for name in ("vanderpol", "3d", "cartpole", "pendulum", "acc"):
            assert name in output

    def test_scenarios_run_evaluate_only(self, tmp_path, capsys):
        csv_path = tmp_path / "matrix.csv"
        exit_code = main(
            [
                "scenarios",
                "run",
                "--scenario",
                "pendulum",
                "--scenario",
                "acc",
                "--no-train",
                "--no-verify",
                "--samples",
                "4",
                "--csv",
                str(csv_path),
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "pendulum" in output and "acc" in output and "wall clock" in output
        rows = csv_path.read_text().splitlines()
        # header + 2 scenarios x 2 experts x 3 perturbations
        assert len(rows) == 13

    def test_train_run_dir_restores_second_run(self, tmp_path, capsys):
        budget = [
            "--mixing-epochs", "1", "--mixing-steps", "64", "--distill-epochs", "2",
            "--dataset-size", "64", "--eval-samples", "8", "--seed", "0",
        ]
        store = tmp_path / "store"
        assert main(["train", "--system", "vanderpol", "--output", str(tmp_path / "a"),
                     "--run-dir", str(store)] + budget) == 0
        first = capsys.readouterr().out
        assert "recorded the run in" in first
        assert main(["train", "--system", "vanderpol", "--output", str(tmp_path / "b"),
                     "--run-dir", str(store)] + budget) == 0
        second = capsys.readouterr().out
        assert "restored saved controllers from the run store" in second
        assert (tmp_path / "b" / "kappa_star.npz").read_bytes() == (
            tmp_path / "a" / "kappa_star.npz"
        ).read_bytes()
        assert main(["runs", "list", "--run-dir", str(store)]) == 0
        listing = capsys.readouterr().out
        assert "train" in listing and "1 entry" in listing
        digest = json.loads((tmp_path / "a" / "record.json").read_text())["digest"]
        assert main(["runs", "show", "--run-dir", str(store), digest[:12]]) == 0
        shown = capsys.readouterr().out
        assert '"stage": "train"' in shown

    def test_scenarios_run_sharded_and_merged_matches_single_process(self, tmp_path, capsys):
        """The CLI shard protocol end-to-end: N shard commands + runs merge."""

        base = [
            "scenarios", "run", "--scenario", "pendulum", "--no-train", "--no-verify",
            "--samples", "4",
        ]
        reference_csv = tmp_path / "reference.csv"
        assert main(base + ["--run-dir", str(tmp_path / "ref"), "--csv", str(reference_csv)]) == 0
        shard_dir = tmp_path / "sharded"
        assert main(base + ["--run-dir", str(shard_dir), "--shard", "1/2"]) == 0
        output = capsys.readouterr().out
        assert "shard 1/2 (ok)" in output and "repro runs merge" in output
        assert main(base + ["--run-dir", str(shard_dir), "--shard", "2/2"]) == 0
        capsys.readouterr()
        merged_csv = tmp_path / "merged.csv"
        assert main(["runs", "merge", "--run-dir", str(shard_dir), "--csv", str(merged_csv)]) == 0
        assert "merged" in capsys.readouterr().out
        assert merged_csv.read_bytes() == reference_csv.read_bytes()

    def test_runs_merge_incomplete_store_names_missing_cells(self, tmp_path, capsys):
        base = [
            "scenarios", "run", "--scenario", "pendulum", "--no-train", "--no-verify",
            "--samples", "4", "--run-dir", str(tmp_path / "partial"),
        ]
        assert main(base + ["--shard", "1/2"]) == 0
        capsys.readouterr()
        code = _exit_code(["runs", "merge", "--run-dir", str(tmp_path / "partial")])
        assert isinstance(code, str)
        assert "missing" in code and "evaluate/" in code

    def test_verify_sweep_explicit_spec_and_pool(self, trained_dir, capsys):
        exit_code = main(
            [
                "verify-sweep",
                "--spec",
                f"vanderpol:{trained_dir}:kappa_star",
                "--jobs",
                "2",
                "--reach-steps",
                "3",
                "--target-error",
                "0.8",
                "--max-partitions",
                "256",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "kappa_star@vanderpol" in output
        assert "kappaD@vanderpol" not in output


class TestTelemetryCommands:
    """``runs watch`` / ``runs stats`` / ``runs list --json`` over a real log."""

    @pytest.fixture(scope="class")
    def telemetry_run_dir(self, tmp_path_factory):
        run_dir = tmp_path_factory.mktemp("telemetry") / "run"
        exit_code = main(
            [
                "scenarios", "run", "--scenario", "pendulum", "--no-train", "--no-verify",
                "--samples", "4", "--fraction", "0.05", "--run-dir", str(run_dir),
            ]
        )
        assert exit_code == 0
        return run_dir

    def test_watch_once_prints_a_finished_frame(self, telemetry_run_dir, capsys):
        assert main(["runs", "watch", "--run-dir", str(telemetry_run_dir), "--once"]) == 0
        output = capsys.readouterr().out
        assert "main" in output and "all finished" in output

    def test_watch_without_event_log_exits_with_reason(self, tmp_path, capsys):
        code = _exit_code(["runs", "watch", "--run-dir", str(tmp_path / "absent"), "--once"])
        assert isinstance(code, str)
        assert "no event log" in code

    def test_stats_reports_the_exact_accounting(self, telemetry_run_dir, capsys):
        assert main(["runs", "stats", "--run-dir", str(telemetry_run_dir)]) == 0
        output = capsys.readouterr().out
        # pendulum eval-only: 2 experts x 3 perturbations, all computed cold.
        assert "cells: 6 computed, 0 cached" in output
        assert "all finished" in output

    def test_stats_json_is_sorted_and_machine_readable(self, telemetry_run_dir, capsys):
        assert main(["runs", "stats", "--run-dir", str(telemetry_run_dir), "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["cells_computed"] == 6
        assert stats["all_finished"] is True
        assert list(stats) == sorted(stats)

    def test_stats_dedupes_repeated_run_dirs(self, telemetry_run_dir, capsys):
        assert main(
            [
                "runs", "stats",
                "--run-dir", str(telemetry_run_dir),
                "--run-dir", str(telemetry_run_dir),
                "--json",
            ]
        ) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["runs"] == 1  # the same directory never folds twice
        assert stats["cells_computed"] == 6

    def test_stats_without_event_log_exits_with_reason(self, tmp_path, capsys):
        code = _exit_code(["runs", "stats", "--run-dir", str(tmp_path / "absent")])
        assert isinstance(code, str)
        assert "no event log" in code

    def test_runs_list_json_has_stable_key_order(self, telemetry_run_dir, capsys):
        assert main(["runs", "list", "--run-dir", str(telemetry_run_dir), "--json"]) == 0
        entries = json.loads(capsys.readouterr().out)
        assert len(entries) == 6
        assert all(entry["stage"] == "evaluate" for entry in entries)
        assert all(list(entry) == sorted(entry) for entry in entries)

    def test_no_telemetry_leaves_no_event_log(self, tmp_path, capsys):
        run_dir = tmp_path / "quiet"
        exit_code = main(
            [
                "scenarios", "run", "--scenario", "pendulum", "--no-train", "--no-verify",
                "--samples", "4", "--run-dir", str(run_dir), "--no-telemetry",
            ]
        )
        assert exit_code == 0
        assert not (run_dir / "events").exists()
        code = _exit_code(["runs", "watch", "--run-dir", str(run_dir), "--once"])
        assert "no event log" in code
