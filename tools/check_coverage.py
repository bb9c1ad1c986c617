#!/usr/bin/env python
"""Enforce a line-coverage floor on the experiments run-store subsystem.

``make test-cov`` runs this tool.  When ``pytest-cov`` is installed it is
used directly (``--cov --cov-fail-under``); the container this repo targets
does not vendor it, so the default path is a stdlib fallback: a
``sys.settrace`` line collector scoped to ``src/repro/experiments`` wrapped
around an in-process ``pytest.main`` run of the experiments test pack.

Executable lines are derived from the compiled bytecode (every line that
owns at least one instruction, via ``dis.findlinestarts`` over the nested
code objects), so comments and blank lines never count against the floor.

Exit status: 0 when the tests pass and coverage >= the floor, 1 otherwise.
"""

from __future__ import annotations

import argparse
import dis
import importlib.util
import subprocess
import sys
import threading
import types
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
DEFAULT_TARGET = REPO / "src" / "repro" / "experiments"
DEFAULT_TESTS = (
    "tests/test_experiments_digest.py",
    "tests/test_experiments_store.py",
    "tests/test_matrix_resume.py",
    "tests/test_matrix_shard.py",
    "tests/test_matrix_shard_faults.py",
    "tests/test_shard_properties.py",
)


def executable_lines(path: Path) -> set:
    """Line numbers owning bytecode in ``path`` (nested code objects included)."""

    code = compile(path.read_text(), str(path), "exec")
    lines = set()
    stack = [code]
    while stack:
        obj = stack.pop()
        for _, lineno in dis.findlinestarts(obj):
            if lineno and lineno > 0:
                lines.add(lineno)
        for const in obj.co_consts:
            if isinstance(const, types.CodeType):
                stack.append(const)
    return lines


def run_with_settrace(target: Path, tests, pytest_args):
    """In-process pytest run under a target-scoped line tracer."""

    import pytest

    prefix = str(target.resolve())
    executed = {}

    def local_trace(frame, event, arg):
        if event == "line":
            executed.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
        return local_trace

    def global_trace(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(prefix):
            return local_trace
        return None

    threading.settrace(global_trace)
    sys.settrace(global_trace)
    try:
        exit_code = pytest.main(["-q", "-p", "no:cacheprovider", *pytest_args, *tests])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(exit_code), executed


def report(target: Path, executed) -> float:
    """Print the per-file table and return the aggregate percentage."""

    total_executable = total_hit = 0
    print(f"{'file':44s} {'lines':>6s} {'hit':>6s} {'cover':>7s}")
    files = [target] if target.is_file() else sorted(target.rglob("*.py"))
    for path in files:
        lines = executable_lines(path)
        hits = executed.get(str(path.resolve()), set()) & lines
        total_executable += len(lines)
        total_hit += len(hits)
        percent = 100.0 * len(hits) / len(lines) if lines else 100.0
        print(f"{str(path.relative_to(REPO)):44s} {len(lines):6d} {len(hits):6d} {percent:6.1f}%")
    aggregate = 100.0 * total_hit / total_executable if total_executable else 100.0
    print(f"{'TOTAL':44s} {total_executable:6d} {total_hit:6d} {aggregate:6.1f}%")
    return aggregate


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--floor", type=float, default=80.0, help="minimum line coverage percent")
    parser.add_argument("--target", type=Path, default=DEFAULT_TARGET,
                        help="package directory or single .py module the floor applies to")
    parser.add_argument("tests", nargs="*", default=list(DEFAULT_TESTS),
                        help="test files/dirs driven under the collector")
    args = parser.parse_args(argv)
    # A relative --target (e.g. src/repro/telemetry from the Makefile) is
    # anchored at the repo root regardless of the invoking cwd.
    args.target = args.target if args.target.is_absolute() else REPO / args.target

    src = str(REPO / "src")
    if src not in sys.path:
        sys.path.insert(0, src)

    if importlib.util.find_spec("pytest_cov") is not None:
        # A single-module target (src/repro/utils/profiling.py) covs the module.
        relative = args.target.resolve().relative_to(REPO / "src").with_suffix("")
        command = [
            sys.executable, "-m", "pytest", "-q",
            f"--cov={'.'.join(relative.parts)}",
            "--cov-report=term-missing",
            f"--cov-fail-under={args.floor}",
            *args.tests,
        ]
        print("pytest-cov detected:", " ".join(command[3:]))
        import os

        env = dict(os.environ)
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        return subprocess.call(command, cwd=REPO, env=env)

    print(f"pytest-cov not installed; using the stdlib settrace collector "
          f"(floor {args.floor:.0f}% on {args.target.relative_to(REPO)})")
    exit_code, executed = run_with_settrace(args.target, args.tests, [])
    if exit_code != 0:
        print(f"test run failed (pytest exit {exit_code}); coverage not evaluated")
        return 1
    aggregate = report(args.target, executed)
    if aggregate < args.floor:
        print(f"FAIL: coverage {aggregate:.1f}% is below the {args.floor:.1f}% floor")
        return 1
    print(f"OK: coverage {aggregate:.1f}% meets the {args.floor:.1f}% floor")
    return 0


if __name__ == "__main__":
    sys.exit(main())
