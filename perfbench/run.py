"""The repository benchmark: closed-loop workloads with checked outputs.

Run from the repository root::

    python3 perfbench/run.py --workload train --seed 0 --seconds 36 --trace 0

One client issues each operation only after the previous one returned,
for about ``--seconds`` seconds (always at least one full pass over the
workload's operations).  Every output is checked; an operation that raises
or fails its check counts as failed and the loop goes on.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The traced run first measures
untraced for half the time, then traced for the other half, so it also
reports the tracing overhead.  Lines before it print every metric by name
and the machine fingerprint; the full result, and the spans of a traced
run, are written under ``.perfbench-out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from calibration import Calibration
from fixtures import HERE, ROOT, SetupError, load_fixtures, pin_threads

#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_SAMPLES = 5
SETUP_TIMEOUT = 120.0
OUT = ROOT / ".perfbench-out"
WORK = ROOT / ".perfbench-work"

END_TO_END = {"cycle_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

#: Per-scenario operation seconds, by workload (the untraced half of a
#: traced run); workloads that do not run a scenario report 0.
OP_METRICS = {
    "train": {f"train_s.{name}": name for name in ("vanderpol", "3d", "cartpole")},
    "verify": {f"verify_s.{name}": name for name in ("vanderpol", "3d", "cartpole", "pendulum", "acc")},
    "matrix": {"matrix_s.single": "matrix", "matrix_s.shard2": "matrix-shard2"},
}
MATRIX_COUNTS = ("scenarios.matrix.cells_stolen", "scenarios.matrix.heartbeats", "scenarios.matrix.stolen_ratio")


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""

    from tracer import LAYERS

    units: Dict[str, str] = {}
    for layer in LAYERS:
        for name in layer.metric_names():
            units[name] = "s" if name.endswith("_s") else "count"
    units["verification.reachability.reachable_sets.epsilon"] = "1"
    units["scenarios.matrix.computed_ratio"] = "ratio"
    units["scenarios.matrix.stolen_ratio"] = "ratio"
    units["scenarios.matrix.cells_stolen"] = "count"
    units["scenarios.matrix.heartbeats"] = "count"
    for names in OP_METRICS.values():
        units.update({name: "s" for name in names})
    units["trace.overhead_s"] = "s"
    units["trace.coverage"] = "ratio"
    return units


@dataclass
class OpRecord:
    index: int
    label: str
    #: Wall seconds, less the time spent sampling the calibration kernel.
    seconds: float
    error: Optional[str] = None
    #: Factor to reference speed, from the kernel samples taken during the op.
    scale: float = 1.0
    samples: int = 0

    @property
    def reference_seconds(self) -> float:
        return self.seconds * self.scale


def run_op(workload, label: str, index: int, calibration: Calibration, tracer=None) -> OpRecord:
    """Time one operation, then check its output outside the timed region."""

    error = None
    outcome = None
    scope = tracer.op(index) if tracer is not None else nullcontext()
    with calibration.timing() as timing:
        try:
            with scope:
                outcome = workload.run(label, index)
        except Exception as exc:  # a failed op is recorded; the loop goes on
            error = f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
    if error is None:
        try:
            workload.check(label, outcome)
        except Exception as exc:  # a failed check fails the op, nothing more
            error = f"{type(exc).__name__}: {exc}"
    workload.cleanup(index)
    if error is not None:
        print(f"op {index} ({label}) failed: {error}", file=sys.stderr)
    return OpRecord(index, label, timing.seconds, error, timing.scale, timing.samples)


def closed_loop(
    workload, seconds: float, calibration: Calibration, first_index=0, tracer=None, whole_passes=False
):
    """Issue operations back to back until the next one would pass the deadline.

    At least one full pass over ``workload.labels`` always runs; with
    ``whole_passes`` the loop also stops only at pass boundaries.
    """

    labels = workload.labels
    deadline = time.perf_counter() + seconds
    records: List[OpRecord] = []
    last: Dict[str, float] = {}
    count = 0
    while True:
        label = labels[count % len(labels)]
        record = run_op(workload, label, first_index + count, calibration, tracer)
        records.append(record)
        last[label] = record.seconds
        count += 1
        if count < len(labels) or (whole_passes and count % len(labels)):
            continue
        upcoming = labels if whole_passes else (labels[count % len(labels)],)
        if time.perf_counter() + sum(last[name] for name in upcoming) > deadline:
            return records


def label_samples(records: List[OpRecord], reference=True) -> Dict[str, List[float]]:
    """Label -> successful op seconds (all op seconds when none succeeded),
    at reference speed unless ``reference`` is false."""

    samples: Dict[str, List[float]] = {}
    for record in records:
        samples.setdefault(record.label, [])
    for label in samples:
        ops = [r for r in records if r.label == label]
        good = [r for r in ops if r.error is None] or ops
        samples[label] = [r.reference_seconds if reference else r.seconds for r in good]
    return samples


def cycle_seconds(samples: Dict[str, List[float]]) -> float:
    return sum(statistics.median(values) for values in samples.values())


def tail(values: List[float]) -> Optional[tuple]:
    """The highest of p50/p75/p90/p95/p99 with at least ten samples beyond it."""

    for percentile in (99, 95, 90, 75, 50):
        if len(values) * (100 - percentile) / 100 >= 10:
            cut = statistics.quantiles(values, n=100, method="inclusive")[percentile - 1]
            return percentile, cut
    return None


def measure_setup() -> List[Tuple[float, float]]:
    """(wall, reference-speed) seconds of each fresh-interpreter set-up:
    import, plants and experts, students.  The probe times the calibration
    kernel itself, right after its set-up, in the same process: a set-up is
    shorter than the host's speed drift lasts."""

    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    samples = []
    for _ in range(SETUP_SAMPLES):
        result = subprocess.run(
            [sys.executable, str(HERE / "fixtures.py")],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=SETUP_TIMEOUT,
        )
        if result.returncode != 0:
            raise SetupError(f"set-up failed in a fresh interpreter:\n{result.stderr.strip()}")
        probe = json.loads(result.stdout.strip().splitlines()[-1])
        seconds = float(probe["seconds"])
        samples.append((seconds, seconds * float(probe["scale"])))
    return samples


def peak_rss_mb() -> float:
    """Peak resident set of this process or its largest waited-for child."""

    import resource

    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


def fingerprint(threads: Dict[str, str]) -> Dict:
    import hashlib
    import platform

    import numpy

    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(str(path.relative_to(ROOT)).encode())
        source.update(path.read_bytes())
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            result = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            )
            commit = result.stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "threads": threads,
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
    }


def layer_metrics(workload_name, workload, untraced, traced, tracer) -> Dict[str, float]:
    """Per-layer metrics of a traced run, per pass over the workload's labels."""

    units = per_layer_units()
    values = {name: 0.0 for name in units}
    passes = len(traced) / len(workload.labels)
    for name, (seconds, calls) in tracer.self_times().items():
        layer = next((layer for layer in tracer.layers if layer.name == name), None)
        if layer is None:
            continue
        values[f"{name}_s"] = seconds / passes
        if layer.calls:
            values[f"{name}_calls"] = calls / passes
    for name, total in tracer.counts.items():
        values[name] = total / passes
    values.update(tracer.peaks)
    samples = label_samples(untraced)
    for metric, label in OP_METRICS.get(workload_name, {}).items():
        values[metric] = statistics.median(samples[label])
    if getattr(workload, "computed_ratios", None):
        values["scenarios.matrix.computed_ratio"] = statistics.median(workload.computed_ratios)
    telemetry = getattr(workload, "telemetry", [])
    if telemetry:
        for name in MATRIX_COUNTS:
            key = name.rsplit(".", 1)[1]
            values[name] = statistics.median(entry[key] for entry in telemetry)
    values["trace.overhead_s"] = cycle_seconds(label_samples(traced)) - cycle_seconds(samples)
    values["trace.coverage"] = tracer.coverage()
    return values


def dominant_layers(tracer, traced: List[OpRecord]) -> Dict[str, str]:
    """Operation label -> the layer with the most self time in its ops."""

    dominant = {}
    for label in dict.fromkeys(record.label for record in traced):
        ops = {record.index for record in traced if record.label == label}
        times = {
            name: seconds
            for name, (seconds, _) in tracer.self_times(ops).items()
            if name != tracer.OP
        }
        if times:
            dominant[label] = max(times, key=times.get)
    return dominant


def main(argv=None) -> int:
    threads = pin_threads()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    workdir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    (workdir / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(workdir / "tmp")
    try:
        return _run(args, threads, workdir)
    except SetupError as error:
        print(f"set-up failed: {error}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it


def _run(args, threads: Dict[str, str], workdir: Path) -> int:
    import tempfile

    tempfile.tempdir = None  # re-read TMPDIR
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SetupError(f"no program source under {ROOT / 'src'}")
    setup_samples = measure_setup()
    sys.path.insert(0, str(ROOT / "src"))
    from tracer import Tracer
    from workloads import SCENARIOS, WORKLOADS, input_drift, inputs_digest

    fixtures = load_fixtures(SCENARIOS)
    workload = WORKLOADS[args.workload](args.seed, workdir, fixtures)
    identity = inputs_digest(args.workload, fixtures.digests)
    drift = input_drift()

    calibration = Calibration()
    tracer = None
    if args.trace:
        untraced = closed_loop(workload, args.seconds / 2, calibration)
        tracer = Tracer()
        tracer.install()
        try:
            traced = closed_loop(
                workload,
                args.seconds / 2,
                calibration,
                first_index=len(untraced),
                tracer=tracer,
                whole_passes=True,
            )
        finally:
            tracer.uninstall()
        records = untraced + traced
    else:
        records = closed_loop(workload, args.seconds, calibration)

    failed = sum(1 for record in records if record.error is not None)
    correct = failed == 0
    if args.trace:
        metrics = layer_metrics(args.workload, workload, untraced, traced, tracer)
        units = per_layer_units()
    else:
        samples = label_samples(records)
        metrics = {
            "cycle_s": cycle_seconds(samples),
            "setup_s": statistics.median(reference for _, reference in setup_samples),
            "peak_rss_mb": peak_rss_mb(),
        }
        units = END_TO_END

    machine = fingerprint(threads)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs_digest": identity,
        "input_drift": drift,
        "fingerprint": machine,
        "setup_samples": setup_samples,
        "ops": [record.__dict__ for record in records],
        "failed_ratio": failed / len(records),
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        report["dominant_layers"] = dominant_layers(tracer, traced)
        report["missing_layers"] = tracer.missing
        (OUT / f"{stem}-spans.json").write_text(json.dumps(tracer.as_records()))
    _print_report(args, records, untraced if args.trace else records, metrics, units, report)
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=2, sort_keys=True))

    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(records),
                "failed": failed,
                "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


def _print_report(args, records, untraced, metrics, units, report) -> None:
    """Print the run's figures; operation medians come from ``untraced``."""

    failed = sum(1 for record in records if record.error is not None)
    print(
        f"workload {args.workload} | seed {args.seed} | {len(records)} op(s), {failed} failed "
        f"| failed_ratio {report['failed_ratio']:.4f}"
    )
    names = {label: metric for metric, label in OP_METRICS[args.workload].items()}
    wall = label_samples(untraced, reference=False)
    for label, values in label_samples(untraced).items():
        line = (
            f"  {names[label]:20s} median {statistics.median(values):.4f} s at reference "
            f"speed, {statistics.median(wall[label]):.4f} s wall  n={len(values)}"
        )
        spread = tail(values)
        if spread is not None:
            line += f"  p{spread[0]} {spread[1]:.4f} s at reference speed"
        print(line)
    for name, value in metrics.items():
        print(f"  {name:52s} {value:.6g} {units[name]}")
    for label, layer in report.get("dominant_layers", {}).items():
        print(f"  dominant layer of {label} (self time): {layer}")
    if report.get("missing_layers"):
        print(f"  layers not found: {', '.join(report['missing_layers'])}")
    if report["input_drift"]:
        print(f"  inputs differ from the pinned tables: {', '.join(report['input_drift'])}")
    print(f"  inputs digest {report['inputs_digest']}")
    print("fingerprint " + json.dumps(report["fingerprint"], sort_keys=True))


if __name__ == "__main__":
    sys.exit(main())
