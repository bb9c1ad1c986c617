#!/usr/bin/env python
"""Print one identity line per trained controller, per training logger and
per scenario's Table I.

Runs Algorithm 1 (``CocktailPipeline.run``, the training half of
``repro train``) on each paper system at the benchmark's ``train`` budgets
and widths, seed 0, then evaluates the result as ``repro train`` does, and
prints, per scenario::

    <scenario> AW sha256=<policy weights digest>
    <scenario> kappa_star sha256=<weights digest>
    <scenario> kappaD sha256=<weights digest>
    <scenario> log:<stage> sha256=<history digest>
    <scenario> metrics sha256=<Table I digest>

The weight digests hash every parameter's dtype, shape and bytes
(:func:`repro.experiments.digest.weights_digest`); a history digest hashes
each logged series (loss, Lipschitz bound, KL, ...) as float64 bytes, per
sorted key.  The metrics digest is
:func:`repro.experiments.digest.config_digest` of the per-controller Table I
record (``Sr``, ``e``, ``L``) that ``repro train`` writes to
``record.json``: ``evaluate_controllers`` on the trained controllers with
the scenario's evaluation config.  Two trees print the same lines exactly
when they train the same controllers bit for bit along the same loss curves
and measure the same Table I, so comparing the output before and after a
change is a one-command identity check::

    make train-digests          # or: python tools/train_digests.py

BLAS is pinned to one thread, as in the benchmark.  Nothing is written to
disk and no bytecode is cached under ``perfbench/``.  It takes about as
long as one pass of the ``train`` workload (~15 s on a 2-CPU x86-64 box).
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

sys.dont_write_bytecode = True
REPO = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(REPO / "perfbench"), str(REPO / "src")]

from fixtures import pin_threads  # noqa: E402

pin_threads()

from workloads import PAPER_SCENARIOS, train_spec  # noqa: E402

SEED = 0


def history_digest(history) -> str:
    """sha256 over a logger's series, per sorted key, as float64 bytes."""

    import numpy as np

    digest = hashlib.sha256()
    for key in sorted(history):
        digest.update(key.encode("utf-8"))
        digest.update(np.asarray(history[key], dtype=np.float64).tobytes())
    return digest.hexdigest()


def digest_lines(name: str, result) -> list:
    """The identity lines of one scenario's training result."""

    from repro.experiments.digest import weights_digest

    networks = {
        "AW": result.mixed_controller.policy,
        "kappa_star": result.student.network,
        "kappaD": result.direct_student.network,
    }
    lines = [f"{name} {label} sha256={weights_digest(module.state_dict())}" for label, module in networks.items()]
    for stage in sorted(result.loggers):
        lines.append(f"{name} log:{stage} sha256={history_digest(result.loggers[stage].history)}")
    return lines


def metrics_line(name: str, system, result, spec, config) -> str:
    """The Table I identity line: the digest of ``repro train``'s record."""

    from repro.experiments.digest import config_digest
    from repro.metrics import evaluate_controllers

    metrics = evaluate_controllers(system, result.controllers(), seed=spec.seed, config=config.evaluation)
    record = {label: metric.as_dict() for label, metric in metrics.items()}
    return f"{name} metrics sha256={config_digest(record)}"


def main() -> int:
    from repro import CocktailPipeline, make_default_experts, make_system, set_global_seed
    from repro.jobs.runner import _resolve_train

    for name in PAPER_SCENARIOS:
        spec = train_spec(name, SEED, "")
        _, _, config, _ = _resolve_train(spec)
        set_global_seed(spec.seed)
        system = make_system(spec.system)
        result = CocktailPipeline(system, make_default_experts(system), config).run()
        for line in digest_lines(name, result):
            print(line, flush=True)
        print(metrics_line(name, system, result, spec, config), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
