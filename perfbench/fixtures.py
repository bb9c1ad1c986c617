"""Benchmark set-up: import the program, build every catalog plant and its
experts, and load and digest-check the frozen kappa* students.

Run as a script, it does the same in a fresh interpreter and prints the
seconds it took, with the reference-speed factor of the calibration kernel
timed right after it, as one JSON line -- one sample of ``setup_s``::

    python3 perfbench/fixtures.py
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STUDENTS = HERE / "students"
MANIFEST = STUDENTS / "manifest.json"
#: Kernel seconds a set-up probe samples right after its set-up.
SETUP_CALIBRATION_SECONDS = 0.1

#: BLAS/OpenMP pools, pinned to one thread so the program's own forks (the
#: verification pool, the shards) are the only parallelism.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def pin_threads() -> Dict[str, str]:
    """Set every thread variable to 1; call before NumPy is imported."""

    import os

    for name in THREAD_VARS:
        os.environ[name] = "1"
    return {name: os.environ[name] for name in THREAD_VARS}


class SetupError(RuntimeError):
    """The benchmark's frozen inputs are missing or do not match the manifest."""


@dataclass
class Fixtures:
    systems: Dict[str, object] = field(default_factory=dict)
    experts: Dict[str, list] = field(default_factory=dict)
    #: scenario -> (state dict, architecture) of the frozen kappa* student.
    students: Dict[str, Tuple[dict, dict]] = field(default_factory=dict)
    #: scenario -> weights digest, as checked against the manifest.
    digests: Dict[str, str] = field(default_factory=dict)


def student_digest(network) -> str:
    from repro.experiments.digest import weights_digest

    return weights_digest(network.state_dict(), extra=network.architecture())


def load_fixtures(scenarios) -> Fixtures:
    from repro import make_default_experts, make_system
    from repro.nn.serialization import load_state_dict

    try:
        manifest = json.loads(MANIFEST.read_text())["students"]
    except (OSError, ValueError, KeyError) as error:
        raise SetupError(f"cannot read the student manifest {MANIFEST}: {error}")
    fixtures = Fixtures()
    for name in scenarios:
        system = make_system(name)
        fixtures.systems[name] = system
        fixtures.experts[name] = make_default_experts(system)
        entry = manifest.get(name)
        if entry is None:
            raise SetupError(f"the student manifest has no entry for {name!r}")
        network = load_state_dict(STUDENTS / entry["file"])
        digest = student_digest(network)
        if digest != entry["weights_digest"]:
            raise SetupError(
                f"frozen student {entry['file']} has digest {digest}, "
                f"the manifest records {entry['weights_digest']}"
            )
        fixtures.students[name] = (network.state_dict(), network.architecture())
        fixtures.digests[name] = digest
    return fixtures


def main() -> int:
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import SCENARIOS

    load_fixtures(SCENARIOS)
    seconds = time.perf_counter() - start
    # NumPy is loaded now, so timing the kernel adds nothing to the set-up.
    from calibration import Calibration

    scale = Calibration().sample(SETUP_CALIBRATION_SECONDS)
    print(json.dumps({"seconds": seconds, "scale": scale}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
