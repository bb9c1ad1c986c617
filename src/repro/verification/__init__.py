"""Verification substrate: Bernstein abstraction, reachability, invariant sets.

The paper evaluates *verifiability* as the computation time needed to verify
safety properties of the distilled controller, using the ReachNN-style
pipeline of references [21], [22], [23]: the neural controller is
over-approximated by Bernstein polynomials with a bounded error (refined by
state-space partitioning), the error is folded into the disturbance, and the
resulting polynomial closed loop is analysed with reachable-set and
control-invariant-set computations.

Flow*, the invariant-set tool of Xue & Zhan, and the original ReachNN code
are not available offline, so this package implements the same chain with
interval arithmetic: the qualitative dependence the paper exploits -- a
larger Lipschitz constant forces finer partitions / higher polynomial degree
and therefore longer verification time -- is preserved (see
``docs/verification.md``).

Every analysis runs on ``(P, dim)`` box stacks, one box being a one-row
stack: Bernstein coefficients, error bounds and IBP enclosures for whole
stacks of boxes are computed with a few NumPy kernels, whole refinement
frontiers are split per iteration, and many (controller, system) jobs fan
out across processes via :class:`VerificationSweep`.
:func:`verify_controller` is the one driver that partitions; the analyses
(:func:`reachable_sets`, :func:`compute_invariant_set`) take the
:class:`PartitionedApproximation` they are given.  A frozen
one-box-at-a-time reference under ``tests/`` pins the batched flow bit for
bit.
"""

from repro.verification.intervals import (
    Interval,
    network_output_bounds_batch,
    refined_network_output_bounds_batch,
)
from repro.verification.bernstein import (
    bernstein_coefficients_batch,
    bernstein_enclosure_batch,
    bernstein_error_bound_batch,
    bernstein_grid_batch,
)
from repro.verification.partition import PartitionedApproximation, partition_network
from repro.verification.system_models import (
    MissingInclusionFunction,
    interval_dynamics_batch,
)
from repro.verification.reachability import ReachabilityResult, reachable_sets
from repro.verification.invariant import InvariantSetResult, compute_invariant_set
from repro.verification.verifier import VerificationReport, verify_controller
from repro.verification.sweep import (
    SweepJob,
    SweepJobResult,
    SweepReport,
    VerificationSweep,
    run_sweep_job,
)

__all__ = [
    "Interval",
    "network_output_bounds_batch",
    "refined_network_output_bounds_batch",
    "bernstein_coefficients_batch",
    "bernstein_enclosure_batch",
    "bernstein_error_bound_batch",
    "bernstein_grid_batch",
    "PartitionedApproximation",
    "partition_network",
    "MissingInclusionFunction",
    "interval_dynamics_batch",
    "ReachabilityResult",
    "reachable_sets",
    "InvariantSetResult",
    "compute_invariant_set",
    "VerificationReport",
    "verify_controller",
    "SweepJob",
    "SweepJobResult",
    "SweepReport",
    "VerificationSweep",
    "run_sweep_job",
]
