"""State-space partitioning for Bernstein approximation refinement.

Reference [21] reduces the approximation error by partitioning the state
space and fitting one (lower-degree) Bernstein polynomial per partition:
``kappa*(x) in B^p_d(x) + [-eps_p, eps_p]`` for ``x in X_p``.  The number of
partitions needed to reach a target error grows with the controller's
Lipschitz constant, which is the concrete mechanism by which robust
distillation (smaller ``L``) shortens verification time.

Refinement is **frontier-batched**: every iteration scores the error bound
of the whole pending frontier with one vectorised pass, accepts the boxes
that meet the target, and bisects all refused boxes at once.  The
acceptance order and the ``max_partitions`` budget semantics are those of a
breadth-first (FIFO) queue of boxes.  Once the partition is fixed, all
coefficient tensors are fitted with one stacked network evaluation: each
fit batch evaluates every distinct grid point once; overlaps equal to a
partition reuse its fit.  The partition is held as stacked arrays --
``(P, dim)`` bounds and a ``(P, *degrees + 1, out)`` coefficient stack --
never as per-partition objects, beside a frozen clone of the network it was
fitted on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.nn.lipschitz import network_lipschitz
from repro.nn.network import MLP
from repro.systems.sets import Box
from repro.verification.bernstein import (
    bernstein_coefficients_batch,
    bernstein_enclosure_batch,
    bernstein_error_bound_batch,
)


@dataclass(eq=False)
class PartitionedApproximation:
    """Per-partition Bernstein models covering one box, as stacked arrays.

    Partition ``p`` is the box ``[lows[p], highs[p]]`` with the coefficient
    tensor ``coefficients[p]``; every partition shares one degree vector.
    ``network`` is replaced by a frozen clone (read-only weights) on
    construction, so later updates to the caller's network cannot reach the
    bounds of an approximation fitted on the old weights.
    """

    network: MLP
    domain: Box
    lows: np.ndarray
    highs: np.ndarray
    coefficients: np.ndarray
    target_error: float
    lipschitz_constant: float

    def __post_init__(self):
        self.network = _frozen_clone(self.network)
        self._degrees = np.array(self.coefficients.shape[1:-1], dtype=int) - 1
        # Every partition shares one degree vector, so the summaries are
        # computed once here: row p of the batched bound is partition p's
        # error bound eps_p.
        self._max_error = float(
            bernstein_error_bound_batch(self.lipschitz_constant, self.lows, self.highs, self._degrees).max()
        )
        self._total_coefficients = self.num_partitions * int(np.prod(self._degrees + 1))
        # Coefficient min/max per partition: the Bernstein range enclosure of
        # every overlap that covers a whole partition.
        self._coefficient_lower, self._coefficient_upper = bernstein_enclosure_batch(self.coefficients)
        # Refined-IBP bounds are memoised per partition (keyed by the split
        # count): the overlap boxes that recur across reachability steps are
        # exactly the ones covering a whole partition, and indexing by
        # partition makes the lookup a vectorised gather.
        self._partition_ibp: dict = {}

    @property
    def num_partitions(self) -> int:
        return self.lows.shape[0]

    @property
    def max_error(self) -> float:
        """The overall approximation error ``epsilon = max_p eps_p``."""

        return self._max_error

    def total_coefficients(self) -> int:
        return self._total_coefficients

    def _overlap_mask(self, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        """Boolean ``(B, P)`` mask: query ``b`` intersects partition ``p``.

        Built axis by axis into one ``(B, P)`` mask (and one scratch of the
        same shape), never as ``(B, P, dim)`` comparison stacks.
        """

        mask = np.ones((lows.shape[0], self.num_partitions), dtype=bool)
        scratch = np.empty_like(mask)
        for axis in range(lows.shape[1]):
            mask &= np.less_equal(self.lows[:, axis], highs[:, axis, None], out=scratch)
            mask &= np.less_equal(lows[:, axis, None], self.highs[:, axis], out=scratch)
        return mask

    # ------------------------------------------------------------------
    # Output enclosures
    # ------------------------------------------------------------------
    def _refined_ibp_for_overlaps(
        self,
        partition_index: np.ndarray,
        covered: np.ndarray,
        overlap_lows: np.ndarray,
        overlap_highs: np.ndarray,
        splits: int,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Refined IBP bounds for (partition, overlap) pairs, memoised.

        An overlap that equals its whole partition (``covered``) -- the case
        that recurs across reachability steps once the reach box covers the
        partition -- is served from a per-partition memo (a vectorised
        gather); partial overlaps are propagated fresh in one stacked pass.
        The fixed-block network evaluation makes every result independent of
        how the pairs are batched, so the memo cannot perturb the bounds.
        """

        from repro.verification.intervals import refined_network_output_bounds_batch

        count = overlap_lows.shape[0]
        output_dim = self.network.output_dim
        lower = np.empty((count, output_dim))
        upper = np.empty((count, output_dim))

        uncovered = ~covered
        if uncovered.any():
            fresh_lower, fresh_upper = refined_network_output_bounds_batch(
                self.network, overlap_lows[uncovered], overlap_highs[uncovered], splits_per_dim=splits
            )
            lower[uncovered] = fresh_lower
            upper[uncovered] = fresh_upper

        if covered.any():
            state = self._partition_ibp.get(splits)
            if state is None:
                state = (
                    np.zeros(self.num_partitions, dtype=bool),
                    np.empty((self.num_partitions, output_dim)),
                    np.empty((self.num_partitions, output_dim)),
                )
                self._partition_ibp[splits] = state
            have, memo_lower, memo_upper = state
            needed = np.unique(partition_index[covered & ~have[partition_index]])
            if needed.size:
                fresh_lower, fresh_upper = refined_network_output_bounds_batch(
                    self.network, self.lows[needed], self.highs[needed], splits_per_dim=splits
                )
                memo_lower[needed] = fresh_lower
                memo_upper[needed] = fresh_upper
                have[needed] = True
            lower[covered] = memo_lower[partition_index[covered]]
            upper[covered] = memo_upper[partition_index[covered]]
        return lower, upper

    def control_bounds_batch(self, lows: np.ndarray, highs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Output enclosures for a whole ``(B, dim)`` stack of query boxes.

        Every (query, partition) overlap of the stack is collected into one
        flat pair list.  An overlap equal to its partition reuses the
        partition's fit; the Bernstein fits over all other overlaps run as
        a single stacked network evaluation of their distinct grid points,
        the IBP cross-check runs as one stacked bound propagation, and the
        per-query hulls are segment reductions.  Each per-overlap enclosure
        is the intersection of the Bernstein range enclosure (inflated by the
        approximation error) with a refined interval-bound-propagation
        enclosure: both are sound, so their intersection is a sound but much
        tighter bound.  Returns ``(lower, upper)`` of shape ``(B, out)``.
        """

        lows = np.atleast_2d(np.asarray(lows, dtype=np.float64))
        highs = np.atleast_2d(np.asarray(highs, dtype=np.float64))
        mask = self._overlap_mask(lows, highs)
        if not np.all(mask.any(axis=1)):
            raise ValueError("query box does not intersect the partitioned domain")
        query_index, partition_index = np.nonzero(mask)  # pairs, grouped by query
        overlap_lows = np.maximum(lows[query_index], self.lows[partition_index])
        overlap_highs = np.minimum(highs[query_index], self.highs[partition_index])

        covered = np.all(overlap_lows == self.lows[partition_index], axis=-1) & np.all(
            overlap_highs == self.highs[partition_index], axis=-1
        )

        bern_lower = self._coefficient_lower[partition_index]
        bern_upper = self._coefficient_upper[partition_index]
        partial = ~covered
        if partial.any():
            coefficients = bernstein_coefficients_batch(
                self.network, overlap_lows[partial], overlap_highs[partial], self._degrees
            )
            bern_lower[partial], bern_upper[partial] = bernstein_enclosure_batch(coefficients)
            del coefficients
        errors = bernstein_error_bound_batch(
            self.lipschitz_constant, overlap_lows, overlap_highs, self._degrees
        )[:, None]
        np.subtract(bern_lower, errors, out=bern_lower)
        np.add(bern_upper, errors, out=bern_upper)

        # Finer IBP refinement for low-dimensional plants (cheap), coarser in
        # higher dimensions where the sub-box count grows geometrically.
        splits = 4 if self.domain.dimension <= 2 else 2
        ibp_lower, ibp_upper = self._refined_ibp_for_overlaps(
            partition_index, covered, overlap_lows, overlap_highs, splits
        )
        lower = np.maximum(bern_lower, ibp_lower)
        upper = np.minimum(bern_upper, ibp_upper)
        # Guard against degenerate overlaps where floating-point noise makes
        # the two (theoretically nested) enclosures cross.
        lower = np.minimum(lower, upper)

        # Hull the per-overlap enclosures of each query box (pairs are
        # grouped by query, so the hulls are contiguous segment reductions).
        starts = np.searchsorted(query_index, np.arange(lows.shape[0]))
        return np.minimum.reduceat(lower, starts), np.maximum.reduceat(upper, starts)


def _frozen_clone(network: MLP) -> MLP:
    """A copy of ``network`` with its own read-only weight arrays."""

    clone = network.clone()
    for tensor in clone.parameters():
        tensor.data.setflags(write=False)
    return clone


def _refine_frontier(
    domain: Box,
    degrees: np.ndarray,
    lipschitz_constant: float,
    target_error: float,
    max_partitions: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Frontier-batched breadth-first refinement of ``domain``.

    Scores the whole pending frontier per iteration (one vectorised error
    computation, one vectorised bisection of every refused box) while
    replicating a FIFO queue's acceptance order and budget semantics
    decision for decision, so the accepted boxes are those a
    one-box-at-a-time queue would accept, in the same order.
    """

    pending_lows = domain.low[None, :].copy()
    pending_highs = domain.high[None, :].copy()
    accepted_lows: List[np.ndarray] = []
    accepted_highs: List[np.ndarray] = []
    num_accepted = 0

    while pending_lows.shape[0]:
        frontier = pending_lows.shape[0]
        errors = bernstein_error_bound_batch(lipschitz_constant, pending_lows, pending_highs, degrees)
        fits = errors <= target_error
        accept = np.zeros(frontier, dtype=bool)
        # The budget decision depends on the running accepted/pending counts,
        # so it stays a (cheap) sequential scan over the precomputed error
        # verdicts: at the time a FIFO queue would pop frontier box ``i`` it
        # queue holds the rest of the frontier plus two children per split
        # performed so far in this generation.
        splits_so_far = 0
        for index in range(frontier):
            queue_length = (frontier - 1 - index) + 2 * splits_so_far
            if fits[index] or (num_accepted + queue_length + 2) > max_partitions:
                accept[index] = True
                num_accepted += 1
            else:
                splits_so_far += 1
        if accept.any():
            accepted_lows.append(pending_lows[accept])
            accepted_highs.append(pending_highs[accept])

        split = ~accept
        split_lows = pending_lows[split]
        split_highs = pending_highs[split]
        if split_lows.shape[0] == 0:
            break
        split_widths = split_highs - split_lows
        axes = np.argmax(split_widths, axis=-1)
        rows = np.arange(split_lows.shape[0])
        middles = (split_lows[rows, axes] + split_highs[rows, axes]) / 2.0
        first_highs = split_highs.copy()
        first_highs[rows, axes] = middles
        second_lows = split_lows.copy()
        second_lows[rows, axes] = middles
        # Children in queue order: (first_i, second_i) for each split box i.
        pending_lows = np.empty((2 * split_lows.shape[0], domain.dimension))
        pending_highs = np.empty_like(pending_lows)
        pending_lows[0::2] = split_lows
        pending_lows[1::2] = second_lows
        pending_highs[0::2] = first_highs
        pending_highs[1::2] = split_highs

    return np.concatenate(accepted_lows, axis=0), np.concatenate(accepted_highs, axis=0)


def partition_network(
    network: MLP,
    domain: Box,
    target_error: float,
    degree: int = 3,
    max_partitions: int = 4096,
    lipschitz_constant: Optional[float] = None,
) -> PartitionedApproximation:
    """Adaptively split ``domain`` until every partition meets the error target.

    Uses the analytic Lipschitz error bound to decide whether a partition is
    fine enough; each refused partition is bisected along its widest axis.
    The work performed (and the partition count) therefore scales with the
    network's Lipschitz constant -- the quantity the robust distillation
    minimises.  Whole frontiers are refined per iteration and every accepted
    partition's coefficients are fitted with one stacked network evaluation.
    """

    if target_error <= 0:
        raise ValueError("target_error must be positive")
    if max_partitions < 1:
        raise ValueError("max_partitions must be positive")
    if lipschitz_constant is None:
        lipschitz_constant = network_lipschitz(network)

    degrees = np.full(domain.dimension, int(degree), dtype=int)
    lows, highs = _refine_frontier(domain, degrees, lipschitz_constant, target_error, max_partitions)
    return PartitionedApproximation(
        network=network,
        domain=domain,
        lows=lows,
        highs=highs,
        coefficients=bernstein_coefficients_batch(network, lows, highs, degrees),
        target_error=target_error,
        lipschitz_constant=lipschitz_constant,
    )
