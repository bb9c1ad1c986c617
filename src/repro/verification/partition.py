"""State-space partitioning for Bernstein approximation refinement.

Reference [21] reduces the approximation error by partitioning the state
space and fitting one (lower-degree) Bernstein polynomial per partition:
``kappa*(x) in B^p_d(x) + [-eps_p, eps_p]`` for ``x in X_p``.  The number of
partitions needed to reach a target error grows with the controller's
Lipschitz constant, which is the concrete mechanism by which robust
distillation (smaller ``L``) shortens verification time.

Refinement is **frontier-batched**: every iteration scores the error bound
of the whole pending frontier with one vectorised pass, accepts the boxes
that meet the target, and bisects all refused boxes at once -- instead of
popping one box at a time off a queue.  The acceptance order and the
``max_partitions`` budget semantics replicate the historical breadth-first
queue exactly, so both engines produce identical partitions.  Once the
partition is fixed, all coefficient tensors are fitted with a single
stacked network evaluation and memoised in a
:class:`~repro.verification.bernstein.CoefficientCache`, so a box revisited
by a later query (or a re-refinement) is never refit.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.nn.lipschitz import network_lipschitz
from repro.nn.network import MLP
from repro.systems.sets import Box
from repro.verification.bernstein import (
    BernsteinApproximation,
    CoefficientCache,
    bernstein_enclosure_batch,
    bernstein_error_bound,
    bernstein_error_bound_batch,
)
from repro.verification.intervals import Interval


@dataclass
class PartitionedApproximation:
    """A set of per-partition Bernstein models covering one box."""

    network: MLP
    domain: Box
    boxes: List[Box]
    models: List[BernsteinApproximation]
    target_error: float
    lipschitz_constant: float
    refinement_steps: int = 0
    coefficient_cache: Optional[CoefficientCache] = None

    def __post_init__(self):
        if self.coefficient_cache is None:
            self.coefficient_cache = CoefficientCache(self.network)
        self._lows = np.stack([partition.low for partition in self.boxes], axis=0)
        self._highs = np.stack([partition.high for partition in self.boxes], axis=0)
        self._degrees = self.models[0].degrees
        self.coefficient_cache.insert_batch(
            self._lows, self._highs, self._degrees, [model.coefficients for model in self.models]
        )
        # Every partition shares one degree vector, so the summaries are
        # computed once here: row p of the batched bound is the scalar
        # ``models[p].error_bound()`` bit for bit.
        self._max_error = float(
            bernstein_error_bound_batch(self.lipschitz_constant, self._lows, self._highs, self._degrees).max()
        )
        self._total_coefficients = self.num_partitions * int(np.prod(self._degrees + 1))
        # Refined-IBP bounds are memoised per partition (keyed by the split
        # count): the overlap boxes that recur across reachability steps are
        # exactly the ones covering a whole partition, and indexing by
        # partition makes the lookup a vectorised gather.
        self._partition_ibp: dict = {}

    @property
    def num_partitions(self) -> int:
        return len(self.boxes)

    @property
    def max_error(self) -> float:
        """The overall approximation error ``epsilon = max_p eps_p``."""

        return self._max_error

    def total_coefficients(self) -> int:
        return self._total_coefficients

    def _overlap_mask(self, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        """Boolean ``(B, P)`` mask: query ``b`` intersects partition ``p``."""

        return np.all(self._lows[None, :, :] <= highs[:, None, :], axis=-1) & np.all(
            lows[:, None, :] <= self._highs[None, :, :], axis=-1
        )

    def _overlapping_indices(self, box: Box) -> np.ndarray:
        """Indices of partitions intersecting ``box`` (vectorised scan)."""

        return np.nonzero(self._overlap_mask(box.low[None, :], box.high[None, :])[0])[0]

    def locate(self, point: Sequence[float]) -> int:
        """Index of the partition containing ``point`` (first match)."""

        point = np.asarray(point, dtype=np.float64)
        mask = np.all(point >= self._lows - 1e-12, axis=-1) & np.all(
            point <= self._highs + 1e-12, axis=-1
        )
        indices = np.nonzero(mask)[0]
        if indices.size == 0:
            raise ValueError("point lies outside the partitioned domain")
        return int(indices[0])

    def evaluate(self, point: Sequence[float]) -> np.ndarray:
        """Evaluate the piecewise-polynomial surrogate controller."""

        return self.models[self.locate(point)].evaluate(point)

    # ------------------------------------------------------------------
    # Output enclosures
    # ------------------------------------------------------------------
    def _refined_ibp_for_overlaps(
        self,
        partition_index: np.ndarray,
        overlap_lows: np.ndarray,
        overlap_highs: np.ndarray,
        splits: int,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Refined IBP bounds for (partition, overlap) pairs, memoised.

        An overlap that equals its whole partition -- the case that recurs
        across reachability steps once the reach box covers the partition --
        is served from a per-partition memo (a vectorised gather); partial
        overlaps are propagated fresh in one stacked pass.  The fixed-block
        network evaluation makes every result independent of how the pairs
        are batched, so the memo cannot perturb the engine equivalence.
        """

        from repro.verification.intervals import refined_network_output_bounds_batch

        covered = np.all(overlap_lows == self._lows[partition_index], axis=-1) & np.all(
            overlap_highs == self._highs[partition_index], axis=-1
        )
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
                    self.network, self._lows[needed], self._highs[needed], splits_per_dim=splits
                )
                memo_lower[needed] = fresh_lower
                memo_upper[needed] = fresh_upper
                have[needed] = True
            lower[covered] = memo_lower[partition_index[covered]]
            upper[covered] = memo_upper[partition_index[covered]]
        return lower, upper

    def control_bounds_batch(
        self, lows: np.ndarray, highs: np.ndarray, include_error: bool = True
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Output enclosures for a whole ``(B, dim)`` stack of query boxes.

        Every (query, partition) overlap of the stack is collected into one
        flat pair list; the Bernstein fits over all overlaps run as a single
        stacked network evaluation (through the coefficient cache, so an
        overlap equal to a partition, or repeated across reachability
        steps, is free), the IBP cross-check runs as one stacked bound
        propagation, and the per-query hulls are segment reductions.  Each
        per-overlap enclosure is the intersection of the Bernstein range
        enclosure (inflated by the approximation error when
        ``include_error``) with a refined interval-bound-propagation
        enclosure: both are sound, so their intersection is a sound but much
        tighter bound.  Returns ``(lower, upper)`` of shape ``(B, out)``.
        """

        from repro.verification.intervals import refined_network_output_bounds_batch

        lows = np.atleast_2d(np.asarray(lows, dtype=np.float64))
        highs = np.atleast_2d(np.asarray(highs, dtype=np.float64))
        mask = self._overlap_mask(lows, highs)
        if not np.all(mask.any(axis=1)):
            raise ValueError("query box does not intersect the partitioned domain")
        query_index, partition_index = np.nonzero(mask)  # pairs, grouped by query
        overlap_lows = np.maximum(lows[query_index], self._lows[partition_index])
        overlap_highs = np.minimum(highs[query_index], self._highs[partition_index])

        coefficients = self.coefficient_cache.get_batch(overlap_lows, overlap_highs, self._degrees)
        errors = None
        if include_error:
            errors = bernstein_error_bound_batch(
                self.lipschitz_constant, overlap_lows, overlap_highs, self._degrees
            )
        bern_lower, bern_upper = bernstein_enclosure_batch(coefficients, errors)

        # Finer IBP refinement for low-dimensional plants (cheap), coarser in
        # higher dimensions where the sub-box count grows geometrically.
        splits = 4 if self.domain.dimension <= 2 else 2
        ibp_lower, ibp_upper = self._refined_ibp_for_overlaps(
            partition_index, overlap_lows, overlap_highs, splits
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

    def control_bounds(self, box: Box, include_error: bool = True, engine: str = "batched") -> Interval:
        """Output enclosure over an arbitrary query box.

        The query box is intersected with every partition it overlaps; the
        union (hull) of the per-partition range enclosures, inflated by the
        approximation error, bounds the controller output over the box.
        ``engine="batched"`` (the default) computes all overlaps at once via
        :meth:`control_bounds_batch`; ``engine="scalar"`` keeps the
        historical one-overlap-at-a-time loop for benchmarking and
        equivalence tests -- both produce bit-identical bounds.
        """

        if engine == "batched":
            lower, upper = self.control_bounds_batch(
                box.low[None, :], box.high[None, :], include_error=include_error
            )
            return Interval(lower[0], upper[0])

        from repro.verification.intervals import refined_network_output_bounds

        splits = 4 if self.domain.dimension <= 2 else 2
        enclosure: Optional[Interval] = None
        for index in self._overlapping_indices(box):
            partition_box = self.boxes[index]
            model = self.models[index]
            overlap = partition_box.intersection(box)
            if overlap is None:
                continue
            local = BernsteinApproximation(
                self.network,
                overlap,
                degrees=model.degrees,
                lipschitz_constant=self.lipschitz_constant,
            )
            bounds = local.range_enclosure(include_error=include_error)
            ibp = refined_network_output_bounds(self.network, overlap, splits_per_dim=splits)
            lower = np.maximum(bounds.lower, ibp.lower)
            upper = np.minimum(bounds.upper, ibp.upper)
            tightened = Interval(np.minimum(lower, upper), upper)
            enclosure = tightened if enclosure is None else enclosure.hull(tightened)
        if enclosure is None:
            raise ValueError("query box does not intersect the partitioned domain")
        return enclosure


def _refine_frontier(
    domain: Box,
    degrees: np.ndarray,
    lipschitz_constant: float,
    target_error: float,
    max_partitions: int,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Frontier-batched breadth-first refinement of ``domain``.

    Scores the whole pending frontier per iteration (one vectorised error
    computation, one vectorised bisection of every refused box) while
    replicating the historical FIFO-queue acceptance order and budget
    semantics decision for decision, so the accepted boxes are identical to
    the one-box-at-a-time loop's.
    """

    pending_lows = domain.low[None, :].copy()
    pending_highs = domain.high[None, :].copy()
    accepted_lows: List[np.ndarray] = []
    accepted_highs: List[np.ndarray] = []
    num_accepted = 0
    refinements = 0

    while pending_lows.shape[0]:
        frontier = pending_lows.shape[0]
        errors = bernstein_error_bound_batch(lipschitz_constant, pending_lows, pending_highs, degrees)
        fits = errors <= target_error
        accept = np.zeros(frontier, dtype=bool)
        # The budget decision depends on the running accepted/pending counts,
        # so it stays a (cheap) sequential scan over the precomputed error
        # verdicts: at the time the queue engine pops frontier box ``i`` its
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
        refinements += splits_so_far

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

    return np.concatenate(accepted_lows, axis=0), np.concatenate(accepted_highs, axis=0), refinements


def partition_network(
    network: MLP,
    domain: Box,
    target_error: float,
    degree: int = 3,
    max_partitions: int = 4096,
    lipschitz_constant: Optional[float] = None,
    engine: str = "batched",
    cache: Optional[CoefficientCache] = None,
) -> PartitionedApproximation:
    """Adaptively split ``domain`` until every partition meets the error target.

    Uses the analytic Lipschitz error bound to decide whether a partition is
    fine enough; each refused partition is bisected along its widest axis.
    The work performed (and the partition count) therefore scales with the
    network's Lipschitz constant -- the quantity the robust distillation
    minimises.

    ``engine="batched"`` (the default) refines whole frontiers per iteration
    and fits every accepted partition's coefficients with one stacked
    network evaluation; ``engine="scalar"`` keeps the historical
    one-box-at-a-time queue for benchmarking.  Both produce bit-identical
    partitions and coefficients.  A shared :class:`CoefficientCache` may be
    passed in so successive partitionings of the same network (e.g. at
    different target errors) reuse fitted boxes.
    """

    if target_error <= 0:
        raise ValueError("target_error must be positive")
    if max_partitions < 1:
        raise ValueError("max_partitions must be positive")
    if engine not in ("batched", "scalar"):
        raise ValueError(f"unknown engine {engine!r}; choose 'batched' or 'scalar'")
    if lipschitz_constant is None:
        lipschitz_constant = network_lipschitz(network)

    degrees = np.full(domain.dimension, int(degree), dtype=int)

    if engine == "scalar":
        # Breadth-first refinement: boxes are processed in FIFO order so
        # that, when the partition budget runs out, the accepted boxes have
        # roughly uniform size (instead of one deeply-refined corner and
        # huge leftovers).
        pending: deque = deque([domain])
        accepted: List[Box] = []
        refinements = 0
        while pending:
            box = pending.popleft()
            error = bernstein_error_bound(lipschitz_constant, box, degrees)
            if error <= target_error or (len(accepted) + len(pending) + 2) > max_partitions:
                accepted.append(box)
                continue
            first, second = box.split()
            pending.extend([first, second])
            refinements += 1
        models = [
            BernsteinApproximation(network, box, degrees=degrees, lipschitz_constant=lipschitz_constant)
            for box in accepted
        ]
    else:
        lows, highs, refinements = _refine_frontier(
            domain, degrees, lipschitz_constant, target_error, max_partitions
        )
        accepted = [Box(lows[index], highs[index]) for index in range(lows.shape[0])]
        if cache is None:
            cache = CoefficientCache(network)
        elif cache._function is not network:
            raise ValueError("the shared CoefficientCache was built for a different function")
        coefficients = cache.get_batch(lows, highs, degrees)
        models = [
            BernsteinApproximation.from_coefficients(
                network, box, degrees, coefficients[index], lipschitz_constant=lipschitz_constant
            )
            for index, box in enumerate(accepted)
        ]

    return PartitionedApproximation(
        network=network,
        domain=domain,
        boxes=accepted,
        models=models,
        target_error=target_error,
        lipschitz_constant=lipschitz_constant,
        refinement_steps=refinements,
        coefficient_cache=cache,
    )
