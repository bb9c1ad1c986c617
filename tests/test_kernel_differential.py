"""Differential test pack pinning the optimized kernels to frozen references.

The batched hot-path kernels (Bernstein grid/coefficient/enclosure, the
blocked-row evaluator and the IBP forward pass) are rewritten for speed
from time to time; today the blocked evaluator hands the kernels
``(k, 64, ...)`` stacks of row blocks.  Speed work on verification kernels is only safe if
the float64 results are **bit-identical** -- the repo's soundness story
rests on one box being a one-row stack of the same kernels, and any
rounding drift would silently invalidate the committed golden runs.

This module freezes the pre-audit implementations verbatim as private
``_reference_*`` copies and asserts the live kernels reproduce them bit for
bit, across every registered scenario plus Hypothesis-generated boxes,
degrees and network weights.  If an optimization ever changes a single
mantissa bit, these tests name the kernel that drifted.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.network import MLP
from repro.scenarios import get_scenario, list_scenarios
from repro.systems.sets import Box
from repro.verification.bernstein import (
    _distinct_grid_points,
    bernstein_coefficients_batch,
    bernstein_enclosure_batch,
    bernstein_grid_batch,
)
from repro.verification.intervals import (
    EVAL_BLOCK_ROWS,
    STACK_BLOCKS,
    apply_row_blocked,
    network_output_bounds_batch,
)
from repro.verification.partition import PartitionedApproximation

# ----------------------------------------------------------------------
# Frozen reference implementations (verbatim pre-audit copies -- do not
# modify; they are the contract the optimized kernels must reproduce).
# ----------------------------------------------------------------------


def _reference_normalised_degrees(degrees, dimension):
    degrees = np.atleast_1d(np.asarray(degrees, dtype=int))
    if degrees.size == 1:
        degrees = np.full(dimension, int(degrees[0]))
    if degrees.size != dimension:
        raise ValueError("one degree per input dimension is required")
    if np.any(degrees < 1):
        raise ValueError("degrees must be at least 1")
    return degrees


def _reference_apply_row_blocked(function, rows):
    count = rows.shape[0]
    outputs = []
    for start in range(0, count, EVAL_BLOCK_ROWS):
        chunk = rows[start : start + EVAL_BLOCK_ROWS]
        valid = chunk.shape[0]
        if valid < EVAL_BLOCK_ROWS:
            pad = np.broadcast_to(chunk[-1:], (EVAL_BLOCK_ROWS - valid,) + chunk.shape[1:])
            chunk = np.concatenate([chunk, pad], axis=0)
        outputs.append(function(chunk)[:valid])
    return np.concatenate(outputs, axis=0)


def _reference_bernstein_grid_batch(lows, highs, degrees):
    lows = np.atleast_2d(np.asarray(lows, dtype=np.float64))
    highs = np.atleast_2d(np.asarray(highs, dtype=np.float64))
    dimension = lows.shape[1]
    degrees = _reference_normalised_degrees(degrees, dimension)
    axes = [
        np.linspace(lows[:, axis], highs[:, axis], int(degree) + 1, axis=-1)
        for axis, degree in enumerate(degrees)
    ]  # per axis: (P, degree + 1)
    index_grid = np.stack(
        np.meshgrid(*[np.arange(int(degree) + 1) for degree in degrees], indexing="ij"), axis=-1
    ).reshape(-1, dimension)  # (G, dim)
    return np.stack(
        [axes[axis][:, index_grid[:, axis]] for axis in range(dimension)], axis=-1
    )  # (P, G, dim)


def _reference_evaluate_function_batch(function, points):
    if isinstance(function, MLP):
        return np.atleast_2d(_reference_apply_row_blocked(function.predict, points))
    return np.asarray(function(points), dtype=np.float64).reshape(len(points), -1)


def _reference_bernstein_coefficients_batch(function, lows, highs, degrees):
    lows = np.atleast_2d(np.asarray(lows, dtype=np.float64))
    highs = np.atleast_2d(np.asarray(highs, dtype=np.float64))
    count, dimension = lows.shape
    degrees = _reference_normalised_degrees(degrees, dimension)
    grids = _reference_bernstein_grid_batch(lows, highs, degrees)
    flat = grids.reshape(-1, dimension)
    values = _reference_evaluate_function_batch(function, flat)
    shape = (count,) + tuple(int(degree) + 1 for degree in degrees) + (values.shape[-1],)
    return values.reshape(shape)


def _reference_bernstein_enclosure_batch(coefficients, errors=None):
    count = coefficients.shape[0]
    flat = coefficients.reshape(count, -1, coefficients.shape[-1])
    lower = flat.min(axis=1)
    upper = flat.max(axis=1)
    if errors is not None:
        errors = np.asarray(errors, dtype=np.float64).reshape(count, 1)
        lower = lower - errors
        upper = upper + errors
    return lower, upper


def _reference_network_output_bounds_batch(network, lows, highs):
    from repro.nn.layers import Activation, Linear

    def propagate(bounds):
        lower = bounds[..., 0]
        upper = bounds[..., 1]
        for layer in network.layers:
            if isinstance(layer, Linear):
                weight = layer.weight.data
                center = (lower + upper) / 2.0
                radius = (upper - lower) / 2.0
                new_center = center @ weight + layer.bias.data
                new_radius = radius @ np.abs(weight)
                lower = new_center - new_radius
                upper = new_center + new_radius
            elif isinstance(layer, Activation):
                name = layer.name
                if name == "relu":
                    lower = np.maximum(lower, 0.0)
                    upper = np.maximum(upper, 0.0)
                elif name == "tanh":
                    lower = np.tanh(lower)
                    upper = np.tanh(upper)
                elif name == "sigmoid":
                    lower = 1.0 / (1.0 + np.exp(-lower))
                    upper = 1.0 / (1.0 + np.exp(-upper))
                # identity: unchanged
        return np.stack([lower, upper], axis=-1)

    stacked = np.stack(
        [
            np.atleast_2d(np.asarray(lows, dtype=np.float64)),
            np.atleast_2d(np.asarray(highs, dtype=np.float64)),
        ],
        axis=-1,
    )  # (M, dim, 2): lower/upper travel together so blocks stay paired
    result = _reference_apply_row_blocked(propagate, stacked)
    return result[..., 0], result[..., 1]


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------


def assert_bit_identical(actual, expected, label):
    actual = np.asarray(actual)
    expected = np.asarray(expected)
    assert actual.dtype == expected.dtype, f"{label}: dtype drifted"
    assert actual.shape == expected.shape, f"{label}: shape drifted"
    assert actual.tobytes() == expected.tobytes(), f"{label}: results are not bit-identical"


def _box_stack(rng, count, dimension, scale=2.0):
    lows = rng.uniform(-scale, scale, size=(count, dimension))
    widths = rng.uniform(1e-3, scale, size=(count, dimension))
    return lows, lows + widths


def _network(rng, dimension, out_dim=1, activation="tanh"):
    seed = int(rng.integers(0, 2**31 - 1))
    return MLP(dimension, out_dim, hidden_sizes=(16, 16), activation=activation, seed=seed)


ACTIVATIONS = ("relu", "tanh", "sigmoid")


# ----------------------------------------------------------------------
# Registry-scenario coverage: every registered scenario's dimensionality
# runs through every audited kernel against its frozen reference.
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", list_scenarios())
def test_kernels_bit_identical_on_scenario(name):
    spec = get_scenario(name)
    system = spec.make_system()
    dimension = system.state_dim
    rng = np.random.default_rng(hash(name) % (2**32))
    network = MLP(dimension, system.control_dim, hidden_sizes=(24, 24), seed=7)
    init = system.initial_set
    base_lows = np.asarray(init.low, dtype=np.float64)
    base_highs = np.asarray(init.high, dtype=np.float64)
    offsets = rng.uniform(-0.5, 0.5, size=(9, dimension))
    lows = base_lows + offsets
    highs = base_highs + offsets + rng.uniform(0.0, 0.3, size=(9, dimension))
    degrees = [2] * dimension if dimension <= 3 else [1] * dimension

    grids = bernstein_grid_batch(lows, highs, degrees)
    assert_bit_identical(grids, _reference_bernstein_grid_batch(lows, highs, degrees), "grid")

    coeffs = bernstein_coefficients_batch(network, lows, highs, degrees)
    ref_coeffs = _reference_bernstein_coefficients_batch(network, lows, highs, degrees)
    assert_bit_identical(coeffs, ref_coeffs, "coefficients")

    errors = rng.uniform(0.0, 0.1, size=lows.shape[0])
    for err in (None, errors):
        lo, hi = bernstein_enclosure_batch(coeffs, err)
        ref_lo, ref_hi = _reference_bernstein_enclosure_batch(ref_coeffs, err)
        assert_bit_identical(lo, ref_lo, "enclosure lower")
        assert_bit_identical(hi, ref_hi, "enclosure upper")

    lo, hi = network_output_bounds_batch(network, lows, highs)
    ref_lo, ref_hi = _reference_network_output_bounds_batch(network, lows, highs)
    assert_bit_identical(lo, ref_lo, "ibp lower")
    assert_bit_identical(hi, ref_hi, "ibp upper")


# ----------------------------------------------------------------------
# Hypothesis: random boxes x degrees x weights, including batch sizes that
# straddle the 64-row block boundary.
# ----------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    count=st.integers(1, 9),
    dimension=st.integers(1, 3),
    degree=st.integers(1, 4),
)
def test_bernstein_kernels_bit_identical_random(seed, count, dimension, degree):
    rng = np.random.default_rng(seed)
    lows, highs = _box_stack(rng, count, dimension)
    degrees = [degree] * dimension
    network = _network(rng, dimension)

    grids = bernstein_grid_batch(lows, highs, degrees)
    assert_bit_identical(grids, _reference_bernstein_grid_batch(lows, highs, degrees), "grid")

    coeffs = bernstein_coefficients_batch(network, lows, highs, degrees)
    ref = _reference_bernstein_coefficients_batch(network, lows, highs, degrees)
    assert_bit_identical(coeffs, ref, "coefficients")

    errors = rng.uniform(0.0, 1.0, size=count)
    lo, hi = bernstein_enclosure_batch(coeffs, errors)
    ref_lo, ref_hi = _reference_bernstein_enclosure_batch(ref, errors)
    assert_bit_identical(lo, ref_lo, "enclosure lower")
    assert_bit_identical(hi, ref_hi, "enclosure upper")


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    count=st.integers(1, 200),
    dimension=st.integers(1, 4),
    activation=st.sampled_from(ACTIVATIONS),
)
def test_ibp_bit_identical_random(seed, count, dimension, activation):
    rng = np.random.default_rng(seed)
    lows, highs = _box_stack(rng, count, dimension)
    network = _network(rng, dimension, out_dim=2, activation=activation)
    lo, hi = network_output_bounds_batch(network, lows, highs)
    ref_lo, ref_hi = _reference_network_output_bounds_batch(network, lows, highs)
    assert_bit_identical(lo, ref_lo, "ibp lower")
    assert_bit_identical(hi, ref_hi, "ibp upper")


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    count=st.integers(1, 3 * EVAL_BLOCK_ROWS + 5),
    width=st.integers(1, 5),
)
def test_apply_row_blocked_bit_identical_random(seed, count, width):
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(count, width))
    network = _network(rng, width, out_dim=3)
    out = apply_row_blocked(network.predict, rows)
    ref = _reference_apply_row_blocked(network.predict, rows)
    assert_bit_identical(out, ref, "apply_row_blocked")


def test_apply_row_blocked_repeated_calls_identical():
    """Back-to-back calls must agree bitwise -- reused scratch cannot leak."""

    rng = np.random.default_rng(0)
    network = _network(rng, 3, out_dim=2)
    big = rng.normal(size=(EVAL_BLOCK_ROWS * 2 + 17, 3))
    small = rng.normal(size=(5, 3))
    first_big = apply_row_blocked(network.predict, big)
    first_small = apply_row_blocked(network.predict, small)
    assert_bit_identical(apply_row_blocked(network.predict, big), first_big, "repeat big")
    assert_bit_identical(apply_row_blocked(network.predict, small), first_small, "repeat small")


def test_coefficients_output_is_freshly_allocated():
    """Coefficient tensors are kept by their callers (a partitioning holds
    its partitions' fits), so the kernel's output must never alias reusable
    scratch memory."""

    rng = np.random.default_rng(1)
    network = _network(rng, 2)
    lows, highs = _box_stack(rng, 4, 2)
    first = bernstein_coefficients_batch(network, lows, highs, [2, 2])
    snapshot = first.copy()
    other_lows, other_highs = _box_stack(rng, 8, 2)
    bernstein_coefficients_batch(network, other_lows, other_highs, [3, 3])
    assert_bit_identical(first, snapshot, "coefficients mutated by a later call")


# ----------------------------------------------------------------------
# Stack edges: the blocked evaluator hands the kernels (k, 64, ...) stacks
# of up to STACK_BLOCKS blocks, so row counts on either side of one block
# and of one whole stack must still match the one-block-at-a-time
# references.
# ----------------------------------------------------------------------

STACK_EDGE_ROWS = (1, 63, 64, 65, 1023, 1024, 1025, 4097)


def _wide_network(rng, dimension, activation="tanh"):
    """One 512-wide hidden layer.  At this width (OpenBLAS, x86-64) one
    1024-row product rounds differently from sixteen 64-row products, so a
    stack evaluated as one fused product fails the comparisons below."""

    seed = int(rng.integers(0, 2**31 - 1))
    return MLP(dimension, 2, hidden_sizes=(512,), activation=activation, seed=seed)


def test_stack_edges_straddle_a_block_and_a_stack():
    stack_rows = STACK_BLOCKS * EVAL_BLOCK_ROWS
    assert {EVAL_BLOCK_ROWS - 1, EVAL_BLOCK_ROWS + 1} <= set(STACK_EDGE_ROWS)
    assert {stack_rows - 1, stack_rows, stack_rows + 1} <= set(STACK_EDGE_ROWS)


@pytest.mark.parametrize("count", STACK_EDGE_ROWS)
def test_apply_row_blocked_bit_identical_at_stack_edges(count):
    rng = np.random.default_rng(count)
    rows = rng.normal(size=(count, 3))
    network = _wide_network(rng, 3)
    out = apply_row_blocked(network.predict, rows)
    ref = _reference_apply_row_blocked(network.predict, rows)
    assert_bit_identical(out, ref, f"apply_row_blocked at {count} rows")


@pytest.mark.parametrize("activation", ACTIVATIONS)
@pytest.mark.parametrize("count", STACK_EDGE_ROWS)
def test_ibp_bit_identical_at_stack_edges(count, activation):
    rng = np.random.default_rng(count)
    lows, highs = _box_stack(rng, count, 3)
    network = _wide_network(rng, 3, activation=activation)
    lo, hi = network_output_bounds_batch(network, lows, highs)
    ref_lo, ref_hi = _reference_network_output_bounds_batch(network, lows, highs)
    assert_bit_identical(lo, ref_lo, f"ibp lower at {count} rows")
    assert_bit_identical(hi, ref_hi, f"ibp upper at {count} rows")


def test_apply_row_blocked_rejects_empty_input():
    network = _network(np.random.default_rng(2), 3)
    with pytest.raises(ValueError):
        apply_row_blocked(network.predict, np.empty((0, 3)))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    blocks=st.integers(1, STACK_BLOCKS),
    inner=st.sampled_from((1, 3, 16, 64, 512)),
    outer=st.integers(1, 32),
)
def test_stacked_matmul_equals_each_slice_product(seed, blocks, inner, outer):
    """The stacked blocks rest on this NumPy behaviour: ``np.matmul`` on a
    ``(k, 64, K)`` stack is one 2-D product per slice.  If a NumPy release
    ever fuses the slices into one larger product, this names the cause."""

    rng = np.random.default_rng(seed)
    stack = rng.normal(size=(blocks, EVAL_BLOCK_ROWS, inner))
    weight = rng.normal(size=(inner, outer))
    product = np.matmul(stack, weight)
    for index in range(blocks):
        assert_bit_identical(product[index], np.matmul(stack[index], weight), f"slice {index}")


# ----------------------------------------------------------------------
# Deduplicated fits: a box stack's distinct grid points are evaluated once
# and gathered back, which must equal fitting every box on its own.
# ----------------------------------------------------------------------


def _assert_matches_per_box_fits(function, lows, highs, degrees):
    """The stacked fit equals each box's own fit and the full-grid reference."""

    coeffs = bernstein_coefficients_batch(function, lows, highs, degrees)
    per_box = np.concatenate(
        [bernstein_coefficients_batch(function, low[None, :], high[None, :], degrees) for low, high in zip(lows, highs)]
    )
    assert_bit_identical(coeffs, per_box, "stacked fit vs per-box fits")
    ref = _reference_bernstein_coefficients_batch(function, lows, highs, degrees)
    assert_bit_identical(coeffs, ref, "stacked fit vs full-grid reference")
    return coeffs


def _distinct_count(lows, highs, degrees):
    """Distinct rows of the full grid stack, compared by bit pattern."""

    flat = bernstein_grid_batch(lows, highs, degrees).reshape(-1, lows.shape[1])
    return np.unique(flat.view(np.uint64), axis=0).shape[0]


def _uniform_tiling(domain_low, domain_high, cells):
    edges = [np.linspace(low, high, cells + 1) for low, high in zip(domain_low, domain_high)]
    index = np.stack(np.meshgrid(*[np.arange(cells)] * len(edges), indexing="ij"), axis=-1).reshape(-1, len(edges))
    lows = np.stack([edges[axis][index[:, axis]] for axis in range(len(edges))], axis=-1)
    highs = np.stack([edges[axis][index[:, axis] + 1] for axis in range(len(edges))], axis=-1)
    return lows, highs


def _kd_bisection(rng, dimension, leaves):
    """Split a random leaf at a random fraction of a random axis until
    ``leaves`` boxes tile ``[-2, 2]^dimension``."""

    lows = [np.full(dimension, -2.0)]
    highs = [np.full(dimension, 2.0)]
    while len(lows) < leaves:
        index = int(rng.integers(len(lows)))
        axis = int(rng.integers(dimension))
        low, high = lows.pop(index), highs.pop(index)
        middle = low[axis] + rng.choice([0.5, 0.25, 1.0 / 3.0]) * (high[axis] - low[axis])
        first_high, second_low = high.copy(), low.copy()
        first_high[axis] = second_low[axis] = middle
        lows += [low, second_low]
        highs += [first_high, high]
    return np.array(lows), np.array(highs)


@pytest.mark.parametrize("dimension,cells,degree", [(1, 7, 3), (2, 5, 3), (3, 3, 2), (2, 4, 1)])
def test_dedup_fit_on_a_uniform_tiling(dimension, cells, degree):
    """Tiles share faces, edges and corners, so their grids share points."""

    rng = np.random.default_rng(dimension * 100 + cells)
    lows, highs = _uniform_tiling(np.full(dimension, -1.5), np.full(dimension, 1.5), cells)
    degrees = [degree] * dimension
    _assert_matches_per_box_fits(_network(rng, dimension, out_dim=2), lows, highs, degrees)
    points, inverse = _distinct_grid_points(lows, highs, tuple(degree + 1 for degree in degrees))
    assert points.shape[0] == _distinct_count(lows, highs, degrees) < inverse.size
    flat = bernstein_grid_batch(lows, highs, degrees).reshape(-1, dimension)
    assert_bit_identical(points[inverse], flat, "gathered distinct points")


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    dimension=st.integers(1, 3),
    leaves=st.integers(1, 40),
    degree=st.integers(1, 3),
)
def test_dedup_fit_on_a_kd_bisection(seed, dimension, leaves, degree):
    rng = np.random.default_rng(seed)
    lows, highs = _kd_bisection(rng, dimension, leaves)
    _assert_matches_per_box_fits(_network(rng, dimension), lows, highs, [degree] * dimension)


def _signed_zero_probe(points):
    """Tells ``-0.0`` from ``0.0``: ``atan2(+-0, -1) = +-pi``."""

    return np.stack([np.arctan2(points[:, 0], -1.0), np.sum(np.copysign(1.0, points), axis=1)], axis=1)


def test_dedup_keeps_signed_zeros_apart():
    """``linspace`` keeps a ``-0.0`` upper bound as the last grid point (a
    ``-0.0`` lower bound comes out as ``0.0``), so boxes ending at ``-0.0``
    and at ``0.0`` have grids that compare equal but fit differently."""

    lows = np.array([[-1.0, -1.0], [-1.0, -1.0], [-0.0, 0.0], [0.0, -0.0], [-1.0, -0.0]])
    highs = np.array([[-0.0, 0.0], [0.0, -0.0], [1.0, 1.0], [1.0, 1.0], [-0.0, -0.0]])
    coeffs = _assert_matches_per_box_fits(_signed_zero_probe, lows, highs, [2, 2])
    assert not np.array_equal(coeffs[0], coeffs[1])
    assert _distinct_grid_points(lows, highs, (3, 3))[0].shape[0] == _distinct_count(lows, highs, [2, 2])


def test_dedup_evaluates_each_distinct_point_once_for_a_plain_callable():
    seen = []

    def function(points):
        seen.extend(point.tobytes() for point in points)
        return np.stack([np.sin(points[:, 0]) * np.cos(points[:, 1]), points[:, 0] - points[:, 1] ** 2], axis=1)

    lows, highs = _uniform_tiling(np.array([-1.0, 0.0]), np.array([1.0, 2.0]), 4)
    _assert_matches_per_box_fits(function, lows, highs, [3, 2])
    seen.clear()
    bernstein_coefficients_batch(function, lows, highs, [3, 2])
    assert len(seen) == len(set(seen)) == _distinct_count(lows, highs, [3, 2])


def test_dedup_fit_where_a_naive_key_overflows_int64():
    """Seven axes with 2**11 distinct coordinates on the first and 2**10 on
    each other one: the plain mixed-radix key needs 71 bits, and wrapped to
    int64 it maps box ``i`` and box ``i + 512`` (which differ only on the
    first axis) onto the same keys.  The key must be re-ranked on the way."""

    boxes = np.arange(1024)
    lows = np.empty((1024, 7))
    lows[:, 0] = boxes / 1024.0
    lows[:, 1:] = (boxes % 512 / 512.0)[:, None]
    highs = lows.copy()
    highs[:, 0] += 0.5 / 1024.0
    highs[:, 1:] += 0.5 / 512.0
    degrees = [1] * 7
    radix = 1
    for axis in range(7):
        points = np.linspace(lows[:, axis], highs[:, axis], 2, axis=-1)
        radix *= np.unique(points.view(np.uint64)).size
    assert radix == 2**71 > np.iinfo(np.int64).max
    coeffs = _assert_matches_per_box_fits(_network(np.random.default_rng(11), 7, out_dim=2), lows, highs, degrees)
    assert not np.array_equal(coeffs[:512], coeffs[512:])


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    dimension=st.integers(1, 4),
    partitions=st.integers(1, 30),
    queries=st.integers(1, 30),
)
def test_overlap_mask_equals_the_broadcast_form(seed, dimension, partitions, queries):
    """Coordinates on a coarse lattice make touching faces common."""

    rng = np.random.default_rng(seed)

    def boxes(count):
        corners = rng.integers(-4, 5, size=(2, count, dimension)) / 4.0
        return corners.min(axis=0), corners.max(axis=0)

    part_lows, part_highs = boxes(partitions)
    approx = PartitionedApproximation(
        network=_network(rng, dimension),
        domain=Box(np.full(dimension, -1.0), np.full(dimension, 1.0)),
        lows=part_lows,
        highs=part_highs,
        coefficients=np.zeros((partitions,) + (2,) * dimension + (1,)),
        target_error=1.0,
        lipschitz_constant=1.0,
    )
    lows, highs = boxes(queries)
    expected = np.all(part_lows[None, :, :] <= highs[:, None, :], axis=-1) & np.all(
        lows[:, None, :] <= part_highs[None, :, :], axis=-1
    )
    np.testing.assert_array_equal(approx._overlap_mask(lows, highs), expected)
