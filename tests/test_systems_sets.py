"""Tests for the Box set class."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.systems.sets import Box


class TestConstruction:
    def test_basic(self):
        box = Box([-1, -2], [1, 2])
        assert box.dimension == 2
        np.testing.assert_allclose(box.center, [0.0, 0.0])
        np.testing.assert_allclose(box.widths, [2.0, 4.0])

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            Box([1.0], [0.0])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            Box([0.0, 0.0], [1.0])

    def test_symmetric(self):
        box = Box.symmetric(2.0, dimension=3)
        np.testing.assert_allclose(box.low, [-2, -2, -2])
        np.testing.assert_allclose(box.high, [2, 2, 2])

    def test_symmetric_requires_dimension_for_scalar(self):
        with pytest.raises(ValueError):
            Box.symmetric(1.0)

    def test_equality(self):
        assert Box([0], [1]) == Box([0.0], [1.0])
        assert Box([0], [1]) != Box([0], [2])


class TestGeometry:
    def test_contains(self):
        box = Box([-1, -1], [1, 1])
        assert box.contains([0.0, 0.0])
        assert box.contains([1.0, 1.0])
        assert not box.contains([1.1, 0.0])
        assert box.contains([1.05, 0.0], tolerance=0.1)

    def test_contains_box(self):
        outer = Box([-2, -2], [2, 2])
        inner = Box([-1, -1], [1, 1])
        assert outer.contains_box(inner)
        assert not inner.contains_box(outer)

    def test_intersects_and_intersection(self):
        a = Box([0, 0], [2, 2])
        b = Box([1, 1], [3, 3])
        c = Box([5, 5], [6, 6])
        assert a.intersects(b)
        assert not a.intersects(c)
        overlap = a.intersection(b)
        assert overlap == Box([1, 1], [2, 2])
        assert a.intersection(c) is None

    def test_expand_and_scale(self):
        box = Box([-1, -1], [1, 1])
        expanded = box.expand(0.5)
        assert expanded == Box([-1.5, -1.5], [1.5, 1.5])
        scaled = box.scale(2.0)
        assert scaled == Box([-2, -2], [2, 2])

    def test_volume_and_radius(self):
        box = Box([0, 0], [2, 4])
        assert box.volume() == pytest.approx(8.0)
        assert box.radius() == pytest.approx(2.0)

    def test_corners(self):
        box = Box([0, 0], [1, 2])
        corners = box.corners()
        assert corners.shape == (4, 2)
        assert {tuple(c) for c in corners.tolist()} == {(0, 0), (1, 0), (0, 2), (1, 2)}


class TestSamplingAndSubdivision:
    def test_sample_inside(self):
        box = Box([-3, 0], [-1, 5])
        samples = box.sample(np.random.default_rng(0), count=200)
        assert samples.shape == (200, 2)
        assert all(box.contains(sample) for sample in samples)

    def test_sample_single(self):
        box = Box([-1], [1])
        sample = box.sample(np.random.default_rng(1))
        assert sample.shape == (1,)
        assert box.contains(sample)

    def test_grid(self):
        box = Box([0, 0], [1, 1])
        grid = box.grid(3)
        assert grid.shape == (9, 2)
        assert all(box.contains(point) for point in grid)

    def test_grid_invalid(self):
        with pytest.raises(ValueError):
            Box([0], [1]).grid(0)

    def test_split_covers_box(self):
        box = Box([0, 0], [4, 1])
        left, right = box.split()
        # Split should be along the widest axis (axis 0).
        assert left.high[0] == pytest.approx(2.0)
        np.testing.assert_array_equal(left.low, box.low)
        np.testing.assert_array_equal(right.high, box.high)
        np.testing.assert_array_equal(left.high[1:], box.high[1:])
        np.testing.assert_array_equal(right.low[1:], box.low[1:])
        assert right.low[0] == left.high[0]
        assert left.volume() + right.volume() == pytest.approx(box.volume())

    def test_split_specific_axis(self):
        box = Box([0, 0], [4, 2])
        bottom, top = box.split(axis=1)
        assert bottom.high[1] == pytest.approx(1.0)
        assert top.low[1] == pytest.approx(1.0)

    def test_subdivide_counts_and_volume(self):
        box = Box([-1, -1], [1, 1])
        cells = box.subdivide(4)
        assert len(cells) == 16
        assert sum(cell.volume() for cell in cells) == pytest.approx(box.volume())

    def test_subdivide_invalid(self):
        with pytest.raises(ValueError):
            Box([0], [1]).subdivide(0)


class TestProperties:
    @given(
        low=st.lists(st.floats(-10, 9), min_size=1, max_size=4),
        widths=st.lists(st.floats(0.01, 5), min_size=1, max_size=4),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_samples_always_inside(self, low, widths, seed):
        size = min(len(low), len(widths))
        low_arr = np.asarray(low[:size])
        high_arr = low_arr + np.asarray(widths[:size])
        box = Box(low_arr, high_arr)
        samples = box.sample(np.random.default_rng(seed), count=20)
        assert all(box.contains(sample, tolerance=1e-9) for sample in samples)

    @given(
        low=st.lists(st.floats(-5, 4), min_size=2, max_size=3),
        widths=st.lists(st.floats(0.1, 3), min_size=2, max_size=3),
        per_dim=st.integers(1, 4),
    )
    @settings(max_examples=30, deadline=None)
    def test_subdivision_partitions_volume(self, low, widths, per_dim):
        size = min(len(low), len(widths))
        low_arr = np.asarray(low[:size])
        box = Box(low_arr, low_arr + np.asarray(widths[:size]))
        cells = box.subdivide(per_dim)
        assert len(cells) == per_dim**size
        assert sum(cell.volume() for cell in cells) == pytest.approx(box.volume(), rel=1e-9)
        for cell in cells:
            assert box.contains_box(cell, tolerance=1e-9)
