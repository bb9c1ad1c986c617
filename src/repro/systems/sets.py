"""Axis-aligned box sets.

The paper constrains the safe region ``X``, initial set ``X0``, control bound
``U``, disturbance bound ``Omega`` and perturbation bound ``Delta`` by
"pre-defined functions, such as boxes".  All the test systems use boxes, so a
single :class:`Box` class covers every set in the reproduction (including the
partitions used by the Bernstein-polynomial verifier).
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.utils.seeding import RngLike, get_rng


class Box:
    """An axis-aligned hyper-rectangle ``[low, high]`` in R^n."""

    def __init__(self, low: Union[float, Sequence[float]], high: Union[float, Sequence[float]]):
        low_arr = np.atleast_1d(np.asarray(low, dtype=np.float64))
        high_arr = np.atleast_1d(np.asarray(high, dtype=np.float64))
        if low_arr.shape != high_arr.shape:
            raise ValueError("low and high must have the same shape")
        if np.any(high_arr < low_arr):
            raise ValueError("expected low <= high elementwise")
        self.low = low_arr
        self.high = high_arr

    # -- constructors -------------------------------------------------------
    @classmethod
    def symmetric(cls, half_width: Union[float, Sequence[float]], dimension: Optional[int] = None) -> "Box":
        """Box centred at the origin with the given half width per dimension."""

        half = np.asarray(half_width, dtype=np.float64)
        if half.ndim == 0:
            if dimension is None:
                raise ValueError("dimension is required for a scalar half width")
            half = np.full(dimension, float(half))
        return cls(-half, half)

    # -- basic properties ----------------------------------------------------
    @property
    def dimension(self) -> int:
        return int(self.low.size)

    @property
    def center(self) -> np.ndarray:
        return (self.low + self.high) / 2.0

    @property
    def widths(self) -> np.ndarray:
        return self.high - self.low

    def volume(self) -> float:
        return float(np.prod(self.widths))

    def radius(self) -> float:
        """Half of the largest side length."""

        return float(np.max(self.widths) / 2.0)

    # -- membership and geometry ----------------------------------------------
    def contains(self, point: Sequence[float], tolerance: float = 0.0) -> bool:
        point = np.asarray(point, dtype=np.float64)
        return bool(np.all(point >= self.low - tolerance) and np.all(point <= self.high + tolerance))

    def contains_batch(self, points: Sequence[Sequence[float]], tolerance: float = 0.0) -> np.ndarray:
        """Vectorised membership test for a ``(N, dim)`` batch of points.

        Returns a boolean mask of shape ``(N,)``; row ``i`` is ``True`` when
        ``points[i]`` lies inside the box (within ``tolerance``).
        """

        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        return np.all(
            (points >= self.low - tolerance) & (points <= self.high + tolerance), axis=-1
        )

    def contains_box(self, other: "Box", tolerance: float = 0.0) -> bool:
        return bool(
            np.all(other.low >= self.low - tolerance) and np.all(other.high <= self.high + tolerance)
        )

    def intersects(self, other: "Box") -> bool:
        return bool(np.all(self.low <= other.high) and np.all(other.low <= self.high))

    def expand(self, margin: Union[float, Sequence[float]]) -> "Box":
        """Minkowski sum with a symmetric box of the given margin."""

        margin = np.asarray(margin, dtype=np.float64)
        return Box(self.low - margin, self.high + margin)

    def scale(self, factor: float) -> "Box":
        """Scale the box about its centre."""

        center = self.center
        half = self.widths / 2.0 * factor
        return Box(center - half, center + half)

    def intersection(self, other: "Box") -> Optional["Box"]:
        low = np.maximum(self.low, other.low)
        high = np.minimum(self.high, other.high)
        if np.any(high < low):
            return None
        return Box(low, high)

    # -- sampling and subdivision ----------------------------------------------
    def sample(self, rng: RngLike = None, count: Optional[int] = None) -> np.ndarray:
        """Sample uniformly; returns shape ``(dim,)`` or ``(count, dim)``."""

        generator = get_rng(rng)
        if count is None:
            return generator.uniform(self.low, self.high)
        return generator.uniform(self.low, self.high, size=(count, self.dimension))

    def grid(self, points_per_dim: int) -> np.ndarray:
        """A regular grid of points covering the box, shape ``(N, dim)``."""

        if points_per_dim < 1:
            raise ValueError("points_per_dim must be at least 1")
        axes = [np.linspace(lo, hi, points_per_dim) for lo, hi in zip(self.low, self.high)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.reshape(-1) for m in mesh], axis=-1)

    def corners(self) -> np.ndarray:
        """All ``2^dim`` corner points, shape ``(2^dim, dim)``."""

        dim = self.dimension
        corners = np.zeros((2**dim, dim))
        for index in range(2**dim):
            for axis in range(dim):
                corners[index, axis] = self.high[axis] if (index >> axis) & 1 else self.low[axis]
        return corners

    def split(self, axis: Optional[int] = None) -> Tuple["Box", "Box"]:
        """Bisect along ``axis`` (default: the widest axis)."""

        if axis is None:
            axis = int(np.argmax(self.widths))
        middle = (self.low[axis] + self.high[axis]) / 2.0
        low_high = self.high.copy()
        low_high[axis] = middle
        high_low = self.low.copy()
        high_low[axis] = middle
        return Box(self.low, low_high), Box(high_low, self.high)

    def subdivide(self, per_dim: int) -> List["Box"]:
        """Uniformly partition into ``per_dim**dim`` sub-boxes."""

        if per_dim < 1:
            raise ValueError("per_dim must be at least 1")
        edges = [np.linspace(lo, hi, per_dim + 1) for lo, hi in zip(self.low, self.high)]
        boxes: List[Box] = []
        indices = np.stack(np.meshgrid(*[np.arange(per_dim)] * self.dimension, indexing="ij"), axis=-1).reshape(
            -1, self.dimension
        )
        for index in indices:
            low = np.array([edges[axis][index[axis]] for axis in range(self.dimension)])
            high = np.array([edges[axis][index[axis] + 1] for axis in range(self.dimension)])
            boxes.append(Box(low, high))
        return boxes

    # -- dunder helpers ----------------------------------------------------------
    def __iter__(self) -> Iterator[Tuple[float, float]]:
        return iter(zip(self.low.tolist(), self.high.tolist()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Box):
            return NotImplemented
        return bool(np.allclose(self.low, other.low) and np.allclose(self.high, other.high))

    def __repr__(self) -> str:
        intervals = ", ".join(f"[{lo:.4g}, {hi:.4g}]" for lo, hi in self)
        return f"Box({intervals})"
