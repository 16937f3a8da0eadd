"""Space-time tensor grids and fields sampled on them."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch

__all__ = ["SpaceTimeGrid", "GridField", "trapezoid_2d"]


def trapezoid_2d(values, xs, ts) -> float:
    """Trapezoidal integral of t-major values[j, i] = f(xs[i], ts[j])."""
    return np.trapezoid(np.trapezoid(values, xs, axis=1), ts)


@dataclass(frozen=True)
class SpaceTimeGrid:
    """Uniform tensor grid with n_x interior space points and n_t interior
    time levels; the stored axes include the boundary columns and the
    initial/terminal levels."""

    n_x: int
    n_t: int
    interval: tuple[float, float]
    horizon: float

    def __post_init__(self):
        if self.n_x < 1 or self.n_t < 1:
            raise ValueError("grid needs at least one interior point per axis")
        a, b = self.interval
        if not (a < b and self.horizon > 0):
            raise ValueError("invalid domain")

    @property
    def h(self) -> float:
        a, b = self.interval
        return (b - a) / (self.n_x + 1)

    @property
    def k(self) -> float:
        return self.horizon / (self.n_t + 1)

    @property
    def xs(self) -> np.ndarray:
        a, _ = self.interval
        return a + self.h * np.arange(self.n_x + 2)

    @property
    def ts(self) -> np.ndarray:
        return self.k * np.arange(self.n_t + 2)


@dataclass
class GridField:
    """Values of a scalar function on a SpaceTimeGrid, t-major:
    values[j, i] = f(xs[i], ts[j])."""

    grid: SpaceTimeGrid
    values: np.ndarray

    def __post_init__(self):
        expected = (self.grid.n_t + 2, self.grid.n_x + 2)
        if self.values.shape != expected:
            raise GridMismatch(
                f"values shape {self.values.shape} does not match grid {expected}")

    def same_grid(self, other: "GridField") -> bool:
        return self.grid == other.grid
