"""Space-time tensor grids and fields sampled on them."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["SpaceTimeGrid", "GridField", "trapezoid_2d", "require_count"]


def trapezoid_2d(values, xs, ts) -> float:
    """Trapezoidal integral of t-major values[j, i] = f(xs[i], ts[j])."""
    return np.trapezoid(np.trapezoid(values, xs, axis=1), ts)


def require_count(name: str, value, least: int = 1) -> None:
    """Raise ValueError unless value is an integer >= least (bool is not)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"need an integer {name} >= {least}, got {value!r}")


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
        require_count("n_x", self.n_x)
        require_count("n_t", self.n_t)
        a, b = self.interval
        if not (math.isfinite(a) and math.isfinite(b) and a < b):
            raise ValueError(f"interval must be finite with a < b, got {self.interval!r}")
        if not (math.isfinite(self.horizon) and self.horizon > 0):
            raise ValueError(f"horizon must be finite and > 0, got {self.horizon!r}")

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
    values[j, i] = f(xs[i], ts[j]); the container of an FD solution."""

    grid: SpaceTimeGrid
    values: np.ndarray

    def __post_init__(self):
        expected = (self.grid.n_t + 2, self.grid.n_x + 2)
        if self.values.shape != expected:
            raise ValueError(
                f"values shape {self.values.shape} does not match grid {expected}")
