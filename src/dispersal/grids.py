"""Uniform cell-centered grids, fields over them, and Neumann difference operators.

The spatial interval D = (0, 1) and the trait interval I = (a, b) are both
discretized with cell-centered nodes x_i = (i + 1/2) h.  Second derivatives
use the 3-point stencil closed by mirror ghost cells, so the discrete
Laplacians are symmetric, annihilate constants, and conserve mass exactly
under midpoint quadrature.  Everything downstream (steady states,
eigenproblems, the Hamilton-Jacobi and phase-space solvers) consumes these
operators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BoundaryMinimizer, ValidationError


@dataclass(frozen=True)
class SpatialGrid:
    """Cell-centered grid on the unit spatial interval D = (0, 1)."""

    n_x: int

    def __post_init__(self) -> None:
        if self.n_x < 8:
            raise ValidationError("spatial grid needs n_x >= 8", n_x=self.n_x)

    @property
    def h_x(self) -> float:
        return 1.0 / self.n_x

    @property
    def h(self) -> float:
        return self.h_x

    @property
    def nodes(self) -> np.ndarray:
        return (np.arange(self.n_x) + 0.5) * self.h_x


@dataclass(frozen=True)
class TraitGrid:
    """Cell-centered grid on the trait interval I = (a, b)."""

    n_z: int
    a: float = -0.5
    b: float = 0.5

    def __post_init__(self) -> None:
        if self.n_z < 16:
            raise ValidationError("trait grid needs n_z >= 16", n_z=self.n_z)
        if not self.a < self.b:
            raise ValidationError("trait interval needs a < b", a=self.a, b=self.b)

    @property
    def h_z(self) -> float:
        return (self.b - self.a) / self.n_z

    @property
    def h(self) -> float:
        return self.h_z

    @property
    def nodes(self) -> np.ndarray:
        return self.a + (np.arange(self.n_z) + 0.5) * self.h_z


def _frozen_values(obj, values, shape) -> None:
    v = np.array(values, dtype=float)
    if v.shape != shape:
        raise ValidationError(
            "field shape mismatch", expected=list(shape), got=list(v.shape)
        )
    if not np.all(np.isfinite(v)):
        raise ValidationError("field contains non-finite values")
    v.flags.writeable = False
    object.__setattr__(obj, "values", v)


@dataclass(frozen=True)
class ScalarField:
    """Real values per spatial cell; immutable after construction."""

    grid: SpatialGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        _frozen_values(self, self.values, (self.grid.n_x,))


@dataclass(frozen=True)
class TraitField:
    """Real values per trait cell; immutable after construction."""

    grid: TraitGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        _frozen_values(self, self.values, (self.grid.n_z,))


@dataclass(frozen=True)
class PhaseDensity:
    """Nonnegative density per (x_i, z_j) cell at one time."""

    spatial: SpatialGrid
    trait: TraitGrid
    values: np.ndarray
    t: float = 0.0

    def __post_init__(self) -> None:
        _frozen_values(self, self.values, (self.spatial.n_x, self.trait.n_z))
        if self.values.min() < 0.0:
            raise ValidationError("phase density must be nonnegative",
                                  min_value=float(self.values.min()))

    def rho(self) -> ScalarField:
        """z-marginal: total population density per spatial cell."""
        return ScalarField(self.spatial, self.trait.h_z * self.values.sum(axis=1))

    def z_marginal(self) -> TraitField:
        """x-marginal: population mass per trait cell."""
        return TraitField(self.trait, self.spatial.h_x * self.values.sum(axis=0))


def mirror_laplacian(values: np.ndarray, h: float, axis: int = 0) -> np.ndarray:
    """3-point second difference with mirror-ghost Neumann closure.

    The ghost convention v[-1] = v[0], v[n] = v[n-1] makes the matrix
    symmetric with zero row sums, so constants are in the kernel and the
    midpoint-quadrature integral of the result vanishes identically.
    """
    v = np.asarray(values, dtype=float)
    if axis != 0:
        # moveaxis costs more than the stencil on the short 1-D theta solves
        v = np.moveaxis(v, axis, 0)
    out = np.empty_like(v)
    out[1:-1] = v[:-2] - 2.0 * v[1:-1] + v[2:]
    out[0] = v[1] - v[0]
    out[-1] = v[-2] - v[-1]
    out /= h * h
    return out if axis == 0 else np.moveaxis(out, 0, axis)


def laplacian_x(f: ScalarField) -> ScalarField:
    return ScalarField(f.grid, mirror_laplacian(f.values, f.grid.h_x))


def laplacian_z(g: TraitField) -> TraitField:
    return TraitField(g.grid, mirror_laplacian(g.values, g.grid.h_z))


def integrate(f: ScalarField | TraitField) -> float:
    """Midpoint quadrature; exact for constants, second order for smooth data."""
    return float(f.grid.h * f.values.sum())


def parabola_vertex(z_mid: float, g_left: float, g_mid: float, g_right: float,
                    h: float) -> tuple[float, float, float]:
    """Vertex location, vertex value and curvature of the 3-point parabola fit."""
    curv = (g_left - 2.0 * g_mid + g_right) / (h * h)
    slope = (g_right - g_left) / (2.0 * h)
    if curv <= 0.0:
        return z_mid, g_mid, curv
    dz = -slope / curv
    # an interior discrete minimizer keeps |dz| <= h; clamp guards round-off
    dz = min(max(dz, -h), h)
    return z_mid + dz, g_mid + slope * dz + 0.5 * curv * dz * dz, curv


def argmin_refined(g: TraitField) -> tuple[float, float, float]:
    """Refined minimizer (z*, g*, curvature) of a trait field.

    The leftmost minimizing node is selected before the parabolic refinement;
    a minimizer on the first or last cell is rejected because the constraint
    machinery assumes an interior minimum.
    """
    v = g.values
    j = int(np.argmin(v))
    if j == 0 or j == v.size - 1:
        raise BoundaryMinimizer("discrete minimizer on the boundary cell",
                                index=j, z=float(g.grid.nodes[j]))
    z = g.grid.nodes
    return parabola_vertex(float(z[j]), float(v[j - 1]), float(v[j]),
                           float(v[j + 1]), g.grid.h_z)


def argmax_refined(g: TraitField) -> tuple[float, float, float]:
    """Refined maximizer of a trait field (same 3-point fit, negated)."""
    neg = TraitField(g.grid, -g.values)
    z_star, g_star, curv = argmin_refined(neg)
    return z_star, -g_star, -curv


def default_m(grid: SpatialGrid) -> ScalarField:
    """Default resource distribution 1 + 0.5 cos(pi x).

    Nonconstant, positive, and Neumann-compatible (zero slope at both walls).
    """
    return ScalarField(grid, 1.0 + 0.5 * np.cos(np.pi * grid.nodes))


@dataclass(frozen=True)
class TimeIndexedField:
    """Piecewise-linear-in-time track of spatial fields (rho history, potentials)."""

    times: np.ndarray
    values: np.ndarray  # (n_t, n_x)

    def __post_init__(self) -> None:
        t = np.array(self.times, dtype=float)
        v = np.array(self.values, dtype=float)
        if t.ndim != 1 or v.ndim != 2 or v.shape[0] != t.size:
            raise ValidationError("time track shape mismatch",
                                  n_times=t.size, values_shape=list(v.shape))
        if t.size > 1 and np.any(np.diff(t) <= 0):
            raise ValidationError("time samples must be strictly increasing")
        t.flags.writeable = False
        v.flags.writeable = False
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    def at(self, t: float) -> np.ndarray:
        """Linear interpolation, constant extension outside the sampled window."""
        ts = self.times
        if t <= ts[0]:
            return self.values[0]
        if t >= ts[-1]:
            return self.values[-1]
        k = int(np.searchsorted(ts, t)) - 1
        w = (t - ts[k]) / (ts[k + 1] - ts[k])
        return (1.0 - w) * self.values[k] + w * self.values[k + 1]


MAX_STEPS = 10_000_000  # cap on the steps of one time march


def march_steps(T: float, dt: float) -> int:
    """Steps of size dt that cover the horizon T, at least one.

    A march of more than MAX_STEPS steps is rejected up front: with a tiny
    dt it would otherwise run for ever instead of failing.
    """
    n = max(np.ceil(T / dt - 1e-12), 1.0)
    if not n <= MAX_STEPS:
        raise ValidationError("time march exceeds the step cap",
                              T=T, dt=dt, steps=n, cap=MAX_STEPS)
    return int(n)
