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

from .errors import ValidationError


@dataclass(frozen=True)
class SpatialGrid:
    """Cell-centered grid on the unit spatial interval D = (0, 1)."""

    n_x: int

    def __post_init__(self) -> None:
        if self.n_x < 8:
            raise ValidationError("spatial grid needs n_x >= 8", n_x=self.n_x)
        check_records("habitat grid", 1, self.n_x)  # before any node array

    @property
    def h_x(self) -> float:
        return 1.0 / self.n_x

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


def mirror_laplacian(values: np.ndarray, h: float) -> np.ndarray:
    """3-point second difference with mirror-ghost Neumann closure.

    The ghost convention v[-1] = v[0], v[n] = v[n-1] makes the matrix
    symmetric with zero row sums, so constants are in the kernel and the
    midpoint-quadrature integral of the result vanishes identically.
    """
    v = np.asarray(values, dtype=float)
    out = np.empty_like(v)
    out[1:-1] = v[:-2] - 2.0 * v[1:-1] + v[2:]
    out[0] = v[1] - v[0]
    out[-1] = v[-2] - v[-1]
    out /= h * h
    return out


def neumann_bands(r, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Main and off bands of -r*h^2*L, L the mirror-ghost Laplacian on n nodes.

    The main band is 2r inside and r on the two end rows (the ghost folds
    back onto the wall node); the off band is -r.  A scalar r gives 1-D
    bands of length n and n - 1; k values give (k, n) and (k, n - 1), one
    row per r.
    """
    r = np.asarray(r, dtype=float)[..., None]
    main = np.repeat(2.0 * r, n, axis=-1)
    main[..., [0, -1]] = r
    return main, np.repeat(-r, n - 1, axis=-1)


def first_difference(side: int, h: float, f) -> float | np.ndarray:
    """Second-order first difference: one-sided forward (side 1) from
    f[0], f[1], f[2], backward (side -1) likewise, central (side 0) from
    the outer pair (f[0], f[1]) = (f(x - h), f(x + h))."""
    if side > 0:
        return (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * h)
    if side < 0:
        return (3.0 * f[0] - 4.0 * f[1] + f[2]) / (2.0 * h)
    return (f[1] - f[0]) / (2.0 * h)


def second_difference(side: int, h: float, f) -> float | np.ndarray:
    """Second difference: four points stepping away from f[0] when one-sided,
    (f(x - h), f(x + h), f(x)) when central."""
    if side:
        f0, f1, f2, f3 = f
        return (2.0 * f0 - 5.0 * f1 + 4.0 * f2 - f3) / (h * h)
    fm, fp, fc = f
    return (fm - 2.0 * fc + fp) / (h * h)


def difference_tables(f: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """First and second differences along axis 0 of samples with spacing h:
    central inside, one-sided on the first and last rows (n >= 4)."""
    d1 = np.empty_like(f)
    d2 = np.empty_like(f)
    d1[1:-1] = first_difference(0, h, (f[:-2], f[2:]))
    d1[0] = first_difference(1, h, f[:3])
    d1[-1] = first_difference(-1, h, f[:-4:-1])
    # the mirrored central pair keeps the f[x+h] - 2 f[x] + f[x-h] order
    d2[1:-1] = second_difference(0, h, (f[2:], f[:-2], f[1:-1]))
    d2[0] = second_difference(1, h, f[:4])
    d2[-1] = second_difference(-1, h, f[:-5:-1])
    return d1, d2


def parabola_vertex(z_mid: float, g_left: float, g_mid: float, g_right: float,
                    h: float) -> tuple[float, float, float]:
    """Vertex location, vertex value and curvature of the 3-point parabola fit."""
    curv = second_difference(0, h, (g_left, g_right, g_mid))
    slope = first_difference(0, h, (g_left, g_right))
    if curv <= 0.0:
        return z_mid, g_mid, curv
    dz = -slope / curv
    # an interior discrete minimizer keeps |dz| <= h; clamp guards round-off
    dz = min(max(dz, -h), h)
    return z_mid + dz, g_mid + slope * dz + 0.5 * curv * dz * dz, curv


def default_m(grid: SpatialGrid, amp: float = 0.5) -> ScalarField:
    """Resource distribution 1 + amp cos(pi x), by default 1 + 0.5 cos(pi x).

    Neumann-compatible (zero slope at both walls); the default is also
    nonconstant and positive.
    """
    return ScalarField(grid, 1.0 + amp * np.cos(np.pi * grid.nodes))


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

    def at(self, t) -> np.ndarray:
        """Linear interpolation at a time (one field) or an array of times
        (one field per time), constant outside the sampled window."""
        ts, vs = self.times, self.values
        if ts.size == 1:
            return np.broadcast_to(vs[0], np.shape(t) + vs.shape[1:])
        k = np.clip(np.searchsorted(ts, t) - 1, 0, ts.size - 2)
        # at or beyond either end w is exactly 0 or 1
        w = np.clip((t - ts[k]) / (ts[k + 1] - ts[k]), 0.0, 1.0)[..., None]
        return (1.0 - w) * vs[k] + w * vs[k + 1]


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


def check_records(what: str, records: float, width: int) -> None:
    """Reject `what`, `records` rows of `width` values, past MAX_STEPS."""
    if not records * width <= MAX_STEPS:
        raise ValidationError(f"{what} exceeds the step cap",
                              records=records, width=width, cap=MAX_STEPS)
