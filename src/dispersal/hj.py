"""Constrained Hamilton-Jacobi solver, canonical trait ODE, and a
dynamic-programming oracle.

The limit problem is dV/dt + |dV/dz|^2 = R(z, zbar(t), t) on the trait
interval with Neumann walls and the constraint min_z V(., t) = 0; zbar(t) is
the (unique interior) minimizer and sigma(t) its curvature.  The constraint
is enforced by subtracting the discrete minimum after every step; the
subtraction rate is reported as the flat multiplier.

Two independent discretizations are provided: a monotone Godunov scheme for
H(p) = p^2, and a Lax-Oleinik dynamic-programming step built on the
variational (control) form of the same equation.  They are deliberately not
allowed to share update code; their agreement is a correctness oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ecology import ThetaCache, lambda_gradient, lambda_table
from .errors import (CurvatureCollapsed, SolverError, TrajectoryHitBoundary,
                     ValidationError)
from .grids import (TraitField, TraitGrid, check_records, march_steps,
                    parabola_vertex)

CFL_SAFETY = 0.9
CFL_MAX_HALVINGS = 40
GRADIENT_FLOOR = 1e-9       # delta in the CFL denominator
SIGMA_JUMP_FRACTION = 0.2   # 3-point curvature jump that triggers the 5-point fit
DIAG_ZERO_TOL = 5e-4        # |lambda(zbar, zbar)| allowed for interpolated tables
RESIDENT_SAMPLES = 65       # resident columns of the self-consistent table
CANONICAL_DT = 0.01         # RK4 step of the canonical ODE


class SelfConsistentSource:
    """Invasion-exponent source R(z, zbar) = lambda(z, zbar).

    Rate rows for the grid nodes are linearly interpolated between the two
    resident samples that bracket zbar.  Each resident column is computed on
    first use and kept, so a run pays only for the residents its minimizer
    visits.  The diagonal gradient used by the canonical ODE is evaluated
    directly (no table) for accuracy.
    """

    def __init__(self, cache: ThetaCache, grid: TraitGrid):
        self.cache = cache
        self.profile = profile = cache.profile
        self.grid = grid
        self._residents = np.linspace(profile.a, profile.b, RESIDENT_SAMPLES)
        self._columns: dict[int, np.ndarray] = {}

    def _column(self, j: int) -> np.ndarray:
        col = self._columns.get(j)
        if col is None:
            col = lambda_table(self.grid.nodes, self._residents[j:j + 1],
                               self.cache)[:, 0]
            self._columns[j] = col
        return col

    def rate(self, z: np.ndarray, t: float, zbar: float | None = None) -> np.ndarray:
        if zbar is None:
            raise ValidationError("self-consistent source needs the minimizer")
        r = self._residents
        j = int(np.clip(np.searchsorted(r, zbar) - 1, 0, r.size - 2))
        w = np.clip((zbar - r[j]) / (r[j + 1] - r[j]), 0.0, 1.0)
        row = (1.0 - w) * self._column(j) + w * self._column(j + 1)
        # linear in zbar between nodes and, unlike np.interp, not clamped
        # beyond the end nodes, which lie half a cell inside the walls
        nodes = self.grid.nodes
        i = int(np.clip(np.searchsorted(nodes, zbar) - 1, 0, nodes.size - 2))
        diag = float(row[i] + (zbar - nodes[i]) * (row[i + 1] - row[i])
                     / (nodes[i + 1] - nodes[i]))
        if abs(diag) > DIAG_ZERO_TOL:
            raise SolverError("invasion exponent nonzero on the diagonal",
                              zbar=float(zbar), value=diag, tol=DIAG_ZERO_TOL)
        if z is not self.grid.nodes and not np.array_equal(z, self.grid.nodes):
            row = np.interp(z, self.grid.nodes, row)
        return row

    def diag_gradient(self, zbar: float, t: float = 0.0) -> float:
        return lambda_gradient(zbar, zbar, self.cache)


@dataclass(frozen=True)
class HJSolution:
    """Recorded constrained solution: field, minimizer path, curvature."""

    grid: TraitGrid
    times: np.ndarray       # (n_rec,)
    V: np.ndarray           # (n_rec, n_z), min of each row is exactly 0
    zbar: np.ndarray        # (n_rec,)
    sigma: np.ndarray       # (n_rec,)
    multiplier: np.ndarray  # (n_rec,)
    K3: float               # max over records of max(sigma, 1/sigma)
    max_drift: float        # max pre-normalization |min V| per unit step

    def __post_init__(self):
        if np.max(np.abs(self.V.min(axis=1))) != 0.0:
            raise SolverError("constraint normalization lost",
                              worst=float(np.max(np.abs(self.V.min(axis=1)))))
        a, b = self.grid.a, self.grid.b
        if np.any(self.zbar <= a) or np.any(self.zbar >= b):
            raise TrajectoryHitBoundary("recorded minimizer left the interior")


def _validate_initial(grid: TraitGrid, V0: TraitField) -> np.ndarray:
    v = np.asarray(V0.values, dtype=float)
    if v.min() < 0.0:
        raise ValidationError("initial value must be nonnegative",
                              min=float(v.min()))
    j = int(np.argmin(v))
    if j == 0 or j == v.size - 1:
        raise ValidationError("initial minimizer must be interior", index=j)
    d2 = np.diff(v, 2)
    if np.any(d2 <= 0.0):
        raise ValidationError("initial value must be discretely convex",
                              worst=float(d2.min()))
    return v - v.min()


def _minimizer(v: np.ndarray, grid: TraitGrid,
               t: float) -> tuple[int, float, float]:
    """Leftmost minimizing node j of v, the refined minimizer zbar and the
    3-point curvature there; the constraint rejects a minimizer on a wall."""
    j = int(np.argmin(v))
    z = grid.nodes
    if j == 0 or j == v.size - 1:
        raise TrajectoryHitBoundary("minimizer reached the wall",
                                    t=t, z=float(z[j]))
    TraitField(grid, v)  # rejects a non-finite value
    zbar, _, curv = parabola_vertex(float(z[j]), float(v[j - 1]), float(v[j]),
                                    float(v[j + 1]), grid.h_z)
    return j, zbar, curv


def _one_sided_gradients(v: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    slope = (v[1:] - v[:-1]) / h
    # mirror ghost: zero slope into the wall
    return np.concatenate([[0.0], slope]), np.concatenate([slope, [0.0]])


def _godunov_hamiltonian(p_minus: np.ndarray, p_plus: np.ndarray) -> np.ndarray:
    up = np.maximum(p_minus, 0.0)
    down = np.minimum(p_plus, 0.0)
    return np.maximum(up * up, down * down)


def _extract_sigma(v: np.ndarray, grid: TraitGrid, j: int, three: float,
                   sigma_prev: float) -> float:
    """Curvature at the minimizer node j: the 3-point value `three` that
    `_minimizer` returns, unless it jumps away from `sigma_prev`."""
    if sigma_prev <= 0.0:
        return three
    if abs(three - sigma_prev) <= SIGMA_JUMP_FRACTION * abs(sigma_prev):
        return three
    # jumpy 3-point curvature: quadratic least squares over 5 nodes
    lo = max(j - 2, 0)
    hi = min(j + 3, v.size)
    zs = grid.nodes[lo:hi] - grid.nodes[j]
    A = np.vstack([np.ones_like(zs), zs, zs * zs]).T
    coef, *_ = np.linalg.lstsq(A, v[lo:hi], rcond=None)
    return float(2.0 * coef[2])


def hj_steps(grid: TraitGrid, T: float, dt: float,
             record_every: int) -> tuple[int, int]:
    """Steps and records (the start, every record_every-th step and the
    last) of a Godunov march; rejects inputs that march nothing or too much."""
    if dt <= 0.0 or T <= 0.0:
        raise ValidationError("dt and T must be positive", dt=dt, T=T)
    if record_every < 1:
        raise ValidationError("record_every must be >= 1",
                              record_every=record_every)
    n_steps = march_steps(T, dt)
    n_records = 1 + -(-n_steps // record_every)
    check_records(n_records, grid.n_z)
    return n_steps, n_records


def solve_constrained_hj(source, V0: TraitField, T: float, dt: float, *,
                         record_every: int = 1) -> HJSolution:
    """Godunov marching of the constrained equation on [0, T].

    Each requested step is internally subdivided by halving whenever the
    gradient-dependent CFL bound demands it; the minimum is re-zeroed after
    every substep and the subtracted amount accumulates into the reported
    multiplier.  The source is evaluated at the current step's minimizer
    (explicit coupling).
    """
    grid = V0.grid
    n_steps, _ = hj_steps(grid, T, dt, record_every)
    v = _validate_initial(grid, V0)
    h = grid.h_z
    z = grid.nodes

    times, records = [0.0], [v.copy()]
    # the minimizer of the current v: the next substep's source trait and,
    # at a step's end, its record
    j, zb, three = _minimizer(v, grid, 0.0)
    zbar, sigma, multiplier = [zb], [three], [0.0]
    sigma_prev, max_drift = three, 0.0
    k3 = max(three, 1.0 / three) if three > 0 else np.inf

    t = acc = t_last_rec = 0.0
    for step in range(1, n_steps + 1):
        t_target = min(step * dt, T)
        while t < t_target - 1e-14 * max(abs(t_target), 1.0):
            p_minus, p_plus = _one_sided_gradients(v, h)
            speed = 2.0 * max(np.max(np.abs(p_minus)), np.max(np.abs(p_plus)))
            bound = CFL_SAFETY * h / (speed + GRADIENT_FLOOR)
            dt_sub = t_target - t
            halvings = 0
            while dt_sub > bound:
                dt_sub *= 0.5
                halvings += 1
                if halvings > CFL_MAX_HALVINGS:
                    raise SolverError("step collapsed under the CFL bound",
                                      t=t, bound=bound)
            ham = _godunov_hamiltonian(p_minus, p_plus)
            v = v - dt_sub * ham + dt_sub * source.rate(z, t, zb)
            low = float(v.min())
            max_drift = max(max_drift, abs(low) / dt_sub)
            v -= low
            acc += low
            t += dt_sub
            j, zb, three = _minimizer(v, grid, t)
        t = t_target
        sig_now = _extract_sigma(v, grid, j, three, sigma_prev)
        sigma_prev = sig_now
        if step % record_every == 0 or step == n_steps:
            times.append(t)
            records.append(v.copy())
            zbar.append(zb)
            sigma.append(sig_now)
            multiplier.append(acc / (t - t_last_rec))
            acc = 0.0
            t_last_rec = t
            if sig_now > 0:
                k3 = max(k3, sig_now, 1.0 / sig_now)

    return HJSolution(grid, np.array(times), np.array(records),
                      np.array(zbar), np.array(sigma), np.array(multiplier),
                      float(k3), float(max_drift))


@dataclass(frozen=True)
class CanonicalTrajectory:
    times: np.ndarray
    zbar: np.ndarray
    sigma: np.ndarray

    def at(self, t: float) -> float:
        return float(np.interp(t, self.times, self.zbar))


def canonical_ode(source, sigma_track, z0: float,
                  T: float) -> CanonicalTrajectory:
    """RK4 for dzbar/dt = -dR/dz1(zbar, zbar) / sigma(t), step `CANONICAL_DT`.

    sigma(t) interpolates the (times, values) pair `sigma_track` linearly and
    must stay positive; zbar must stay inside `source.profile`'s interval.
    """
    s_times = np.asarray(sigma_track[0], dtype=float)
    s_vals = np.asarray(sigma_track[1], dtype=float)
    dt = CANONICAL_DT
    if T <= 0.0:
        raise ValidationError("T must be positive", T=T)

    def sigma_of(t: float) -> float:
        s = float(np.interp(t, s_times, s_vals))
        if s <= 0.0:
            raise CurvatureCollapsed("interpolated curvature not positive",
                                     t=t, sigma=s)
        return s

    lo, hi = source.profile.a, source.profile.b

    def rhs(t: float, zz: float) -> float:
        if not lo < zz < hi:
            raise TrajectoryHitBoundary("canonical trajectory left the interval",
                                        t=t, z=zz)
        return -source.diag_gradient(zz, t) / sigma_of(t)

    n_steps = march_steps(T, dt)
    times = np.empty(n_steps + 1)
    path = np.empty(n_steps + 1)
    sig = np.empty(n_steps + 1)
    times[0], path[0], sig[0] = 0.0, z0, sigma_of(0.0)
    zz, t = float(z0), 0.0
    for k in range(1, n_steps + 1):
        step = min(dt, T - t)
        k1 = rhs(t, zz)
        k2 = rhs(t + 0.5 * step, zz + 0.5 * step * k1)
        k3 = rhs(t + 0.5 * step, zz + 0.5 * step * k2)
        k4 = rhs(t + step, zz + step * k3)
        zz += step * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
        t += step
        times[k], path[k], sig[k] = t, zz, sigma_of(t)
    if not lo < zz < hi:
        raise TrajectoryHitBoundary("canonical trajectory left the interval",
                                    t=t, z=zz)
    return CanonicalTrajectory(times, path, sig)


@dataclass(frozen=True)
class LaxOleinikResult:
    times: np.ndarray
    V: np.ndarray            # (n_rec, n_z)


def lax_oleinik_steps(grid: TraitGrid, T: float, dt_dp: float,
                      reach: float) -> tuple[int, int]:
    """Reach window (cells) and step count of a Lax-Oleinik march; rejects
    inputs that march nothing or too much."""
    h = grid.h_z
    if dt_dp <= 0.0 or T <= 0.0 or reach <= 0.0:
        raise ValidationError("dt_dp, T, reach must be positive",
                              dt_dp=dt_dp, T=T, reach=reach)
    window = int(np.floor(reach * dt_dp / h))
    if window < 1:
        raise ValidationError("reach window spans no cell; increase dt_dp "
                              "or reach", dt_dp=dt_dp, reach=reach, h_z=h)
    if window >= grid.n_z:
        raise ValidationError("reach window exceeds the trait interval",
                              window=window, n_z=grid.n_z)
    # one record per step, so this also caps the steps a large reach allows
    n_steps = max(np.round(T / dt_dp), 1.0)
    check_records(n_steps + 1, grid.n_z)
    return window, int(n_steps)


def lax_oleinik(source, V0: TraitField, T: float, dt_dp: float, reach: float,
                *, constrained: bool = False,
                zbar_path=None) -> LaxOleinikResult:
    """Dynamic-programming (variational) marching of the same equation.

    One step takes the pointwise minimum of quadratic-cost moves within
    |dz| <= reach*dt_dp, with the trait field extended by even reflection at
    both walls.  With `constrained` the minimum is re-zeroed after each step.
    `zbar_path` = (times, values) feeds sources that need a minimizer.
    """
    grid = V0.grid
    h = grid.h_z
    window, n_steps = lax_oleinik_steps(grid, T, dt_dp, reach)
    v = np.asarray(V0.values, dtype=float).copy()
    if constrained:
        v = v - v.min()

    def reflect(arr: np.ndarray) -> np.ndarray:
        return np.concatenate([arr[window - 1::-1], arr, arr[:-window - 1:-1]])

    z = grid.nodes
    times = [0.0]
    records = [v.copy()]
    t = 0.0
    for k in range(n_steps):
        zbar = None
        if zbar_path is not None:
            zbar = float(np.interp(t, zbar_path[0], zbar_path[1]))
        rate = source.rate(z, t, zbar)
        # running reward enters the action with the sign that makes the value
        # function solve dV/dt + |dV/dz|^2 = R, matching the Godunov scheme
        stage = reflect(v + dt_dp * rate)
        best = np.full(grid.n_z, np.inf)
        for off in range(-window, window + 1):
            cost = (off * h) ** 2 / (4.0 * dt_dp)
            cand = stage[window + off: window + off + grid.n_z] + cost
            np.minimum(best, cand, out=best)
        v = best
        t = min((k + 1) * dt_dp, T)
        if constrained:
            v -= v.min()
        times.append(t)
        records.append(v.copy())
    return LaxOleinikResult(np.array(times), np.array(records))
