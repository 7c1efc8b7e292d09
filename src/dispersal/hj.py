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
from typing import Callable

import numpy as np

from .ecology import DispersalProfile, ThetaCache, lambda_slope, lambda_table
from .errors import (CurvatureCollapsed, SolverError, TrajectoryHitBoundary,
                     ValidationError)
from .grids import (ScalarField, TraitField, TraitGrid, argmin_refined,
                    march_steps)

CFL_SAFETY = 0.9
CFL_MAX_HALVINGS = 40
GRADIENT_FLOOR = 1e-9       # delta in the CFL denominator
SIGMA_JUMP_FRACTION = 0.2   # 3-point curvature jump that triggers the 5-point fit
DIAG_ZERO_TOL = 5e-4        # |lambda(zbar, zbar)| allowed for interpolated tables


class SyntheticSource:
    """Closed-form source R(z, t) for tests and oracles."""

    def __init__(self, rate_fn: Callable, grad_fn: Callable | None = None):
        self._rate = rate_fn
        self._grad = grad_fn

    def rate(self, z: np.ndarray, t: float, zbar: float | None = None) -> np.ndarray:
        out = np.asarray(self._rate(z, t), dtype=float)
        if not np.all(np.isfinite(out)):
            raise SolverError("source returned a non-finite rate", t=t)
        return np.broadcast_to(out, np.shape(z)).astype(float)

    def diag_gradient(self, zbar: float, t: float = 0.0) -> float:
        if self._grad is not None:
            return float(self._grad(zbar, t))
        dz = 1e-6
        lo = self._rate(np.array([zbar - dz]), t)
        hi = self._rate(np.array([zbar + dz]), t)
        return float((hi - lo) / (2 * dz))


class SelfConsistentSource:
    """Invasion-exponent source R(z, zbar) = lambda(z, zbar).

    Rate rows for the grid nodes are linearly interpolated between the two
    resident samples that bracket zbar.  Each resident column is computed on
    first use and kept, so a run pays only for the residents its minimizer
    visits.  The diagonal gradient used by the canonical ODE is evaluated
    directly (no table) for accuracy.
    """

    def __init__(self, profile: DispersalProfile, m: ScalarField,
                 grid: TraitGrid, resident_samples: int = 65,
                 cache: ThetaCache | None = None,
                 diag_tol: float = DIAG_ZERO_TOL):
        if resident_samples < 9:
            raise ValidationError("need at least 9 resident samples",
                                  resident_samples=resident_samples)
        self.profile = profile
        self.m = m
        self.grid = grid
        self.cache = cache if cache is not None else ThetaCache(profile, m)
        self.diag_tol = diag_tol
        self._residents = np.linspace(profile.a, profile.b, resident_samples)
        self._columns: dict[int, np.ndarray] = {}

    def _column(self, j: int) -> np.ndarray:
        col = self._columns.get(j)
        if col is None:
            col = lambda_table(self.grid.nodes, self._residents[j:j + 1],
                               self.profile, self.m, cache=self.cache)[:, 0]
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
        if abs(diag) > self.diag_tol:
            raise SolverError("invasion exponent nonzero on the diagonal",
                              zbar=float(zbar), value=diag, tol=self.diag_tol)
        if z is not self.grid.nodes and not np.array_equal(z, self.grid.nodes):
            row = np.interp(z, self.grid.nodes, row)
        return row

    def diag_gradient(self, zbar: float, t: float = 0.0) -> float:
        return lambda_slope(zbar, zbar, self.profile, self.m, self.cache)


class ExternalSource:
    """Rate table R(z, t) from a precomputed effective Hamiltonian."""

    def __init__(self, eff):
        self.eff = eff

    def rate(self, z: np.ndarray, t: float, zbar: float | None = None) -> np.ndarray:
        tt = self.eff.t
        j = int(np.clip(np.searchsorted(tt, t) - 1, 0, tt.size - 2))
        w = np.clip((t - tt[j]) / (tt[j + 1] - tt[j]), 0.0, 1.0)
        col = (1.0 - w) * self.eff.H[:, j] + w * self.eff.H[:, j + 1]
        return np.interp(z, self.eff.z, col)

    def diag_gradient(self, zbar: float, t: float = 0.0) -> float:
        dz = 1e-4 * (self.eff.z[-1] - self.eff.z[0])
        lo = self.rate(np.array([zbar - dz]), t)
        hi = self.rate(np.array([zbar + dz]), t)
        return float((hi - lo) / (2 * dz))


@dataclass(frozen=True)
class HJSolution:
    """Recorded constrained solution: field, minimizer path, curvature."""

    grid: TraitGrid
    times: np.ndarray       # (n_rec,)
    V: np.ndarray           # (n_rec, n_z), min of each row is exactly 0
    zbar: np.ndarray        # (n_rec,)
    sigma: np.ndarray       # (n_rec,)
    multiplier: np.ndarray  # (n_rec,)
    dt: float
    K3: float               # max over records of max(sigma, 1/sigma)
    max_drift: float        # max pre-normalization |min V| per unit step

    def __post_init__(self):
        if np.max(np.abs(self.V.min(axis=1))) != 0.0:
            raise SolverError("constraint normalization lost",
                              worst=float(np.max(np.abs(self.V.min(axis=1)))))
        a, b = self.grid.a, self.grid.b
        if np.any(self.zbar <= a) or np.any(self.zbar >= b):
            raise TrajectoryHitBoundary("recorded minimizer left the interior")

    def sigma_at(self, t: float) -> float:
        return float(np.interp(t, self.times, self.sigma))


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


def _one_sided_gradients(v: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    p_minus = np.empty_like(v)
    p_plus = np.empty_like(v)
    p_minus[1:] = (v[1:] - v[:-1]) / h
    p_minus[0] = 0.0          # mirror ghost: zero slope into the wall
    p_plus[:-1] = (v[1:] - v[:-1]) / h
    p_plus[-1] = 0.0
    return p_minus, p_plus


def _godunov_hamiltonian(p_minus: np.ndarray, p_plus: np.ndarray) -> np.ndarray:
    up = np.maximum(p_minus, 0.0)
    down = np.minimum(p_plus, 0.0)
    return np.maximum(up * up, down * down)


def _extract_sigma(v: np.ndarray, grid: TraitGrid, j: int,
                   sigma_prev: float | None) -> float:
    h = grid.h_z
    three = (v[j - 1] - 2.0 * v[j] + v[j + 1]) / (h * h)
    if sigma_prev is None or sigma_prev <= 0.0:
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


def solve_constrained_hj(source, V0: TraitField, T: float, dt: float, *,
                         t0: float = 0.0, record_every: int = 1) -> HJSolution:
    """Godunov marching of the constrained equation on [t0, t0+T].

    Each requested step is internally subdivided by halving whenever the
    gradient-dependent CFL bound demands it; the minimum is re-zeroed after
    every substep and the subtracted amount accumulates into the reported
    multiplier.  The source is evaluated at the current step's minimizer
    (explicit coupling).
    """
    grid = V0.grid
    if dt <= 0.0 or T <= 0.0:
        raise ValidationError("dt and T must be positive", dt=dt, T=T)
    if record_every < 1:
        raise ValidationError("record_every must be >= 1",
                              record_every=record_every)
    v = _validate_initial(grid, V0)
    h = grid.h_z
    z = grid.nodes
    n_steps = march_steps(T, dt)

    times = [t0]
    records = [v.copy()]
    zb, _, sig = argmin_refined(TraitField(grid, v))
    zbar = [zb]
    sigma = [sig]
    multiplier = [0.0]
    sigma_prev = sig
    max_drift = 0.0
    k3 = max(sig, 1.0 / sig) if sig > 0 else np.inf

    t = t0
    acc = 0.0
    t_last_rec = t0
    for step in range(1, n_steps + 1):
        t_target = t0 + min(step * dt, T)
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
            j = int(np.argmin(v))
            if j == 0 or j == v.size - 1:
                raise TrajectoryHitBoundary("minimizer reached the wall",
                                            t=t, z=float(z[j]))
            zb_now, _, _ = argmin_refined(TraitField(grid, v))
            ham = _godunov_hamiltonian(p_minus, p_plus)
            v = v - dt_sub * ham + dt_sub * source.rate(z, t, zb_now)
            low = float(v.min())
            max_drift = max(max_drift, abs(low) / dt_sub)
            v -= low
            acc += low
            t += dt_sub
        t = t_target
        j = int(np.argmin(v))
        if j == 0 or j == v.size - 1:
            raise TrajectoryHitBoundary("minimizer reached the wall",
                                        t=t, z=float(z[j]))
        zb, _, _ = argmin_refined(TraitField(grid, v))
        sig_now = _extract_sigma(v, grid, j, sigma_prev)
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
                      dt, float(k3), float(max_drift))


@dataclass(frozen=True)
class CanonicalTrajectory:
    times: np.ndarray
    zbar: np.ndarray
    sigma: np.ndarray

    def at(self, t: float) -> float:
        return float(np.interp(t, self.times, self.zbar))


def canonical_ode(source, sigma_track, z0: float, T: float,
                  dt: float = 0.01) -> CanonicalTrajectory:
    """RK4 for dzbar/dt = -dR/dz1(zbar, zbar) / sigma(t).

    sigma_track is (times, values) or an HJSolution; sigma is linearly
    interpolated between its samples and must stay positive.
    """
    if isinstance(sigma_track, HJSolution):
        s_times, s_vals = sigma_track.times, sigma_track.sigma
    else:
        s_times = np.asarray(sigma_track[0], dtype=float)
        s_vals = np.asarray(sigma_track[1], dtype=float)
    if dt <= 0.0 or T <= 0.0:
        raise ValidationError("dt and T must be positive", dt=dt, T=T)

    def sigma_of(t: float) -> float:
        s = float(np.interp(t, s_times, s_vals))
        if s <= 0.0:
            raise CurvatureCollapsed("interpolated curvature not positive",
                                     t=t, sigma=s)
        return s

    a = getattr(source, "profile", None)
    lo, hi = (a.a, a.b) if a is not None else (-np.inf, np.inf)

    def rhs(t: float, zz: float) -> float:
        if not lo < zz < hi:
            raise TrajectoryHitBoundary("canonical trajectory left the interval",
                                        t=t, z=zz)
        return -source.diag_gradient(zz, t) / sigma_of(t)

    n_steps = max(int(round(T / dt)), 1)
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
    grid: TraitGrid
    times: np.ndarray
    V: np.ndarray            # (n_rec, n_z)
    multiplier: np.ndarray   # zeros when unconstrained


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
    v = np.asarray(V0.values, dtype=float).copy()
    if constrained:
        v = v - v.min()
    n_steps = max(int(round(T / dt_dp)), 1)

    def reflect(arr: np.ndarray) -> np.ndarray:
        return np.concatenate([arr[window - 1::-1], arr, arr[:-window - 1:-1]])

    z = grid.nodes
    times = [0.0]
    records = [v.copy()]
    mults = [0.0]
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
        low = float(v.min()) if constrained else 0.0
        if constrained:
            v -= low
        times.append(t)
        records.append(v.copy())
        mults.append(low / dt_dp)
    return LaxOleinikResult(grid, np.array(times), np.array(records),
                            np.array(mults))


@dataclass(frozen=True)
class MonotonicityReport:
    status: str              # "pass" | "fail" | "precondition-not-met"
    orientation: str
    max_violation: float
    sign_changes: int

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def monotonicity_check(times: np.ndarray, zbar: np.ndarray, source,
                       cell: float) -> MonotonicityReport:
    """Verify the minimizer drifts against the diagonal source gradient.

    The orientation field -sign(dR/dz1) must be coherent (at most one - to +
    crossing over the traversed range, the single-well pattern); otherwise
    the check does not apply and is reported as such.  Within the pattern,
    every step displacement may oppose the expected direction by at most one
    trait cell.
    """
    zbar = np.asarray(zbar, dtype=float)
    if zbar.size < 2:
        return MonotonicityReport("pass", "trivial", 0.0, 0)
    lo = float(zbar.min()) - 2 * cell
    hi = float(zbar.max()) + 2 * cell
    probes = np.linspace(lo, hi, 17)
    signs = []
    for i, p in enumerate(probes):
        g = source.diag_gradient(float(p), float(times[0]))
        signs.append(0 if abs(g) < 1e-12 else (1 if g > 0 else -1))
    crossings = 0
    last = 0
    for s in signs:
        if s == 0:
            continue
        if last == 0:
            last = s
        elif s != last:
            crossings += 1
            if s < last:  # + back to -: not a single well
                return MonotonicityReport("precondition-not-met",
                                          "gradient sign not single-well",
                                          0.0, crossings)
            last = s
    if crossings > 1:
        return MonotonicityReport("precondition-not-met",
                                  "gradient sign not single-well",
                                  0.0, crossings)

    worst = 0.0
    g0 = 0.0
    for k in range(zbar.size - 1):
        g = source.diag_gradient(float(zbar[k]), float(times[k]))
        if abs(g) < 1e-12:
            continue
        if g0 == 0.0:
            g0 = g
        move = zbar[k + 1] - zbar[k]
        violation = move * np.sign(g)   # expected move is -sign(g)
        worst = max(worst, float(violation))
    status = "pass" if worst <= cell else "fail"
    if g0 > 0:
        orientation = "nonincreasing"
    elif g0 < 0:
        orientation = "nondecreasing"
    else:
        orientation = "constant"
    return MonotonicityReport(status, orientation, worst, crossings)
