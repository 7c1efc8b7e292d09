"""Resident steady states, principal eigenpairs, and invasion-exponent surfaces.

The invasion exponent lambda(z1, z2) is the smallest eigenvalue of the
operator  -alpha(z1) Lap - (m - theta_{z2})  under Neumann closure, where
theta_{z2} is the unique positive steady state of the single-trait logistic
reaction-diffusion equation with dispersal rate alpha(z2).  Because traits
enter only through the dispersal rate, the exponent factors through a smooth
surface on rate pairs, which is what the explicit U-shaped profile
construction below exploits.  The exponents of one resident column share
the potential m - theta_{z2} and differ only in alpha, so every caller
hands a column's rates to `principal_eigenpairs` as one batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dgtsv, dpbtrf, dpbtrs

from .errors import EigenDiverged, SolverError, ThetaDiverged, ValidationError
from .grids import ScalarField, SpatialGrid, mirror_laplacian, parabola_vertex
from .tridiag import FactoredDiffusion

DERIV_STEP_FRACTION = 1e-3   # finite-difference step as a fraction of b - a
THETA_CACHE_QUANTUM = 1e-12  # resident traits closer than this share a theta


# ---------------------------------------------------------------------------
# resident steady state


def _logistic_residual(theta: np.ndarray, alpha: float, m: np.ndarray,
                       h: float) -> np.ndarray:
    return alpha * mirror_laplacian(theta, h) + theta * (m - theta)


def solve_theta(alpha: float, m: ScalarField, *, residual_rtol: float = 1e-12,
                max_newton: int = 60) -> ScalarField:
    """Unique positive steady state of alpha*Lap(theta) + theta*(m - theta) = 0.

    Damped Newton from theta = m, falling back to pseudo-time marching if an
    iterate leaves the positive cone.  Each Newton step solves the tridiagonal
    Jacobian alpha*L + diag(m - 2 theta) with LAPACK's dgtsv, called directly
    (the routine solve_banded((1, 1), ...) dispatches to, without its
    per-call checks).  The returned field satisfies
    ||residual||_inf <= residual_rtol * ||m||_inf (default well inside the
    1e-10 contract) and is strictly positive.
    """
    if not 0.0 < alpha < np.inf:
        raise ValidationError("dispersal rate must be positive and finite",
                              alpha=alpha)
    mv = m.values
    if mv.min() <= 0.0:
        raise ValidationError("resource distribution must be positive",
                              min_m=float(mv.min()))
    h = m.grid.h_x
    n = m.grid.n_x
    target = residual_rtol * float(np.max(np.abs(mv)))
    theta = mv.copy()
    history = []
    for _ in range(max_newton):
        res = _logistic_residual(theta, alpha, mv, h)
        norm = float(np.abs(res).max())
        history.append(norm)
        if norm <= target:
            return ScalarField(m.grid, theta)
        # Jacobian alpha*L + diag(m - 2 theta): Neumann ends, symmetric bands
        d = h * h
        diag = -2.0 * alpha / d + mv - 2.0 * theta
        diag[0] = -alpha / d + mv[0] - 2.0 * theta[0]
        diag[-1] = -alpha / d + mv[-1] - 2.0 * theta[-1]
        off = np.full(n - 1, alpha / d)
        *_, delta, info = dgtsv(off, diag, off, -res,
                                overwrite_d=1, overwrite_b=1)
        if info != 0:
            raise SolverError("singular Newton Jacobian for theta",
                              info=int(info), alpha=alpha)
        step = 1.0
        accepted = False
        for _ in range(40):
            cand = theta + step * delta
            if cand.min() > 0.0:
                cand_norm = float(np.abs(
                    _logistic_residual(cand, alpha, mv, h)).max())
                if cand_norm <= (1.0 - 0.25 * step) * norm or cand_norm <= target:
                    theta = cand
                    accepted = True
                    break
            step *= 0.5
        if not accepted:
            break
    # Newton stalled: implicit-diffusion logistic marching is unconditionally
    # positivity-preserving and converges linearly.  Its round-off floor is a
    # little above Newton's, so the target keeps 10x margin to the contract.
    return solve_theta_pseudotime(alpha, m,
                                  residual_target=max(target, 1e-11 * float(np.max(np.abs(mv)))),
                                  history=history)


def solve_theta_pseudotime(alpha: float, m: ScalarField, *,
                           dt: float = 0.2, residual_target: float = 1e-12,
                           max_steps: int = 200_000,
                           history: list | None = None) -> ScalarField:
    """Independent theta solver: implicit diffusion + explicit logistic marching.

    Slower than Newton but monotone-safe; used as the fallback and as the
    cross-check oracle in the test suite.
    """
    if alpha <= 0.0:
        raise ValidationError("dispersal rate must be positive", alpha=alpha)
    mv = m.values
    if mv.min() <= 0.0:
        raise ValidationError("resource distribution must be positive",
                              min_m=float(mv.min()))
    h = m.grid.h_x
    solver = FactoredDiffusion(m.grid.n_x, h, dt * alpha)
    theta = mv.copy()
    history = history if history is not None else []
    for k in range(max_steps):
        growth = 1.0 + dt * (mv - theta)
        if growth.min() <= 0.0:
            raise ThetaDiverged("pseudo-time reaction factor went nonpositive",
                                step=k, min_factor=float(growth.min()))
        theta = solver.solve(theta * growth)
        if k % 8 == 0:
            norm = float(np.abs(_logistic_residual(theta, alpha, mv, h)).max())
            history.append(norm)
            if norm <= residual_target:
                return ScalarField(m.grid, theta)
    raise ThetaDiverged("steady state iteration exhausted",
                        residual_history=history[-20:], target=residual_target)


# ---------------------------------------------------------------------------
# principal eigenpair


@dataclass(frozen=True)
class EigenPair:
    """Principal eigenvalue and positive unit-mass eigenfunction."""

    lam: float
    phi: ScalarField
    residual: float

    def __post_init__(self) -> None:
        if self.phi.values.min() <= 0.0:
            raise SolverError("eigenfunction must be strictly positive")
        mass = self.phi.grid.h_x * self.phi.values.sum()
        if abs(mass - 1.0) > 1e-12:
            raise SolverError("eigenfunction mass normalization violated",
                              mass=mass)
        if self.residual > 1e-10:
            raise SolverError("eigenpair residual above contract",
                              residual=self.residual)


def _operator_diagonals(alpha, c: np.ndarray, h: float):
    """Main and off diagonals of A = -alpha*L - diag(c), one row per alpha.

    A scalar alpha and a 1-D c give 1-D diagonals; k rates give (k, n) and
    (k, n - 1) arrays, with c of shape (n,) shared or (k, n) per rate.
    """
    alpha = np.asarray(alpha, dtype=float)[..., None]
    n = c.shape[-1]
    d = h * h
    main = 2.0 * alpha / d - c
    main[..., 0] = alpha[..., 0] / d - c[..., 0]
    main[..., -1] = alpha[..., 0] / d - c[..., -1]
    off = np.repeat(-alpha / d, n - 1, axis=-1)
    return main, off


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (k, n) arrays.

    The stacked matmul runs one BLAS dot per row, so each entry equals the
    1-D ``a[i] @ b[i]`` bit for bit; einsum or ``(a * b).sum(1)`` sum in a
    different order.
    """
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def principal_eigenpairs(alphas, c, *,
                         value_tol: float = 1e-12, residual_tol: float = 1e-11,
                         max_iter: int = 500) -> list[EigenPair]:
    """Principal eigenpairs of -alpha*L - diag(c), one per rate in `alphas`.

    `c` is one ScalarField shared by every rate, or a sequence of them, one
    per rate.  Shifted inverse power iteration: the Gershgorin bound
    lambda_min >= -max c makes A - (shift)I positive definite for
    shift = -max c - 1 whatever alpha is.  The shifted Neumann blocks of all
    rows are stacked with zero couplings into one band, so one banded
    Cholesky factorization and one solve per iteration serve every row; the
    factor of a block-diagonal matrix is block-diagonal, so each row's
    arithmetic is that of a solve on its own block.  A row freezes at the
    first iteration where its eigenvalue has settled to `value_tol` and its
    residual is within `residual_tol`, and the factor is then cut down to
    the rows still iterating.
    """
    alphas = np.asarray(alphas, dtype=float)
    if alphas.ndim != 1:
        raise ValidationError("dispersal rates must be a flat sequence",
                              shape=list(alphas.shape))
    bad = ~((alphas > 0.0) & (alphas < np.inf))
    if bad.any():
        raise ValidationError("dispersal rate must be positive and finite",
                              alpha=float(alphas[bad][0]))
    k = alphas.size
    if k == 0:
        return []
    if isinstance(c, ScalarField):
        grid, cv = c.grid, c.values
    else:
        if len(c) != k:
            raise ValidationError("need one potential per dispersal rate",
                                  rates=k, potentials=len(c))
        grid = c[0].grid
        if any(ci.grid != grid for ci in c):
            raise ValidationError("potentials must share one spatial grid")
        cv = np.array([ci.values for ci in c])
    h = grid.h_x
    n = grid.n_x
    main, off = _operator_diagonals(alphas, cv, h)
    shift = -cv.max(axis=-1, keepdims=True) - 1.0
    ab = np.zeros((2, k, n))
    ab[1] = main - shift
    ab[0, :, 1:] = off
    # LAPACK directly, without the scipy wrappers' finiteness and batch
    # checks: their overhead dominates these small solves, and the inputs
    # are finite (alphas checked above, potentials by ScalarField)
    cb, info = dpbtrf(ab.reshape(2, k * n), lower=0)
    if info != 0:
        raise SolverError("shifted operator not positive definite", info=info)
    # the iteration works on the stacked blocks as one flat vector: the
    # stacked off-diagonal is zero across every block boundary, where adding
    # 0 * (the neighbouring block's entry) leaves a sum's bits unchanged, and
    # the contiguous 1-D slices make the matvec about twice as fast
    off_z = np.zeros((k, n))
    off_z[:, :-1] = off
    main, off_z = main.reshape(-1), off_z.reshape(-1)

    def matvec(main, off_z, v):
        out = main * v
        out[:-1] += off_z[:-1] * v[1:]
        out[1:] += off_z[:-1] * v[:-1]
        return out

    def scaled_residual(w, av, lam):
        # on the mass-normalized scale the contract uses, not on the
        # unit-2-norm iterate (roughly sqrt(n) smaller)
        s = 1.0 / (h * w.sum(axis=1))
        return (np.abs(av - lam[:, None] * w).max(axis=1) * s
                / np.maximum(1.0, s * np.abs(w).max(axis=1)))

    lam = np.empty(k)
    vec = np.empty((k, n))
    # state of the rows still iterating, by position; `rows` maps a position
    # back to its index in `alphas`
    rows = np.arange(k)
    cb_a, main_a, off_a = cb, main, off_z
    v = np.full(k * n, 1.0 / np.sqrt(n))
    lam_prev = np.full(k, np.nan)  # no previous value: the test fails
    residual = np.full(k, np.inf)
    for it in range(max_iter):
        w, info = dpbtrs(cb_a, v, lower=0)
        if info != 0:
            raise SolverError("banded Cholesky solve failed", info=info)
        if w.min() <= 0.0:
            # the resolvent of an irreducible M-matrix is positive, so this
            # can only be round-off catastrophe
            raise SolverError("inverse iteration lost positivity",
                              min_entry=float(w.min()))
        w2 = w.reshape(-1, n)
        w2 /= np.sqrt(_row_dots(w2, w2))[:, None]
        av = matvec(main_a, off_a, w).reshape(-1, n)
        lam_it = _row_dots(w2, av)
        settled = np.abs(lam_it - lam_prev) <= value_tol * np.maximum(
            1.0, np.abs(lam_it))
        v, lam_prev = w, lam_it
        # the residual is read only by the stopping test and at the cap
        n_settled = np.count_nonzero(settled)
        if it == max_iter - 1 or n_settled == settled.size:
            residual = scaled_residual(w2, av, lam_it)
        elif n_settled:
            residual[settled] = scaled_residual(w2[settled], av[settled],
                                                lam_it[settled])
        else:
            continue
        done = settled & (residual <= residual_tol)
        if done.any():
            lam[rows[done]] = lam_it[done]
            vec[rows[done]] = w2[done]
            keep = ~done
            rows, lam_prev, residual = rows[keep], lam_prev[keep], residual[keep]
            if not rows.size:
                break
            v = w2[keep].reshape(-1)
            # the factor of the remaining blocks is their rows of this one
            cb_a = np.asfortranarray(
                cb_a.reshape(2, -1, n)[:, keep].reshape(2, -1))
            main_a = main_a.reshape(-1, n)[keep].reshape(-1)
            off_a = off_a.reshape(-1, n)[keep].reshape(-1)
    else:
        # the target is 10x inside the contract; only an actual contract
        # breach is a failure (coarse-grid round-off can pin the residual
        # between the two)
        over = np.flatnonzero(residual > 1e-10)
        if over.size:
            i = over[0]
            raise EigenDiverged("inverse power iteration cap exceeded",
                                iterations=max_iter,
                                residual=float(residual[i]),
                                lam=float(lam_prev[i]))
        lam[rows] = lam_prev
        vec[rows] = v.reshape(-1, n)
    phi = vec / (h * vec.sum(axis=1))[:, None]
    av = matvec(main, off_z, phi.reshape(-1)).reshape(k, n)
    res = (np.abs(av - lam[:, None] * phi).max(axis=1)
           / np.maximum(1.0, np.abs(phi).max(axis=1)))
    return [EigenPair(lam=float(lam[i]), phi=ScalarField(grid, phi[i]),
                      residual=float(res[i])) for i in range(k)]


def principal_eigenpair(alpha: float, c: ScalarField, *,
                        value_tol: float = 1e-12, residual_tol: float = 1e-11,
                        max_iter: int = 500) -> EigenPair:
    """Smallest eigenvalue of -alpha*L - diag(c) with positive eigenfunction.

    The one-row case of `principal_eigenpairs`.
    """
    return principal_eigenpairs([alpha], c, value_tol=value_tol,
                                residual_tol=residual_tol,
                                max_iter=max_iter)[0]


# ---------------------------------------------------------------------------
# dispersal profiles


@dataclass(frozen=True)
class DispersalProfile:
    """Trait-to-dispersal map with derivative access and construction metadata."""

    a: float
    b: float
    fn: Callable[[np.ndarray], np.ndarray]
    dfn: Callable[[np.ndarray], np.ndarray] | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        zs = np.linspace(self.a, self.b, 513)
        vals = np.asarray(self.fn(zs), dtype=float)
        if not np.all(np.isfinite(vals)) or vals.min() <= 0.0:
            raise ValidationError("dispersal rate must be positive and finite "
                                  "on the trait interval",
                                  min_alpha=float(np.min(vals)))
        self.meta.setdefault("alpha_min", float(vals.min()))
        self.meta.setdefault("alpha_max", float(vals.max()))

    def __call__(self, z):
        return self.fn(np.asarray(z, dtype=float))

    def prime(self, z):
        if self.dfn is not None:
            return self.dfn(np.asarray(z, dtype=float))
        hd = 1e-6 * (self.b - self.a)
        return (self.fn(np.asarray(z) + hd) - self.fn(np.asarray(z) - hd)) / (2 * hd)

    def argmin(self, n: int = 4097) -> float:
        """Refined minimizer of the rate over [a, b] (endpoints allowed)."""
        zs = np.linspace(self.a, self.b, n)
        vals = np.asarray(self.fn(zs), dtype=float)
        j = int(np.argmin(vals))
        if j == 0 or j == n - 1:
            return float(zs[j])
        z_star, _, _ = parabola_vertex(float(zs[j]), float(vals[j - 1]),
                                       float(vals[j]), float(vals[j + 1]),
                                       float(zs[1] - zs[0]))
        return z_star

    @staticmethod
    def constant(value: float, a: float, b: float) -> "DispersalProfile":
        return DispersalProfile(a, b, lambda z: np.full_like(np.asarray(z, dtype=float), value),
                                lambda z: np.zeros_like(np.asarray(z, dtype=float)),
                                {"kind": "constant", "value": value})

    @staticmethod
    def affine(c0: float, c1: float, a: float, b: float) -> "DispersalProfile":
        return DispersalProfile(a, b, lambda z: c0 + c1 * np.asarray(z, dtype=float),
                                lambda z: np.full_like(np.asarray(z, dtype=float), c1),
                                {"kind": "affine", "c0": c0, "c1": c1})


class ThetaCache:
    """Steady states keyed by quantized resident trait.

    Surface sweeps revisit the same resident column many times; quantizing at
    1e-12 makes the sweep O(#columns) theta solves.
    """

    def __init__(self, profile: DispersalProfile, m: ScalarField,
                 quantum: float = THETA_CACHE_QUANTUM):
        self.profile = profile
        self.m = m
        self.quantum = quantum
        self._store: dict[int, ScalarField] = {}

    def theta(self, z2: float) -> ScalarField:
        key = int(round(z2 / self.quantum))
        hit = self._store.get(key)
        if hit is None:
            hit = self._store[key] = solve_theta(float(self.profile(z2)),
                                                 self.m)
        return hit


# ---------------------------------------------------------------------------
# invasion exponent and its derivatives


def _potential(m: ScalarField, theta: ScalarField) -> ScalarField:
    """The potential m - theta that a resident steady state leaves to mutants."""
    return ScalarField(m.grid, m.values - theta.values)


def _exponents(z1s, z2: float, profile: DispersalProfile, m: ScalarField,
               cache: ThetaCache) -> list[float]:
    """lambda(z1, z2) for every z1 in z1s: one resident, one eigen batch."""
    c = _potential(m, cache.theta(float(z2)))
    alphas = [float(profile(z1)) for z1 in z1s]
    return [pair.lam for pair in principal_eigenpairs(alphas, c)]


def invasion_exponent(z1: float, z2: float, profile: DispersalProfile,
                      m: ScalarField, cache: ThetaCache | None = None) -> float:
    """lambda(z1, z2): growth rate of a rare z1 mutant in a z2 resident."""
    cache = cache if cache is not None else ThetaCache(profile, m)
    return principal_eigenpair(float(profile(z1)),
                               _potential(m, cache.theta(z2))).lam


def rate_pair_exponent(alpha1: float, alpha2: float, m: ScalarField,
                       theta: ScalarField | None = None) -> float:
    """The exponent as a function of raw rate pairs (used by the profile probe)."""
    theta = theta if theta is not None else solve_theta(alpha2, m)
    return principal_eigenpair(alpha1, _potential(m, theta)).lam


def _stencil_points(z1: float, profile: DispersalProfile,
                    h_d: float | None) -> tuple[int, float, list[float]]:
    """Side, step and mutant traits of the second-order stencil at z1.

    Central (side 0) in the interior: z1 - h and z1 + h, then z1, which only
    the second difference reads.  One-sided within h of the trait endpoints
    (side 1 forward, -1 backward): z1 and three steps inward, the last of
    which only the second difference reads.
    """
    a, b = profile.a, profile.b
    h = h_d if h_d is not None else DERIV_STEP_FRACTION * (b - a)
    if z1 - h < a:
        return 1, h, [z1, z1 + h, z1 + 2 * h, z1 + 3 * h]
    if z1 + h > b:
        return -1, h, [z1, z1 - h, z1 - 2 * h, z1 - 3 * h]
    return 0, h, [z1 - h, z1 + h, z1]


def _first_difference(side: int, h: float, f: list[float]) -> float:
    if side > 0:
        return (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * h)
    if side < 0:
        return (3.0 * f[0] - 4.0 * f[1] + f[2]) / (2.0 * h)
    return (f[1] - f[0]) / (2.0 * h)


def _second_difference(side: int, h: float, f: list[float]) -> float:
    if side:
        f0, f1, f2, f3 = f
        return (2.0 * f0 - 5.0 * f1 + 4.0 * f2 - f3) / (h * h)
    fm, fp, fc = f
    return (fm - 2.0 * fc + fp) / (h * h)


def _column_derivs(z1s, z2: float, profile: DispersalProfile, m: ScalarField,
                   cache: ThetaCache, h_d: float | None) -> list[tuple]:
    """(d/dz1) lambda and (d2/dz1^2) lambda at every z1 of one resident
    column, with all stencil points solved as one eigen batch."""
    stencils = [_stencil_points(float(z1), profile, h_d) for z1 in z1s]
    lams = _exponents([z for _, _, pts in stencils for z in pts], z2,
                      profile, m, cache)
    out = []
    for side, h, pts in stencils:
        f, lams = lams[:len(pts)], lams[len(pts):]
        out.append((_first_difference(side, h, f),
                    _second_difference(side, h, f)))
    return out


def lambda_derivs(z1: float, z2: float, profile: DispersalProfile,
                  m: ScalarField, cache: ThetaCache | None = None,
                  h_d: float | None = None) -> tuple[float, float]:
    """(d/dz1) lambda and (d2/dz1^2) lambda by second-order differences.

    Central stencils in the interior; one-sided stencils within h_d of the
    trait endpoints.
    """
    cache = cache if cache is not None else ThetaCache(profile, m)
    return _column_derivs([z1], z2, profile, m, cache, h_d)[0]


def lambda_slope(z1: float, z2: float, profile: DispersalProfile,
                 m: ScalarField, cache: ThetaCache | None = None) -> float:
    """(d/dz1) lambda alone, bit-identical to lambda_derivs' first entry.

    Solves only the stencil points the first difference reads: two in the
    interior, three near an endpoint.
    """
    cache = cache if cache is not None else ThetaCache(profile, m)
    side, h, pts = _stencil_points(z1, profile, None)
    f = _exponents(pts[:3] if side else pts[:2], z2, profile, m, cache)
    return _first_difference(side, h, f)


def lambda_table(z1s: np.ndarray, z2s: np.ndarray, profile: DispersalProfile,
                 m: ScalarField, cache: ThetaCache | None = None) -> np.ndarray:
    """Exponent values on a (z1, z2) sample product, one theta solve and one
    eigen batch per column."""
    cache = cache if cache is not None else ThetaCache(profile, m)
    out = np.empty((len(z1s), len(z2s)))
    for j, z2 in enumerate(z2s):
        out[:, j] = _exponents(z1s, z2, profile, m, cache)
    return out


@dataclass(frozen=True)
class LambdaSurface:
    """Sampled exponent surface with first/second trait derivatives."""

    z1: np.ndarray
    z2: np.ndarray
    lam: np.ndarray       # (n1, n2)
    dlam_dz1: np.ndarray
    d2lam_dz1: np.ndarray


def lambda_surface(profile: DispersalProfile, m: ScalarField,
                   nz1: int = 21, nz2: int = 21,
                   cache: ThetaCache | None = None,
                   h_d: float | None = None) -> LambdaSurface:
    """Exponent surface plus derivative columns on an endpoint-inclusive grid."""
    cache = cache if cache is not None else ThetaCache(profile, m)
    z1s = np.linspace(profile.a, profile.b, nz1)
    z2s = np.linspace(profile.a, profile.b, nz2)
    lam = lambda_table(z1s, z2s, profile, m, cache)
    d1 = np.empty_like(lam)
    d2 = np.empty_like(lam)
    for j, z2 in enumerate(z2s):
        d1[:, j], d2[:, j] = zip(*_column_derivs(z1s, z2, profile, m, cache,
                                                 h_d))
    return LambdaSurface(z1s, z2s, lam, d1, d2)


# ---------------------------------------------------------------------------
# explicit U-shaped profile

PROBE_SAMPLES = 17  # default rate-box sampling for the curvature ratio


def construct_alpha(alpha0: float, L0: float, m: ScalarField,
                    trait_interval: tuple[float, float] = (-0.5, 0.5),
                    probe_n: int = PROBE_SAMPLES) -> DispersalProfile:
    """Explicit U-shaped dispersal profile with certified convexity structure.

    Probes the rate-pair exponent surface on [alpha0, alpha0+L0]^2 to estimate
    k0 = sup |d2_rate lambda| / d_rate lambda (a sampled max, hence a lower
    estimate of the true sup), then maps z -> alpha0 - log(cos zeta)/k0 on the
    symmetric interval [-z_M, z_M] with z_M = arccos(exp(-k0 L0)), affinely
    rescaled onto the configured trait interval.
    """
    if alpha0 <= 0.0 or L0 <= 0.0:
        raise ValidationError("profile construction needs alpha0 > 0, L0 > 0",
                              alpha0=alpha0, L0=L0)
    if probe_n < 5:
        raise ValidationError("rate probe needs at least 5 samples",
                              probe_n=probe_n)
    a, b = trait_interval
    if not a < b:
        raise ValidationError("trait interval needs a < b", a=a, b=b)

    alphas = np.linspace(alpha0, alpha0 + L0, probe_n)
    h_a = alphas[1] - alphas[0]
    if not h_a * h_a > 0.0:
        raise ValidationError("rate span L0 too small to difference at alpha0",
                              alpha0=alpha0, L0=L0)
    # the whole box is one batch, so the rows of different columns that run
    # to the iteration cap (some do on fine grids) share those iterations
    columns = [_potential(m, solve_theta(float(a2), m)) for a2 in alphas]
    pairs = principal_eigenpairs(np.tile(alphas, probe_n),
                                 [c for c in columns for _ in alphas])
    surf = np.array([pair.lam for pair in pairs]).reshape(probe_n, probe_n).T

    d1 = np.empty_like(surf)
    d2 = np.empty_like(surf)
    d1[1:-1] = (surf[2:] - surf[:-2]) / (2 * h_a)
    d1[0] = (-3 * surf[0] + 4 * surf[1] - surf[2]) / (2 * h_a)
    d1[-1] = (3 * surf[-1] - 4 * surf[-2] + surf[-3]) / (2 * h_a)
    d2[1:-1] = (surf[2:] - 2 * surf[1:-1] + surf[:-2]) / (h_a * h_a)
    d2[0] = (2 * surf[0] - 5 * surf[1] + 4 * surf[2] - surf[3]) / (h_a * h_a)
    d2[-1] = (2 * surf[-1] - 5 * surf[-2] + 4 * surf[-3] - surf[-4]) / (h_a * h_a)

    if d1.min() <= 0.0:
        raise ValidationError("rate-pair exponent must be increasing in the "
                              "mutant rate on the probe box",
                              min_slope=float(d1.min()))
    k0 = float(np.max(np.abs(d2) / d1))
    if k0 <= 0.0:
        raise ValidationError("curvature ratio probe degenerate", k0=k0)

    z_m = float(np.arccos(np.exp(-k0 * L0)))
    scale = 2.0 * z_m / (b - a)

    def to_sym(z):
        return (np.asarray(z, dtype=float) - a) * scale - z_m

    def alpha_fn(z):
        return alpha0 - np.log(np.cos(to_sym(z))) / k0

    def alpha_prime(z):
        return np.tan(to_sym(z)) / k0 * scale

    meta = {
        "kind": "u-shaped",
        "alpha0": alpha0,
        "L0": L0,
        "k0": k0,
        "k0_is_sample_max": True,
        "probe_n": probe_n,
        "z_M": z_m,
        "z_min": 0.5 * (a + b),
    }
    return DispersalProfile(a, b, alpha_fn, alpha_prime, meta)


# ---------------------------------------------------------------------------
# hypothesis verifier

H1_SAMPLES = 21  # default (z1, z2) sampling for the curvature/sign report


@dataclass(frozen=True)
class H1Report:
    """Sampled curvature bounds and endpoint selection-gradient signs.

    The extrema are maxima/minima over the sample grid only, hence inner
    estimates of the continuum bounds.
    """

    k_lower: float
    k_upper: float
    sign_a: float
    sign_b: float
    passed: bool
    n_samples: int

    def to_dict(self) -> dict:
        return {
            "K_lower": self.k_lower,
            "K_upper": self.k_upper,
            "sign_a": self.sign_a,
            "sign_b": self.sign_b,
            "pass": self.passed,
            "n_samples": self.n_samples,
        }


def check_H1(profile: DispersalProfile, m: ScalarField,
             n_samples: int = H1_SAMPLES, h_d: float | None = None,
             cache: ThetaCache | None = None) -> H1Report:
    """Verify uniform trait convexity and the endpoint gradient signs.

    Passing requires min d2_z1 lambda > 0 over the sample grid together with
    d_z1 lambda(a, a) < 0 and d_z1 lambda(b, b) > 0.
    """
    if n_samples < 2:
        raise ValidationError("H1 check needs at least 2 samples",
                              n_samples=n_samples)
    cache = cache if cache is not None else ThetaCache(profile, m)
    zs = np.linspace(profile.a, profile.b, n_samples)
    k_lower = np.inf
    k_upper = -np.inf
    for z2 in zs:
        for _, d2 in _column_derivs(zs, z2, profile, m, cache, h_d):
            k_lower = min(k_lower, d2)
            k_upper = max(k_upper, d2)
    sign_a, _ = lambda_derivs(profile.a, profile.a, profile, m, cache, h_d)
    sign_b, _ = lambda_derivs(profile.b, profile.b, profile, m, cache, h_d)
    passed = bool(k_lower > 0.0 and sign_a < 0.0 and sign_b > 0.0)
    return H1Report(float(k_lower), float(k_upper), float(sign_a),
                    float(sign_b), passed, n_samples)


def spectral_gap(alpha: float, c: ScalarField) -> float:
    """Difference of the two smallest eigenvalues of -alpha*L - diag(c)."""
    main, off = _operator_diagonals(alpha, c.values, c.grid.h_x)
    vals = eigh_tridiagonal(main, off, select="i", select_range=(0, 1),
                            eigvals_only=True)
    return float(vals[1] - vals[0])
