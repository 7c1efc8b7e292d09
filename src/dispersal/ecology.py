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

from .errors import EigenDiverged, SolverError, ThetaDiverged, ValidationError
from .grids import (ScalarField, check_records, difference_tables,
                    first_difference, mirror_laplacian, neumann_bands,
                    parabola_vertex, second_difference)
from .lapack import dgtsv, dpbtrf, dpbtrs, dstebz
from .tridiag import FactoredDiffusion

DERIV_STEP_FRACTION = 1e-3   # finite-difference step as a fraction of b - a
THETA_CACHE_QUANTUM = 1e-12  # resident traits closer than this share a theta
EIGEN_VALUE_TOL = 1e-12      # relative eigenvalue change counted as settled
EIGEN_RESIDUAL_TOL = 1e-11   # residual target, 10x inside the 1e-10 contract
EIGEN_MAX_ITER = 500         # inverse iterations before the cap
EIGEN_CONTRACT = 1e-10       # scaled residual every returned eigenpair meets
THETA_CONTRACT = 1e-10       # ||residual||_inf / ||m||_inf of every theta


# ---------------------------------------------------------------------------
# resident steady state


def _logistic_residual(theta: np.ndarray, alpha: float, m: np.ndarray,
                       h: float) -> np.ndarray:
    return alpha * mirror_laplacian(theta, h) + theta * (m - theta)


def _theta_inputs(alpha: float, m: ScalarField) -> np.ndarray:
    h = m.grid.h_x      # the main band 2 alpha / h^2 must not overflow either
    if not 0.0 < 2.0 * (alpha / (h * h)) < np.inf:
        raise ValidationError("dispersal rate must be positive and finite, "
                              "also over h_x^2", alpha=alpha, n_x=m.grid.n_x)
    if m.values.min() <= 0.0:
        raise ValidationError("resource distribution must be positive",
                              min_m=float(m.values.min()))
    return m.values


def solve_theta(alpha: float, m: ScalarField) -> ScalarField:
    """Unique positive steady state of alpha*Lap(theta) + theta*(m - theta) = 0.

    At most 60 damped Newton steps from theta = m, falling back to pseudo-time
    marching if an iterate leaves the positive cone.  Each Newton step solves
    the tridiagonal Jacobian alpha*L + diag(m - 2 theta) with LAPACK's dgtsv,
    called directly (the routine solve_banded((1, 1), ...) dispatches to,
    without its per-call checks).  The returned field is strictly positive;
    ||residual||_inf is <= 1e-12 * ||m||_inf from Newton and <= 1e-11 *
    ||m||_inf from the fallback, or within the 1e-10 * ||m||_inf contract
    where the fallback stops at a floating-point fixed point (fine grids).
    """
    mv = _theta_inputs(alpha, m)
    h = m.grid.h_x
    target = 1e-12 * float(np.max(np.abs(mv)))
    # Jacobian alpha*L + diag(m - 2 theta): Neumann ends, symmetric bands
    main, off = neumann_bands(alpha / (h * h), m.grid.n_x)
    jac_main, jac_off = -main + mv, -off
    theta = mv.copy()
    # each accepted candidate's residual is the next iterate's
    res = _logistic_residual(theta, alpha, mv, h)
    norm = float(np.abs(res).max())
    for _ in range(60):
        if norm <= target:
            return ScalarField(m.grid, theta)
        *_, delta, info = dgtsv(jac_off, jac_main - 2.0 * theta, jac_off,
                                -res, overwrite_d=1, overwrite_b=1)
        if info != 0:
            raise SolverError("singular Newton Jacobian for theta",
                              info=int(info), alpha=alpha)
        step = 1.0
        for _ in range(40):
            cand = theta + step * delta
            if cand.min() > 0.0:
                cand_res = _logistic_residual(cand, alpha, mv, h)
                cand_norm = float(np.abs(cand_res).max())
                if cand_norm <= (1.0 - 0.25 * step) * norm or cand_norm <= target:
                    theta, res, norm = cand, cand_res, cand_norm
                    break
            step *= 0.5
        else:           # no damped step was accepted
            break
    # Newton stalled: implicit-diffusion logistic marching is unconditionally
    # positivity-preserving and converges linearly.  Its round-off floor is a
    # little above Newton's, so the target keeps 10x margin to the contract.
    return solve_theta_pseudotime(
        alpha, m, residual_target=1e-11 * float(np.max(np.abs(mv))))


def solve_theta_pseudotime(alpha: float, m: ScalarField, *,
                           residual_target: float) -> ScalarField:
    """Independent theta solver: implicit diffusion + explicit logistic marching.

    Pseudo-time step 0.2, at most 200,000 steps.  Slower than Newton but
    monotone-safe; used as the fallback and as the cross-check oracle in the
    test suite.  An iterate equal to its predecessor bit for bit is a
    floating-point fixed point: it is returned if its residual is within
    the `THETA_CONTRACT` * ||m||_inf contract, and raises otherwise.
    """
    mv = _theta_inputs(alpha, m)
    h = m.grid.h_x
    dt = 0.2
    solver = FactoredDiffusion(m.grid.n_x, h, dt * alpha)
    theta = mv.copy()
    history = []
    for k in range(200_000):
        growth = 1.0 + dt * (mv - theta)
        if growth.min() <= 0.0:
            raise ThetaDiverged("pseudo-time reaction factor went nonpositive",
                                step=k, min_factor=float(growth.min()))
        prev, theta = theta, solver.solve(theta * growth)
        if k % 8 == 0:
            norm = float(np.abs(_logistic_residual(theta, alpha, mv, h)).max())
            history.append(norm)
            if norm <= residual_target:
                return ScalarField(m.grid, theta)
            if np.array_equal(theta, prev):
                contract = THETA_CONTRACT * float(np.max(np.abs(mv)))
                if norm <= contract:
                    return ScalarField(m.grid, theta)
                raise ThetaDiverged("steady state iteration reached a fixed "
                                    "point above the contract", step=k,
                                    residual=norm, contract=contract)
    raise ThetaDiverged("steady state iteration exhausted",
                        residual_history=history[-20:], target=residual_target)


# ---------------------------------------------------------------------------
# principal eigenpair


def _operator_diagonals(alpha, c: np.ndarray, h: float):
    """Main and off diagonals of A = -alpha*L - diag(c), one row per alpha.

    A scalar alpha and a 1-D c give 1-D diagonals; k rates give (k, n) and
    (k, n - 1) arrays, with c of shape (n,) shared or (k, n) per rate.
    """
    main, off = neumann_bands(np.asarray(alpha, dtype=float) / (h * h),
                              c.shape[-1])
    return main - c, off


def principal_eigenpairs(alphas, c) -> tuple:
    """Principal eigenpairs of -alpha*L - diag(c), one per rate in `alphas`.

    `c` holds one ScalarField per rate, all on one grid.  Returns the
    eigenvalues (k,), the eigenfunctions (k, n) and the scaled residuals
    (k,); every row is checked to be strictly positive, of unit mass to
    1e-12 and within the `EIGEN_CONTRACT` residual.

    Shifted inverse power iteration: the Gershgorin bound
    lambda_min >= -max c makes A - (shift)I positive definite for
    shift = -max c - 1 whatever alpha is.  The shifted Neumann blocks of all
    rows are stacked with zero couplings into one band, so one banded
    Cholesky factorization and one solve per iteration serve every row; the
    factor of a block-diagonal matrix is block-diagonal, so each row's
    arithmetic is that of a solve on its own block.  A row freezes at the
    first iteration where its eigenvalue has settled to `EIGEN_VALUE_TOL`
    and its residual is within `EIGEN_RESIDUAL_TOL`, and the factor is then
    cut down to the rows still iterating.
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
        return np.empty(0), np.empty((0, 0)), np.empty(0)
    if len(c) != k:
        raise ValidationError("need one potential per dispersal rate",
                              rates=k, potentials=len(c))
    grid = c[0].grid
    if any(ci.grid != grid for ci in c):
        raise ValidationError("potentials must share one spatial grid")
    cv = np.array([ci.values for ci in c])
    h, n = grid.h_x, grid.n_x
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

    def matvec(main, off_s, v, out):
        np.multiply(main, v, out=out)
        out[:-1] += off_s * v[1:]
        out[1:] += off_s * v[:-1]
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
    active = True   # the active rows changed: remake the views of v
    for it in range(EIGEN_MAX_ITER):
        if active:
            # the solve overwrites v in place, so these views serve until
            # the active rows change; the stacked matmul runs one BLAS dot
            # per row, bit for bit the 1-D ``a[i] @ b[i]`` (einsum is not)
            w2 = v.reshape(-1, n)
            w_row, w_col = w2[:, None, :], w2[:, :, None]
            off_s = off_a[:-1]
            av_flat = np.empty_like(v)
            av = av_flat.reshape(-1, n)
            active = False
        _, info = dpbtrs(cb_a, v, lower=0, overwrite_b=1)
        if info != 0:
            raise SolverError("banded Cholesky solve failed", info=info)
        if v.min() <= 0.0:
            # the resolvent of an irreducible M-matrix is positive, so this
            # can only be round-off catastrophe
            raise SolverError("inverse iteration lost positivity",
                              min_entry=float(v.min()))
        w2 /= np.sqrt(np.matmul(w_row, w_col)[:, 0, 0])[:, None]
        matvec(main_a, off_s, v, av_flat)
        lam_it = np.matmul(w_row, av[:, :, None])[:, 0, 0]
        settled = np.abs(lam_it - lam_prev) <= EIGEN_VALUE_TOL * np.maximum(
            1.0, np.abs(lam_it))
        lam_prev = lam_it
        # the residual is read only by the stopping test and at the cap
        n_settled = np.count_nonzero(settled)
        if it == EIGEN_MAX_ITER - 1 or n_settled == settled.size:
            residual = scaled_residual(w2, av, lam_it)
        elif n_settled:
            residual[settled] = scaled_residual(w2[settled], av[settled],
                                                lam_it[settled])
        else:
            continue
        done = settled & (residual <= EIGEN_RESIDUAL_TOL)
        if done.any():
            lam[rows[done]] = lam_it[done]
            vec[rows[done]] = w2[done]
            keep = ~done
            rows, lam_prev, residual = rows[keep], lam_prev[keep], residual[keep]
            if not rows.size:
                break
            v = w2[keep].reshape(-1)
            active = True
            # the factor of the remaining blocks is their rows of this one
            cb_a = np.asfortranarray(
                cb_a.reshape(2, -1, n)[:, keep].reshape(2, -1))
            main_a = main_a.reshape(-1, n)[keep].reshape(-1)
            off_a = off_a.reshape(-1, n)[keep].reshape(-1)
    else:
        # the target is 10x inside the contract; only an actual contract
        # breach is a failure (coarse-grid round-off can pin the residual
        # between the two)
        over = np.flatnonzero(~(residual <= EIGEN_CONTRACT))
        if over.size:
            i = over[0]
            raise EigenDiverged("inverse power iteration cap exceeded",
                                iterations=EIGEN_MAX_ITER,
                                residual=float(residual[i]),
                                lam=float(lam_prev[i]))
        lam[rows] = lam_prev
        vec[rows] = v.reshape(-1, n)
    phi = vec / (h * vec.sum(axis=1))[:, None]
    av = matvec(main, off_z[:-1], phi.ravel(), np.empty(k * n)).reshape(k, n)
    res = (np.abs(av - lam[:, None] * phi).max(axis=1)
           / np.maximum(1.0, np.abs(phi).max(axis=1)))

    def check(failed, message, **values):
        # one vectorized test per clause of the contract; a NaN fails each
        if failed.any():
            i = int(np.argmax(failed))
            raise SolverError(message, alpha=float(alphas[i]),
                              **{key: float(v[i]) for key, v in values.items()})

    mass = h * phi.sum(axis=1)
    check(~(phi.min(axis=1) > 0.0), "eigenfunction must be strictly positive")
    check(~(np.abs(mass - 1.0) <= 1e-12),
          "eigenfunction mass normalization violated", mass=mass)
    check(~(res <= EIGEN_CONTRACT), "eigenpair residual above contract",
          residual=res)
    return lam, phi, res


def principal_eigenpair(alpha: float, c: ScalarField
                        ) -> tuple[float, np.ndarray, float]:
    """Smallest eigenvalue of -alpha*L - diag(c), its positive unit-mass
    eigenfunction and its scaled residual: the one row of
    `principal_eigenpairs`."""
    lam, phi, res = principal_eigenpairs([alpha], [c])
    return float(lam[0]), phi[0], float(res[0])


# ---------------------------------------------------------------------------
# dispersal profiles


@dataclass(frozen=True)
class DispersalProfile:
    """Trait-to-dispersal map with derivative access and construction metadata."""

    a: float
    b: float
    fn: Callable[[np.ndarray], np.ndarray]
    dfn: Callable[[np.ndarray], np.ndarray]
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
        return self.dfn(np.asarray(z, dtype=float))

    def argmin(self) -> float:
        """Refined minimizer of the rate over [a, b] (endpoints allowed), from
        4097 samples."""
        n = 4097
        zs = np.linspace(self.a, self.b, n)
        vals = np.asarray(self.fn(zs), dtype=float)
        j = int(np.argmin(vals))
        if j == 0 or j == n - 1:
            return float(zs[j])
        return parabola_vertex(float(zs[j]), float(vals[j - 1]),
                               float(vals[j]), float(vals[j + 1]),
                               float(zs[1] - zs[0]))[0]


class ThetaCache:
    """A run's resident ecology: the profile, the habitat m and the steady
    states keyed by quantized resident trait.

    Surface sweeps revisit the same resident column many times; quantizing at
    1e-12 makes the sweep O(#columns) theta solves.
    """

    def __init__(self, profile: DispersalProfile, m: ScalarField):
        self.profile = profile
        self.m = m
        self._store: dict[int, ScalarField] = {}

    def theta(self, z2: float) -> ScalarField:
        key = int(round(z2 / THETA_CACHE_QUANTUM))
        hit = self._store.get(key)
        if hit is None:
            hit = self._store[key] = solve_theta(float(self.profile(z2)),
                                                 self.m)
        return hit


# ---------------------------------------------------------------------------
# invasion exponent and its derivatives


def potential(m: ScalarField, theta: ScalarField) -> ScalarField:
    """The potential m - theta that a resident steady state leaves to mutants."""
    return ScalarField(m.grid, m.values - theta.values)


def _exponents(z1s, z2: float, cache: ThetaCache) -> np.ndarray:
    """lambda(z1, z2) for every z1 in z1s: one resident, one eigen batch."""
    c = potential(cache.m, cache.theta(float(z2)))
    return principal_eigenpairs(cache.profile(np.asarray(z1s)),
                                [c] * len(z1s))[0]


def _stencil_points(z1: float, profile: DispersalProfile
                    ) -> tuple[int, float, list[float]]:
    """Side, step and mutant traits of the second-order stencil at z1.

    Central (side 0) in the interior: z1 - h and z1 + h, then z1, which only
    the second difference reads.  One-sided within h of the trait endpoints
    (side 1 forward, -1 backward): z1 and three steps inward, the last of
    which only the second difference reads.
    """
    a, b = profile.a, profile.b
    h = DERIV_STEP_FRACTION * (b - a)
    if z1 - h < a:
        return 1, h, [z1, z1 + h, z1 + 2 * h, z1 + 3 * h]
    if z1 + h > b:
        return -1, h, [z1, z1 - h, z1 - 2 * h, z1 - 3 * h]
    return 0, h, [z1 - h, z1 + h, z1]


def lambda_surface(z1s, z2s, cache: ThetaCache
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """lambda, (d/dz1) lambda and (d2/dz1^2) lambda on a (z1, z2) sample
    product, each of shape (len(z1s), len(z2s)), by second-order differences:
    central in the interior, one-sided within the step (`DERIV_STEP_FRACTION`
    of the trait interval) of its endpoints.  One eigen batch per resident
    column; lambda is the stencil point at z1 itself."""
    stencils = [_stencil_points(float(z1), cache.profile) for z1 in z1s]
    points = [z for _, _, pts in stencils for z in pts]
    out = np.empty((3, len(stencils), len(z2s)))
    for j, z2 in enumerate(z2s):
        lams = _exponents(points, z2, cache).tolist()
        for i, (side, h, pts) in enumerate(stencils):
            f, lams = lams[:len(pts)], lams[len(pts):]
            out[:, i, j] = (f[0] if side else f[-1],
                            first_difference(side, h, f),
                            second_difference(side, h, f))
    return tuple(out)


def lambda_derivs(z1: float, z2: float,
                  cache: ThetaCache) -> tuple[float, float]:
    """(d/dz1) lambda and (d2/dz1^2) lambda: the one-point `lambda_surface`."""
    _, d1, d2 = lambda_surface([z1], [z2], cache)
    return float(d1[0, 0]), float(d2[0, 0])


def lambda_gradient(z1: float, z2: float, cache: ThetaCache) -> float:
    """(d/dz1) lambda by the first difference of `lambda_derivs`' stencil,
    solving only the points it reads: two inside, three near a wall."""
    side, h, pts = _stencil_points(float(z1), cache.profile)
    return first_difference(side, h, _exponents(pts[:-1], z2, cache).tolist())


def lambda_table(z1s: np.ndarray, z2s: np.ndarray,
                 cache: ThetaCache) -> np.ndarray:
    """Exponent values on a (z1, z2) sample product, one theta solve and one
    eigen batch per column."""
    out = np.empty((len(z1s), len(z2s)))
    for j, z2 in enumerate(z2s):
        out[:, j] = _exponents(z1s, z2, cache)
    return out


# ---------------------------------------------------------------------------
# explicit U-shaped profile

PROBE_SAMPLES = 17  # rate-box sampling for the curvature ratio


def construct_alpha(alpha0: float, L0: float, m: ScalarField) -> DispersalProfile:
    """Explicit U-shaped dispersal profile with certified convexity structure.

    Probes the rate-pair exponent surface on [alpha0, alpha0+L0]^2 to estimate
    k0 = sup |d2_rate lambda| / d_rate lambda (a sampled max, hence a lower
    estimate of the true sup), then maps z -> alpha0 - log(cos zeta)/k0 on the
    symmetric interval [-z_M, z_M] with z_M = arccos(exp(-k0 L0)), affinely
    rescaled onto the trait interval [-0.5, 0.5].
    """
    if alpha0 <= 0.0 or L0 <= 0.0:
        raise ValidationError("profile construction needs alpha0 > 0, L0 > 0",
                              alpha0=alpha0, L0=L0)
    a, b = -0.5, 0.5
    alphas = np.linspace(alpha0, alpha0 + L0, PROBE_SAMPLES)
    h_a = alphas[1] - alphas[0]
    if not h_a * h_a > 0.0:
        raise ValidationError("rate span L0 too small to difference at alpha0",
                              alpha0=alpha0, L0=L0)
    check_records("probe eigen batch", PROBE_SAMPLES**2, m.grid.n_x)
    # checked before any theta solve: the whole box is one batch, so rows of
    # different columns that run to the iteration cap share those iterations
    columns = [potential(m, solve_theta(float(a2), m)) for a2 in alphas]
    lam, _, _ = principal_eigenpairs(np.tile(alphas, PROBE_SAMPLES),
                                     [c for c in columns for _ in alphas])
    surf = lam.reshape(PROBE_SAMPLES, PROBE_SAMPLES).T
    d1, d2 = difference_tables(surf, h_a)
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
        "probe_n": PROBE_SAMPLES,
        "z_M": z_m,
        "z_min": 0.5 * (a + b),
    }
    return DispersalProfile(a, b, alpha_fn, alpha_prime, meta)


# ---------------------------------------------------------------------------
# hypothesis verifier

H1_SAMPLES = 21  # default (z1, z2) sampling for the curvature/sign report


def check_h1_samples(n_samples: int) -> None:
    """Reject under 2 samples per axis, or a surface past the record rule."""
    if n_samples < 2:
        raise ValidationError("H1 check needs at least 2 samples",
                              n_samples=n_samples)
    check_records("H1 sample surface", n_samples, n_samples)


def check_H1(cache: ThetaCache, n_samples: int = H1_SAMPLES) -> dict:
    """Verify uniform trait convexity and the endpoint gradient signs.

    Passing requires min d2_z1 lambda > 0 over the sample grid together with
    d_z1 lambda(a, a) < 0 and d_z1 lambda(b, b) > 0.  Returns the h1.json
    dict: the curvature extrema `K_lower`, `K_upper` are taken over the
    sample grid only, hence inner estimates of the continuum bounds.
    """
    check_h1_samples(n_samples)
    a, b = cache.profile.a, cache.profile.b
    zs = np.linspace(a, b, n_samples)
    d2 = lambda_surface(zs, zs, cache)[2]
    sign_a, _ = lambda_derivs(a, a, cache)
    sign_b, _ = lambda_derivs(b, b, cache)
    return {"K_lower": float(d2.min()), "K_upper": float(d2.max()),
            "sign_a": float(sign_a), "sign_b": float(sign_b),
            "pass": bool(d2.min() > 0.0 and sign_a < 0.0 and sign_b > 0.0),
            "n_samples": n_samples}


def spectral_gap(alpha: float, c: ScalarField) -> float:
    """Difference of the two smallest eigenvalues of -alpha*L - diag(c)."""
    main, off = _operator_diagonals(alpha, c.values, c.grid.h_x)
    if not (np.isfinite(main).all() and np.isfinite(off).all()):
        raise ValidationError("operator diagonals must not contain infs or "
                              "NaNs", alpha=float(alpha))
    # the call eigh_tridiagonal(select="i", select_range=(0, 1)) makes
    _, vals, _, _, info = dstebz(main, off, 2, 0.0, 1.0, 1, 2, 0.0, "E")
    if info != 0:
        raise SolverError("eigenvalue bisection failed", info=int(info))
    return float(vals[1] - vals[0])
