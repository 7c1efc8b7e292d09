"""Steady states, eigenpairs, invasion-exponent surfaces, profile construction."""

from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal, solve_banded
from scipy.linalg.lapack import dpbtrf, dpbtrs

from dispersal import ecology as eco
from dispersal.errors import (EigenDiverged, SolverError, ThetaDiverged,
                              ValidationError)
from dispersal.grids import (
    ScalarField,
    SpatialGrid,
    default_m,
    mirror_laplacian,
)
from dispersal.tridiag import FactoredDiffusion
from helpers import affine_profile, constant_profile, integrate


@pytest.fixture(scope="module")
def grid64():
    return SpatialGrid(64)


@pytest.fixture(scope="module")
def m64(grid64):
    return default_m(grid64)


# ---------------------------------------------------------------------------
# theta


def test_theta_constant_m_is_exact(grid64):
    m = ScalarField(grid64, np.full(64, 0.8))
    theta = eco.solve_theta(0.5, m)
    assert np.max(np.abs(theta.values - 0.8)) < 1e-12


def test_theta_residual_and_positivity(grid64, m64):
    theta = eco.solve_theta(0.5, m64)
    res = 0.5 * mirror_laplacian(theta.values, grid64.h_x) + \
        theta.values * (m64.values - theta.values)
    assert np.max(np.abs(res)) <= 1e-10 * np.max(m64.values)
    assert theta.values.min() > 0.0


def test_theta_integral_identity(grid64, m64):
    # integrating the equation kills the Laplacian: int theta (m - theta) = 0
    theta = eco.solve_theta(0.5, m64)
    prod = ScalarField(grid64, theta.values * (m64.values - theta.values))
    assert abs(integrate(prod)) < 1e-10


def test_theta_newton_vs_pseudotime_oracle(grid64, m64):
    # two independent solvers must agree; marching runs to residual
    # 1e-12 * ||m||_inf, just above its round-off floor
    newton = eco.solve_theta(0.5, m64)
    target = 1e-12 * float(np.max(m64.values))
    marched = eco.solve_theta_pseudotime(0.5, m64, residual_target=target)
    assert np.max(np.abs(newton.values - marched.values)) < 1e-8


def test_theta_fallback_returns_a_fixed_point_within_the_contract(grid64,
                                                                 m64):
    # a zero target is never met: the march stops at an iterate one more
    # step leaves bit for bit unchanged, whose residual meets the contract
    theta = eco.solve_theta_pseudotime(0.5, m64, residual_target=0.0).values
    step = FactoredDiffusion(64, grid64.h_x, 0.2 * 0.5)
    assert np.array_equal(step.solve(theta * (1.0 + 0.2 * (m64.values
                                                          - theta))), theta)
    res = 0.5 * mirror_laplacian(theta, grid64.h_x) + \
        theta * (m64.values - theta)
    assert 0.0 < np.max(np.abs(res)) <= eco.THETA_CONTRACT * np.max(m64.values)


def test_theta_fallback_raises_at_a_fixed_point_above_the_contract(
        m64, monkeypatch):
    monkeypatch.setattr(eco, "THETA_CONTRACT", 1e-14)
    with pytest.raises(ThetaDiverged, match="fixed point") as exc:
        eco.solve_theta_pseudotime(0.5, m64, residual_target=0.0)
    diag = exc.value.diagnostics
    assert diag["contract"] == 1e-14 * np.max(m64.values)
    assert diag["residual"] > diag["contract"]


def test_theta_newton_evaluates_one_residual_per_iterate(m64, monkeypatch):
    # five Newton steps, each accepted at the full step: the start and every
    # accepted candidate, whose residual the next iterate keeps
    calls = []
    residual = eco._logistic_residual

    def counting(*args):
        calls.append(args[0])
        return residual(*args)

    monkeypatch.setattr(eco, "_logistic_residual", counting)
    eco.solve_theta(0.5, m64)
    assert len(calls) == 6


def test_theta_rejects_bad_inputs(grid64, m64):
    bad = ScalarField(grid64, np.linspace(-0.1, 1.0, 64))
    with pytest.raises(ValidationError):
        eco.solve_theta(0.5, bad)
    with pytest.raises(ValidationError):
        eco.solve_theta(-1.0, m64)


def _reference_laplacian(v, h):
    out = np.empty_like(v)
    out[1:-1] = v[:-2] - 2.0 * v[1:-1] + v[2:]
    out[0] = v[1] - v[0]
    out[-1] = v[-2] - v[-1]
    out /= h * h
    return out


def _reference_theta(alpha, m, residual_rtol=1e-12, max_newton=60):
    """The damped Newton solve_theta must reproduce bit for bit: a general
    banded Jacobian through solve_banded, then the pseudo-time fallback.
    Returns the field and whether it fell back."""
    mv, h, n = m.values, m.grid.h_x, m.grid.n_x

    def residual(theta):
        return alpha * _reference_laplacian(theta, h) + theta * (mv - theta)

    target = residual_rtol * float(np.max(np.abs(mv)))
    theta = mv.copy()
    for _ in range(max_newton):
        res = residual(theta)
        norm = float(np.max(np.abs(res)))
        if norm <= target:
            return theta, False
        d = h * h
        ab = np.zeros((3, n))
        ab[1, :] = -2.0 * alpha / d + mv - 2.0 * theta
        ab[1, 0] = -alpha / d + mv[0] - 2.0 * theta[0]
        ab[1, -1] = -alpha / d + mv[-1] - 2.0 * theta[-1]
        ab[0, 1:] = alpha / d
        ab[2, :-1] = alpha / d
        delta = solve_banded((1, 1), ab, -res)
        step = 1.0
        accepted = False
        for _ in range(40):
            cand = theta + step * delta
            if cand.min() > 0.0:
                cand_norm = float(np.max(np.abs(residual(cand))))
                if cand_norm <= (1.0 - 0.25 * step) * norm or cand_norm <= target:
                    theta = cand
                    accepted = True
                    break
            step *= 0.5
        if not accepted:
            break
    marched = eco.solve_theta_pseudotime(
        alpha, m, residual_target=max(target, 1e-11 * float(np.max(np.abs(mv)))))
    return marched.values, True


@pytest.mark.parametrize("n_x", [16, 64, 128])
def test_theta_equals_banded_newton_reference(monkeypatch, n_x):
    grid = SpatialGrid(n_x)
    fallbacks = []
    march = eco.solve_theta_pseudotime

    def counting(*args, **kwargs):
        fallbacks.append(args[0])
        return march(*args, **kwargs)

    monkeypatch.setattr(eco, "solve_theta_pseudotime", counting)
    marched = 0
    for m in (default_m(grid),
              ScalarField(grid, 1.0 + 0.3 * np.cos(3.0 * grid.nodes))):
        for alpha in (0.05, 0.3, 0.5, 0.77, 2.0):
            expect, fell_back = _reference_theta(alpha, m)
            del fallbacks[:]
            theta = eco.solve_theta(alpha, m)
            assert np.array_equal(theta.values, expect)
            assert fallbacks == ([alpha] if fell_back else [])
            marched += fell_back
    if n_x == 128:
        # the residual floor sits above the Newton target for most rates
        assert marched >= 8


@pytest.mark.parametrize("alpha", [0.0, -0.5, np.nan, np.inf])
def test_theta_rejects_a_bad_rate(m64, alpha):
    with pytest.raises(ValidationError):
        eco.solve_theta(alpha, m64)
    with pytest.raises(ValidationError):
        eco.solve_theta_pseudotime(alpha, m64, residual_target=0.0)


# ---------------------------------------------------------------------------
# principal eigenpair


def test_eigenpair_constant_potential(grid64):
    c = ScalarField(grid64, np.full(64, 0.7))
    lam, phi, _ = eco.principal_eigenpair(0.5, c)
    assert lam == pytest.approx(-0.7, abs=1e-11)
    assert np.max(np.abs(phi - 1.0)) < 1e-10


def test_eigenpair_invariants(grid64, m64):
    theta = eco.solve_theta(0.5, m64)
    c = ScalarField(grid64, m64.values - theta.values)
    _, phi, residual = eco.principal_eigenpair(0.8, c)
    assert phi.min() > 0.0
    assert integrate(ScalarField(grid64, phi)) == pytest.approx(1.0, abs=1e-12)
    assert residual <= 1e-10


def _operator_diagonals(alpha, c: np.ndarray, h: float):
    """Bands of -alpha*L - diag(c) for one rate, written out independently
    of the package's band helper."""
    d = h * h
    main = 2.0 * alpha / d - c
    main[0] = alpha / d - c[0]
    main[-1] = alpha / d - c[-1]
    return main, np.repeat(-alpha / d, c.size - 1)


def test_eigenpair_dense_oracle():
    # full symmetric eigendecomposition on a small grid as the oracle
    grid = SpatialGrid(32)
    rng = np.random.default_rng(7)
    c = ScalarField(grid, rng.normal(0.5, 0.4, size=32))
    alpha = 0.37
    lam, phi, _ = eco.principal_eigenpair(alpha, c)

    h = grid.h_x
    main, off = _operator_diagonals(alpha, c.values, h)
    dense = np.diag(main) + np.diag(off, 1) + np.diag(off, -1)
    w, v = np.linalg.eigh(dense)
    assert lam == pytest.approx(w[0], abs=1e-9)
    phi_oracle = np.abs(v[:, 0])
    phi_oracle /= h * phi_oracle.sum()
    assert np.max(np.abs(phi - phi_oracle)) < 1e-7


def test_eigenpair_matches_theta_on_diagonal(grid64, m64):
    # c = m - theta_z with the same alpha: theta is the exact eigenfunction,
    # eigenvalue 0
    theta = eco.solve_theta(0.65, m64)
    c = ScalarField(grid64, m64.values - theta.values)
    lam, phi, _ = eco.principal_eigenpair(0.65, c)
    assert abs(lam) < 1e-10
    normalized = theta.values / (grid64.h_x * theta.values.sum())
    assert np.max(np.abs(phi - normalized)) < 1e-8


def _column(n_x, resident_rate):
    grid = SpatialGrid(n_x)
    m = default_m(grid)
    theta = eco.solve_theta(resident_rate, m)
    return ScalarField(grid, m.values - theta.values)


def _rows(batch):
    """The (lam, phi, residual) rows of a `principal_eigenpairs` batch."""
    return list(zip(*batch))


def _same_row(a, b):
    """Two (lam, phi, residual) rows are equal bit for bit."""
    return a[0] == b[0] and a[2] == b[2] and np.array_equal(a[1], b[1])


def _reference_eigenpair(alpha, c, value_tol=1e-12, residual_tol=1e-11,
                         max_iter=500):
    """The one-rate inverse iteration the batched kernel must reproduce bit
    for bit: 1-D arrays, BLAS dots and norms, Python-float stopping tests."""
    cv, h = c.values, c.grid.h_x
    main, off = _operator_diagonals(alpha, cv, h)
    ab = np.zeros((2, cv.size))
    ab[1] = main - (-float(cv.max()) - 1.0)
    ab[0, 1:] = off
    cb, info = dpbtrf(ab, lower=0)
    assert info == 0

    def matvec(v):
        out = main * v
        out[:-1] += off * v[1:]
        out[1:] += off * v[:-1]
        return out

    v = np.full(cv.size, 1.0 / np.sqrt(cv.size))
    lam_prev = None
    for _ in range(max_iter):
        w, info = dpbtrs(cb, v, lower=0)
        w /= np.linalg.norm(w)
        av = matvec(w)
        lam = float(w @ av)
        s = 1.0 / (h * w.sum())
        residual = float(np.max(np.abs(av - lam * w)) * s
                         / max(1.0, s * np.max(np.abs(w))))
        v = w
        if (lam_prev is not None and abs(lam - lam_prev) <= value_tol *
                max(1.0, abs(lam)) and residual <= residual_tol):
            break
        lam_prev = lam
    phi = v / (h * v.sum())
    av = matvec(phi)
    residual = float(np.max(np.abs(av - lam * phi))
                     / max(1.0, np.max(np.abs(phi))))
    return lam, phi, residual


def _matches_reference(row, alpha, c, **tols):
    return _same_row(row, _reference_eigenpair(alpha, c, **tols))


def _batch_sizes(monkeypatch):
    """Rows solved by each banded solve of the inverse iteration."""
    sizes = []
    solve = eco.dpbtrs

    def counting(cb, v, lower=0, overwrite_b=0):
        sizes.append(v.size)
        return solve(cb, v, lower=lower, overwrite_b=overwrite_b)

    monkeypatch.setattr(eco, "dpbtrs", counting)
    return sizes


@pytest.mark.parametrize("n_x,resident_rate", [
    (16, 0.7), (64, 0.55), (128, 0.8),
    (128, 0.625),   # one row runs to the iteration cap
])
def test_eigenpair_batch_equals_row_by_row(monkeypatch, n_x, resident_rate):
    c = _column(n_x, resident_rate)
    alphas = np.linspace(0.5, 1.0, 17)
    sizes = _batch_sizes(monkeypatch)
    batch = _rows(eco.principal_eigenpairs(alphas, [c] * alphas.size))
    rows = [size // n_x for size in sizes]
    # rows froze at different iterations, and the factor shrank with them
    assert rows[0] == 17 and len(set(rows)) > 2
    if resident_rate == 0.625:
        assert len(rows) == 500 and rows[-1] == 1
    single = [eco.principal_eigenpair(float(a), c) for a in alphas]
    assert all(_same_row(row, pair) for row, pair in zip(batch, single))
    assert all(_matches_reference(row, float(a), c)
               for a, row in zip(alphas, batch))


def test_eigenpair_batch_at_the_cap_equals_row_by_row(monkeypatch):
    # a zero residual target freezes no row, so every row ends at the cap
    monkeypatch.setattr(eco, "EIGEN_RESIDUAL_TOL", 0.0)
    monkeypatch.setattr(eco, "EIGEN_MAX_ITER", 60)
    c = _column(64, 0.6)
    alphas = [0.45, 0.8, 1.3]
    batch = _rows(eco.principal_eigenpairs(alphas, [c] * 3))
    for a, row in zip(alphas, batch):
        assert _same_row(row, eco.principal_eigenpair(a, c))
        assert _matches_reference(row, a, c, residual_tol=0.0, max_iter=60)


def test_eigenpair_batch_permutes_with_its_rates():
    c = _column(64, 0.6)
    alphas = np.linspace(0.4, 1.2, 9)
    perm = np.random.default_rng(3).permutation(alphas.size)
    batch = _rows(eco.principal_eigenpairs(alphas, [c] * alphas.size))
    permuted = _rows(eco.principal_eigenpairs(alphas[perm],
                                              [c] * alphas.size))
    assert all(_same_row(permuted[i], batch[j]) for i, j in enumerate(perm))


def test_eigenpair_batch_takes_one_potential_per_rate():
    # rows of different resident columns in one batch, as the profile
    # construction probes its whole rate box
    columns = [_column(128, rate) for rate in (0.625, 0.8)]
    alphas = [0.5, 1.0, 0.75, 1.0]
    cs = [columns[0], columns[0], columns[1], columns[1]]
    batch = _rows(eco.principal_eigenpairs(alphas, cs))
    assert all(_same_row(row, eco.principal_eigenpair(a, c))
               for a, c, row in zip(alphas, cs, batch))
    with pytest.raises(ValidationError):
        eco.principal_eigenpairs(alphas, cs[:3])
    with pytest.raises(ValidationError):
        eco.principal_eigenpairs(alphas[:2], [columns[0], _column(64, 0.6)])


def test_eigenpair_batch_raises_at_the_cap_above_contract(monkeypatch):
    monkeypatch.setattr(eco, "EIGEN_MAX_ITER", 3)
    c = _column(64, 0.6)
    with pytest.raises(EigenDiverged):
        eco.principal_eigenpairs([0.5, 0.9], [c, c])


def test_eigenpair_batch_checks_the_contract_on_every_row(monkeypatch):
    c = _column(64, 0.6)
    alphas = np.linspace(0.4, 1.2, 9)
    _, _, residual = eco.principal_eigenpairs(alphas, [c] * alphas.size)
    assert residual.max() <= eco.EIGEN_CONTRACT
    # a contract between the rows' residuals fails the first row above it
    contract = float(np.median(residual))
    monkeypatch.setattr(eco, "EIGEN_CONTRACT", contract)
    with pytest.raises(SolverError, match="residual above contract") as exc:
        eco.principal_eigenpairs(alphas, [c] * alphas.size)
    i = int(np.flatnonzero(residual > contract)[0])
    assert exc.value.diagnostics == {"alpha": alphas[i],
                                     "residual": residual[i]}


@pytest.mark.parametrize("bad", [0.0, -0.3, np.nan, np.inf])
def test_eigenpair_batch_rejects_a_bad_rate_in_any_row(bad):
    c = _column(16, 0.6)
    with pytest.raises(ValidationError):
        eco.principal_eigenpairs([0.5, 0.7, bad, 0.9], [c] * 4)
    with pytest.raises(ValidationError):
        eco.principal_eigenpair(bad, c)


# ---------------------------------------------------------------------------
# invasion exponent


def exponent(alpha1: float, theta: ScalarField, m: ScalarField) -> float:
    """Growth rate of a rare mutant of rate alpha1 in the resident theta."""
    c = ScalarField(m.grid, m.values - theta.values)
    return eco.principal_eigenpair(alpha1, c)[0]


def test_diagonal_zero_identity(m64):
    profile = affine_profile(0.5, 0.3, -0.5, 0.5)
    cache = eco.ThetaCache(profile, m64)
    for z in np.linspace(-0.45, 0.45, 7):
        lam = exponent(float(profile(z)), cache.theta(float(z)), m64)
        assert abs(lam) < 1e-8


def test_gradient_sign_matches_profile_slope(m64):
    increasing = affine_profile(0.5, 0.3, -0.5, 0.5)
    decreasing = affine_profile(0.8, -0.3, -0.5, 0.5)
    for z1, z2 in [(-0.2, 0.1), (0.0, 0.3), (0.3, -0.25)]:
        d1_up, _ = eco.lambda_derivs(z1, z2, eco.ThetaCache(increasing, m64))
        d1_dn, _ = eco.lambda_derivs(z1, z2, eco.ThetaCache(decreasing, m64))
        assert d1_up > 0.0
        assert d1_dn < 0.0


def test_rate_pair_exponent_increasing_in_mutant_rate(m64):
    theta = eco.solve_theta(0.6, m64)
    vals = [exponent(a1, theta, m64) for a1 in np.linspace(0.5, 1.0, 6)]
    slopes = np.diff(vals)
    assert np.all(slopes > 0.0)


def test_lambda_derivs_richardson_oracle(m64, monkeypatch):
    # step-halving Richardson extrapolation as the derivative oracle; the
    # trait interval has unit length, so the step is DERIV_STEP_FRACTION
    profile = affine_profile(0.5, 0.3, -0.5, 0.5)
    cache = eco.ThetaCache(profile, m64)
    z1, z2 = 0.12, -0.2
    _, d2_h = eco.lambda_derivs(z1, z2, cache)
    monkeypatch.setattr(eco, "DERIV_STEP_FRACTION",
                        eco.DERIV_STEP_FRACTION / 2)
    _, d2_h2 = eco.lambda_derivs(z1, z2, cache)
    richardson = (4.0 * d2_h2 - d2_h) / 3.0
    assert d2_h == pytest.approx(richardson, rel=1e-2)


def test_lambda_gradient_is_the_first_derivative_of_lambda_derivs(
        m64, profile61):
    # two stencil rows inside, three within one step of a wall; the rows
    # the gradient leaves out do not change the bits of the rows it solves
    cache = eco.ThetaCache(profile61, m64)
    a, b = profile61.a, profile61.b
    step = eco.DERIV_STEP_FRACTION * (b - a)
    near = [a + 0.25 * step, a + 0.999 * step, b - 0.5 * step,
            b - 0.75 * step, np.nextafter(b, a)]
    zs = np.concatenate([np.linspace(a, b, 195), near])
    sides = [eco._stencil_points(float(z), profile61)[0] for z in zs]
    assert sides.count(1) >= 3 and sides.count(-1) >= 4
    for z in zs:
        assert eco.lambda_gradient(z, z, cache) \
            == eco.lambda_derivs(z, z, cache)[0]


def test_theta_cache_counts_solves(m64, monkeypatch):
    profile = affine_profile(0.5, 0.3, -0.5, 0.5)
    cache = eco.ThetaCache(profile, m64)
    calls = []
    original = eco.solve_theta

    def counting(alpha, m, **kw):
        calls.append(alpha)
        return original(alpha, m, **kw)

    monkeypatch.setattr(eco, "solve_theta", counting)
    for _ in range(4):
        cache.theta(0.2)
    cache.theta(0.2 + 1e-14)  # inside the quantum: same entry
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# surfaces


def test_surface_symmetry_under_even_profile(m64):
    # traits enter only through the rate, so an even profile gives
    # lambda(z1, z2) = lambda(-z1, -z2) regardless of m
    profile = eco.DispersalProfile(-0.5, 0.5,
                                   lambda z: 0.5 + np.asarray(z) ** 2,
                                   lambda z: 2.0 * np.asarray(z),
                                   {"kind": "even-quadratic"})
    zs = np.linspace(-0.4, 0.4, 5)
    table = eco.lambda_table(zs, zs, eco.ThetaCache(profile, m64))
    assert np.max(np.abs(table - table[::-1, ::-1])) < 1e-9


def test_surface_values_are_the_table(m64):
    # the surface reads lambda off its derivative stencils, central inside
    # and one-sided at the two end samples; its derivatives are the
    # one-point surfaces there
    profile = affine_profile(0.5, 0.3, -0.5, 0.5)
    cache = eco.ThetaCache(profile, m64)
    z1s, z2s = np.linspace(-0.5, 0.5, 9), np.linspace(-0.5, 0.5, 3)
    lam, dlam, d2lam = eco.lambda_surface(z1s, z2s, cache)
    table = eco.lambda_table(z1s, z2s, eco.ThetaCache(profile, m64))
    assert np.array_equal(lam, table)
    points = np.array([[eco.lambda_derivs(z1, z2, cache) for z2 in z2s]
                       for z1 in z1s])
    assert np.array_equal(dlam, points[..., 0])
    assert np.array_equal(d2lam, points[..., 1])


def test_same_minimizer_property(m64):
    # argmin_z1 lambda(., z2) sits at argmin alpha for every resident column
    profile = eco.construct_alpha(0.5, 0.5, m64)
    cache = eco.ThetaCache(profile, m64)
    z1s = np.linspace(-0.5, 0.5, 21)
    cell = z1s[1] - z1s[0]
    for z2 in (-0.3, 0.0, 0.4):
        theta = cache.theta(z2)
        column = np.array([exponent(float(profile(z1)), theta, m64)
                           for z1 in z1s])
        j = int(np.argmin(column))
        assert abs(z1s[j] - profile.meta["z_min"]) <= cell


# ---------------------------------------------------------------------------
# explicit profile construction


@pytest.fixture(scope="module")
def profile61(m64):
    return eco.construct_alpha(0.5, 0.5, m64)


def test_construct_alpha_anchors(profile61):
    # midpoint value alpha0, endpoint values alpha0 + L0, by construction
    mid = 0.5 * (profile61.a + profile61.b)
    assert float(profile61(mid)) == pytest.approx(0.5, abs=1e-12)
    assert float(profile61(profile61.a)) == pytest.approx(1.0, abs=1e-10)
    assert float(profile61(profile61.b)) == pytest.approx(1.0, abs=1e-10)
    assert profile61.argmin() == pytest.approx(mid, abs=1e-6)


def test_construct_alpha_zm_bisection_oracle(profile61):
    # z_M solves -log(cos z) = k0 L0; closed form vs bisection on the integral
    k0 = profile61.meta["k0"]
    target = k0 * 0.5

    lo, hi = 0.0, np.pi / 2 - 1e-15
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if -np.log(np.cos(mid)) < target:
            lo = mid
        else:
            hi = mid
    assert profile61.meta["z_M"] == pytest.approx(0.5 * (lo + hi), abs=1e-12)


def test_construct_alpha_derivative_consistency(profile61):
    zs = np.linspace(-0.45, 0.45, 9)
    hd = 1e-7
    fd = (profile61(zs + hd) - profile61(zs - hd)) / (2 * hd)
    assert np.max(np.abs(fd - profile61.prime(zs))) < 1e-5


def test_construct_alpha_rejects_bad_inputs(m64):
    with pytest.raises(ValidationError):
        eco.construct_alpha(-0.5, 0.5, m64)
    with pytest.raises(ValidationError):
        eco.construct_alpha(0.5, 0.0, m64)
    # a span below the resolution of alpha0 (or one whose square
    # underflows) would divide by a zero probe step
    for alpha0, L0 in ((0.5, 1e-300), (1e-236, 1e-236)):
        with pytest.raises(ValidationError):
            eco.construct_alpha(alpha0, L0, m64)


def test_construct_alpha_checks_its_eigen_batch_before_a_theta_solve(
        monkeypatch):
    # the probe box is one eigen batch of 17 * 17 = 289 rows of n_x values:
    # at 34,603 nodes it is past 10^7 values and refused before the first
    # theta solve, while 34,602 nodes pass the rule
    def solve(*args):
        raise AssertionError("a theta solve ran")

    monkeypatch.setattr(eco, "solve_theta", solve)
    with pytest.raises(ValidationError,
                       match="probe eigen batch exceeds the step cap") as exc:
        eco.construct_alpha(0.5, 0.5, default_m(SpatialGrid(34_603)))
    assert exc.value.diagnostics["records"] == 289
    assert exc.value.diagnostics["width"] == 34_603
    with pytest.raises(AssertionError, match="a theta solve ran"):
        eco.construct_alpha(0.5, 0.5, default_m(SpatialGrid(34_602)))


# ---------------------------------------------------------------------------
# hypothesis verifier


def test_check_h1_passes_on_constructed_profile(profile61, m64):
    report = eco.check_H1(eco.ThetaCache(profile61, m64), n_samples=9)
    assert report["pass"]
    assert report["K_lower"] > 0.0
    assert report["sign_a"] < 0.0 < report["sign_b"]


@pytest.mark.parametrize("n_samples", [1, 0, -1])
def test_check_h1_needs_two_samples(profile61, m64, n_samples):
    # fewer would pass the convexity test over an empty grid
    with pytest.raises(ValidationError):
        eco.check_H1(eco.ThetaCache(profile61, m64), n_samples=n_samples)


def test_check_h1_fails_on_constant_profile(m64):
    profile = constant_profile(0.6, -0.5, 0.5)
    report = eco.check_H1(eco.ThetaCache(profile, m64), n_samples=5)
    assert not report["pass"]
    assert abs(report["sign_a"]) < 1e-6
    assert abs(report["sign_b"]) < 1e-6


def test_check_h1_fails_on_decreasing_profile(m64):
    profile = affine_profile(0.9, -0.35, -0.5, 0.5)
    report = eco.check_H1(eco.ThetaCache(profile, m64), n_samples=5)
    assert not report["pass"]
    assert report["sign_b"] < 0.0


def test_spectral_gap_constant_potential(grid64):
    # for -alpha*L - c0 the two smallest eigenvalues differ by the first
    # nonzero Neumann Laplacian mode of the cell-centered stencil
    c = ScalarField(grid64, np.zeros(64))
    gap = eco.spectral_gap(0.5, c)
    h = grid64.h_x
    discrete_mode = 2.0 * (1.0 - np.cos(np.pi * h)) / (h * h)
    assert gap == pytest.approx(0.5 * discrete_mode, rel=1e-9)


@pytest.mark.parametrize("alpha,resident", [(0.3, 0.6), (0.55, 0.55),
                                            (1.7, 0.4)])
def test_spectral_gap_is_the_eigh_tridiagonal_gap(m64, alpha, resident):
    # spectral_gap calls LAPACK's bisection with the arguments that
    # eigh_tridiagonal passes it, so the two agree bit for bit
    theta = eco.solve_theta(resident, m64)
    c = ScalarField(m64.grid, m64.values - theta.values)
    main, off = eco._operator_diagonals(alpha, c.values, c.grid.h_x)
    vals = eigh_tridiagonal(main, off, select="i", select_range=(0, 1),
                            eigvals_only=True)
    assert eco.spectral_gap(alpha, c) == float(vals[1] - vals[0])


def test_spectral_gap_rejects_a_non_finite_potential(grid64):
    # ScalarField refuses NaN itself; a bare stand-in reaches the guard
    c = SimpleNamespace(grid=grid64, values=np.full(64, np.nan))
    with pytest.raises(ValidationError, match="NaN"):
        eco.spectral_gap(0.5, c)


def test_spectral_gap_rejects_a_non_finite_rate(m64):
    # a typed validation error naming the rate, as principal_eigenpairs gives
    with pytest.raises(ValidationError, match="infs") as info:
        eco.spectral_gap(float("inf"), m64)
    assert info.value.diagnostics == {"alpha": float("inf")}
