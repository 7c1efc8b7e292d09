"""Constrained HJ solver, canonical ODE, and the DP oracle."""

import numpy as np
import pytest

from dispersal.ecology import ThetaCache, construct_alpha, lambda_table
from dispersal.errors import (CurvatureCollapsed, SolverError,
                              TrajectoryHitBoundary, ValidationError)
from dispersal.grids import SpatialGrid, TraitField, TraitGrid, default_m
import dispersal.hj as hj
from dispersal.hj import (SelfConsistentSource, canonical_ode, lax_oleinik,
                          solve_constrained_hj)
from helpers import SyntheticSource

K0, ZSTART = 4.0, 0.13


def quadratic_initial(grid, center=ZSTART, k=K0):
    return TraitField(grid, k * (grid.nodes - center) ** 2)


def zero_source():
    return SyntheticSource(lambda z, t: np.zeros_like(z))


def test_minimizer_tie_breaks_leftmost():
    t = TraitGrid(16, 0.0, 1.0)
    v = np.full(16, 5.0)
    v[6] = 1.0
    v[7] = 1.0  # two equal discrete minima; node 6 must anchor the fit
    j, z_star, curv = hj._minimizer(v, t, 0.0)
    z6 = t.nodes[6]
    h = t.h_z
    # by the 3-point formula around node 6: slope -2/h, curvature 4/h^2
    assert j == 6
    assert curv == pytest.approx(4.0 / h**2, rel=1e-12)
    assert z_star == pytest.approx(z6 + h / 2, abs=1e-12)


def test_minimizer_on_a_wall_is_rejected():
    t = TraitGrid(16, 0.0, 1.0)
    for v, wall in ((t.nodes, 0), (-t.nodes, -1)):
        with pytest.raises(TrajectoryHitBoundary) as info:
            hj._minimizer(v, t, 0.25)
        assert str(info.value) == "minimizer reached the wall"
        assert info.value.diagnostics == {"t": 0.25, "z": t.nodes[wall]}


@pytest.fixture(scope="module")
def ecology_setup():
    sg = SpatialGrid(64)
    m = default_m(sg)
    profile = construct_alpha(0.5, 0.5, m)
    return m, profile


@pytest.fixture(scope="module")
def sc_source(ecology_setup):
    m, profile = ecology_setup
    return SelfConsistentSource(ThetaCache(profile, m), TraitGrid(128))


def quadratic_exact(z, t, center=ZSTART, k=K0):
    return k * (z - center) ** 2 / (1.0 + 4.0 * k * t)


def test_godunov_preserves_quadratic_family():
    grid = TraitGrid(128)
    sol = solve_constrained_hj(zero_source(), quadratic_initial(grid), 1.0, 1e-3)
    worst = max(np.max(np.abs(sol.V[i] - (quadratic_exact(grid.nodes, t) -
                                          quadratic_exact(grid.nodes, t).min())))
                for i, t in enumerate(sol.times))
    assert worst <= 3.0 * grid.h_z
    assert np.max(np.abs(sol.zbar - ZSTART)) <= grid.h_z
    # with a zero source nothing is ever subtracted
    assert np.max(np.abs(sol.multiplier)) == 0.0
    assert sol.max_drift == 0.0

    fine = TraitGrid(256)
    sol2 = solve_constrained_hj(zero_source(), quadratic_initial(fine), 1.0, 5e-4)
    worst2 = max(np.max(np.abs(sol2.V[i] - (quadratic_exact(fine.nodes, t) -
                                            quadratic_exact(fine.nodes, t).min())))
                 for i, t in enumerate(sol2.times))
    assert worst / worst2 >= 1.7


def test_curvature_track_on_quadratic():
    grid = TraitGrid(128)
    sol = solve_constrained_hj(zero_source(), quadratic_initial(grid), 1.0,
                               1e-3, record_every=100)
    exact = 2.0 * K0 / (1.0 + 4.0 * K0 * sol.times)
    assert sol.sigma[0] == pytest.approx(2.0 * K0, abs=1e-10)
    assert np.all(np.diff(sol.sigma) < 0.0)
    # the monotone scheme keeps the discrete valley of a spreading parabola
    # sharper than the continuum; the factor stays bounded
    assert np.all(sol.sigma >= 0.99 * exact)
    assert np.all(sol.sigma <= 3.6 * exact)
    assert sol.K3 == pytest.approx(2.0 * K0)


def test_cfl_subdivision_handles_steep_data():
    grid = TraitGrid(128)
    sol = solve_constrained_hj(zero_source(), quadratic_initial(grid, k=50.0),
                               0.5, 0.015)
    worst = max(np.max(np.abs(sol.V[i] - (quadratic_exact(grid.nodes, t, k=50.0)
                                          - quadratic_exact(grid.nodes, t,
                                                            k=50.0).min())))
                for i, t in enumerate(sol.times))
    assert worst <= 8.0 * grid.h_z  # first-order constant grows with the slope


def test_dp_quadratic_hopf_lax():
    grid = TraitGrid(128)
    dp = lax_oleinik(zero_source(), quadratic_initial(grid), 1.0, 0.015, 12.0)
    worst = max(np.max(np.abs(dp.V[i] - quadratic_exact(grid.nodes, t)))
                for i, t in enumerate(dp.times))
    assert worst <= 2.0 * (grid.h_z + 0.015)


def test_dp_single_step_returns_initial_as_dt_vanishes():
    grid = TraitGrid(128)
    V0 = quadratic_initial(grid)
    devs = []
    for dt in (2e-3, 1e-3):
        dp = lax_oleinik(zero_source(), V0, dt, dt, 12.0)
        devs.append(np.max(np.abs(dp.V[-1] - V0.values)))
    assert devs[0] <= 0.1
    assert devs[1] <= 0.65 * devs[0]  # first order in the step


def test_dp_window_validation():
    grid = TraitGrid(128)
    V0 = quadratic_initial(grid)
    with pytest.raises(ValidationError):
        lax_oleinik(zero_source(), V0, 1.0, grid.h_z / 100.0, 1.0)
    with pytest.raises(ValidationError):
        lax_oleinik(zero_source(), V0, 1.0, 0.015, -1.0)


def synthetic_rate(z, t):
    return 0.4 * np.cos(2 * np.pi * (z + 0.5)) * (1.0 + 0.5 * np.sin(2 * np.pi * t))


def test_godunov_and_dp_agree_on_shared_source():
    src = SyntheticSource(synthetic_rate)

    def pair_gap(n_z, dt):
        grid = TraitGrid(n_z)
        V0 = quadratic_initial(grid)
        g = solve_constrained_hj(src, V0, 1.0, dt)
        d = lax_oleinik(src, V0, 1.0, dt, 12.0, constrained=True)
        n = min(d.times.size, g.times.size)
        return max(np.max(np.abs(d.V[i] - g.V[i])) for i in range(n))

    coarse = pair_gap(128, 0.015)
    fine = pair_gap(256, 0.015 * 2.0 ** (-2.0 / 3.0))
    assert coarse <= 5e-2
    assert coarse / fine >= 1.5


def test_one_step_monotonicity_of_both_solvers():
    grid = TraitGrid(32)
    rng = np.random.default_rng(7)
    base = 0.5 + rng.random(grid.n_z)
    bump = 0.3 * rng.random(grid.n_z)
    src = SyntheticSource(synthetic_rate)
    dt = 0.01
    lo = lax_oleinik(src, TraitField(grid, base), dt, dt, 12.0)
    hi = lax_oleinik(src, TraitField(grid, base + bump), dt, dt, 12.0)
    assert np.all(lo.V[-1] <= hi.V[-1] + 1e-12)


def test_initial_data_validation():
    grid = TraitGrid(128)
    z = grid.nodes
    src = zero_source()
    with pytest.raises(ValidationError):
        solve_constrained_hj(src, TraitField(grid, 4 * (z - 0.13) ** 2), 1.0, 0.0)
    with pytest.raises(ValidationError):
        solve_constrained_hj(src, TraitField(grid, (z - 0.6) ** 2), 1.0, 1e-3)
    with pytest.raises(ValidationError):
        solve_constrained_hj(src, TraitField(grid, np.cos(4 * z) + 1.0), 1.0, 1e-3)


def test_minimizer_escaping_to_wall_aborts():
    grid = TraitGrid(64)
    tilt = SyntheticSource(lambda z, t: -6.0 * z)
    with pytest.raises(TrajectoryHitBoundary):
        solve_constrained_hj(tilt, quadratic_initial(grid, center=0.3, k=1.0),
                             0.4, 1e-3)


def test_selfconsistent_stationary_at_dispersal_minimum(sc_source):
    grid = sc_source.grid
    sol = solve_constrained_hj(sc_source, quadratic_initial(grid, center=0.0),
                               0.5, 1e-3, record_every=50)
    assert np.max(np.abs(sol.zbar)) <= grid.h_z
    assert np.max(np.abs(sol.multiplier)) <= 1e-5


def test_selfconsistent_multiplier_and_drift_small(sc_source):
    grid = sc_source.grid
    sol = solve_constrained_hj(sc_source, quadratic_initial(grid, center=0.25),
                               1.0, 1e-3, record_every=10)
    assert np.max(np.abs(sol.multiplier)) <= 1e-3
    assert sol.max_drift <= 1e-3
    assert sol.K3 <= 10.0


def test_canonical_ode_matches_argmin_path(sc_source):
    grid = sc_source.grid
    sol = solve_constrained_hj(sc_source, quadratic_initial(grid, center=0.25),
                               1.0, 1e-3, record_every=10)
    traj = canonical_ode(sc_source, (sol.times, sol.sigma), 0.25, 1.0)
    gap = max(abs(traj.at(t) - sol.zbar[i]) for i, t in enumerate(sol.times))
    assert gap <= 2.0 * grid.h_z
    # movement is toward the dispersal minimum and strictly monotone
    assert np.all(np.diff(traj.zbar) < 0.0)
    assert traj.zbar[-1] > 0.0
    assert traj.zbar[0] - traj.zbar[-1] >= 0.005


def test_canonical_ode_stationary_at_minimum(sc_source, monkeypatch):
    monkeypatch.setattr(hj, "CANONICAL_DT", 0.02)
    sigma_track = (np.array([0.0, 1.0]), np.array([2.0, 2.0]))
    traj = canonical_ode(sc_source, sigma_track, 0.0, 1.0)
    assert np.max(np.abs(traj.zbar)) <= 1e-6


def test_canonical_ode_guards(sc_source, monkeypatch):
    monkeypatch.setattr(hj, "CANONICAL_DT", 0.02)
    bad_sigma = (np.array([0.0, 1.0]), np.array([1.0, -0.5]))
    with pytest.raises(CurvatureCollapsed):
        canonical_ode(sc_source, bad_sigma, 0.25, 1.0)
    steep = SyntheticSource(lambda z, t: np.full_like(z, 0.0),
                            grad_fn=lambda z, t: -5.0)
    steep.profile = sc_source.profile
    ok_sigma = (np.array([0.0, 2.0]), np.array([1.0, 1.0]))
    with pytest.raises(TrajectoryHitBoundary):
        canonical_ode(steep, ok_sigma, 0.25, 2.0)


@pytest.mark.parametrize("T,steps", [(0.014, 2), (1.004, 101)])
def test_canonical_ode_ends_at_a_horizon_off_the_step(ecology_setup, T,
                                                      steps):
    # the last step is shortened to land on T, not rounded away before it
    drift = SyntheticSource(lambda z, t: np.zeros_like(z),
                            grad_fn=lambda z, t: 0.1)
    drift.profile = ecology_setup[1]
    sigma_track = (np.array([0.0, 2.0]), np.array([1.0, 1.0]))
    traj = canonical_ode(drift, sigma_track, 0.25, T)
    assert traj.times.size == steps + 1
    assert abs(traj.times[-1] - T) <= 1e-12


def test_selfconsistent_diagonal_guard(ecology_setup, monkeypatch):
    monkeypatch.setattr(hj, "RESIDENT_SAMPLES", 9)
    monkeypatch.setattr(hj, "DIAG_ZERO_TOL", 1e-9)
    m, profile = ecology_setup
    strict = SelfConsistentSource(ThetaCache(profile, m), TraitGrid(16))
    with pytest.raises(SolverError):
        strict.rate(strict.grid.nodes, 0.0, 0.21)


def test_selfconsistent_rate_matches_eager_table(ecology_setup, monkeypatch):
    monkeypatch.setattr(hj, "RESIDENT_SAMPLES", 9)
    m, profile = ecology_setup
    grid = TraitGrid(16)
    src = SelfConsistentSource(ThetaCache(profile, m), grid)
    residents = np.linspace(profile.a, profile.b, 9)
    table = lambda_table(grid.nodes, residents, ThetaCache(profile, m))
    for zbar in (profile.a, residents[3], 0.1, profile.b):
        j = int(np.clip(np.searchsorted(residents, zbar) - 1, 0, 7))
        w = np.clip((zbar - residents[j]) / (residents[j + 1] - residents[j]),
                    0.0, 1.0)
        eager = (1.0 - w) * table[:, j] + w * table[:, j + 1]
        assert np.array_equal(src.rate(grid.nodes, 0.0, zbar), eager)


def test_selfconsistent_guard_extrapolates_at_trait_ends(ecology_setup,
                                                        monkeypatch):
    # the end nodes sit half a cell inside the walls, so the diagonal at
    # zbar = a or b lies beyond them and is read off a linear extrapolation
    monkeypatch.setattr(hj, "RESIDENT_SAMPLES", 9)
    m, profile = ecology_setup
    grid = TraitGrid(16)
    src = SelfConsistentSource(ThetaCache(profile, m), grid)
    ends = (profile.a, profile.b)
    guarded = [src.rate(grid.nodes, 0.0, zbar) for zbar in ends]
    monkeypatch.setattr(hj, "DIAG_ZERO_TOL", np.inf)
    loose = [src.rate(grid.nodes, 0.0, zbar) for zbar in ends]
    assert all(np.array_equal(g, l) for g, l in zip(guarded, loose))


def test_selfconsistent_computes_only_visited_columns(ecology_setup,
                                                      monkeypatch):
    m, profile = ecology_setup
    columns = []

    def counting_table(z1s, z2s, *args, **kwargs):
        columns.extend(z2s)
        return lambda_table(z1s, z2s, *args, **kwargs)

    monkeypatch.setattr(hj, "lambda_table", counting_table)
    grid = TraitGrid(128)
    src = SelfConsistentSource(ThetaCache(profile, m), grid)
    assert columns == []
    solve_constrained_hj(src, quadratic_initial(grid, center=0.25), 0.05,
                         1e-3)
    assert 2 <= len(columns) <= 3
    assert len(set(columns)) == len(columns)


def test_lax_oleinik_with_prescribed_minimizer_path(sc_source):
    grid = sc_source.grid
    path = (np.array([0.0, 0.3]), np.array([0.25, 0.25]))
    dp = lax_oleinik(sc_source, quadratic_initial(grid, center=0.25), 0.3,
                     0.015, 12.0, constrained=True, zbar_path=path)
    g = solve_constrained_hj(sc_source, quadratic_initial(grid, center=0.25),
                             0.3, 0.015)
    n = min(dp.times.size, g.times.size)
    gap = max(np.max(np.abs(dp.V[i] - g.V[i])) for i in range(n))
    assert gap <= 5e-2
