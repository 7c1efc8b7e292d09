"""Principal Floquet bundle marching and the effective Hamiltonian table."""

import tracemalloc

import numpy as np
import pytest

from dispersal.bundle import (LATTICE_BLOCK_STEPS, EffectiveHamiltonian,
                              compute_bundle, effective_hamiltonian,
                              finite_diff_z)
from dispersal.ecology import (construct_alpha, principal_eigenpair,
                               rate_pair_exponent, solve_theta)
from dispersal.errors import BundleNotConverged, ValidationError
from dispersal.grids import (ScalarField, SpatialGrid, TimeIndexedField,
                             default_m)
from dispersal.tridiag import BlockDiffusion


@pytest.fixture(scope="module")
def grid():
    return SpatialGrid(64)


@pytest.fixture(scope="module")
def m(grid):
    return default_m(grid)


@pytest.fixture(scope="module")
def resident_potential(grid, m):
    theta = solve_theta(0.5, m)
    return ScalarField(grid, m.values - theta.values)


def test_constant_potential_is_exact(grid):
    # spatially flat potential: the bundle is the flat profile, H = -c0
    c = ScalarField(grid, np.full(grid.n_x, 0.37))
    b = compute_bundle(0.8, c, grid, (0.0, 0.2), dtau=1e-3, spin_up=1.0)
    assert np.max(np.abs(b.H + 0.37)) <= 1e-13
    assert np.max(np.abs(b.phi - 1.0)) <= 1e-13
    assert b.harnack == pytest.approx(1.0, abs=1e-13)


def test_agrees_with_elliptic_eigenpair(grid, resident_potential):
    # steady potential: the normalizer is the principal eigenvalue and the
    # profile the mass-normalized eigenfunction; splitting bias ~ 1e-7/step
    pair = principal_eigenpair(0.5, resident_potential)
    b = compute_bundle(0.5, resident_potential, grid, (0.0, 0.0), dtau=5e-6)
    assert abs(b.H[0] - pair.lam) <= 1e-6
    assert np.max(np.abs(b.phi[0] - pair.phi.values)) <= 1e-5


def test_records_unit_mass_positive_and_bounded(grid, m):
    # genuinely time-dependent potential exercises the callable path
    x = grid.nodes

    def c_fn(tau):
        return 0.5 * np.cos(np.pi * x) * (1.0 + 0.4 * np.sin(tau)) + 0.1

    b = compute_bundle(0.7, c_fn, grid, (0.0, 2.0), dtau=1e-3, spin_up=3.0)
    h = grid.h_x
    assert np.max(np.abs(h * b.phi.sum(axis=1) - 1.0)) <= 1e-10
    assert b.phi.min() > 0.0
    assert np.max(np.abs(b.H)) <= 0.7 + 1e-12  # |H| <= sup |c|


def test_initial_profile_is_forgotten(grid, resident_potential):
    x = grid.nodes
    kw = dict(dtau=1e-4)
    b1 = compute_bundle(0.5, resident_potential, grid, (0.0, 0.5), **kw)
    b2 = compute_bundle(0.5, resident_potential, grid, (0.0, 0.5),
                        initial=1.0 + 0.9 * np.cos(np.pi * x), **kw)
    assert np.max(np.abs(b1.H - b2.H)) <= 1e-8
    assert np.max(np.abs(b1.phi - b2.phi)) <= 1e-8


def test_spinup_insensitivity_check(grid, resident_potential):
    compute_bundle(0.5, resident_potential, grid, (0.0, 0.2), dtau=1e-3,
                   check_insensitivity=True)
    with pytest.raises(BundleNotConverged):
        compute_bundle(0.5, resident_potential, grid, (0.0, 0.2), dtau=1e-3,
                       spin_up=0.4, check_insensitivity=True)


def test_harnack_ratio_stable_under_step_halving(grid, resident_potential):
    ba = compute_bundle(0.5, resident_potential, grid, (0.0, 1.0), dtau=1e-3)
    bb = compute_bundle(0.5, resident_potential, grid, (0.0, 1.0), dtau=5e-4)
    assert ba.harnack > 1.0
    assert abs(ba.harnack - bb.harnack) <= 0.1 * ba.harnack


def test_rejects_bad_inputs(grid, resident_potential):
    with pytest.raises(ValidationError):
        compute_bundle(0.5, resident_potential, grid, (0.0, 1.0), dtau=0.0)
    with pytest.raises(ValidationError):
        compute_bundle(0.5, resident_potential, grid, (1.0, 0.0))
    with pytest.raises(ValidationError):
        compute_bundle(0.5, resident_potential, grid, (0.0, 1.0), dtau=1e-3,
                       record_taus=np.array([2.0]))
    with pytest.raises(ValidationError):
        compute_bundle(0.5, resident_potential, grid, (0.0, 1.0), dtau=1e-3,
                       initial=np.zeros(grid.n_x))


def test_default_record_lattice(grid, resident_potential):
    b = compute_bundle(0.5, resident_potential, grid, (0.0, 0.01),
                       dtau=1e-3, spin_up=0.5)
    assert b.taus.size == 11
    assert b.taus[0] == 0.0
    assert b.taus[-1] == pytest.approx(0.01)


def test_effective_hamiltonian_matches_invasion_exponent(grid, m):
    # frozen resident density theta_zhat: for every trait the table must
    # reproduce the invasion exponent lambda(z, zhat) up to splitting bias
    prof = construct_alpha(0.5, 0.5, m)
    zhat = 0.25
    theta_hat = solve_theta(float(prof(zhat)), m)
    hist = TimeIndexedField(np.array([0.0, 1.0]),
                            np.vstack([theta_hat.values, theta_hat.values]))
    zs = np.array([-0.3, 0.25])
    eff = effective_hamiltonian(hist, prof, 0.1, zs, m,
                                np.array([0.02, 0.05]), dtau=5e-6)
    for i, z in enumerate(zs):
        lam = rate_pair_exponent(float(prof(z)), float(prof(zhat)), m)
        assert np.max(np.abs(eff.H[i] - lam)) <= 1e-6
    assert eff.meta["frozen_early_extension"] is True
    assert np.all(np.array(eff.meta["harnack"]) >= 1.0)
    # corrector rows are -log of a unit-mass positive profile
    masses = grid.h_x * np.exp(-eff.log_phi).sum(axis=2)
    assert np.max(np.abs(masses - 1.0)) <= 1e-10


def test_effective_hamiltonian_batch_matches_one_trait_at_a_time(grid, m):
    # all traits march together as rows of one array; each row must be the
    # march that trait would get alone (spin-up fixed: the automatic one is
    # sized by the slowest trait of the batch)
    prof = construct_alpha(0.5, 0.5, m)
    theta = solve_theta(float(prof(0.1)), m).values
    hist = TimeIndexedField(np.array([0.0, 0.05, 0.1]),
                            np.vstack([0.9 * m.values, theta, 1.1 * theta]))
    zs = np.linspace(-0.4, 0.4, 5)
    t_rec = np.array([0.02, 0.06, 0.1])
    batch = effective_hamiltonian(hist, prof, 0.05, zs, m, t_rec, spin_up=2.0)
    for i, z in enumerate(zs):
        one = effective_hamiltonian(hist, prof, 0.05, zs[i:i + 1], m, t_rec,
                                    spin_up=2.0)
        scale = np.max(np.abs(one.H))
        assert np.max(np.abs(batch.H[i] - one.H[0])) <= 1e-12 * scale
        assert np.max(np.abs(batch.log_phi[i] - one.log_phi[0])) <= \
            1e-12 * np.max(np.abs(one.log_phi))
        assert batch.meta["harnack"][i] == pytest.approx(
            one.meta["harnack"][0], rel=1e-12)


def test_effective_hamiltonian_rejects_bad_inputs(grid, m):
    prof = construct_alpha(0.5, 0.5, m)
    hist = TimeIndexedField(np.array([0.0, 1.0]),
                            np.vstack([m.values, m.values]))
    with pytest.raises(ValidationError):
        effective_hamiltonian(hist, prof, 0.0, np.array([0.0]), m,
                              np.array([0.1]))
    with pytest.raises(ValidationError):
        effective_hamiltonian(hist, prof, 0.05, np.array([0.0]), m,
                              np.array([-0.1]))
    with pytest.raises(ValidationError):
        effective_hamiltonian(hist, prof, 0.05, np.empty(0), m,
                              np.array([0.1]))
    with pytest.raises(ValidationError):
        effective_hamiltonian(hist, prof, 0.05, np.array([0.0]), m,
                              np.array([0.1]), dtau=0.0)
    # a negative spin-up would read H before the march; a zero one with a
    # zero horizon would leave no step at all
    with pytest.raises(ValidationError):
        effective_hamiltonian(hist, prof, 0.05, np.array([0.0]), m,
                              np.array([0.1]), spin_up=-1.0)
    with pytest.raises(ValidationError):
        effective_hamiltonian(hist, prof, 0.05, np.array([0.0]), m,
                              np.array([0.0]), spin_up=0.0)


def _whole_lattice_march(rho_history, profile, epsilon, z_samples, m,
                         t_record, dtau, spin_up):
    """The march as it was before streaming: the whole (k_total, n_x)
    reaction lattice is built up front, then marched row by row."""
    grid = m.grid
    h = grid.h_x
    alphas = np.asarray(profile(z_samples), dtype=float)
    k_spin = int(np.ceil(spin_up / dtau))
    k_total = k_spin + int(np.ceil(float(t_record.max()) / epsilon / dtau))
    rec_steps = k_spin + np.round(t_record / epsilon / dtau).astype(int)
    taus_mid = (np.arange(k_total) - k_spin + 0.5) * dtau
    s_times = epsilon * np.maximum(taus_mid, 1.0)
    hist_t, hist_v = rho_history.times, rho_history.values
    idx = np.clip(np.searchsorted(hist_t, s_times) - 1, 0, hist_t.size - 2)
    w = np.clip((s_times - hist_t[idx]) / (hist_t[idx + 1] - hist_t[idx]),
                0.0, 1.0)
    rho_lattice = (1.0 - w)[:, None] * hist_v[idx] + w[:, None] * hist_v[idx + 1]
    exp_lattice = np.exp(dtau * (m.values[None, :] - rho_lattice))
    c_rec = np.array([m.values - rho_history.at(max(float(t), epsilon))
                      for t in t_record])
    H = np.empty((z_samples.size, t_record.size))
    log_phi = np.empty((z_samples.size, t_record.size, grid.n_x))
    harnacks = np.zeros(z_samples.size)
    march = BlockDiffusion(grid.n_x, h, dtau * alphas)
    v = np.ones((z_samples.size, grid.n_x))
    for k in range(k_total + 1):
        slots = np.flatnonzero(rec_steps == k)
        if slots.size:
            harnacks = np.maximum(harnacks, v.max(axis=1) / v.min(axis=1))
            for slot in slots:
                H[:, slot] = -h * (v @ c_rec[slot])
                log_phi[:, slot] = -np.log(v)
        if k == k_total:
            break
        v = march.solve(v)
        v *= exp_lattice[k]
        v /= h * v.sum(axis=1, keepdims=True)
    return H, log_phi, harnacks.tolist(), k_spin * dtau, k_total


@pytest.mark.parametrize("spin_up,t_end,blocks", [
    (0.2, 0.02, "one partial"),      # k_total = 600
    (0.248, 0.09, "exact multiple"),  # k_total = 2048
    (0.5, 0.1, "not a multiple"),     # k_total = 2500
])
def test_streamed_march_equals_whole_lattice_march(m, spin_up, t_end, blocks):
    # the reaction factors are built one block of steps at a time; every row
    # must carry the bits of the whole-lattice march it replaced
    prof = construct_alpha(0.5, 0.5, m)
    hist_t = np.array([0.0, 0.03, 0.06, 0.1])
    hist = TimeIndexedField(hist_t, np.vstack(
        [(1.0 + 0.5 * np.sin(7.0 * t)) * m.values for t in hist_t]))
    zs = np.array([-0.3, 0.0, 0.2])
    eps, dtau = 0.05, 1e-3
    t_rec = np.array([0.0, 0.01, 0.5 * t_end, t_end])
    eff = effective_hamiltonian(hist, prof, eps, zs, m, t_rec, dtau=dtau,
                                spin_up=spin_up)
    H, log_phi, harnack, spin, k_total = _whole_lattice_march(
        hist, prof, eps, zs, m, t_rec, dtau, spin_up)
    if k_total < LATTICE_BLOCK_STEPS:
        assert blocks == "one partial"
    elif k_total % LATTICE_BLOCK_STEPS == 0:
        assert blocks == "exact multiple"
    else:
        assert blocks == "not a multiple"
    assert np.array_equal(eff.H, H)
    assert np.array_equal(eff.log_phi, log_phi)
    assert eff.meta["harnack"] == harnack
    assert eff.meta["spin_up"] == spin


def test_effective_hamiltonian_memory_does_not_grow_with_the_horizon(grid, m):
    # 51,000 fast-time steps on n_x = 64: a whole (k_total, n_x) reaction
    # lattice alone would take 26 MB (one trait: tracing slows the march)
    prof = construct_alpha(0.5, 0.5, m)
    hist = TimeIndexedField(np.array([0.0, 0.5]),
                            np.vstack([m.values, 0.9 * m.values]))
    zs = np.array([0.0])
    tracemalloc.start()
    try:
        eff = effective_hamiltonian(hist, prof, 0.01, zs, m, np.array([0.5]),
                                    spin_up=1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert eff.meta["spin_up"] == 1.0
    assert peak < 8e6, f"traced peak {peak / 1e6:.1f} MB"


def _synthetic_table(f, zs, ts):
    H = np.array([[f(z, t) for t in ts] for z in zs])
    log_phi = np.zeros((zs.size, ts.size, 8))
    return EffectiveHamiltonian(zs, ts, H, log_phi, 0.05)


def test_finite_diff_z_orders():
    zs = np.linspace(-0.5, 0.5, 81)
    ts = np.array([0.0, 1.0])
    eff = _synthetic_table(lambda z, t: np.sin(z) + 0.3 * z * z, zs, ts)
    d1, d2 = finite_diff_z(eff)
    hz = zs[1] - zs[0]
    assert np.max(np.abs(d1[:, 0] - (np.cos(zs) + 0.6 * zs))) <= 2 * hz ** 2
    assert np.max(np.abs(d2[:, 0] - (-np.sin(zs) + 0.6))) <= 60 * hz ** 2
    with pytest.raises(ValidationError):
        finite_diff_z(_synthetic_table(lambda z, t: z, np.linspace(0, 1, 4), ts))


def test_bilinear_interp_is_exact_and_clamped():
    zs = np.linspace(-0.5, 0.5, 11)
    ts = np.linspace(0.0, 1.0, 6)
    f = lambda z, t: 2.0 + 0.5 * z - 0.3 * t + 0.2 * z * t
    eff = _synthetic_table(f, zs, ts)
    assert eff.interp_H(0.137, 0.42) == pytest.approx(f(0.137, 0.42), abs=1e-12)
    assert eff.interp_H(-0.5, 0.0) == pytest.approx(f(-0.5, 0.0), abs=1e-12)
    assert eff.interp_H(-2.0, 5.0) == pytest.approx(f(-0.5, 1.0), abs=1e-12)
