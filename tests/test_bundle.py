"""Principal Floquet bundle marching and the effective Hamiltonian table."""

import tracemalloc
import warnings

import numpy as np
import pytest

from dispersal import bundle
from dispersal.bundle import LATTICE_BLOCK_STEPS, effective_hamiltonian
from dispersal.ecology import construct_alpha, principal_eigenpair, \
    solve_theta
from dispersal.errors import SolverError, ValidationError
from dispersal.grids import (ScalarField, SpatialGrid, TimeIndexedField,
                             default_m)
from dispersal.harness.cli import main
from dispersal.tridiag import BlockDiffusion, solve_in_place
from helpers import constant_profile, read_csv


@pytest.fixture(scope="module")
def grid():
    return SpatialGrid(64)


@pytest.fixture(scope="module")
def m(grid):
    return default_m(grid)


@pytest.fixture(scope="module")
def theta(m):
    return solve_theta(0.5, m).values


def frozen_bundle(alpha, m, rho, t_end, dtau, **kw):
    """The bundle of the steady potential m - rho at dispersal rate alpha,
    recorded at every step of [0, t_end]: floquet-test's march."""
    hist = TimeIndexedField(np.array([0.0, 1.0]), np.vstack([rho, rho]))
    profile = constant_profile(alpha, -0.5, 0.5)
    taus = dtau * np.arange(int(round(t_end / dtau)) + 1)
    return effective_hamiltonian([(hist, 1.0, taus)], profile,
                                 np.array([0.0]), m, dtau=dtau, **kw)[0]


def test_constant_potential_is_exact(grid):
    # spatially flat potential: the bundle is the flat profile, H = -c0
    flat = ScalarField(grid, np.ones(grid.n_x))
    b = frozen_bundle(0.8, flat, np.full(grid.n_x, 0.63), 0.2, 1e-3,
                      spin_up=1.0)
    assert np.max(np.abs(b.H + 0.37)) <= 1e-13
    assert np.max(np.abs(np.exp(-b.log_phi) - 1.0)) <= 1e-13
    assert b.meta["harnack"][0] == pytest.approx(1.0, abs=1e-13)


def test_one_sample_history_reads_as_constant(m, theta):
    # epsilon = 1 puts the march past the two-sample track's last sample, so
    # both tracks give the resident theta at every step, bit for bit
    one = TimeIndexedField(np.array([0.0]), theta[None, :])
    profile = constant_profile(0.5, -0.5, 0.5)
    taus = 1e-3 * np.arange(11)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        b, = effective_hamiltonian([(one, 1.0, taus)], profile,
                                   np.array([0.0]), m, dtau=1e-3, spin_up=0.5)
    two = frozen_bundle(0.5, m, theta, 0.01, 1e-3, spin_up=0.5)
    assert np.array_equal(b.H, two.H)
    assert np.array_equal(b.log_phi, two.log_phi)


def test_agrees_with_elliptic_eigenpair(grid, m, theta):
    # steady potential: the normalizer is the principal eigenvalue and the
    # profile the mass-normalized eigenfunction; splitting bias ~ 1e-7/step
    lam, phi, _ = principal_eigenpair(0.5, ScalarField(grid, m.values - theta))
    b = frozen_bundle(0.5, m, theta, 0.0, 5e-6)
    assert abs(b.H[0, 0] - lam) <= 1e-6
    assert np.max(np.abs(np.exp(-b.log_phi[0, 0]) - phi)) <= 1e-5


def test_records_unit_mass_positive_and_bounded(grid, m):
    # genuinely time-dependent potential c = m - rho, frozen below t = 1
    x = grid.nodes
    ts = np.linspace(0.0, 3.0, 61)
    c = [0.5 * np.cos(np.pi * x) * (1.0 + 0.4 * np.sin(t)) + 0.1 for t in ts]
    hist = TimeIndexedField(ts, np.array([m.values - ci for ci in c]))
    profile = constant_profile(0.7, -0.5, 0.5)
    eff, = effective_hamiltonian([(hist, 1.0, np.linspace(1.0, 3.0, 2001))],
                                 profile, np.array([0.0]), m, spin_up=3.0)
    phi = np.exp(-eff.log_phi)
    assert np.max(np.abs(grid.h_x * phi.sum(axis=2) - 1.0)) <= 1e-10
    assert phi.min() > 0.0
    assert np.max(np.abs(eff.H)) <= 0.7 + 1e-12  # |H| <= sup |c|


def test_initial_profile_is_forgotten(m, theta):
    # a longer spin-up is the automatic one started from another profile:
    # the one its first extra stretch leaves
    auto = frozen_bundle(0.5, m, theta, 0.5, 1e-4)
    other = frozen_bundle(0.5, m, theta, 0.5, 1e-4,
                          spin_up=1.5 * auto.meta["spin_up"])
    assert np.max(np.abs(auto.H - other.H)) <= 1e-8
    assert np.max(np.abs(np.exp(-auto.log_phi) - np.exp(-other.log_phi))) \
        <= 1e-8


def test_spinup_insensitivity_check(m, theta):
    # doubling the automatic spin-up leaves H in place; doubling a short
    # one does not
    auto = frozen_bundle(0.5, m, theta, 0.2, 1e-3)
    doubled = frozen_bundle(0.5, m, theta, 0.2, 1e-3,
                            spin_up=2.0 * auto.meta["spin_up"])
    assert np.max(np.abs(doubled.H - auto.H)) <= 1e-8
    short = frozen_bundle(0.5, m, theta, 0.2, 1e-3, spin_up=0.4)
    short_doubled = frozen_bundle(0.5, m, theta, 0.2, 1e-3, spin_up=0.8)
    assert np.max(np.abs(short_doubled.H - short.H)) > 1e-8


def test_harnack_ratio_stable_under_step_halving(m, theta):
    ha = frozen_bundle(0.5, m, theta, 1.0, 1e-3).meta["harnack"][0]
    hb = frozen_bundle(0.5, m, theta, 1.0, 5e-4).meta["harnack"][0]
    assert ha > 1.0
    assert abs(ha - hb) <= 0.1 * ha


def test_rejects_bad_inputs(m, theta):
    hist = TimeIndexedField(np.array([0.0, 1.0]), np.vstack([theta, theta]))
    prof = constant_profile(0.5, -0.5, 0.5)

    def march(t_rec, **kw):
        return effective_hamiltonian([(hist, 1.0, np.array([t_rec]))], prof,
                                     np.array([0.0]), m, **kw)

    with pytest.raises(ValidationError):
        march(0.0, dtau=0.0)
    # past the step cap, and with a subnormal dtau whose step count would
    # overflow an int, the march is refused before it starts
    with pytest.raises(ValidationError, match="step cap"):
        march(0.0, dtau=1e-8, spin_up=1.0)
    with pytest.raises(ValidationError, match="step cap"):
        march(0.0, dtau=5e-324)
    with pytest.raises(ValidationError, match="step cap"):
        march(np.nan, spin_up=1.0)


def test_rejects_records_past_the_record_rule(monkeypatch, m, theta):
    # 156,251 profiles of 64 values, one past 10^7 stored values: refused
    # before the march factors its diffusion blocks
    def factor(*args):
        raise AssertionError("the march started")

    monkeypatch.setattr(bundle, "diffusion_factor", factor)
    hist = TimeIndexedField(np.array([0.0, 1.0]), np.vstack([theta, theta]))
    with pytest.raises(ValidationError, match="recorded march") as exc:
        effective_hamiltonian([(hist, 1.0, 1e-6 * np.arange(156_251))],
                              constant_profile(0.5, -0.5, 0.5),
                              np.array([0.0]), m, dtau=1e-6)
    assert exc.value.diagnostics["width"] == 64


def test_default_record_lattice(tmp_path):
    # floquet-test records the bundle at every step of [0, t_end]
    code = main(["floquet-test", "--override", "t_end=0.01",
                 "--override", "dtau=1e-3", "--override", "tol=1",
                 "--out", str(tmp_path)])
    assert code == 0
    taus = read_csv(tmp_path / "floquet.csv")["tau"]
    assert taus.size == 11
    assert taus[0] == 0.0
    assert taus[-1] == pytest.approx(0.01)


def test_lost_positivity_is_a_solver_error(monkeypatch, m, theta):
    # the solves keep the profile positive; a corrupted one must not reach
    # the log of a record
    def corrupted(factor, flat):
        solve_in_place(factor, flat)
        rows = flat.reshape(-1, m.grid.n_x)
        rows[:, 0] = -rows[:, 0]

    monkeypatch.setattr(bundle, "solve_in_place", corrupted)
    with pytest.raises(SolverError, match="positivity"):
        frozen_bundle(0.5, m, theta, 0.01, 1e-3, spin_up=0.01)


def test_effective_hamiltonian_matches_invasion_exponent(grid, m):
    # frozen resident density theta_zhat: for every trait the table must
    # reproduce the invasion exponent lambda(z, zhat) up to splitting bias
    prof = construct_alpha(0.5, 0.5, m)
    zhat = 0.25
    theta_hat = solve_theta(float(prof(zhat)), m)
    hist = TimeIndexedField(np.array([0.0, 1.0]),
                            np.vstack([theta_hat.values, theta_hat.values]))
    zs = np.array([-0.3, 0.25])
    eff, = effective_hamiltonian([(hist, 0.1, np.array([0.02, 0.05]))], prof,
                                 zs, m, dtau=5e-6)
    c = ScalarField(grid, m.values - theta_hat.values)
    for i, z in enumerate(zs):
        lam, _, _ = principal_eigenpair(float(prof(z)), c)
        assert np.max(np.abs(eff.H[i] - lam)) <= 1e-6
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
    batch, = effective_hamiltonian([(hist, 0.05, t_rec)], prof, zs, m,
                                   spin_up=2.0)
    for i, z in enumerate(zs):
        one, = effective_hamiltonian([(hist, 0.05, t_rec)], prof, zs[i:i + 1],
                                     m, spin_up=2.0)
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

    def march(eps, zs, t_rec, **kw):
        return effective_hamiltonian([(hist, eps, np.array(t_rec))], prof,
                                     zs, m, **kw)

    with pytest.raises(ValidationError):
        march(0.0, np.array([0.0]), [0.1])
    with pytest.raises(ValidationError):
        march(0.05, np.array([0.0]), [-0.1])
    with pytest.raises(ValidationError):
        march(0.05, np.empty(0), [0.1])
    with pytest.raises(ValidationError):
        march(0.05, np.array([0.0]), [0.1], dtau=0.0)
    # a negative spin-up would read H before the march; a zero one with a
    # zero horizon would leave no step at all
    with pytest.raises(ValidationError):
        march(0.05, np.array([0.0]), [0.1], spin_up=-1.0)
    with pytest.raises(ValidationError):
        march(0.05, np.array([0.0]), [0.0], spin_up=0.0)


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
    # must carry the bits of the whole-lattice march it replaced, in a batch
    # of traits and alone, as floquet-test marches its one trait
    prof = construct_alpha(0.5, 0.5, m)
    hist_t = np.array([0.0, 0.03, 0.06, 0.1])
    hist = TimeIndexedField(hist_t, np.vstack(
        [(1.0 + 0.5 * np.sin(7.0 * t)) * m.values for t in hist_t]))
    eps, dtau = 0.05, 1e-3
    t_rec = np.array([0.0, 0.01, 0.5 * t_end, t_end])
    for zs in (np.array([-0.3, 0.0, 0.2]), np.array([0.2])):
        eff, = effective_hamiltonian([(hist, eps, t_rec)], prof, zs, m,
                                     dtau=dtau, spin_up=spin_up)
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
        eff, = effective_hamiltonian([(hist, 0.01, np.array([0.5]))], prof,
                                     zs, m, spin_up=1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert eff.meta["spin_up"] == 1.0
    assert peak < 8e6, f"traced peak {peak / 1e6:.1f} MB"


def test_scales_march_in_lockstep_as_they_would_alone(m):
    # three scales with their automatic spin-ups march as rows of one array,
    # in blocks of LATTICE_BLOCK_STEPS // 3 steps; every table must carry the
    # bits of the scale's own one-scale march, also for the scale that ends
    # on a block boundary and for those that end inside a block
    prof = construct_alpha(0.5, 0.5, m)
    hist_t = np.array([0.0, 0.03, 0.06, 0.1])
    hist = TimeIndexedField(hist_t, np.vstack(
        [(1.0 + 0.5 * np.sin(7.0 * t)) * m.values for t in hist_t]))
    zs = np.array([-0.3, 0.0, 0.2])
    dtau = bundle.DEFAULT_DTAU
    t_rec = np.array([0.0, 0.01, 0.05, 0.1])
    scales = [(hist, eps, t_rec) for eps in (0.05, 0.029, 0.0215)]
    effs = effective_hamiltonian(scales, prof, zs, m)
    block = LATTICE_BLOCK_STEPS // len(scales)
    ends = []
    for scale, eff in zip(scales, effs):
        one, = effective_hamiltonian([scale], prof, zs, m)
        assert np.array_equal(eff.H, one.H)
        assert np.array_equal(eff.log_phi, one.log_phi)
        assert eff.meta == one.meta
        assert eff.epsilon == scale[1]
        ends.append(round(eff.meta["spin_up"] / dtau)
                    + int(np.ceil(0.1 / scale[1] / dtau)))
    assert len(set(ends)) == 3
    assert [end % block == 0 for end in ends] == [False, True, False]


def test_lockstep_memory_does_not_grow_with_the_scales(m):
    # the three-scale march holds one lattice block split between the scales,
    # so it peaks no higher than the longest scale's march alone plus the
    # state of the two others: their rows, tables and record potentials
    prof = construct_alpha(0.5, 0.5, m)
    hist = TimeIndexedField(np.array([0.0, 0.05]),
                            np.vstack([m.values, 0.9 * m.values]))
    zs = np.array([-0.2, 0.0, 0.2])
    t_rec = np.array([0.0, 0.01, 0.05])
    scales = [(hist, eps, t_rec) for eps in (0.04, 0.02, 0.01)]

    def traced_peak(scales):
        tracemalloc.start()
        try:
            effs = effective_hamiltonian(scales, prof, zs, m, spin_up=1.0)
            return tracemalloc.get_traced_memory()[1], effs
        finally:
            tracemalloc.stop()

    one_peak, _ = traced_peak(scales[2:])
    peak, effs = traced_peak(scales)
    n_x = m.grid.n_x
    state = sum(eff.H.nbytes + eff.log_phi.nbytes
                + 8 * n_x * (zs.size + t_rec.size) for eff in effs[:2])
    # every scale marches more than one whole block of 1,024 steps
    assert all(round(eff.meta["spin_up"] / eff.meta["dtau"])
               + np.ceil(0.05 / eff.epsilon / eff.meta["dtau"])
               > LATTICE_BLOCK_STEPS for eff in effs)
    assert peak <= one_peak + state, (peak, one_peak, state)


def test_effective_hamiltonian_needs_a_scale(m):
    prof = constant_profile(0.5, -0.5, 0.5)
    with pytest.raises(ValidationError, match="at least one scale"):
        effective_hamiltonian([], prof, np.array([0.0]), m)
