"""Full phase-space solver: splitting substeps, WKB extraction, sentinels."""

import numpy as np
import pytest
from scipy.special import erf

from dispersal.ecology import construct_alpha, solve_theta
from dispersal.errors import (AprioriViolated, PopulationExtinct, SolverError,
                              ValidationError)
from dispersal.grids import (PhaseDensity, ScalarField, SpatialGrid,
                             TraitGrid, default_m)
from dispersal.kinetic import (ENVELOPE_FACTOR, ENVELOPE_STREAK, SimConfig,
                               SimState, Stepper, dominant_trait, extract_u,
                               init_population, run)
from dispersal.tridiag import BlockDiffusion, FactoredDiffusion


@pytest.fixture(scope="module")
def setting():
    sg = SpatialGrid(64)
    m = default_m(sg)
    profile = construct_alpha(0.5, 0.5, m)
    return sg, TraitGrid(128), profile, m


def base_config(setting, eps=0.05, T=1.0, **kw):
    sg, tg, profile, m = setting
    return SimConfig(eps, T, sg, tg, profile, m, **kw)


def uniform_state(setting, value=1.0):
    sg, tg, _, _ = setting
    n = PhaseDensity(sg, tg, np.full((sg.n_x, tg.n_z), value), 0.0)
    return SimState(n, n.rho(), 0.0, ())


def test_initial_mass_matches_gaussian_quadrature(setting):
    sg, tg, _, _ = setting
    for eps, tol in ((0.05, 2e-5), (0.0125, 1e-9)):
        cfg = base_config(setting, eps=eps)
        st = init_population(cfg)
        mass = st.n.values.sum() * sg.h_x * tg.h_z
        s = np.sqrt(cfg.K0 / eps)
        exact = np.sqrt(np.pi / cfg.K0) * 0.5 * (
            erf(s * (tg.b - cfg.zbar0)) + erf(s * (cfg.zbar0 - tg.a)))
        assert abs(mass / exact - 1.0) <= tol


def test_initial_state_shape(setting):
    cfg = base_config(setting)
    st = init_population(cfg)
    # rho is constant in x by construction
    assert np.ptp(st.rho.values) == 0.0
    # the quadratic start is symmetric about zbar0, so refinement is exact
    assert dominant_trait(st) == pytest.approx(cfg.zbar0, abs=1e-9)


def test_u_extraction_inverts_initialization(setting):
    _, tg, _, _ = setting
    eps = 0.05
    cfg = base_config(setting, eps=eps)
    st = init_population(cfg)
    u = extract_u(st, eps)
    expect = cfg.K0 * (tg.nodes - cfg.zbar0) ** 2 + 0.5 * eps * np.log(eps)
    above = st.n.values[0] > 1e-280
    assert np.max(np.abs(u[0, above] - expect[above])) <= 1e-12


def test_u_extraction_on_frozen_resident_state(setting):
    sg, tg, profile, m = setting
    eps = 0.05
    theta = solve_theta(float(profile(np.array([0.25]))[0]), m).values
    v0 = 4.0 * (tg.nodes - 0.25) ** 2
    vals = np.outer(theta, np.exp(-v0 / eps)) / np.sqrt(eps)
    n = PhaseDensity(sg, tg, vals, 0.0)
    st = SimState(n, n.rho(), 0.0, ())
    u = extract_u(st, eps)
    expect = (v0[None, :] - eps * np.log(theta)[:, None]
              + 0.5 * eps * np.log(eps))
    mask = vals > 1e-280
    assert np.max(np.abs(u[mask] - expect[mask])) <= 1e-12


def test_constant_environment_fixed_point(setting):
    sg, tg, profile, _ = setting
    m1 = ScalarField(sg, np.ones(sg.n_x))
    cfg = SimConfig(0.05, 1.0, sg, tg, profile, m1)
    st = uniform_state(setting)
    stepper = Stepper(cfg)
    stepper.prime(st)
    out = stepper.step(st)
    assert np.max(np.abs(out.n.values - 1.0)) <= 1e-12


def test_diffusion_substeps_conserve_mass(setting):
    cfg = base_config(setting, disable_reaction=True)
    st = init_population(cfg)
    mass0 = st.n.values.sum()
    stepper = Stepper(cfg)
    stepper.prime(st)
    for _ in range(50):
        st = stepper.step(st)
    assert abs(st.n.values.sum() / mass0 - 1.0) <= 1e-12
    assert st.t == pytest.approx(50 * cfg.dt)


def test_mass_identity_first_order_in_dt(setting):
    sg, _, _, m = setting
    diffs = {}
    for c_t in (0.1, 0.05):
        cfg = base_config(setting, c_t=c_t)
        st = init_population(cfg)
        stepper = Stepper(cfg)
        stepper.prime(st)
        for _ in range(3):
            st = stepper.step(st)
        mass0 = st.n.values.sum() * sg.h_x * cfg.trait.h_z
        rho0 = st.rho.values
        nxt = stepper.step(st)
        mass1 = nxt.n.values.sum() * sg.h_x * cfg.trait.h_z
        lhs = cfg.epsilon * (mass1 - mass0) / cfg.dt
        rhs = (rho0 * (m.values - rho0)).sum() * sg.h_x
        diffs[c_t] = abs(lhs - rhs)
        assert diffs[c_t] <= 0.2 * c_t * abs(rhs)
    assert 1.8 <= diffs[0.1] / diffs[0.05] <= 2.9


def test_single_column_relaxes_at_fast_rate(setting):
    sg, tg, profile, m = setting
    j0 = 64
    theta = solve_theta(float(profile(tg.nodes[j0])), m).values
    rates = []
    for eps in (0.05, 0.025):
        cfg = base_config(setting, eps=eps, disable_z_diffusion=True)
        vals = np.zeros((sg.n_x, tg.n_z))
        vals[:, j0] = 0.5 / tg.h_z
        n = PhaseDensity(sg, tg, vals, 0.0)
        st = SimState(n, n.rho(), 0.0, ())
        stepper = Stepper(cfg)
        stepper.prime(st)
        dist = []
        for _ in range(25):
            st = stepper.step(st)
            dist.append(np.abs(st.rho.values - theta).max())
        assert dist[20] < dist[5]
        # decay exponent per unit fast time t/eps
        rates.append(-np.log(dist[20] / dist[5]) / (15 * cfg.c_t))
    assert 0.4 <= rates[0] <= 1.0
    # with z-diffusion off the per-step map depends on eps only through t/eps
    assert rates[0] == pytest.approx(rates[1], abs=1e-12)


def test_splitting_error_is_first_order(setting):
    ref = run(base_config(setting, T=0.5, c_t=0.0125))
    errs = {}
    for c_t in (0.1, 0.05):
        res = run(base_config(setting, T=0.5, c_t=c_t))
        errs[c_t] = np.abs(res.rho_history.values[-1]
                           - ref.rho_history.values[-1]).max()
    # Richardson against the quarter-step reference: (8-1)/(4-1) for order one
    assert 2.0 <= errs[0.1] / errs[0.05] <= 2.7


def test_dominant_trait_tracks_ess_at_small_eps(setting):
    _, tg, profile, _ = setting
    res = run(base_config(setting, eps=0.0125))
    ess = profile.argmin()
    moves = np.diff(res.zbar)
    # monotone toward the rate minimum within a one-cell jitter
    assert np.all(moves * np.sign(res.zbar[0] - ess) <= tg.h_z)
    assert res.zbar[-1] <= res.zbar[0] - 1.5 * tg.h_z
    assert 0.2 <= res.zbar[-1] <= 0.245
    assert len(res.violations) == 0


def test_moderate_eps_parks_at_the_wall_tail(setting):
    # at eps=0.05 the Neumann mirror tail outgrows the selected peak once
    # the rate function has flattened (V at the wall drops under eps*ln 2
    # near t=0.5); the marginal maximizer then sits against the right wall
    _, tg, _, _ = setting
    res = run(base_config(setting, eps=0.05))
    assert res.zbar[0] == pytest.approx(0.25, abs=1e-6)
    assert res.zbar[-1] >= 0.49
    assert res.zbar_at(0.3) <= 0.28


def test_wall_pinned_argmax_is_reported_not_refined(setting):
    sg, tg, _, _ = setting
    vals = np.ones((sg.n_x, tg.n_z))
    vals[:, -1] = 5.0
    n = PhaseDensity(sg, tg, vals, 0.0)
    st = SimState(n, n.rho(), 0.0, ())
    assert dominant_trait(st) == tg.nodes[-1]


def test_dominant_trait_extinct_below_floor(setting):
    st = uniform_state(setting, value=0.0)
    with pytest.raises(PopulationExtinct):
        dominant_trait(st)


def test_u_stays_x_flat(setting):
    eps = 0.05
    res = run(base_config(setting, eps=eps), probe_times=(0.5, 1.0))
    for u in res.u_snaps.values():
        assert (u.max(axis=0) - u.min(axis=0)).max() <= 0.5 * eps


def test_envelope_and_history_bookkeeping(setting):
    cfg = base_config(setting, T=0.2)
    res = run(cfg, probe_times=(0.1,))
    lo, hi = res.envelope
    assert 0.0 < lo <= hi
    assert res.times[0] == 0.0
    assert res.times[-1] == pytest.approx(0.2)
    assert res.rho_history.times[0] == 0.0
    assert res.rho_history.times[-1] == pytest.approx(0.2)
    assert set(res.u_snaps) == {0.1}
    assert res.meta["steps"] == int(round(0.2 / cfg.dt))


def test_sentinel_aborts_reaction_overshoot_cycle(setting):
    sg, tg, profile, _ = setting
    hot = ScalarField(sg, np.full(sg.n_x, 30.0))
    cfg = SimConfig(0.05, 1.0, sg, tg, profile, hot, c_t=0.2)
    with pytest.raises(AprioriViolated):
        run(cfg)


def test_stepper_envelope_needs_priming(setting):
    stepper = Stepper(base_config(setting))
    with pytest.raises(SolverError):
        stepper.envelope


def test_config_validation(setting):
    sg, tg, profile, m = setting
    with pytest.raises(ValidationError):
        SimConfig(0.2, 1.0, sg, tg, profile, m)          # eps > 0.1
    with pytest.raises(ValidationError):
        SimConfig(0.05, -1.0, sg, tg, profile, m)
    with pytest.raises(ValidationError):
        SimConfig(0.05, 1.0, sg, tg, profile, m, c_t=0.5)
    with pytest.raises(ValidationError):
        SimConfig(0.05, 1.0, sg, tg, profile, m, zbar0=0.5)
    with pytest.raises(ValidationError):
        SimConfig(0.05, 1.0, sg, tg, profile, m, K0=-1.0)
    short = ScalarField(SpatialGrid(32), np.ones(32))
    with pytest.raises(ValidationError):
        SimConfig(0.05, 1.0, sg, tg, profile, short)


def test_stale_rho_cache_rejected(setting):
    sg, tg, _, _ = setting
    n = PhaseDensity(sg, tg, np.ones((sg.n_x, tg.n_z)), 0.0)
    bad = ScalarField(sg, np.full(sg.n_x, 2.0))
    with pytest.raises(ValidationError):
        SimState(n, bad, 0.0, ())


def test_probe_times_must_land_in_horizon(setting):
    cfg = base_config(setting, T=0.2)
    with pytest.raises(ValidationError):
        run(cfg, probe_times=(0.5,))


class _ReferenceStepper:
    """The fully validated step the stepper must reproduce bit for bit:
    every new state goes through the checking constructors, and rho is
    summed again by PhaseDensity.rho()."""

    def __init__(self, cfg):
        self.cfg = cfg
        alphas = np.asarray(cfg.profile(cfg.trait.nodes), dtype=float)
        self.xdiff = BlockDiffusion(cfg.spatial.n_x, cfg.spatial.h_x,
                                    cfg.dt * alphas / cfg.epsilon)
        self.zdiff = None
        if not cfg.disable_z_diffusion:
            self.zdiff = FactoredDiffusion(cfg.trait.n_z, cfg.trait.h_z,
                                           cfg.dt * cfg.epsilon)
        self.lo = self.hi = None
        self.streak = 0

    def prime(self, state):
        self.lo = float(state.rho.values.min())
        self.hi = float(state.rho.values.max())

    def watch(self, rho, t, violations):
        lo, hi = float(rho.min()), float(rho.max())
        if lo < self.lo / ENVELOPE_FACTOR or hi > self.hi * ENVELOPE_FACTOR:
            self.streak += 1
            assert self.streak <= ENVELOPE_STREAK
            violations.append({"t": t, "rho_min": lo, "rho_max": hi,
                               "envelope_lo": self.lo, "envelope_hi": self.hi})
            return
        self.streak = 0
        self.lo, self.hi = min(self.lo, lo), max(self.hi, hi)

    def step(self, state):
        cfg = self.cfg
        dt, eps = cfg.dt, cfg.epsilon
        star = self.xdiff.solve(state.n.values.T).T
        if self.zdiff is not None:
            star = self.zdiff.solve(star.T).T
        if not cfg.disable_reaction:
            rho_star = cfg.trait.h_z * star.sum(axis=1)
            growth = np.exp((dt / eps) * (cfg.m.values - rho_star))
            star = star * growth[:, None]
        assert np.all(np.isfinite(star))
        t_new = state.t + dt
        n_new = PhaseDensity(cfg.spatial, cfg.trait, star, t_new)
        rho_new = n_new.rho()
        violations = list(state.violations)
        self.watch(rho_new.values, t_new, violations)
        return SimState(n_new, rho_new, t_new, tuple(violations))


@pytest.mark.parametrize("variant", ["default", "hot", "no_z", "no_reaction"])
def test_step_equals_validated_reference(setting, variant):
    sg = setting[0]
    kw = {"hot": {"m": ScalarField(sg, np.full(sg.n_x, 20.0)), "c_t": 0.2},
          "no_z": {"disable_z_diffusion": True},
          "no_reaction": {"disable_reaction": True}}.get(variant, {})
    m = kw.pop("m", setting[3])
    cfg = SimConfig(0.05, 1.0, sg, setting[1], setting[2], m, **kw)
    state = expect = init_population(cfg)
    stepper, reference = Stepper(cfg), _ReferenceStepper(cfg)
    stepper.prime(state)
    reference.prime(expect)
    for _ in range(200):
        state, expect = stepper.step(state), reference.step(expect)
    assert np.array_equal(state.n.values, expect.n.values)
    assert np.array_equal(state.rho.values, expect.rho.values)
    assert state.t == expect.t == state.n.t
    assert state.violations == expect.violations
    assert (len(state.violations) > 0) == (variant == "hot")
    assert not state.n.values.flags.writeable
    assert not state.rho.values.flags.writeable


class _Corrupting:
    """Stands in for the z-diffusion solve and plants one bad cell."""

    def __init__(self, solver, value):
        self.solver, self.value = solver, value

    def solve(self, rhs):
        out = self.solver.solve(rhs)      # (n_z, n_x)
        out[3:5, 5] = self.value
        return out


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("value,error,reaction", [
    (np.nan, SolverError, True),
    (np.inf, SolverError, True),
    (-1e-6, ValidationError, True),
    # finite cells whose row sum overflows; the reaction would damp them
    (1e308, SolverError, False),
])
def test_step_rejects_a_corrupted_density(setting, value, error, reaction):
    cfg = base_config(setting, disable_reaction=not reaction)
    state = init_population(cfg)
    stepper = Stepper(cfg)
    stepper.prime(state)
    state = stepper.step(state)
    stepper._zdiff = _Corrupting(stepper._zdiff, value)
    with pytest.raises(error):
        stepper.step(state)


@pytest.mark.filterwarnings("error")
def test_run_reports_an_overflowing_reaction_without_warnings(setting):
    # exp(c_t * m) overflows to inf in the first step: the step's finiteness
    # check raises, and no numpy warning is printed ahead of the diagnostic
    sg, tg, profile, _ = setting
    cfg = SimConfig(0.05, 0.1, sg, tg, profile,
                    ScalarField(sg, np.full(sg.n_x, 1e4)))
    with pytest.raises(SolverError):
        run(cfg)


def test_run_rejects_a_march_past_the_step_cap(setting):
    # T / dt = 1e301 steps: rejected before the first one, not run for ever
    with pytest.raises(ValidationError, match="step cap"):
        run(base_config(setting, T=0.5, c_t=1e-300))
