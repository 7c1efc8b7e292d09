"""Full phase-space solver: splitting substeps, WKB extraction, sentinels."""

import numpy as np
import pytest
from scipy.special import erf

from dispersal.ecology import ThetaCache, construct_alpha, solve_theta
from dispersal.errors import (AprioriViolated, PopulationExtinct, SolverError,
                              ValidationError)
from dispersal.grids import ScalarField, SpatialGrid, TraitGrid, default_m
from dispersal.kinetic import (ENVELOPE_FACTOR, ENVELOPE_STREAK, SimConfig,
                               Stepper, dominant_trait, extract_u,
                               init_population, probe_steps, run)
from dispersal.tridiag import BlockDiffusion, FactoredDiffusion


@pytest.fixture(scope="module")
def setting():
    sg = SpatialGrid(64)
    m = default_m(sg)
    profile = construct_alpha(0.5, 0.5, m)
    return sg, TraitGrid(128), profile, m


@pytest.fixture(scope="module")
def cache(setting):
    _, _, profile, m = setting
    return ThetaCache(profile, m)


def base_config(setting, eps=0.05, T=1.0, **kw):
    sg, tg, _, _ = setting
    return SimConfig(eps, T, tg, sg, **kw)


def uniform_stepper(setting, cache, cfg=None, value=1.0):
    sg, tg, _, _ = setting
    cfg = cfg or base_config(setting)
    return Stepper(cfg, cache, np.full((sg.n_x, tg.n_z), value))


def test_initial_mass_matches_gaussian_quadrature(setting):
    sg, tg, _, _ = setting
    for eps, tol in ((0.05, 2e-5), (0.0125, 1e-9)):
        cfg = base_config(setting, eps=eps)
        mass = init_population(cfg).sum() * sg.h_x * tg.h_z
        s = np.sqrt(cfg.K0 / eps)
        exact = np.sqrt(np.pi / cfg.K0) * 0.5 * (
            erf(s * (tg.b - cfg.zbar0)) + erf(s * (cfg.zbar0 - tg.a)))
        assert abs(mass / exact - 1.0) <= tol


def test_initial_state_shape(setting, cache):
    cfg = base_config(setting)
    st = Stepper(cfg, cache, init_population(cfg))
    assert st.t == 0.0 and st.violations == []
    # rho is constant in x by construction
    assert np.ptp(st.rho) == 0.0
    # the quadratic start is symmetric about zbar0, so refinement is exact
    assert dominant_trait(st) == pytest.approx(cfg.zbar0, abs=1e-9)


def test_u_extraction_inverts_initialization(setting):
    _, tg, _, _ = setting
    eps = 0.05
    cfg = base_config(setting, eps=eps)
    n = init_population(cfg)
    u = extract_u(n, eps)
    expect = cfg.K0 * (tg.nodes - cfg.zbar0) ** 2 + 0.5 * eps * np.log(eps)
    above = n[0] > 1e-280
    assert np.max(np.abs(u[0, above] - expect[above])) <= 1e-12


def test_u_extraction_on_frozen_resident_state(setting):
    sg, tg, profile, m = setting
    eps = 0.05
    theta = solve_theta(float(profile(np.array([0.25]))[0]), m).values
    v0 = 4.0 * (tg.nodes - 0.25) ** 2
    vals = np.outer(theta, np.exp(-v0 / eps)) / np.sqrt(eps)
    u = extract_u(vals, eps)
    expect = (v0[None, :] - eps * np.log(theta)[:, None]
              + 0.5 * eps * np.log(eps))
    mask = vals > 1e-280
    assert np.max(np.abs(u[mask] - expect[mask])) <= 1e-12


@pytest.mark.parametrize("bad", ["shape", np.nan, np.inf, -1e-6])
def test_stepper_rejects_a_bad_start_density(setting, cache, bad):
    sg, tg, _, _ = setting
    if bad == "shape":
        vals = np.ones((sg.n_x, tg.n_z + 1))
    else:
        vals = np.ones((sg.n_x, tg.n_z))
        vals[3, 5] = bad
    with pytest.raises(ValidationError):
        Stepper(base_config(setting), cache, vals)


def test_stepper_rejects_an_ecology_on_another_grid(setting, cache):
    sg, tg, _, _ = setting
    cfg = SimConfig(0.05, 1.0, tg, SpatialGrid(32))
    with pytest.raises(ValidationError, match="habitat grid") as exc:
        Stepper(cfg, cache, np.ones((32, tg.n_z)))
    assert exc.value.diagnostics == {"n_x": sg.n_x, "expected": 32}


def test_stepper_rho_and_marginal_quadrature(setting, cache):
    sg, tg, _, _ = setting
    weight = 1.0 - (tg.nodes - 0.1) ** 2
    vals = np.outer(np.arange(1.0, sg.n_x + 1.0), weight)
    st = Stepper(base_config(setting), cache, vals)
    # rho is the midpoint rule in z, per spatial cell
    assert st.rho == pytest.approx(np.arange(1.0, sg.n_x + 1.0)
                                   * tg.h_z * weight.sum(), rel=1e-14)
    # the marginal in x is a multiple of the parabola, so its refined
    # maximizer is the vertex
    assert dominant_trait(st) == pytest.approx(0.1, abs=1e-12)
    # the start density is copied, not aliased
    vals[:] = 0.0
    assert st.n.min() > 0.0


def test_constant_environment_fixed_point(setting):
    sg, tg, profile, _ = setting
    m1 = ScalarField(sg, np.ones(sg.n_x))
    cfg = SimConfig(0.05, 1.0, tg, sg)
    st = uniform_stepper(setting, ThetaCache(profile, m1), cfg)
    st.step()
    assert np.max(np.abs(st.n - 1.0)) <= 1e-12


def test_diffusion_substeps_conserve_mass(setting, cache):
    # the step's two diffusion solves alone, without its reaction
    cfg = base_config(setting)
    stepper = Stepper(cfg, cache, init_population(cfg))
    values = stepper.n
    for _ in range(50):
        values = stepper._xdiff.solve(values.T).T
        values = stepper._zdiff.solve(values.T).T
    assert abs(values.sum() / stepper.n.sum() - 1.0) <= 1e-12


def test_mass_identity_first_order_in_dt(setting, cache):
    sg, _, _, m = setting
    diffs = {}
    for c_t in (0.1, 0.05):
        cfg = base_config(setting, c_t=c_t)
        stepper = Stepper(cfg, cache, init_population(cfg))
        for _ in range(3):
            stepper.step()
        mass0 = stepper.n.sum() * sg.h_x * cfg.trait.h_z
        rho0 = stepper.rho
        stepper.step()
        mass1 = stepper.n.sum() * sg.h_x * cfg.trait.h_z
        lhs = cfg.epsilon * (mass1 - mass0) / cfg.dt
        rhs = (rho0 * (m.values - rho0)).sum() * sg.h_x
        diffs[c_t] = abs(lhs - rhs)
        assert diffs[c_t] <= 0.2 * c_t * abs(rhs)
    assert 1.8 <= diffs[0.1] / diffs[0.05] <= 2.9


def test_single_column_relaxes_at_fast_rate(setting, cache):
    sg, tg, profile, m = setting
    j0 = 64
    theta = solve_theta(float(profile(tg.nodes[j0])), m).values
    rates = []
    for eps in (0.05, 0.025):
        cfg = base_config(setting, eps=eps)
        vals = np.zeros((sg.n_x, tg.n_z))
        vals[:, j0] = 0.5 / tg.h_z
        stepper = Stepper(cfg, cache, vals)
        dist = []
        for _ in range(25):
            stepper.step()
            dist.append(np.abs(stepper.rho - theta).max())
        assert dist[20] < dist[5]
        # decay exponent per unit fast time t/eps
        rates.append(-np.log(dist[20] / dist[5]) / (15 * cfg.c_t))
    assert all(0.4 <= rate <= 1.0 for rate in rates)


def test_splitting_error_is_first_order(setting, cache):
    ref = run(base_config(setting, T=0.5, c_t=0.0125), cache)
    errs = {}
    for c_t in (0.1, 0.05):
        res = run(base_config(setting, T=0.5, c_t=c_t), cache)
        errs[c_t] = np.abs(res.rho_history.values[-1]
                           - ref.rho_history.values[-1]).max()
    # Richardson against the quarter-step reference: (8-1)/(4-1) for order one
    assert 2.0 <= errs[0.1] / errs[0.05] <= 2.7


def test_dominant_trait_tracks_ess_at_small_eps(setting, cache):
    _, tg, profile, _ = setting
    res = run(base_config(setting, eps=0.0125), cache)
    ess = profile.argmin()
    moves = np.diff(res.zbar)
    # monotone toward the rate minimum within a one-cell jitter
    assert np.all(moves * np.sign(res.zbar[0] - ess) <= tg.h_z)
    assert res.zbar[-1] <= res.zbar[0] - 1.5 * tg.h_z
    assert 0.2 <= res.zbar[-1] <= 0.245
    assert len(res.violations) == 0


def test_moderate_eps_parks_at_the_wall_tail(setting, cache):
    # at eps=0.05 the Neumann mirror tail outgrows the selected peak once
    # the rate function has flattened (V at the wall drops under eps*ln 2
    # near t=0.5); the marginal maximizer then sits against the right wall
    _, tg, _, _ = setting
    res = run(base_config(setting, eps=0.05), cache)
    assert res.zbar[0] == pytest.approx(0.25, abs=1e-6)
    assert res.zbar[-1] >= 0.49
    assert res.zbar_at(0.3) <= 0.28


def test_wall_pinned_argmax_is_reported_not_refined(setting, cache):
    sg, tg, _, _ = setting
    vals = np.ones((sg.n_x, tg.n_z))
    vals[:, -1] = 5.0
    st = Stepper(base_config(setting), cache, vals)
    assert dominant_trait(st) == tg.nodes[-1]


def test_dominant_trait_refines_an_interior_peak(setting, cache):
    # marginal -3 (z - 0.07)^2 + 1: the 3-point fit of the peak is exact
    sg, _, _, _ = setting
    tg = TraitGrid(32)
    column = 1.0 - 3.0 * (tg.nodes - 0.07) ** 2
    st = Stepper(SimConfig(0.05, 1.0, tg, sg), cache,
                 np.tile(column, (sg.n_x, 1)))
    assert dominant_trait(st) == pytest.approx(0.07, abs=1e-9)


def test_dominant_trait_extinct_below_floor(setting, cache):
    st = uniform_stepper(setting, cache, value=0.0)
    with pytest.raises(PopulationExtinct):
        dominant_trait(st)


def test_u_stays_x_flat(setting, cache):
    eps = 0.05
    res = run(base_config(setting, eps=eps, probes=(0.5, 1.0)), cache)
    for u in res.u_snaps.values():
        assert (u.max(axis=0) - u.min(axis=0)).max() <= 0.5 * eps


def test_envelope_and_history_bookkeeping(setting, cache):
    cfg = base_config(setting, T=0.2, probes=(0.1,))
    res = run(cfg, cache)
    lo, hi = res.envelope
    assert 0.0 < lo <= hi
    assert res.times[0] == 0.0
    assert res.times[-1] == pytest.approx(0.2)
    assert res.rho_history.times[0] == 0.0
    assert res.rho_history.times[-1] == pytest.approx(0.2)
    assert set(res.u_snaps) == {0.1}
    assert res.steps == int(round(0.2 / cfg.dt))


def test_sentinel_aborts_reaction_overshoot_cycle(setting):
    sg, tg, profile, _ = setting
    hot = ScalarField(sg, np.full(sg.n_x, 30.0))
    cfg = SimConfig(0.05, 1.0, tg, sg, c_t=0.2)
    with pytest.raises(AprioriViolated):
        run(cfg, ThetaCache(profile, hot))


def test_config_validation(setting):
    sg, tg, _, _ = setting
    with pytest.raises(ValidationError):
        SimConfig(0.2, 1.0, tg, sg)          # eps > 0.1
    with pytest.raises(ValidationError):
        SimConfig(0.05, -1.0, tg, sg)
    with pytest.raises(ValidationError):
        SimConfig(0.05, 1.0, tg, sg, c_t=0.5)
    with pytest.raises(ValidationError):
        SimConfig(0.05, 1.0, tg, sg, zbar0=0.5)
    with pytest.raises(ValidationError):
        SimConfig(0.05, 1.0, tg, sg, K0=-1.0)


def test_probe_times_must_land_in_horizon(setting):
    with pytest.raises(ValidationError):
        base_config(setting, T=0.2, probes=(0.5,))


def test_each_scale_rounds_probe_times_to_its_own_steps(setting):
    # at c_t = 0.0125 a step is eps / 80: -1e-4 is -0.16, -0.32 and -0.64
    # steps at eps 0.05, 0.025 and 0.0125, so only the finest scale rounds
    # it off the run; -2e-4 is -0.64 steps at eps 0.025
    for eps in (0.05, 0.025):
        cfg = base_config(setting, eps=eps, T=0.5, c_t=0.0125,
                          probes=(-1e-4, 0.25))
        assert probe_steps(cfg) == {0: [-1e-4],
                                    round(0.25 / cfg.dt): [0.25]}
    for eps, pt in ((0.0125, -1e-4), (0.025, -2e-4)):
        with pytest.raises(ValidationError,
                           match="probe time outside the run") as exc:
            base_config(setting, eps=eps, T=0.5, c_t=0.0125,
                        probes=(0.25, pt))
        assert exc.value.diagnostics == {"probe": pt}


def _checked_density(cfg, values):
    """The checks of the frozen-record constructors the stepper replaced: a
    float copy of the grid's shape, finite and nonnegative, and a finite rho
    summed again from that copy."""
    n = np.array(values, dtype=float)
    assert n.shape == (cfg.space.n_x, cfg.trait.n_z)
    assert np.all(np.isfinite(n)) and n.min() >= 0.0
    rho = cfg.trait.h_z * n.sum(axis=1)
    assert np.all(np.isfinite(rho))
    return n, rho


class _ReferenceStepper:
    """The fully validated step the stepper must reproduce bit for bit:
    every new density is copied and checked whole, rho is summed from the
    checked copy, and each step builds a new violation tuple."""

    def __init__(self, cfg, cache, start):
        self.cfg, self.m = cfg, cache.m
        alphas = np.asarray(cache.profile(cfg.trait.nodes), dtype=float)
        self.xdiff = BlockDiffusion(cfg.space.n_x, cfg.space.h_x,
                                    cfg.dt * alphas / cfg.epsilon)
        self.zdiff = FactoredDiffusion(cfg.trait.n_z, cfg.trait.h_z,
                                       cfg.dt * cfg.epsilon)
        self.n, self.rho = _checked_density(cfg, start)
        self.t, self.violations = 0.0, ()
        self.lo, self.hi = float(self.rho.min()), float(self.rho.max())
        self.streak = 0

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

    def step(self):
        cfg = self.cfg
        dt, eps = cfg.dt, cfg.epsilon
        star = self.xdiff.solve(self.n.T).T
        star = self.zdiff.solve(star.T).T
        rho_star = cfg.trait.h_z * star.sum(axis=1)
        growth = np.exp((dt / eps) * (self.m.values - rho_star))
        star = star * growth[:, None]
        self.t += dt
        self.n, self.rho = _checked_density(cfg, star)
        violations = list(self.violations)
        self.watch(self.rho, self.t, violations)
        self.violations = tuple(violations)


@pytest.mark.parametrize("variant", ["default", "hot"])
def test_step_equals_validated_reference(setting, variant):
    sg, tg, profile, m = setting
    c_t = 0.1
    if variant == "hot":
        m, c_t = ScalarField(sg, np.full(sg.n_x, 20.0)), 0.2
    cfg, cache = SimConfig(0.05, 1.0, tg, sg, c_t=c_t), ThetaCache(profile, m)
    start = init_population(cfg)
    stepper = Stepper(cfg, cache, start)
    reference = _ReferenceStepper(cfg, cache, start)
    for _ in range(200):
        stepper.step()
        reference.step()
    assert np.array_equal(stepper.n, reference.n)
    assert np.array_equal(stepper.rho, reference.rho)
    assert stepper.t == reference.t
    assert tuple(stepper.violations) == reference.violations
    assert (len(stepper.violations) > 0) == (variant == "hot")


class _Corrupting:
    """Stands in for the z-diffusion solve and plants one bad cell."""

    def __init__(self, solver, value):
        self.solver, self.value = solver, value

    def solve(self, rhs):
        out = self.solver.solve(rhs)      # (n_z, n_x)
        out[3:5, 5] = self.value
        return out


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("value,error", [
    # the trailing True of each id names the reaction, which every step applies
    pytest.param(np.nan, SolverError, id="nan-SolverError-True"),
    pytest.param(np.inf, SolverError, id="inf-SolverError-True"),
    pytest.param(-1e-6, SolverError, id="-1e-06-SolverError-True"),
])
def test_step_rejects_a_corrupted_density(setting, cache, value, error):
    cfg = base_config(setting)
    stepper = Stepper(cfg, cache, init_population(cfg))
    stepper.step()
    n, rho, t = stepper.n, stepper.rho, stepper.t
    stepper._zdiff = _Corrupting(stepper._zdiff, value)
    with pytest.raises(error):
        stepper.step()
    # a rejected step leaves the state as it was
    assert stepper.n is n and stepper.rho is rho and stepper.t == t
    assert stepper.violations == []


@pytest.mark.filterwarnings("error")
def test_run_reports_an_overflowing_reaction_without_warnings(setting):
    # exp(c_t * m) overflows to inf in the first step: the step's finiteness
    # check raises, and no numpy warning is printed ahead of the diagnostic
    sg, tg, profile, _ = setting
    cfg = SimConfig(0.05, 0.1, tg, sg)
    with pytest.raises(SolverError):
        run(cfg, ThetaCache(profile, ScalarField(sg, np.full(sg.n_x, 1e4))))


def test_run_rejects_a_march_past_the_step_cap(setting, cache):
    # T / dt = 1e301 steps: rejected before the first one, not run for ever
    with pytest.raises(ValidationError, match="step cap"):
        run(base_config(setting, T=0.5, c_t=1e-300), cache)


def test_run_rejects_stride_outputs_past_the_record_rule(setting, cache,
                                                        monkeypatch):
    # 10^7 steps, each one a run.csv row of 5 values: within the step cap
    # and with a two-record history, rejected before the first step
    def step(self):
        raise AssertionError("the kinetic march stepped")

    monkeypatch.setattr(Stepper, "step", step)
    with pytest.raises(ValidationError, match="recorded march") as info:
        run(base_config(setting, eps=0.1, T=1.0, c_t=1e-6, out_stride=1,
                        history_stride=10_000_000), cache)
    assert info.value.diagnostics["width"] == 5
