"""Direct solver for the scaled phase-space model.

eps dn/dt = alpha(z) Lap_x n + n (m(x) - rho(x,t)) + eps^2 d2n/dz2

on the unit habitat times the trait interval, Neumann walls everywhere,
rho = int n dz.  One step is Lie splitting: implicit x-diffusion per trait
slice, implicit z-diffusion per habitat slice, then the exact exponential
reaction with rho frozen at the post-diffusion value.  Every substep is
positivity preserving (M-matrix solves and a positive multiplier), so the
density stays nonnegative exactly.

The WKB transform u = -eps log n and the dominant (marginal-maximizing)
trait are extracted here; the integrated density history feeds the bundle
module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .ecology import DispersalProfile
from .errors import (AprioriViolated, PopulationExtinct, SolverError,
                     ValidationError)
from .grids import (PhaseDensity, ScalarField, SpatialGrid, TimeIndexedField,
                    TraitGrid, argmax_refined, march_steps)
from .tridiag import BlockDiffusion, FactoredDiffusion

MAX_REACTION_COURANT = 0.2   # dt/eps cap for the frozen-rho exponential
ENVELOPE_FACTOR = 10.0
ENVELOPE_STREAK = 3


@dataclass(frozen=True)
class SimConfig:
    epsilon: float
    T: float
    spatial: SpatialGrid
    trait: TraitGrid
    profile: DispersalProfile
    m: ScalarField
    K0: float = 4.0
    zbar0: float = 0.25
    c_t: float = 0.1
    out_stride: int = 10
    history_stride: int = 10
    floor: float = 1e-300
    disable_z_diffusion: bool = False
    disable_reaction: bool = False

    def __post_init__(self):
        if not 0.0 < self.epsilon <= 0.1:
            raise ValidationError("epsilon must lie in (0, 0.1]",
                                  epsilon=self.epsilon)
        if self.T <= 0.0:
            raise ValidationError("horizon must be positive", T=self.T)
        if not 0.0 < self.c_t <= MAX_REACTION_COURANT:
            raise ValidationError("c_t must lie in (0, 0.2]", c_t=self.c_t)
        if self.K0 <= 0.0:
            raise ValidationError("K0 must be positive", K0=self.K0)
        if not self.trait.a < self.zbar0 < self.trait.b:
            raise ValidationError("initial trait must be interior",
                                  zbar0=self.zbar0)
        if self.m.grid.n_x != self.spatial.n_x:
            raise ValidationError("resource field lives on a different grid",
                                  m_n_x=self.m.grid.n_x, n_x=self.spatial.n_x)
        if self.out_stride < 1 or self.history_stride < 1:
            raise ValidationError("strides must be >= 1")
        if self.floor <= 0.0:
            raise ValidationError("floor must be positive", floor=self.floor)

    @property
    def dt(self) -> float:
        return self.c_t * self.epsilon


@dataclass(frozen=True)
class SimState:
    n: PhaseDensity
    rho: ScalarField
    t: float
    violations: tuple = ()

    def __post_init__(self):
        check = self.n.rho()
        scale = max(float(np.max(np.abs(check.values))), 1e-30)
        gap = float(np.max(np.abs(check.values - self.rho.values)))
        if gap > 1e-12 * scale:
            raise ValidationError("cached rho is stale", gap=gap)


def _trusted(cls, **fields):
    """Build a frozen record from arrays the stepper has already checked.

    The arrays are frozen in place, not copied, and `__post_init__` is
    skipped, so one step validates and sums its new density once.
    """
    obj = object.__new__(cls)
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
        object.__setattr__(obj, name, value)
    return obj


def init_population(cfg: SimConfig) -> SimState:
    """Gaussian-in-trait start n = eps^{-1/2} exp(-K0 (z-zbar0)^2 / eps),
    constant in x; amplitude carries the half-log-eps WKB offset."""
    z = cfg.trait.nodes
    column = np.exp(-cfg.K0 * (z - cfg.zbar0) ** 2 / cfg.epsilon)
    column /= np.sqrt(cfg.epsilon)
    values = np.tile(column, (cfg.spatial.n_x, 1))
    n = PhaseDensity(cfg.spatial, cfg.trait, values, 0.0)
    return SimState(n, n.rho(), 0.0)


class Stepper:
    """Factored operators for one configuration, plus the bound sentinel."""

    def __init__(self, cfg: SimConfig):
        self.cfg = cfg
        dt = cfg.dt
        eps = cfg.epsilon
        alphas = np.asarray(cfg.profile(cfg.trait.nodes), dtype=float)
        self._xdiff = BlockDiffusion(cfg.spatial.n_x, cfg.spatial.h_x,
                                     dt * alphas / eps)
        self._zdiff = None
        if not cfg.disable_z_diffusion:
            self._zdiff = FactoredDiffusion(cfg.trait.n_z, cfg.trait.h_z,
                                            dt * eps)
        self._env_lo = None
        self._env_hi = None
        self._streak = 0

    @property
    def envelope(self) -> tuple[float, float]:
        if self._env_lo is None:
            raise SolverError("no step taken yet")
        return self._env_lo, self._env_hi

    def prime(self, state: SimState) -> None:
        """Seed the bound envelope from a starting state."""
        lo, hi = float(state.rho.values.min()), float(state.rho.values.max())
        self._env_lo = lo if self._env_lo is None else min(self._env_lo, lo)
        self._env_hi = hi if self._env_hi is None else max(self._env_hi, hi)

    def _watch_bounds(self, rho: np.ndarray, t: float) -> dict | None:
        """Track the running envelope of rho; return a violation record
        {t, rho_min, rho_max, envelope_lo, envelope_hi} or None."""
        lo, hi = float(rho.min()), float(rho.max())
        if self._env_lo is None:
            self._env_lo, self._env_hi = lo, hi
            return None
        if lo < self._env_lo / ENVELOPE_FACTOR or \
                hi > self._env_hi * ENVELOPE_FACTOR:
            self._streak += 1
            if self._streak > ENVELOPE_STREAK:
                raise AprioriViolated(
                    "integrated density left the running envelope",
                    t=t, rho_min=lo, rho_max=hi,
                    envelope_min=self._env_lo, envelope_max=self._env_hi)
            return {"t": t, "rho_min": lo, "rho_max": hi,
                    "envelope_lo": self._env_lo, "envelope_hi": self._env_hi}
        self._streak = 0
        self._env_lo = min(self._env_lo, lo)
        self._env_hi = max(self._env_hi, hi)
        return None

    def step(self, state: SimState) -> SimState:
        cfg = self.cfg
        dt, eps = cfg.dt, cfg.epsilon
        values = state.n.values                      # (n_x, n_z)
        star = self._xdiff.solve(values.T).T         # x-diffusion per z-slice
        if self._zdiff is not None:
            star = self._zdiff.solve(star.T).T       # z-diffusion per x-slice
        if not cfg.disable_reaction:
            rho_star = cfg.trait.h_z * star.sum(axis=1)
            growth = np.exp((dt / eps) * (cfg.m.values - rho_star))
            star = star * growth[:, None]
        t_new = state.t + dt
        # one sum and one check per step: a NaN or inf cell makes its row
        # sum non-finite, and so does a row sum that overflows
        rho = cfg.trait.h_z * star.sum(axis=1)
        if not np.all(np.isfinite(rho)):
            raise SolverError("non-finite density after step", t=t_new,
                              n_min=float(np.nanmin(star)),
                              n_max=float(np.nanmax(star)))
        if star.min() < 0.0:
            raise ValidationError("phase density must be nonnegative",
                                  min_value=float(star.min()))
        record = self._watch_bounds(rho, t_new)
        violations = state.violations if record is None else \
            (*state.violations, record)
        return _trusted(SimState,
                        n=_trusted(PhaseDensity, spatial=cfg.spatial,
                                   trait=cfg.trait, values=star, t=t_new),
                        rho=_trusted(ScalarField, grid=cfg.spatial,
                                     values=rho),
                        t=t_new, violations=violations)


def extract_u(state: SimState, epsilon: float,
              floor: float = 1e-300) -> np.ndarray:
    """WKB value u = -eps log n, floored before the log only."""
    return -epsilon * np.log(np.maximum(state.n.values, floor))


def dominant_trait(state: SimState, floor: float = 1e-300) -> float:
    """Refined maximizer of the trait marginal int n dx.

    A maximum pinned to a trait wall is reported as the wall node itself:
    the parabolic refinement needs an interior stencil, and at moderate eps
    the diffusive tail piling up against the Neumann wall can genuinely
    out-weigh the selected peak for a while.
    """
    marginal = state.n.z_marginal()
    if float(marginal.values.max()) <= floor:
        raise PopulationExtinct("all marginal mass at or below the floor",
                                t=state.t,
                                max_marginal=float(marginal.values.max()))
    idx = int(np.argmax(marginal.values))
    if idx == 0 or idx == marginal.values.size - 1:
        return float(marginal.grid.nodes[idx])
    z_star, _, _ = argmax_refined(marginal)
    return z_star


@dataclass(frozen=True)
class RunResult:
    config: SimConfig
    times: np.ndarray        # output times
    zbar: np.ndarray         # dominant trait per output time
    mass: np.ndarray         # total phase-space mass
    rho_min: np.ndarray
    rho_max: np.ndarray
    rho_history: TimeIndexedField
    u_snaps: dict            # probe time -> (n_x, n_z) WKB values
    envelope: tuple          # (lo, hi) over the whole run
    violations: tuple = ()
    meta: dict = field(default_factory=dict)

    def zbar_at(self, t: float) -> float:
        return float(np.interp(t, self.times, self.zbar))


def run(cfg: SimConfig, probe_times: Sequence[float] = ()) -> RunResult:
    """March to the horizon, recording stride outputs, the integrated-density
    history for the bundle module, and WKB snapshots at the probe times."""
    dt = cfg.dt
    n_steps = march_steps(cfg.T, dt)
    state = init_population(cfg)
    stepper = Stepper(cfg)
    stepper.prime(state)
    probe_steps = {}
    for pt in probe_times:
        k = int(round(pt / dt))
        if not 0 <= k <= n_steps:
            raise ValidationError("probe time outside the run", probe=pt)
        probe_steps.setdefault(k, pt)

    times, zbars, masses, lows, highs = [], [], [], [], []
    hist_t, hist_rho = [], []
    u_snaps = {}

    def record_output():
        times.append(state.t)
        zbars.append(dominant_trait(state, cfg.floor))
        masses.append(cfg.spatial.h_x * cfg.trait.h_z *
                      float(state.n.values.sum()))
        lows.append(float(state.rho.values.min()))
        highs.append(float(state.rho.values.max()))

    # an overflowing step is turned into SolverError by the checks in
    # Stepper.step; numpy's own warnings would only add stderr lines
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps + 1):
            if k % cfg.out_stride == 0 or k == n_steps:
                record_output()
            if k % cfg.history_stride == 0 or k == n_steps:
                hist_t.append(state.t)
                hist_rho.append(state.rho.values.copy())
            if k in probe_steps:
                u_snaps[probe_steps[k]] = extract_u(state, cfg.epsilon,
                                                    cfg.floor)
            if k < n_steps:
                state = stepper.step(state)

    history = TimeIndexedField(np.array(hist_t), np.array(hist_rho))
    return RunResult(cfg, np.array(times), np.array(zbars), np.array(masses),
                     np.array(lows), np.array(highs), history, u_snaps,
                     stepper.envelope, state.violations,
                     meta={"steps": n_steps, "dt": dt})
