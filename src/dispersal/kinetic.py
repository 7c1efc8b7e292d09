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

import mmap
import os
import signal
import sys
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

import numpy as np

from .ecology import ThetaCache
from .errors import (AprioriViolated, PopulationExtinct, SolverError,
                     ValidationError)
from .grids import (SpatialGrid, TimeIndexedField, TraitField, TraitGrid,
                    check_records, march_steps, parabola_vertex)
from .tridiag import BlockDiffusion, FactoredDiffusion, solve_in_place

MAX_REACTION_COURANT = 0.2   # dt/eps cap for the frozen-rho exponential
ENVELOPE_FACTOR = 10.0
ENVELOPE_STREAK = 3
DENSITY_FLOOR = 1e-300       # floor before a log; marginal extinction threshold


@dataclass(frozen=True)
class SimConfig:
    epsilon: float
    T: float
    trait: TraitGrid
    space: SpatialGrid
    K0: float = 4.0
    zbar0: float = 0.25
    c_t: float = 0.1
    out_stride: int = 10
    history_stride: int = 10
    probes: tuple = ()          # WKB snapshot times

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
        if self.out_stride < 1 or self.history_stride < 1:
            raise ValidationError("strides must be >= 1")
        # the step cap, the records (density, history, outputs), the probes
        n_steps = march_steps(self.T, self.dt)
        check_records("phase density", 1, self.space.n_x * self.trait.n_z)
        check_records("recorded march",
                      -(-n_steps // self.history_stride) + 1, self.space.n_x)
        check_records("recorded march", -(-n_steps // self.out_stride) + 1, 5)
        probe_steps(self)

    @property
    def dt(self) -> float:
        return self.c_t * self.epsilon


@contextmanager
def forked(work):
    """Run `work()` in a forked child ending in `os._exit` (0 once `work`
    returns, else 1); yield a function that reaps it and returns its exit
    code.  Leaving the block kills and reaps it, so no process outlives it."""
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        try:
            work()
            os._exit(0)
        finally:                # work raised
            os._exit(1)
    status = []

    def reap() -> int:
        if not status:
            status.append(os.waitpid(pid, 0)[1])
        return os.waitstatus_to_exitcode(status[0])

    try:
        yield reap
    finally:
        if not status:
            os.kill(pid, signal.SIGKILL)
            reap()


def init_population(cfg: SimConfig) -> np.ndarray:
    """Gaussian-in-trait start n = eps^{-1/2} exp(-K0 (z-zbar0)^2 / eps),
    constant in x; amplitude carries the half-log-eps WKB offset."""
    z = cfg.trait.nodes
    column = np.exp(-cfg.K0 * (z - cfg.zbar0) ** 2 / cfg.epsilon)
    column /= np.sqrt(cfg.epsilon)
    return np.tile(column, (cfg.space.n_x, 1))


class Stepper:
    """The march state of one configuration and the operators that advance it.

    The state is the (n_x, n_z) density `n`, its integrated density
    `rho` = int n dz, the time `t` and the sentinel's `violations`; the
    bound sentinel's envelope starts at the rho range of the start density.
    """

    def __init__(self, cfg: SimConfig, cache: ThetaCache, n0: np.ndarray):
        if cache.m.grid != cfg.space:
            raise ValidationError("habitat grid is not the run's grid",
                                  n_x=cache.m.grid.n_x, expected=cfg.space.n_x)
        n = np.array(n0, dtype=float)
        shape = (cfg.space.n_x, cfg.trait.n_z)
        if n.shape != shape:
            raise ValidationError("phase density shape mismatch",
                                  expected=list(shape), got=list(n.shape))
        # a NaN or inf cell makes its row sum non-finite, as does an overflow
        rho = cfg.trait.h_z * n.sum(axis=1)
        if not np.all(np.isfinite(rho)):
            raise ValidationError("phase density contains non-finite values")
        if n.min() < 0.0:
            raise ValidationError("phase density must be nonnegative",
                                  min_value=float(n.min()))
        self.cfg = cfg
        self.n, self.rho, self.t = n, rho, 0.0
        self.violations: list[dict] = []
        dt, eps = cfg.dt, cfg.epsilon
        self._m = cache.m.values
        alphas = np.asarray(cache.profile(cfg.trait.nodes), dtype=float)
        self._xdiff = BlockDiffusion(cfg.space.n_x, cfg.space.h_x,
                                     dt * alphas / eps)
        self._zdiff = FactoredDiffusion(cfg.trait.n_z, cfg.trait.h_z, dt * eps)
        self._xs, self._zs = np.empty(shape[::-1]), np.empty(shape)
        self._split, self._partner = shape[::-1], None
        self._env_lo, self._env_hi = float(rho.min()), float(rho.max())
        self._streak = 0

    @property
    def envelope(self) -> tuple[float, float]:
        return self._env_lo, self._env_hi

    def _watch_bounds(self, rho: np.ndarray, t: float) -> None:
        """Track the running envelope of rho; record a violation
        {t, rho_min, rho_max, envelope_lo, envelope_hi} outside it."""
        lo, hi = float(rho.min()), float(rho.max())
        if lo < self._env_lo / ENVELOPE_FACTOR or \
                hi > self._env_hi * ENVELOPE_FACTOR:
            self._streak += 1
            if self._streak > ENVELOPE_STREAK:
                raise AprioriViolated(
                    "integrated density left the running envelope",
                    t=t, rho_min=lo, rho_max=hi,
                    envelope_min=self._env_lo, envelope_max=self._env_hi)
            self.violations.append(
                {"t": t, "rho_min": lo, "rho_max": hi,
                 "envelope_lo": self._env_lo, "envelope_hi": self._env_hi})
            return
        self._streak = 0
        self._env_lo = min(self._env_lo, lo)
        self._env_hi = max(self._env_hi, hi)

    def step(self) -> None:
        """Advance `n`, `rho` and `t` by one step; a step that fails a check
        raises and leaves the state as it was."""
        cfg = self.cfg
        dt, eps = cfg.dt, cfg.epsilon
        n, xs, star, (kz, kx) = self.n, self._xs, self._zs, self._split
        if self._partner:                   # it solves past the split
            xs[kz:] = n[:, kz:].T
            self._talk(b"x")
        self._xdiff.solve(n[:, :kz].T, out=xs[:kz])  # x-diffusion per z-slice
        if self._partner:
            self._talk()
            star[kx:] = xs[:, kx:].T
            self._talk(b"z")
        self._zdiff.solve(xs[:, :kx], out=star[:kx].T)  # z-diffusion per x-slice
        if self._partner:
            self._talk()
        rho_star = cfg.trait.h_z * star.sum(axis=1)
        growth = np.exp((dt / eps) * (self._m - rho_star))
        star = star * growth[:, None]
        t_new = self.t + dt
        # one sum and one check per step, as in __init__
        rho = cfg.trait.h_z * star.sum(axis=1)
        if not np.all(np.isfinite(rho)):
            raise SolverError("non-finite density after step", t=t_new,
                              n_min=float(np.nanmin(star)),
                              n_max=float(np.nanmax(star)))
        if star.min() < 0.0:
            raise SolverError("negative density after step",
                              min_value=float(star.min()))
        self._watch_bounds(rho, t_new)
        self.n, self.rho, self.t = star, rho, t_new

    def _talk(self, job: bytes = b"") -> None:
        """Send the partner `job`, or with none await its answer to the last.
        This process keeps the jobs' read end open, so a send never fails:
        a partner that has ended shows as the end of its answers."""
        jobs, answers, reap = self._partner
        if job:
            jobs.write(job)
        elif not answers.read(1):
            raise SolverError("diffusion partner ended", t=self.t,
                              exitcode=reap())

    @contextmanager
    def partnered(self):
        """Within the block a forked partner process solves the upper half
        of each diffusion solve, z-slices from n_z // 2 and x-columns from
        n_x // 2, in shared buffers through the matching slices of the
        factors (the blocks are uncoupled: each value is the whole solve's)."""
        n_z, n_x = self._xs.shape
        kz, kx = n_z // 2, n_x // 2
        xs, zs = (np.frombuffer(mmap.mmap(-1, 8 * n_x * n_z)).reshape(shape)
                  for shape in ((n_z, n_x), (n_x, n_z)))
        d, l = self._xdiff.factor
        jobs = {b"x": ((d[kz * n_x:], l[kz * n_x:]), xs[kz:].reshape(-1)),
                b"z": (self._zdiff.factor, zs[kx:].T)}
        job_r, job_w, done_r, done_w = map(open, os.pipe() + os.pipe(),
                                           ("rb", "wb") * 2, (0,) * 4)

        def serve():
            job_w.close()       # so that the parent's exit reads as EOF
            while job := job_r.read(1):
                solve_in_place(*jobs[job])
                done_w.write(b"\0")

        held = self._xs, self._zs, self._split, self._partner
        with job_r, job_w, done_r, done_w, forked(serve) as reap:
            done_w.close()      # so that the partner's exit reads as EOF
            self._xs, self._zs, self._split, self._partner = \
                xs, zs, (kz, kx), (job_w, done_r, reap)
            try:
                yield self
            finally:
                self._xs, self._zs, self._split, self._partner = held


def extract_u(n: np.ndarray, epsilon: float) -> np.ndarray:
    """WKB value u = -eps log n, floored before the log only."""
    return -epsilon * np.log(np.maximum(n, DENSITY_FLOOR))


def dominant_trait(stepper: Stepper) -> float:
    """Refined maximizer of the trait marginal int n dx.

    A maximum pinned to a trait wall is reported as the wall node itself:
    the parabolic refinement needs an interior stencil, and at moderate eps
    the diffusive tail piling up against the Neumann wall can genuinely
    out-weigh the selected peak for a while.
    """
    cfg = stepper.cfg
    g = TraitField(cfg.trait, cfg.space.h_x * stepper.n.sum(axis=0)).values
    if float(g.max()) <= DENSITY_FLOOR:
        raise PopulationExtinct("all marginal mass at or below the floor",
                                t=stepper.t, max_marginal=float(g.max()))
    j = int(np.argmax(g))
    z = cfg.trait.nodes
    if j == 0 or j == g.size - 1:
        return float(z[j])
    # the minimum's fit of the negated marginal g; negation is exact
    return parabola_vertex(float(z[j]), -float(g[j - 1]), -float(g[j]),
                           -float(g[j + 1]), cfg.trait.h_z)[0]


@dataclass(frozen=True)
class RunResult:
    times: np.ndarray        # output times
    zbar: np.ndarray         # dominant trait per output time
    mass: np.ndarray         # total phase-space mass
    rho_min: np.ndarray
    rho_max: np.ndarray
    rho_history: TimeIndexedField
    u_snaps: dict            # probe time -> (n_x, n_z) WKB values
    envelope: tuple          # (lo, hi) over the whole run
    violations: tuple
    steps: int               # march steps to the horizon

    def zbar_at(self, t: float) -> float:
        return float(np.interp(t, self.times, self.zbar))


def probe_steps(cfg: SimConfig) -> dict:
    """Each step of the run `cfg` that rounds from one of its probe times,
    mapped to those probe times; a probe time off the run's steps raises."""
    n_steps = march_steps(cfg.T, cfg.dt)
    steps = {}
    for pt in cfg.probes:
        k = int(round(pt / cfg.dt))
        if not 0 <= k <= n_steps:
            raise ValidationError("probe time outside the run", probe=pt)
        steps.setdefault(k, []).append(pt)
    return steps


def run(cfg: SimConfig, cache: ThetaCache, partner=False) -> RunResult:
    """March to the horizon in `cache`, recording stride outputs, the
    integrated-density history for the bundle module, and WKB snapshots.

    The history keeps rho at every `history_stride`-th step and the last,
    the stride outputs five values at every `out_stride`-th step and the
    last; `SimConfig` has checked both against the record rule.  With
    `partner`, the stepper is `partnered` after every input check."""
    n_steps = march_steps(cfg.T, cfg.dt)
    snap_steps = probe_steps(cfg)
    stepper = Stepper(cfg, cache, init_population(cfg))

    times, zbars, masses, lows, highs = [], [], [], [], []
    hist_t, hist_rho = [], []
    u_snaps = {}

    def record_output():
        times.append(stepper.t)
        zbars.append(dominant_trait(stepper))
        masses.append(cfg.space.h_x * cfg.trait.h_z *
                      float(stepper.n.sum()))
        lows.append(float(stepper.rho.min()))
        highs.append(float(stepper.rho.max()))

    # an overflowing step is turned into SolverError by the checks in
    # Stepper.step; numpy's own warnings would only add stderr lines
    with stepper.partnered() if partner else nullcontext(), \
            np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps + 1):
            if k % cfg.out_stride == 0 or k == n_steps:
                record_output()
            if k % cfg.history_stride == 0 or k == n_steps:
                hist_t.append(stepper.t)
                hist_rho.append(stepper.rho)   # step() rebinds, never writes
            if k in snap_steps:
                u = extract_u(stepper.n, cfg.epsilon)
                u_snaps.update(dict.fromkeys(snap_steps[k], u))
            if k < n_steps:
                stepper.step()

    history = TimeIndexedField(np.array(hist_t), np.array(hist_rho))
    return RunResult(np.array(times), np.array(zbars), np.array(masses),
                     np.array(lows), np.array(highs), history, u_snaps,
                     stepper.envelope, tuple(stepper.violations), n_steps)
