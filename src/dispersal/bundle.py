"""Normalized principal Floquet bundles and the effective Hamiltonian.

For a parabolic operator with time-dependent potential c(x, tau) the bundle
is the positive solution pair (Phi, H) with unit spatial mass at every time;
H(tau) = -int c Phi dx is the instantaneous normalizer.  Eternal solutions
are approximated by spin-up marching: the bundle attracts at the spectral
gap, so a window of 20/gap forgets the initial profile to ~1e-8.

The effective Hamiltonian of the full model is the bundle normalizer for the
potential m - rho_eps in fast time tau = t/epsilon, with rho frozen below
t = epsilon.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import BundleNotConverged, SolverError, ValidationError
from .grids import ScalarField, SpatialGrid, TimeIndexedField
from .tridiag import BlockDiffusion, FactoredDiffusion

DEFAULT_DTAU = 1e-3
SPINUP_FACTOR = 20.0  # spin-up duration in units of inverse spectral gap
LATTICE_BLOCK_STEPS = 1024  # march steps whose reaction factors are built at once


@dataclass(frozen=True)
class FloquetBundle:
    """Recorded bundle samples: positive unit-mass profiles and normalizers."""

    taus: np.ndarray      # recorded fast times
    phi: np.ndarray       # (n_rec, n_x), each row strictly positive, mass 1
    H: np.ndarray         # (n_rec,)
    harnack: float        # max over records of sup phi / inf phi
    spin_up: float
    dtau: float


def _potential_callable(c, tau_ref: float) -> Callable[[float], np.ndarray]:
    """Accept a constant array, a TimeIndexedField, or a callable."""
    if isinstance(c, np.ndarray):
        return lambda tau: c
    if isinstance(c, ScalarField):
        values = c.values
        return lambda tau: values
    if isinstance(c, TimeIndexedField):
        return c.at
    if callable(c):
        return c
    raise ValidationError("unsupported potential representation", type=str(type(c)))


def _auto_spin_up(alpha: float, c_fn: Callable[[float], np.ndarray],
                  grid: SpatialGrid, tau_span: tuple[float, float]) -> float:
    """Spin-up duration 20/gap from the time-averaged operator."""
    from .ecology import spectral_gap

    t0, t1 = tau_span
    if t1 > t0:
        samples = np.linspace(t0, t1, 33)
        cbar = np.mean([c_fn(float(t)) for t in samples], axis=0)
    else:
        cbar = c_fn(t0)
    gap = spectral_gap(alpha, ScalarField(grid, np.asarray(cbar, dtype=float)))
    return SPINUP_FACTOR / max(gap, 0.1)


def compute_bundle(alpha: float, c, grid: SpatialGrid,
                   tau_span: tuple[float, float], *,
                   dtau: float = DEFAULT_DTAU,
                   spin_up: float | None = None,
                   record_taus: np.ndarray | None = None,
                   initial: np.ndarray | None = None,
                   check_insensitivity: bool = False) -> FloquetBundle:
    """March the bundle over tau_span after a discarded spin-up window.

    The potential is extended constantly in time before the window start.
    Each step applies implicit (backward) diffusion then the exact
    exponential reaction for the frozen potential, then renormalizes to unit
    mass; H is recorded through the mass identity H = -int c Phi dx.
    """
    if dtau <= 0.0:
        raise ValidationError("dtau must be positive", dtau=dtau)
    tau_start, tau_end = float(tau_span[0]), float(tau_span[1])
    if tau_end < tau_start:
        raise ValidationError("empty fast-time window", start=tau_start, end=tau_end)
    c_fn = _potential_callable(c, tau_start)
    if spin_up is None:
        spin_up = _auto_spin_up(alpha, c_fn, grid, (tau_start, tau_end))
    if spin_up <= 0.0:
        raise ValidationError("spin_up must be positive", spin_up=spin_up)

    k_spin = int(np.ceil(spin_up / dtau))
    spin_actual = k_spin * dtau
    k_total = k_spin + int(round((tau_end - tau_start) / dtau))

    if record_taus is None:
        n_window = k_total - k_spin
        if n_window > 200_000:
            raise ValidationError("record window too large; pass record_taus",
                                  steps=n_window)
        record_taus = tau_start + dtau * np.arange(n_window + 1)
    record_taus = np.asarray(record_taus, dtype=float)
    rec_steps = {}
    for slot, tau in enumerate(record_taus):
        k = k_spin + int(round((tau - tau_start) / dtau))
        if not 0 <= k <= k_total:
            raise ValidationError("record time outside the marched window",
                                  tau=float(tau))
        rec_steps.setdefault(k, []).append(slot)

    constant_potential = isinstance(c, (np.ndarray, ScalarField))

    def tau_of(k: int) -> float:
        return tau_start + (k - k_spin) * dtau

    h = grid.h_x
    inv = FactoredDiffusion(grid.n_x, h, dtau * alpha)
    if initial is None:
        v = np.ones(grid.n_x)
    else:
        v = np.asarray(initial, dtype=float).copy()
        if v.min() <= 0.0:
            raise ValidationError("initial bundle profile must be positive")
        v /= h * v.sum()

    n_rec = record_taus.size
    phi = np.empty((n_rec, grid.n_x))
    H = np.empty(n_rec)
    harnack = 0.0
    exp_row = np.exp(dtau * np.asarray(c_fn(tau_start), dtype=float)) \
        if constant_potential else None

    for k in range(k_total + 1):
        slots = rec_steps.get(k)
        if slots is not None:
            if v.min() <= 0.0:
                raise SolverError("bundle lost positivity",
                                  min_value=float(v.min()), tau=tau_of(k))
            crow = np.asarray(c_fn(tau_of(k)), dtype=float)
            h_val = -h * float(crow @ v)
            ratio = float(v.max() / v.min())
            harnack = max(harnack, ratio)
            for slot in slots:
                phi[slot] = v
                H[slot] = h_val
        if k == k_total:
            break
        v = inv.solve(v)
        if constant_potential:
            v *= exp_row
        else:
            tau_mid = max(tau_of(k) + 0.5 * dtau, tau_start)
            v *= np.exp(dtau * np.asarray(c_fn(tau_mid), dtype=float))
        v /= h * v.sum()

    result = FloquetBundle(record_taus, phi, H, harnack, spin_actual, dtau)
    if check_insensitivity:
        longer = compute_bundle(alpha, c, grid, (tau_start, tau_end), dtau=dtau,
                                spin_up=2.0 * spin_actual,
                                record_taus=record_taus, initial=initial,
                                check_insensitivity=False)
        drift = float(np.max(np.abs(longer.H - result.H)))
        if drift > 1e-8:
            raise BundleNotConverged("spin-up window too short",
                                     drift=drift, spin_up=spin_actual)
    return result


@dataclass(frozen=True)
class EffectiveHamiltonian:
    """Trait x time table of bundle normalizers for the model's potential."""

    z: np.ndarray          # trait samples
    t: np.ndarray          # slow times
    H: np.ndarray          # (n_z, n_t)
    log_phi: np.ndarray    # (n_z, n_t, n_x), the WKB corrector -log Phi
    epsilon: float
    meta: dict = field(default_factory=dict)

    def interp_H(self, z: float, t: float) -> float:
        """Bilinear interpolation of the table (clamped at the edges)."""
        zi = np.clip(np.searchsorted(self.z, z) - 1, 0, self.z.size - 2)
        ti = np.clip(np.searchsorted(self.t, t) - 1, 0, self.t.size - 2)
        wz = np.clip((z - self.z[zi]) / (self.z[zi + 1] - self.z[zi]), 0.0, 1.0)
        wt = np.clip((t - self.t[ti]) / (self.t[ti + 1] - self.t[ti]), 0.0, 1.0)
        block = self.H[zi:zi + 2, ti:ti + 2]
        return float((1 - wz) * ((1 - wt) * block[0, 0] + wt * block[0, 1]) +
                     wz * ((1 - wt) * block[1, 0] + wt * block[1, 1]))


def effective_hamiltonian(rho_history: TimeIndexedField,
                          profile, epsilon: float,
                          z_samples: np.ndarray, m: ScalarField,
                          t_record: np.ndarray, *,
                          dtau: float = DEFAULT_DTAU,
                          spin_up: float | None = None) -> EffectiveHamiltonian:
    """Effective Hamiltonian H_eps(z, t) for the potential m - rho_eps.

    The bundles of all sampled traits are marched together in fast time
    tau = t/epsilon, as the rows of one (n_z, n_x) array, with the potential
    frozen below t = epsilon (and throughout the spin-up window, which
    necessarily precedes the available history -- recorded in the metadata).
    Each step is one stacked implicit diffusion solve with one block per
    trait, then the exponential reaction factor, which the potential does not
    make trait-dependent, then a per-row renormalization to unit mass.  The
    reaction factors are built LATTICE_BLOCK_STEPS steps at a time, as the
    march enters each block, so memory does not grow with the horizon.  The
    Harnack ratio sup Phi / inf Phi is kept per trait.
    """
    if epsilon <= 0.0:
        raise ValidationError("epsilon must be positive", epsilon=epsilon)
    if not dtau > 0.0:
        raise ValidationError("dtau must be positive", dtau=dtau)
    t_record = np.asarray(t_record, dtype=float)
    if t_record.size == 0 or np.any(t_record < 0.0):
        raise ValidationError("record times must be nonnegative")
    grid = m.grid
    h = grid.h_x
    z_nodes = np.asarray(z_samples, dtype=float)
    if z_nodes.ndim != 1 or z_nodes.size == 0:
        raise ValidationError("trait samples must form a nonempty 1-d array")
    alphas = np.asarray(profile(z_nodes), dtype=float)

    def c_slow(t: float) -> np.ndarray:
        return m.values - rho_history.at(max(t, epsilon))

    # spin-up sized by the smallest dispersal rate, the slowest-attracting case
    if spin_up is None:
        from .ecology import spectral_gap

        t_end = float(t_record.max())
        cbar = np.mean([c_slow(float(s)) for s in
                        np.linspace(0.0, max(t_end, epsilon), 33)], axis=0)
        gap = spectral_gap(float(alphas.min()), ScalarField(grid, cbar))
        spin_up = SPINUP_FACTOR / max(gap, 0.1)
    if not spin_up > 0.0:
        raise ValidationError("spin_up must be positive", spin_up=spin_up)

    k_spin = int(np.ceil(spin_up / dtau))
    tau_end = float(t_record.max()) / epsilon
    k_total = k_spin + int(np.ceil(tau_end / dtau))
    rec_steps = k_spin + np.round(t_record / epsilon / dtau).astype(int)
    rec_of_step = {}
    for slot, k in enumerate(rec_steps):
        rec_of_step.setdefault(int(k), []).append(slot)
    hist_t, hist_v = rho_history.times, rho_history.values

    def reaction_block(k0: int) -> np.ndarray:
        """exp(dtau * c) at the midpoints of the block of steps from k0."""
        taus_mid = (np.arange(k0, min(k0 + LATTICE_BLOCK_STEPS, k_total))
                    - k_spin + 0.5) * dtau
        s_times = epsilon * np.maximum(taus_mid, 1.0)
        idx = np.clip(np.searchsorted(hist_t, s_times) - 1, 0, hist_t.size - 2)
        w = np.clip((s_times - hist_t[idx]) / (hist_t[idx + 1] - hist_t[idx]),
                    0.0, 1.0)
        rho = (1.0 - w)[:, None] * hist_v[idx] + w[:, None] * hist_v[idx + 1]
        return np.exp(dtau * (m.values[None, :] - rho))

    c_rec = np.array([c_slow(float(t)) for t in t_record])
    n_z, n_t = z_nodes.size, t_record.size
    H = np.empty((n_z, n_t))
    log_phi = np.empty((n_z, n_t, grid.n_x))
    harnacks = np.zeros(n_z)
    c_max = 0.0                           # running max of |dtau * c|

    march = BlockDiffusion(grid.n_x, h, dtau * alphas)
    v = np.ones((n_z, grid.n_x))          # one bundle profile per trait row
    for k in range(k_total + 1):
        slots = rec_of_step.get(k)
        if slots is not None:
            harnacks = np.maximum(harnacks, v.max(axis=1) / v.min(axis=1))
            for slot in slots:
                H[:, slot] = -h * (v @ c_rec[slot])
                log_phi[:, slot] = -np.log(v)
        if k == k_total:
            break
        j = k % LATTICE_BLOCK_STEPS
        if j == 0:
            block = reaction_block(k)
            c_max = np.maximum(c_max, np.max(np.abs(np.log(block))))
        v = march.solve(v)
        v *= block[j]
        v /= h * v.sum(axis=1, keepdims=True)

    c_bound = float(c_max) / dtau
    if float(np.max(np.abs(H))) > c_bound + 1e-9:
        raise SolverError("effective Hamiltonian exceeded the potential bound",
                          max_H=float(np.max(np.abs(H))), bound=c_bound)
    meta = {
        "dtau": dtau,
        "spin_up": float(k_spin * dtau),
        "harnack": harnacks.tolist(),
        "frozen_early_extension": True,
    }
    return EffectiveHamiltonian(z_nodes.copy(), t_record.copy(), H, log_phi,
                                epsilon, meta)


def finite_diff_z(eff: EffectiveHamiltonian) -> tuple[np.ndarray, np.ndarray]:
    """Central-difference d/dz and d2/dz2 tables of the Hamiltonian."""
    if eff.z.size < 5:
        raise ValidationError("need at least 5 trait samples", n=eff.z.size)
    hz = eff.z[1] - eff.z[0]
    H = eff.H
    d1 = np.empty_like(H)
    d2 = np.empty_like(H)
    d1[1:-1] = (H[2:] - H[:-2]) / (2 * hz)
    d1[0] = (-3 * H[0] + 4 * H[1] - H[2]) / (2 * hz)
    d1[-1] = (3 * H[-1] - 4 * H[-2] + H[-3]) / (2 * hz)
    d2[1:-1] = (H[2:] - 2 * H[1:-1] + H[:-2]) / (hz * hz)
    d2[0] = (2 * H[0] - 5 * H[1] + 4 * H[2] - H[3]) / (hz * hz)
    d2[-1] = (2 * H[-1] - 5 * H[-2] + 4 * H[-3] - H[-4]) / (hz * hz)
    return d1, d2
