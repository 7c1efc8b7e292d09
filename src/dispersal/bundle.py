"""Normalized principal Floquet bundles and the effective Hamiltonian.

For a parabolic operator with time-dependent potential c(x, tau) the bundle
is the positive solution pair (Phi, H) with unit spatial mass at every time;
H(tau) = -int c Phi dx is the instantaneous normalizer.  Eternal solutions
are approximated by spin-up marching: the bundle attracts at the spectral
gap, so a window of 20/gap forgets the initial profile to ~1e-8.

The effective Hamiltonian of the full model is the bundle normalizer for the
potential m - rho_eps in fast time tau = t/epsilon, with rho frozen below
t = epsilon.  A resident frozen at all times (epsilon = 1 and a constant
rho history) gives the bundle of a steady potential, whose normalizer is
the principal eigenvalue; `floquet-test` checks exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import SolverError, ValidationError
from .grids import MAX_STEPS, ScalarField, TimeIndexedField
from .tridiag import BlockDiffusion

DEFAULT_DTAU = 1e-3
SPINUP_FACTOR = 20.0  # spin-up duration in units of inverse spectral gap
LATTICE_BLOCK_STEPS = 1024  # march steps whose reaction factors are built at once


@dataclass(frozen=True)
class EffectiveHamiltonian:
    """Trait x time table of bundle normalizers for the model's potential."""

    z: np.ndarray          # trait samples
    t: np.ndarray          # slow times
    H: np.ndarray          # (n_z, n_t)
    log_phi: np.ndarray    # (n_z, n_t, n_x), the WKB corrector -log Phi
    epsilon: float
    meta: dict = field(default_factory=dict)


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
    Harnack ratio sup Phi / inf Phi is kept per trait, and every recorded
    profile is checked to be strictly positive.  A march of more than
    MAX_STEPS steps is rejected up front.
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

    # float step counts first: a tiny dtau overflows them past any int
    spin_steps = np.ceil(spin_up / dtau)
    window_steps = np.ceil(float(t_record.max()) / epsilon / dtau)
    if not spin_steps + window_steps <= MAX_STEPS:
        raise ValidationError("bundle march exceeds the step cap",
                              dtau=dtau, spin_up=spin_up,
                              steps=spin_steps + window_steps, cap=MAX_STEPS)
    k_spin = int(spin_steps)
    k_total = k_spin + int(window_steps)
    rec_steps = k_spin + np.round(t_record / epsilon / dtau).astype(int)
    rec_of_step = {}
    for slot, k in enumerate(rec_steps):
        rec_of_step.setdefault(int(k), []).append(slot)

    def reaction_block(k0: int) -> np.ndarray:
        """exp(dtau * c) at the midpoints of the block of steps from k0."""
        taus_mid = (np.arange(k0, min(k0 + LATTICE_BLOCK_STEPS, k_total))
                    - k_spin + 0.5) * dtau
        rho = rho_history.at(epsilon * np.maximum(taus_mid, 1.0))
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
            v_min = v.min(axis=1)
            if v_min.min() <= 0.0:
                raise SolverError("bundle lost positivity",
                                  min_value=float(v_min.min()),
                                  t=float(t_record[slots[0]]))
            harnacks = np.maximum(harnacks, v.max(axis=1) / v_min)
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
