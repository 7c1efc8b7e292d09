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

from .ecology import spectral_gap
from .errors import SolverError, ValidationError
from .grids import MAX_STEPS, ScalarField, TimeIndexedField, check_records
from .tridiag import diffusion_factor, solve_in_place

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


def effective_hamiltonian(scales, profile, z_samples: np.ndarray,
                          m: ScalarField, *, dtau: float = DEFAULT_DTAU,
                          spin_up: float | None = None
                          ) -> list[EffectiveHamiltonian]:
    """Effective Hamiltonians H_eps(z, t) for the potentials m - rho_eps.

    `scales` holds triples (rho_history, epsilon, t_record) that share the
    other arguments; one table is returned per scale, in input order.  Every
    trait of every scale marches in lockstep, in its scale's fast time
    tau = t/epsilon, as a row of one (scales, n_z, n_x) buffer that a step
    updates in place: one implicit diffusion solve through the held factor
    of uncoupled blocks, so that every row keeps the bits of its own march,
    then each scale's reaction factor and a per-row renormalization to unit
    mass.  The potential is frozen below t = epsilon, so also through the
    spin-up that precedes the history (recorded in the metadata).  Scales
    march by decreasing step count and drop out as they end; reaction
    factors are built LATTICE_BLOCK_STEPS // scales steps at a time, so
    memory grows neither with the horizon nor with the scales.  Harnack
    ratios sup Phi / inf Phi are kept per trait, every recorded profile is
    checked positive, and every scale is checked, step cap and record rule
    included, before the first step.
    """
    if len(scales) == 0:
        raise ValidationError("the bundle march needs at least one scale")
    for _, epsilon, _ in scales:
        if epsilon <= 0.0:
            raise ValidationError("epsilon must be positive", epsilon=epsilon)
    if not dtau > 0.0:
        raise ValidationError("dtau must be positive", dtau=dtau)
    t_recs = [np.asarray(t_record, dtype=float) for _, _, t_record in scales]
    if any(t.size == 0 or np.any(t < 0.0) for t in t_recs):
        raise ValidationError("record times must be nonnegative")
    z_nodes = np.asarray(z_samples, dtype=float)
    if z_nodes.ndim != 1 or z_nodes.size == 0:
        raise ValidationError("trait samples must form a nonempty 1-d array")
    h, n_x, n_z = m.grid.h_x, m.grid.n_x, z_nodes.size
    alphas = np.asarray(profile(z_nodes), dtype=float)
    plans = [_plan(hist, epsilon, t_record, m, alphas, dtau, spin_up)
             for (hist, epsilon, _), t_record in zip(scales, t_recs)]

    march = sorted(plans, key=lambda plan: -plan["k_total"])
    records = {}                          # step -> [(march position, slot)]
    for i, plan in enumerate(march):
        for slot, k in enumerate(plan["rec_steps"].tolist()):
            records.setdefault(k, []).append((i, slot))
    live = len(march)
    block_steps = max(LATTICE_BLOCK_STEPS // live, 1)
    blocks = np.empty((block_steps, live, 1, n_x))
    mus = dtau * alphas
    factor = diffusion_factor(n_x, h, np.tile(mus, live))
    v = np.ones((live, n_z, n_x))         # a profile per scale and trait
    flat = v.reshape(-1)                  # the same memory, as solved
    for k in range(march[0]["k_total"] + 1):
        for i, slot in records.get(k, ()):
            plan, rows = march[i], v[i]
            v_min = rows.min(axis=1)
            if v_min.min() <= 0.0:
                raise SolverError("bundle lost positivity",
                                  min_value=float(v_min.min()),
                                  t=float(plan["t"][slot]))
            plan["harnack"] = np.maximum(plan["harnack"],
                                         rows.max(axis=1) / v_min)
            plan["H"][:, slot] = -h * (rows @ plan["c_rec"][slot])
            plan["log_phi"][:, slot] = -np.log(rows)
        if march[live - 1]["k_total"] == k:
            live = sum(plan["k_total"] > k for plan in march)
            if live == 0:
                break
            # the blocks are uncoupled: each keeps the factor it had
            v, blocks = v[:live], blocks[:, :live]
            flat = v.reshape(-1)
            factor = diffusion_factor(n_x, h, np.tile(mus, live))
        j = k % block_steps
        if j == 0:
            for i, plan in enumerate(march[:live]):
                # exp(dtau * c) at the midpoints of the block's steps
                taus_mid = (np.arange(k, min(k + block_steps, plan["k_total"]))
                            - plan["k_spin"] + 0.5) * dtau
                rho = plan["history"].at(plan["epsilon"]
                                         * np.maximum(taus_mid, 1.0))
                block = np.exp(dtau * (m.values[None, :] - rho))
                blocks[:block.shape[0], i, 0] = block
                plan["c_max"] = np.maximum(plan["c_max"],
                                           np.max(np.abs(np.log(block))))
        solve_in_place(factor, flat)
        v *= blocks[j]
        v /= h * v.sum(axis=2, keepdims=True)

    for plan in plans:
        max_H = float(np.max(np.abs(plan["H"])))
        c_bound = float(plan["c_max"]) / dtau
        if max_H > c_bound + 1e-9:
            raise SolverError("effective Hamiltonian exceeded the potential "
                              "bound", max_H=max_H, bound=c_bound)
    return [EffectiveHamiltonian(
        z_nodes.copy(), plan["t"].copy(), plan["H"], plan["log_phi"],
        plan["epsilon"], {"dtau": dtau,
                          "spin_up": float(plan["k_spin"] * dtau),
                          "harnack": plan["harnack"].tolist()})
        for plan in plans]


def _plan(rho_history: TimeIndexedField, epsilon: float, t_record: np.ndarray,
          m: ScalarField, alphas: np.ndarray, dtau: float,
          spin_up: float | None) -> dict:
    """One scale's checked step counts and record steps, and its march
    state: the tables, the Harnack ratios and the running max |dtau * c|."""
    # every record holds one n_x profile per trait
    check_records("recorded march", t_record.size, alphas.size * m.grid.n_x)

    def c_slow(t: float) -> np.ndarray:
        return m.values - rho_history.at(max(t, epsilon))

    # spin-up sized by the smallest dispersal rate, the slowest-attracting case
    if spin_up is None:
        t_end = float(t_record.max())
        cbar = np.mean([c_slow(float(s)) for s in
                        np.linspace(0.0, max(t_end, epsilon), 33)], axis=0)
        gap = spectral_gap(float(alphas.min()), ScalarField(m.grid, cbar))
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
    shape = (alphas.size, t_record.size)
    return {"history": rho_history, "epsilon": epsilon, "t": t_record,
            "k_spin": k_spin, "k_total": k_spin + int(window_steps),
            "rec_steps": k_spin + np.round(t_record / epsilon / dtau)
            .astype(int),
            "c_rec": m.values - rho_history.at(np.maximum(t_record, epsilon)),
            "H": np.empty(shape), "log_phi": np.empty(shape + (m.grid.n_x,)),
            "harnack": np.zeros(alphas.size), "c_max": 0.0}

