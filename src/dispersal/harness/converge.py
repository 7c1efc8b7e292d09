"""The cross-module convergence pipeline.

For each scale in a decreasing list the full phase-space model is run and
reduced to the quantities the limit theory predicts: the dominant trait
against the canonical trajectory, the integrated density against the
resident equilibrium along the limit path, the WKB value against the
constrained HJ solution, the trait-marginal concentration width, and the
effective Hamiltonian against the invasion exponent.  The report records
each metric per scale and verdicts of weak decrease (10% slack).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..bundle import effective_hamiltonian
from ..ecology import ThetaCache, construct_alpha
from ..errors import ValidationError
from ..grids import SpatialGrid, TraitField, TraitGrid, default_m
from ..hj import HJSolution, SelfConsistentSource, canonical_ode, hj_steps, \
    solve_constrained_hj
from ..kinetic import RunResult, SimConfig, run
from .io import write_csv, write_json, write_plot_script

TREND_SLACK = 1.1        # weak decrease tolerance along the scale list
EARLY_RECORD_MULTIPLES = (0.25, 0.5, 1.0, 1.5, 2.0, 3.0)


def standard_setting(params: dict) -> ThetaCache:
    """The run's one resident ecology; its habitat grid is `cache.m.grid`."""
    sg = SpatialGrid(params["n_x"])
    m = default_m(sg, params["m_amp"])
    profile = construct_alpha(params["alpha0"], params["L0"], m)
    return ThetaCache(profile, m)


def limit_march(cache: ThetaCache, tg: TraitGrid, params: dict, dt: float,
                record_every: int = 1
                ) -> tuple[SelfConsistentSource, TraitField, HJSolution]:
    """The rare-mutation limit of a run: its self-consistent source, the
    quadratic start K0 (z - zbar0)^2 and the constrained HJ march to T."""
    src = SelfConsistentSource(cache, tg)
    v0 = TraitField(tg, params["K0"] * (tg.nodes - params["zbar0"]) ** 2)
    sol = solve_constrained_hj(src, v0, params["T"], dt,
                               record_every=record_every)
    return src, v0, sol


def scale_config(cache: ThetaCache, tg: TraitGrid, params: dict,
                 eps: float) -> SimConfig:
    """The kinetic run at scale eps of a command's parameters; building it
    checks every kinetic input, step cap and record rule included."""
    keys = ("K0", "zbar0", "c_t", "out_stride", "history_stride")
    return SimConfig(eps, params["T"], tg, cache.profile, cache.m,
                     **{k: params[k] for k in keys if k in params})


def run_scale(out: Path, cfg: SimConfig, params: dict,
              probes: tuple) -> RunResult:
    """The kinetic run `cfg`, its artifacts written to `out`: WKB snapshots
    at the `probes` up to T and at T itself."""
    T, tg = cfg.T, cfg.trait
    res = run(cfg, probe_times=tuple(sorted(
        {p for p in probes if p <= T + 1e-12} | {T})))
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "run.csv",
              ["t", "zbar_eps", "mass", "rho_min", "rho_max"],
              [res.times, res.zbar, res.mass, res.rho_min, res.rho_max])
    hist = res.rho_history
    n_t, n_x = hist.values.shape
    xs = cfg.m.grid.nodes
    write_csv(out / "rho.csv", ["t", "x", "rho"],
              [np.repeat(hist.times, n_x), np.tile(xs, n_t),
               hist.values.ravel()])
    for pt, u in sorted(res.u_snaps.items()):
        n_xs, n_z = u.shape
        write_csv(out / f"u_snap_{pt:g}.csv", ["z", "x", "u"],
                  [np.repeat(tg.nodes, n_xs), np.tile(xs, n_z), u.T.ravel()])
    write_json(out / "meta.json", {
        "config": {**params, "eps": cfg.epsilon},
        "envelope": list(res.envelope),
        "violations": list(res.violations),
        "steps": res.steps,
        "dt": cfg.dt,
    })
    write_plot_script(out / "run.gp", "dominant trait", "t", "trait",
                      ["'run.csv' using 't':'zbar_eps' with lines"])
    return res


def weakly_decreasing(values) -> bool:
    v = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(v)):
        return False
    return bool(np.all(v[1:] <= TREND_SLACK * v[:-1]))


def _h_record_times(eps: float, t_lo_unif: float, t_hi: float) -> np.ndarray:
    early = eps * np.asarray(EARLY_RECORD_MULTIPLES)
    unif = np.arange(t_lo_unif, t_hi + 1e-12, 0.05)
    ts = np.unique(np.concatenate([early[early < t_lo_unif], unif]))
    return ts[ts <= t_hi + 1e-12]


def run_convergence(params: dict, out_dir: Path) -> dict:
    """Run every scale of `eps_list` and return the report.json dict:
    `eps_list`, the per-scale `metrics` lists, the weak-decrease
    `verdicts`, `passed` and the `extras`."""
    eps_list = tuple(params["eps_list"])
    if len(eps_list) < 3 or not np.all(np.diff(eps_list) < 0.0):
        raise ValidationError("scale list must be strictly decreasing with "
                              "at least three entries", eps_list=eps_list)
    T, t_lo, h_t_lo = params["T"], params["t_lo"], params["h_t_lo"]
    h_t_hi = min(params["h_t_hi"], T)
    t_recs = {eps: _h_record_times(eps, 0.05, h_t_hi) for eps in eps_list}
    if not t_lo <= T or params["with_h"] and not all(
            np.any(t >= h_t_lo - 1e-12) for t in t_recs.values()):
        raise ValidationError("a comparison window is empty", t_lo=t_lo, T=T,
                              h_t_lo=h_t_lo, h_t_hi=h_t_hi)
    tg = TraitGrid(params["n_z"])
    # the march's own input check before the profile is built
    hj_steps(tg, T, params["hj_dt"], 10)
    cache = standard_setting(params)
    # every scale's kinetic inputs before the limit
    cfgs = [scale_config(cache, tg, params, eps) for eps in eps_list]

    src, _, sol = limit_march(cache, tg, params, params["hj_dt"],
                              record_every=10)
    can = canonical_ode(src, (sol.times, sol.sigma), params["zbar0"], T)

    cols = {k: [] for k in ("zbar_gap", "rho_gap", "u_gap", "x_osc", "width",
                            "h_gap", "h_int", "env_lo", "env_hi")}
    violations, runs = [], []
    for eps, cfg in zip(eps_list, cfgs):
        res = run_scale(out_dir / f"eps_{eps:g}", cfg, params,
                        params["u_probes"])
        violations.append(len(res.violations))

        zb_lim = np.interp(res.times, can.times, can.zbar)
        cols["zbar_gap"].append(float(np.abs(res.zbar - zb_lim).max()))

        hist = res.rho_history
        gap = 0.0
        for i, tv in enumerate(hist.times):
            if tv < t_lo - 1e-12:
                continue
            theta = cache.theta(float(np.interp(tv, can.times, can.zbar)))
            gap = max(gap, float(np.abs(hist.values[i] - theta.values).max()))
        cols["rho_gap"].append(gap)

        offset = 0.5 * eps * np.log(eps)
        u_gap = x_osc = 0.0
        for pt, u in sorted(res.u_snaps.items()):
            v_t = sol.V[int(np.argmin(np.abs(sol.times - pt)))]
            u_gap = max(u_gap,
                        float(np.abs(u.mean(axis=0) - offset - v_t).max()))
            x_osc = max(x_osc, float((u.max(axis=0) - u.min(axis=0)).max()))
        cols["u_gap"].append(u_gap)
        cols["x_osc"].append(x_osc)

        marginal = np.exp(-res.u_snaps[T] / eps).mean(axis=0)
        w = marginal / marginal.sum()
        second = float((w * (tg.nodes - res.zbar[-1]) ** 2).sum())
        cols["width"].append(float(np.sqrt(second)))

        lo, hi = res.envelope
        cols["env_lo"].append(float(lo))
        cols["env_hi"].append(float(hi))
        runs.append(res)

    effs = []
    if params["with_h"]:
        # one bundle march for every scale, after every kinetic run
        z_samp = np.linspace(tg.a + tg.h_z / 2, tg.b - tg.h_z / 2,
                             params["z_samples"])
        effs = effective_hamiltonian(
            [(res.rho_history, eps, t_recs[eps])
             for eps, res in zip(eps_list, runs)],
            cache.profile, z_samp, cache.m)
    for res, eff in zip(runs, effs):
        t_rec = eff.t
        lam = np.stack([src.rate(eff.z, 0.0, zbar=res.zbar_at(t))
                        for t in t_rec], axis=1)
        mask = (t_rec >= h_t_lo - 1e-12)
        cols["h_gap"].append(float(np.abs(eff.H[:, mask]
                                          - lam[:, mask]).max()))
        h_bar = np.array([float(np.interp(res.zbar_at(t), eff.z,
                                          eff.H[:, k]))
                          for k, t in enumerate(t_rec)])
        head = h_bar[0] * t_rec[0]
        cums = np.concatenate(
            [[head],
             head + np.cumsum(0.5 * (h_bar[1:] + h_bar[:-1])
                              * np.diff(t_rec))])
        cols["h_int"].append(float(np.abs(cums).max()))
    if not effs:
        cols["h_gap"] = [float("nan")] * len(eps_list)
        cols["h_int"] = [float("nan")] * len(eps_list)

    trend_names = ["zbar_gap", "rho_gap", "u_gap", "width"]
    if params["with_h"]:
        trend_names += ["h_gap", "h_int"]
    verdicts = {name: weakly_decreasing(cols[name]) for name in trend_names}
    passed = all(verdicts.values())

    ratios = np.asarray(cols["x_osc"]) / np.asarray(eps_list)
    extras = {
        "x_osc_over_eps": [float(r) for r in ratios],
        "x_osc_fitted_C": float(ratios.max()),
        "x_osc_stable": bool(ratios.max() <= 1.25 * ratios.min()),
        "violations": violations,
        "envelope_stable_2x": bool(
            max(cols["env_hi"]) <= 2.0 * min(cols["env_hi"])
            and max(cols["env_lo"]) <= 2.0 * min(cols["env_lo"])
            and min(cols["env_lo"]) > 0.0),
        "limit_zbar_end": float(can.zbar[-1]),
    }

    report = {"eps_list": list(eps_list), "metrics": cols,
              "verdicts": verdicts, "passed": passed, "extras": extras}
    out_dir.mkdir(parents=True, exist_ok=True)
    names = ["eps"] + list(cols)
    write_csv(out_dir / "report.csv", names,
              [np.asarray(eps_list)] + [np.asarray(cols[k]) for k in cols])
    write_json(out_dir / "report.json", report)
    write_plot_script(
        out_dir / "report.gp", "convergence trends", "eps", "sup gap",
        [f"'report.csv' using 'eps':'{name}' with linespoints"
         for name in ("zbar_gap", "rho_gap", "u_gap", "width")],
        preamble=["set logscale xy"])
    return report
