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

import os
import pickle
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from ..bundle import effective_hamiltonian
from ..ecology import ThetaCache, construct_alpha
from ..errors import SolverError, ValidationError
from ..grids import SpatialGrid, TraitField, TraitGrid, check_records, \
    default_m
from ..hj import HJSolution, SelfConsistentSource, canonical_ode, hj_steps, \
    initial_values, solve_constrained_hj
from ..kinetic import RunResult, SimConfig, forked, run
from .io import write_csv, write_json, write_plot_script

TREND_SLACK = 1.1        # weak decrease tolerance along the scale list
EARLY_RECORD_MULTIPLES = (0.25, 0.5, 1.0, 1.5, 2.0, 3.0)
LIMIT_STRIDE = 10        # the limit march records every 10th HJ step


def standard_setting(params: dict) -> ThetaCache:
    """The run's one resident ecology; its habitat grid is `cache.m.grid`."""
    sg = SpatialGrid(params["n_x"])
    m = default_m(sg, params["m_amp"])
    profile = construct_alpha(params["alpha0"], params["L0"], m)
    return ThetaCache(profile, m)


def limit_start(tg: TraitGrid, params: dict, dt: float,
                record_every: int = 1) -> tuple[TraitField, int]:
    """The limit's checked start K0 (z - zbar0)^2 and its march's records."""
    _, n_records = hj_steps(tg, params["T"], dt, record_every)
    v0 = TraitField(tg, params["K0"] * (tg.nodes - params["zbar0"]) ** 2)
    initial_values(v0)
    return v0, n_records


def limit_march(cache: ThetaCache, v0: TraitField, T: float, dt: float,
                record_every: int = 1
                ) -> tuple[SelfConsistentSource, HJSolution]:
    """The self-consistent source and the constrained HJ march from v0 to T."""
    src = SelfConsistentSource(cache, v0.grid)
    return src, solve_constrained_hj(src, v0, T, dt,
                                     record_every=record_every)


def rho_gap(rho: np.ndarray, t: float, can, cache: ThetaCache) -> float:
    """sup_x |rho - theta(can.at(t))|, theta the resident equilibrium."""
    return float(np.abs(rho - cache.theta(can.at(t)).values).max())


def wkb_gap(u: np.ndarray, eps: float, v: np.ndarray) -> float:
    """sup_z |mean_x u - 0.5 eps log eps - v|, the offset being the one that
    the eps^(-1/2) amplitude of `kinetic.init_population` puts into u."""
    return float(np.abs(u.mean(axis=0) - 0.5 * eps * np.log(eps) - v).max())


def scale_config(tg: TraitGrid, params: dict, eps: float, probes) -> SimConfig:
    """The kinetic run at scale eps, with WKB snapshots at the `probes` up
    to T and at T; building it checks every kinetic input and probe time."""
    T = params["T"]
    keys = ("K0", "zbar0", "c_t", "out_stride", "history_stride")
    return SimConfig(eps, T, tg, SpatialGrid(params["n_x"]),
                     probes=tuple(sorted({p for p in probes if p <= T + 1e-12}
                                         | {T})),
                     **{k: params[k] for k in keys if k in params})


def write_scale(out: Path, cfg: SimConfig, params: dict,
                res: RunResult) -> None:
    """The artifacts of `res`, the kinetic run of `cfg`, written to `out`."""
    tg = cfg.trait
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "run.csv",
              ["t", "zbar_eps", "mass", "rho_min", "rho_max"],
              [res.times, res.zbar, res.mass, res.rho_min, res.rho_max])
    hist = res.rho_history
    n_t, n_x = hist.values.shape
    xs = cfg.space.nodes
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


@contextmanager
def forked_run(cfg: SimConfig, cache: ThetaCache):
    """Yield a function that returns the run of `cfg` in `cache`, marched
    in a child `forked` at the start of the block, or raises its error.
    Leaving the block, on every path, kills and reaps the child."""
    # fork, since the cache's profile holds closures that do not pickle:
    # only the result or the error crosses the pipe
    reader, writer = map(open, os.pipe(), ("rb", "wb"))

    def work():
        reader.close()
        try:
            out = run(cfg, cache)
        except Exception as exc:
            out = exc
        with writer:
            writer.write(pickle.dumps(out))

    with reader, writer, forked(work) as reap:
        writer.close()

        def result() -> RunResult:
            try:
                out = pickle.loads(reader.read())
            except (EOFError, pickle.UnpicklingError):
                # the child died before it sent all of its result
                raise SolverError("kinetic run ended without a result",
                                  epsilon=cfg.epsilon, exitcode=reap()
                                  ) from None
            if isinstance(out, Exception):
                raise out
            return out

        yield result


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
    """Run every scale of `eps_list`, the finest through `forked_run` in one
    child beside the limit and the coarser scales, and return the
    report.json dict: `eps_list`, the per-scale `metrics` lists, the
    weak-decrease `verdicts`, `passed` and the `extras`."""
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
    v0, _ = limit_start(tg, params, params["hj_dt"], LIMIT_STRIDE)
    cfgs = [scale_config(tg, params, eps, params["u_probes"])
            for eps in eps_list]
    n_h = params["z_samples"]
    if params["with_h"]:
        if n_h < 1:
            raise ValidationError("the H table needs at least 1 trait sample",
                                  z_samples=n_h)
        # the bundle's record rule: each record holds n_x values per trait
        check_records("recorded march", max(t.size for t in t_recs.values()),
                      n_h * params["n_x"])
    cache = standard_setting(params)

    cols = {k: [] for k in ("zbar_gap", "rho_gap", "u_gap", "x_osc", "width",
                            "h_gap", "h_int", "env_lo", "env_hi")}
    violations, runs = [], []
    # the finest scale, the longest run, marches in a child beside the limit
    # and the coarser scales; the loop takes its result in turn
    with forked_run(cfgs[-1], cache) as finest:
        src, sol = limit_march(cache, v0, T, params["hj_dt"], LIMIT_STRIDE)
        can = canonical_ode(src, (sol.times, sol.sigma), params["zbar0"], T)
        for eps, cfg in zip(eps_list, cfgs):
            res = finest() if cfg is cfgs[-1] else run(cfg, cache)
            write_scale(out_dir / f"eps_{eps:g}", cfg, params, res)
            violations.append(len(res.violations))

            zb_lim = np.interp(res.times, can.times, can.zbar)
            cols["zbar_gap"].append(float(np.abs(res.zbar - zb_lim).max()))

            hist = res.rho_history
            cols["rho_gap"].append(max(
                0.0, *(rho_gap(rho, t, can, cache)
                       for t, rho in zip(hist.times, hist.values)
                       if t >= t_lo - 1e-12)))

            u_gap = x_osc = 0.0
            for pt, u in sorted(res.u_snaps.items()):
                v_t = sol.V[int(np.argmin(np.abs(sol.times - pt)))]
                u_gap = max(u_gap, wkb_gap(u, eps, v_t))
                x_osc = max(x_osc,
                            float((u.max(axis=0) - u.min(axis=0)).max()))
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
        z_samp = np.linspace(tg.a + tg.h_z / 2, tg.b - tg.h_z / 2, n_h)
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
