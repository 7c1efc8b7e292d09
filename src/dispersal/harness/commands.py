"""Command implementations behind the CLI.

Each command takes the validated parameter dict and an output directory,
writes its CSV/JSON/gnuplot artifacts there, and returns a small summary
dict that also lands in meta.json.  Failures raise the package's error
types; run_command converts them into an error.json plus the documented
exit code.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from .. import __version__

from ..bundle import compute_bundle
from ..ecology import ThetaCache, check_H1, construct_alpha, \
    principal_eigenpair, lambda_surface, solve_theta
from ..errors import AcceptanceFailure, DispersalError, ValidationError
from ..grids import ScalarField, SpatialGrid, TraitField
from ..hj import SelfConsistentSource, canonical_ode, lax_oleinik, \
    solve_constrained_hj
from ..kinetic import SimConfig, run
from .config import ExperimentSpec
from .converge import make_m, raise_if_failed, run_convergence, \
    standard_setting, write_run_artifacts
from .io import write_csv, write_json, write_plot_script


def _quadratic_start(tg, k0: float, zbar0: float) -> TraitField:
    return TraitField(tg, k0 * (tg.nodes - zbar0) ** 2)


def cmd_theta(params: dict, out: Path) -> dict:
    sg = SpatialGrid(params["n_x"])
    m = make_m(sg, params["m_amp"])
    theta = solve_theta(params["alpha"], m)
    write_csv(out / "theta.csv", ["x", "m", "theta"],
              [sg.nodes, m.values, theta.values])
    write_plot_script(out / "theta.gp", "resident equilibrium", "x", "density",
                      ["'theta.csv' using 'x':'m' with lines",
                       "'theta.csv' using 'x':'theta' with lines"])
    return {"alpha": params["alpha"],
            "theta_min": float(theta.values.min()),
            "theta_max": float(theta.values.max())}


def cmd_alpha_build(params: dict, out: Path) -> dict:
    if params["samples"] < 1:
        raise ValidationError("alpha-build needs at least 1 sample",
                              samples=params["samples"])
    sg = SpatialGrid(params["n_x"])
    m = make_m(sg, params["m_amp"])
    profile = construct_alpha(params["alpha0"], params["L0"], m)
    zs = np.linspace(profile.a, profile.b, params["samples"])
    write_csv(out / "alpha.csv", ["z", "alpha", "dalpha"],
              [zs, profile(zs), profile.prime(zs)])
    write_plot_script(out / "alpha.gp", "dispersal profile", "z", "rate",
                      ["'alpha.csv' using 'z':'alpha' with lines"])
    return {"argmin": profile.argmin(), "meta": dict(profile.meta)}


def cmd_lambda_surface(params: dict, out: Path) -> dict:
    sg, _, profile, m = standard_setting(params)
    surf = lambda_surface(profile, m, nz1=params["mutants"],
                          nz2=params["residents"])
    n1, n2 = surf.lam.shape
    write_csv(out / "lambda.csv", ["z1", "z2", "lambda", "dlambda_dz1"],
              [np.repeat(surf.z1, n2), np.tile(surf.z2, n1),
               surf.lam.ravel(), surf.dlam_dz1.ravel()])
    write_plot_script(out / "lambda.gp", "invasion exponent",
                      "mutant trait", "resident trait",
                      ["'lambda.csv' using 'z1':'z2':'lambda'"],
                      preamble=["set pm3d", f"set dgrid3d {n1},{n2}",
                                "set hidden3d"],
                      surface=True)
    diag = np.abs([np.interp(z, surf.z2, surf.lam[i])
                   for i, z in enumerate(surf.z1)])
    return {"mutants": n1, "residents": n2,
            "max_abs_diagonal": float(diag.max())}


def cmd_check_h1(params: dict, out: Path) -> dict:
    sg, _, profile, m = standard_setting(params)
    report = check_H1(profile, m, n_samples=params["samples"])
    write_json(out / "h1.json", report.to_dict())
    if not report.passed:
        raise AcceptanceFailure("trait convexity check failed",
                                **report.to_dict())
    return report.to_dict()


def cmd_floquet_test(params: dict, out: Path) -> dict:
    sg, _, profile, m = standard_setting(params)
    alpha_z = float(profile(params["z"]))
    theta = solve_theta(float(profile(params["resident"])), m)
    c = ScalarField(sg, m.values - theta.values)
    bundle = compute_bundle(alpha_z, c, sg, (0.0, params["t_end"]),
                            dtau=params["dtau"])
    eig = principal_eigenpair(alpha_z, c)
    err = float(abs(bundle.H[-1] - eig.lam))
    write_csv(out / "floquet.csv", ["tau", "H"], [bundle.taus, bundle.H])
    write_plot_script(out / "floquet.gp", "bundle normalizer", "tau", "H",
                      ["'floquet.csv' using 'tau':'H' with lines"])
    summary = {"lambda": float(eig.lam), "H_end": float(bundle.H[-1]),
               "abs_error": err, "tol": params["tol"],
               "harnack": bundle.harnack, "passed": bool(err <= params["tol"])}
    if err > params["tol"]:
        raise AcceptanceFailure("frozen-coefficient normalizer does not "
                                "match the eigenvalue", **summary)
    return summary


def _hj_solution(params: dict):
    sg, tg, profile, m = standard_setting(params)
    src = SelfConsistentSource(profile, m, tg)
    v0 = _quadratic_start(tg, params["K0"], params["zbar0"])
    return sg, tg, profile, m, src, v0


def cmd_hj(params: dict, out: Path) -> dict:
    _, tg, _, _, src, v0 = _hj_solution(params)
    sol = solve_constrained_hj(src, v0, params["T"], params["dt"],
                               record_every=params["record_every"])
    write_csv(out / "hj.csv", ["t", "zbar", "sigma", "multiplier"],
              [sol.times, sol.zbar, sol.sigma, sol.multiplier])
    n_rec, n_z = sol.V.shape
    write_csv(out / "V.csv", ["t", "z", "V"],
              [np.repeat(sol.times, n_z), np.tile(tg.nodes, n_rec),
               sol.V.ravel()])
    plots = ["'hj.csv' using 't':'zbar' with lines"]
    summary = {"zbar_end": float(sol.zbar[-1]), "K3": sol.K3,
               "max_drift": sol.max_drift}
    if params["canonical"]:
        can = canonical_ode(src, sol, params["zbar0"], params["T"])
        write_csv(out / "canonical.csv", ["t", "zbar", "sigma"],
                  [can.times, can.zbar, can.sigma])
        plots.append("'canonical.csv' using 't':'zbar' with lines")
        summary["canonical_end"] = float(can.zbar[-1])
    write_plot_script(out / "hj.gp", "trait trajectory", "t", "trait", plots)
    return summary


def cmd_lax_oleinik(params: dict, out: Path) -> dict:
    _, tg, _, _, src, v0 = _hj_solution(params)
    sol = solve_constrained_hj(src, v0, params["T"], params["dt"])
    dp = lax_oleinik(src, v0, params["T"], params["dt_dp"], params["reach"],
                     constrained=True, zbar_path=(sol.times, sol.zbar))
    gap = float(np.abs(sol.V[-1] - dp.V[-1]).max())
    write_csv(out / "lax.csv", ["z", "v_godunov", "v_dp"],
              [tg.nodes, sol.V[-1], dp.V[-1]])
    write_plot_script(out / "lax.gp", "two solvers at the horizon",
                      "z", "value",
                      ["'lax.csv' using 'z':'v_godunov' with lines",
                       "'lax.csv' using 'z':'v_dp' with points"])
    return {"gap": gap, "t_godunov": float(sol.times[-1]),
            "t_dp": float(dp.times[-1])}


def cmd_pde(params: dict, out: Path) -> dict:
    sg, tg, profile, m = standard_setting(params)
    T = params["T"]
    probes = tuple(sorted({p for p in params["probes"]
                           if p <= T + 1e-12} | {T}))
    cfg = SimConfig(params["eps"], T, sg, tg, profile, m,
                    K0=params["K0"], zbar0=params["zbar0"],
                    c_t=params["c_t"], out_stride=params["out_stride"],
                    history_stride=params["history_stride"])
    res = run(cfg, probe_times=probes)
    write_run_artifacts(out, res, dict(params))
    return {"zbar_end": float(res.zbar[-1]), "mass_end": float(res.mass[-1]),
            "envelope": list(res.envelope),
            "violations": len(res.violations)}


def cmd_converge(params: dict, out: Path) -> dict:
    report = run_convergence(params, out)
    raise_if_failed(report)
    return report.to_dict()


def cmd_pipeline(params: dict, out: Path) -> dict:
    sg, tg, profile, m = standard_setting(params)
    T, eps = params["T"], params["eps"]
    # one theta cache for both: residents shared by the H1 grid and the
    # source's grid are the same traits, so sharing changes no number
    cache = ThetaCache(profile, m)
    h1 = check_H1(profile, m, cache=cache)
    if not h1.passed:
        raise AcceptanceFailure("trait convexity check failed",
                                **h1.to_dict())

    src = SelfConsistentSource(profile, m, tg, cache=cache)
    v0 = _quadratic_start(tg, params["K0"], params["zbar0"])
    sol = solve_constrained_hj(src, v0, T, params["dt"], record_every=10)
    can = canonical_ode(src, sol, params["zbar0"], T)

    cfg = SimConfig(eps, T, sg, tg, profile, m, K0=params["K0"],
                    zbar0=params["zbar0"], c_t=params["c_t"])
    res = run(cfg, probe_times=(T,))
    write_run_artifacts(out / "pde", res, dict(params))

    zb_lim = np.interp(res.times, can.times, can.zbar)
    write_csv(out / "zbar_compare.csv", ["t", "zbar_eps", "zbar_limit"],
              [res.times, res.zbar, zb_lim])
    write_plot_script(out / "pipeline.gp", "trait trajectories", "t", "trait",
                      ["'zbar_compare.csv' using 't':'zbar_eps' with lines",
                       "'zbar_compare.csv' using 't':'zbar_limit' with lines"])

    theta_T = src.cache.theta(float(can.at(T)))
    u_T = res.u_snaps[T]
    v_T = sol.V[-1]
    offset = 0.5 * eps * np.log(eps)
    summary = {
        "h1": h1.to_dict(),
        "zbar_gap_end": float(abs(res.zbar[-1] - can.zbar[-1])),
        "rho_gap_end": float(
            np.abs(res.rho_history.values[-1] - theta_T.values).max()),
        "u_gap_end": float(
            np.abs(u_T.mean(axis=0) - offset - v_T).max()),
        "mass_end": float(res.mass[-1]),
        "envelope": list(res.envelope),
    }
    write_json(out / "pipeline.json", summary)
    return summary


_COMMANDS = {
    "theta": cmd_theta,
    "alpha-build": cmd_alpha_build,
    "lambda-surface": cmd_lambda_surface,
    "check-h1": cmd_check_h1,
    "floquet-test": cmd_floquet_test,
    "hj": cmd_hj,
    "lax-oleinik": cmd_lax_oleinik,
    "pde": cmd_pde,
    "converge": cmd_converge,
    "pipeline": cmd_pipeline,
}


def run_command(spec: ExperimentSpec) -> int:
    out = spec.out_dir
    out.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    try:
        summary = _COMMANDS[spec.command](spec.params, out)
    except DispersalError as exc:
        payload = exc.to_json_dict()
        write_json(out / "error.json", payload)
        print(json.dumps(payload, allow_nan=False), file=sys.stderr)
        return exc.exit_code
    write_json(out / "summary.json", {
        "command": spec.command,
        "params": spec.params,
        "sources": spec.sources,
        "summary": summary,
        "versions": {"dispersal": __version__,
                     "numpy": np.__version__, "scipy": scipy.__version__},
        "wall_time_s": time.perf_counter() - started,
    })
    return 0
