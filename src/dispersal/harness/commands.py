"""Command implementations behind the CLI.

Each command takes the validated parameter dict and an output directory,
writes its CSV/JSON/gnuplot artifacts there, and returns a small summary
dict that `cli.main` writes to summary.json.  Every command checks each
input that needs no dispersal profile before `standard_setting` builds one.
Failures raise the package's error types; `cli.main`, which owns the CLI
contract, turns them into error.json plus the documented exit code.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..bundle import effective_hamiltonian
from ..ecology import check_H1, check_h1_samples, lambda_surface, \
    potential, principal_eigenpair, solve_theta
from ..errors import AcceptanceFailure, ValidationError
from ..grids import SpatialGrid, TimeIndexedField, TraitGrid, \
    check_records, default_m
from ..hj import canonical_ode, lax_oleinik, lax_oleinik_steps
from ..kinetic import run
from .converge import LIMIT_STRIDE, forked_run, limit_march, limit_start, \
    rho_gap, run_convergence, scale_config, standard_setting, wkb_gap, \
    write_scale
from .io import write_csv, write_json, write_plot_script


V_CSV_MAX_ROWS = 1_000_000  # cap on the rows of hj's V.csv, about 45 MB


def cmd_theta(params: dict, out: Path) -> dict:
    sg = SpatialGrid(params["n_x"])
    m = default_m(sg, params["m_amp"])
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
    check_records("alpha.csv", params["samples"], 3)
    profile = standard_setting(params).profile
    zs = np.linspace(profile.a, profile.b, params["samples"])
    write_csv(out / "alpha.csv", ["z", "alpha", "dalpha"],
              [zs, profile(zs), profile.prime(zs)])
    write_plot_script(out / "alpha.gp", "dispersal profile", "z", "rate",
                      ["'alpha.csv' using 'z':'alpha' with lines"])
    return {"argmin": profile.argmin(), "meta": dict(profile.meta)}


def cmd_lambda_surface(params: dict, out: Path) -> dict:
    n1, n2 = params["mutants"], params["residents"]
    if min(n1, n2) < 1:
        raise ValidationError("exponent surface needs at least 1 trait "
                              "sample per axis", nz1=n1, nz2=n2)
    check_records("lambda.csv", n1 * n2, 4)
    cache = standard_setting(params)
    z1s = np.linspace(cache.profile.a, cache.profile.b, n1)
    z2s = np.linspace(cache.profile.a, cache.profile.b, n2)
    lam, dlam, _ = lambda_surface(z1s, z2s, cache)
    write_csv(out / "lambda.csv", ["z1", "z2", "lambda", "dlambda_dz1"],
              [np.repeat(z1s, n2), np.tile(z2s, n1), lam.ravel(),
               dlam.ravel()])
    write_plot_script(out / "lambda.gp", "invasion exponent",
                      "mutant trait", "resident trait",
                      ["'lambda.csv' using 'z1':'z2':'lambda'"],
                      preamble=["set pm3d", f"set dgrid3d {n1},{n2}",
                                "set hidden3d"],
                      surface=True)
    diag = np.abs([np.interp(z, z2s, lam[i]) for i, z in enumerate(z1s)])
    return {"mutants": n1, "residents": n2,
            "max_abs_diagonal": float(diag.max())}


def cmd_check_h1(params: dict, out: Path) -> dict:
    check_h1_samples(params["samples"])
    report = check_H1(standard_setting(params), n_samples=params["samples"])
    write_json(out / "h1.json", report)
    if not report["pass"]:
        raise AcceptanceFailure("trait convexity check failed", **report)
    return report


def cmd_floquet_test(params: dict, out: Path) -> dict:
    dtau, t_end = params["dtau"], params["t_end"]
    if not (dtau > 0.0 and t_end >= 0.0):
        raise ValidationError("floquet-test needs dtau > 0 and t_end >= 0",
                              dtau=dtau, t_end=t_end)
    window = np.round(t_end / dtau)
    check_records("recorded march", window + 1, params["n_x"])  # the bundle's
    cache = standard_setting(params)
    profile, m = cache.profile, cache.m
    # the one check that needs the profile: its trait interval
    traits = {k: params[k] for k in ("z", "resident")}
    if not all(profile.a < t < profile.b for t in traits.values()):
        raise ValidationError("traits must be interior",
                              a=profile.a, b=profile.b, **traits)
    theta = cache.theta(params["resident"])
    # the resident frozen at every time: epsilon = 1 puts the whole march,
    # spin-up included, past the history's last sample, which is theta
    frozen = TimeIndexedField([0.0, 1.0], [theta.values, theta.values])
    taus = dtau * np.arange(int(window) + 1)
    eff, = effective_hamiltonian([(frozen, 1.0, taus)], profile, [params["z"]],
                                 m, dtau=dtau)
    H = eff.H[0]
    lam, _, _ = principal_eigenpair(float(profile(params["z"])),
                                    potential(m, theta))
    err = float(abs(H[-1] - lam))
    write_csv(out / "floquet.csv", ["tau", "H"], [taus, H])
    write_plot_script(out / "floquet.gp", "bundle normalizer", "tau", "H",
                      ["'floquet.csv' using 'tau':'H' with lines"])
    summary = {"lambda": lam, "H_end": float(H[-1]),
               "abs_error": err, "tol": params["tol"],
               "harnack": eff.meta["harnack"][0],
               "passed": bool(err <= params["tol"])}
    if err > params["tol"]:
        raise AcceptanceFailure("frozen-coefficient normalizer does not "
                                "match the eigenvalue", **summary)
    return summary


def cmd_hj(params: dict, out: Path) -> dict:
    tg = TraitGrid(params["n_z"])
    v0, n_records = limit_start(tg, params, params["dt"],
                                params["record_every"])
    if not n_records * tg.n_z <= V_CSV_MAX_ROWS:
        raise ValidationError("V.csv would exceed the row cap",
                              rows=n_records * tg.n_z, cap=V_CSV_MAX_ROWS)
    src, sol = limit_march(standard_setting(params), v0, params["T"],
                           params["dt"], params["record_every"])
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
        can = canonical_ode(src, (sol.times, sol.sigma), params["zbar0"],
                            params["T"])
        write_csv(out / "canonical.csv", ["t", "zbar", "sigma"],
                  [can.times, can.zbar, can.sigma])
        plots.append("'canonical.csv' using 't':'zbar' with lines")
        summary["canonical_end"] = float(can.zbar[-1])
    write_plot_script(out / "hj.gp", "trait trajectory", "t", "trait", plots)
    return summary


def cmd_lax_oleinik(params: dict, out: Path) -> dict:
    tg = TraitGrid(params["n_z"])
    # the march's own input checks, then the reference's
    lax_oleinik_steps(tg, params["T"], params["dt_dp"], params["reach"])
    v0, _ = limit_start(tg, params, params["dt"])
    src, sol = limit_march(standard_setting(params), v0, params["T"],
                           params["dt"])
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
    cfg = scale_config(TraitGrid(params["n_z"]), params, params["eps"],
                       params["probes"])
    res = run(cfg, standard_setting(params))
    write_scale(out, cfg, params, res)
    return {"zbar_end": float(res.zbar[-1]), "mass_end": float(res.mass[-1]),
            "envelope": list(res.envelope),
            "violations": len(res.violations)}


def cmd_converge(params: dict, out: Path) -> dict:
    report = run_convergence(params, out)
    if not report["passed"]:
        failing = sorted(k for k, ok in report["verdicts"].items() if not ok)
        raise AcceptanceFailure("convergence trends failed", failing=failing,
                                metrics={k: report["metrics"][k]
                                         for k in failing})
    return report


def cmd_pipeline(params: dict, out: Path) -> dict:
    tg = TraitGrid(params["n_z"])
    T, eps = params["T"], params["eps"]
    v0, _ = limit_start(tg, params, params["dt"], LIMIT_STRIDE)
    cfg = scale_config(tg, params, eps, ())
    cache = standard_setting(params)
    # the kinetic run marches in a child beside the check and the limit;
    # its result, or its error, is taken where a serial run would stand
    with forked_run(cfg, cache) as kinetic_run:
        h1 = check_H1(cache)
        if not h1["pass"]:
            raise AcceptanceFailure("trait convexity check failed", **h1)

        src, sol = limit_march(cache, v0, T, params["dt"], LIMIT_STRIDE)
        can = canonical_ode(src, (sol.times, sol.sigma), params["zbar0"], T)

        res = kinetic_run()
    write_scale(out / "pde", cfg, params, res)

    zb_lim = np.interp(res.times, can.times, can.zbar)
    write_csv(out / "zbar_compare.csv", ["t", "zbar_eps", "zbar_limit"],
              [res.times, res.zbar, zb_lim])
    write_plot_script(out / "pipeline.gp", "trait trajectories", "t", "trait",
                      ["'zbar_compare.csv' using 't':'zbar_eps' with lines",
                       "'zbar_compare.csv' using 't':'zbar_limit' with lines"])

    summary = {
        "h1": h1,
        "zbar_gap_end": float(abs(res.zbar[-1] - can.zbar[-1])),
        "rho_gap_end": rho_gap(res.rho_history.values[-1], T, can, cache),
        "u_gap_end": wkb_gap(res.u_snaps[T], eps, sol.V[-1]),
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
