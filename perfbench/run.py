"""Benchmark of the dispersal CLI: three workloads, end-to-end timings and a
per-layer trace.

Usage, from the repository root:

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 40 --trace 0

Each execution of a workload is a fresh interpreter that runs the real CLI
entry point (perfbench/child.py), one at a time, with DISPERSAL_THREADS
cleared and BLAS pinned to one thread, so the load is one single-threaded
process.  With --trace 0 the run repeats the workload for about --seconds
(at least once) and reports the end-to-end metrics; with --trace 1 it
makes one untraced and one traced execution and reports the per-layer
metrics, whose names and units, like those of the end-to-end metrics, come
from BENCHMARK.json.  Every execution's outputs are checked; the last line of
standard output is the JSON result, and a full record goes to
.perfbench_out/results/.
"""

from __future__ import annotations

import argparse
import csv
import glob
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_out"
REFERENCE = BENCH / "reference.json"

# The commands keep the settings of the paper's computations but stop at a
# short horizon, so that a run holds several executions and reports their
# median.  A full-length execution takes 15-45 s, so a run could hold only
# one, and its time would follow the host's speed during that execution.
WORKLOADS = {
    "sweep": ["converge", "--override", "T=0.5",
              "--override", "u_probes=0.25,0.5", "--override", "h_t_lo=0.1",
              "--override", "h_t_hi=0.3", "--override", "z_samples=9"],
    "ess": ["pipeline", "--override", "T=1", "--override", "eps=0.0125"],
    "pde_fine": ["pde", "--override", "eps=0.0125", "--override", "c_t=0.0125",
                 "--override", "n_x=128", "--override", "n_z=256",
                 "--override", "T=0.2"],
}
# Seed s runs variant s % 4.  Variant 0 is the unperturbed command; the others
# move the initial trait or the habitat amplitude a little.  A lower initial
# trait (0.24) breaks the sweep's own h_gap trend verdict, so the variants
# stay on the side where every command still passes its checks.
# reference.json pins the outputs of every variant.
VARIANTS = (
    {},
    {"m_amp": "0.49"},
    {"zbar0": "0.26"},
    {"m_amp": "0.51"},
)
# Short horizons for the self-check (perfbench/selfcheck.py).
# The sweep has none: a shorter horizon breaks its own trend verdicts.
TINY = {
    "sweep": {},
    "ess": {"T": "0.5"},
    "pde_fine": {"T": "0.05", "probes": "0.05"},
}
RTOL = 1e-6           # room for 1e-12-level LAPACK drift, same as the golden plan
ATOL = 1e-12
SETUP_PROBES = 5      # extra fresh-interpreter imports per run
EXEC_TIMEOUT_S = 150.0
RUN_BUDGET_S = 150.0  # no new execution starts if it could end past this
ESS = 0.0             # minimiser of the constructed U-shaped profile
PROBE = ("import time; t = time.perf_counter(); import dispersal.harness.cli; "
         "print(time.perf_counter() - t)")


# ---------------------------------------------------------------------------
# environment record


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return None


def machine() -> dict:
    model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        kind = _read(f"{index}/type") or ""
        label = f"L{_read(f'{index}/level')}" + {"Data": "d",
                                                 "Instruction": "i"}.get(kind, "")
        caches[label] = _read(f"{index}/size")
    return {"cpu_model": model, "nproc": len(os.sched_getaffinity(0)),
            "L2": caches.get("L2"), "L3": caches.get("L3"), "caches": caches,
            "platform": platform.platform()}


def code_identity() -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, check=False)
            commit = done.stdout.strip() or None
        except OSError:             # no git on this machine
            pass
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("DISPERSAL_THREADS", None)
    # import from cached bytecode, as an installed package does; the first
    # import in a fresh checkout compiles it and the setup_s median drops it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    return env


# ---------------------------------------------------------------------------
# correctness


def read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _column(path: Path, name: str) -> list[float]:
    with path.open(encoding="utf-8") as fh:
        return [float(row[name]) for row in csv.DictReader(fh)]


def pinned_outputs(workload: str, out: Path) -> dict[str, float]:
    """The values reference.json pins for one execution, by flat name."""
    values = {}
    if workload == "sweep":
        metrics = read_json(out / "report.json")["metrics"]
        for name, per_scale in metrics.items():
            for i, v in enumerate(per_scale):
                values[f"{name}[{i}]"] = v
    elif workload == "ess":
        summary = read_json(out / "pipeline.json")
        for name in ("zbar_gap_end", "rho_gap_end", "u_gap_end", "mass_end"):
            values[name] = summary[name]
        for name in ("K_lower", "K_upper", "sign_a", "sign_b"):
            values[f"h1.{name}"] = summary["h1"][name]
    else:
        summary = read_json(out / "summary.json")["summary"]
        for name in ("zbar_end", "mass_end"):
            values[name] = summary[name]
    if workload != "sweep":
        values["envelope_lo"], values["envelope_hi"] = summary["envelope"]
    return values


def verdict_problems(workload: str, out: Path) -> list[str]:
    """The command's own verdicts, plus criterion 10's monotone approach to
    the ESS on the ess run (its end condition needs the full horizon T=12)."""
    problems = []
    if workload == "sweep":
        report = read_json(out / "report.json")
        extras = report["extras"]
        if not report["passed"]:
            problems.append(f"sweep verdicts failed: {report['verdicts']}")
        for flag in ("x_osc_stable", "envelope_stable_2x"):
            if not extras[flag]:
                problems.append(f"sweep {flag} is false")
        if sum(extras["violations"]) != 0:
            problems.append(f"sweep envelope violations {extras['violations']}")
    elif workload == "ess":
        if not read_json(out / "pipeline.json")["h1"]["pass"]:
            problems.append("H1 check failed")
        h_z = 1.0 / read_json(out / "summary.json")["params"]["n_z"]
        zbar = _column(out / "pde" / "run.csv", "zbar_eps")
        uphill = max(b - a for a, b in zip(zbar, zbar[1:]))
        if uphill > h_z:
            problems.append(f"uphill trait move {uphill} exceeds one cell {h_z}")
        if abs(zbar[-1] - ESS) >= abs(zbar[0] - ESS):
            problems.append(f"trait went from {zbar[0]} to {zbar[-1]}, not "
                            f"toward the ESS {ESS}")
    else:
        summary = read_json(out / "summary.json")["summary"]
        if summary["violations"]:
            problems.append(f"{summary['violations']} envelope violations")
    return problems


def reference_problems(got: dict, ref: dict | None) -> list[str]:
    if ref is None:
        return ["no reference outputs for this workload and seed"]
    problems = []
    for name, want in ref.items():
        have = got.get(name)
        if have is None or not math.isclose(have, want, rel_tol=RTOL,
                                            abs_tol=ATOL):
            problems.append(f"{name} = {have}, reference {want!r}")
    return problems


# ---------------------------------------------------------------------------
# measurement


def setup_probe(env: dict) -> float | None:
    """Import time in a fresh interpreter; None if the import fails, which
    the workload's own execution then reports as a failure."""
    done = subprocess.run([sys.executable, "-c", PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, check=False,
                          timeout=EXEC_TIMEOUT_S)
    return float(done.stdout) if done.returncode == 0 else None


def execute(workload: str, argv: list[str], env: dict, traced: bool,
            name: str, ref: dict | None) -> dict:
    """One fresh-interpreter execution, with its outputs checked."""
    out = WORK / "out" / name
    shutil.rmtree(out, ignore_errors=True)
    result_file = WORK / "out" / f"{name}.result.json"
    result_file.unlink(missing_ok=True)
    spans = WORK / "trace" / f"{name}.spans.json" if traced else None
    cmd = [sys.executable, str(BENCH / "child.py"), str(result_file),
           str(spans) if spans else "-", str(SRC), "--",
           *argv, "--out", str(out)]
    try:
        done = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=EXEC_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        return {"ok": False, "problems": [f"timed out after {EXEC_TIMEOUT_S} s"]}
    if done.returncode != 0 or not result_file.exists():
        tail = (done.stderr or done.stdout).strip().splitlines()[-3:]
        return {"ok": False,
                "problems": [f"child exit {done.returncode}: {' | '.join(tail)}"]}
    record = json.loads(result_file.read_text(encoding="utf-8"))
    problems = []
    if record["exit"] != 0:
        problems.append(f"command exit {record['exit']}: "
                        f"{done.stderr.strip()[-300:]}")
    else:
        try:
            record["outputs"] = pinned_outputs(workload, out)
            problems += verdict_problems(workload, out)
        except (OSError, KeyError, ValueError) as exc:
            problems.append(f"unreadable output: {exc!r}")
        problems += reference_problems(record.get("outputs", {}), ref)
    record["problems"] = problems
    record["ok"] = not problems
    return record


def tail_percentile(values: list[float]):
    """Highest of p90/p99/p99.9 with at least ten samples beyond it."""
    best = None
    ordered = sorted(values)
    for label, q in (("p90", 0.9), ("p99", 0.99), ("p99.9", 0.999)):
        if len(ordered) * (1.0 - q) >= 10:
            best = (label, tracer.percentile(ordered, q))
    return best


def summarize(values: list[float], unit: str) -> dict:
    return {"value": statistics.median(values), "unit": unit,
            "samples": len(values), "tail": tail_percentile(values)}


def variant(seed: int) -> dict:
    return VARIANTS[seed % len(VARIANTS)]


def workload_argv(workload: str, seed: int, tiny: bool) -> list[str]:
    overrides = dict(variant(seed), **(TINY[workload] if tiny else {}))
    argv = list(WORKLOADS[workload])
    for key, value in overrides.items():
        argv += ["--override", f"{key}={value}"]
    return argv


def load_reference(workload: str, seed: int) -> dict | None:
    if not REFERENCE.exists():
        return None
    table = read_json(REFERENCE)["workloads"].get(workload, {})
    return table.get(str(seed % len(VARIANTS)))


def measure(workload: str, seed: int, seconds: float, trace: bool, *,
            tiny: bool = False, reference=None) -> dict:
    """Run the workload and return the full record of the run.

    `reference` replaces the stored outputs: the self-check passes its own,
    and an empty dict checks the command's verdicts only, for generating
    reference.json.
    """
    spec = read_json(ROOT / "BENCHMARK.json")
    env = child_env()
    argv = workload_argv(workload, seed, tiny)
    ref = load_reference(workload, seed) if reference is None else reference
    for sub in ("out", "trace", "results"):
        (WORK / sub).mkdir(parents=True, exist_ok=True)

    def run_once(traced: bool, name: str) -> dict:
        return execute(workload, argv, env, traced, name, ref)

    executions = []
    metrics = {}
    if trace:
        plain = run_once(False, f"{workload}-plain")
        traced = run_once(True, f"{workload}-traced")
        executions = [plain, traced]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        layers = dict(traced.get("layers", {}))
        if "wall_s" in plain and "wall_s" in traced:
            layers["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        for name, unit in units.items():
            if name in layers:
                metrics[name] = {"value": layers[name], "unit": unit}
    else:
        started = time.perf_counter()
        setup = [t for t in (setup_probe(env) for _ in range(SETUP_PROBES))
                 if t is not None]
        # Executions follow one another while the next one, as long as the
        # mean so far, would end less than half of it past `seconds`; so a
        # run lasts `seconds` give or take half an execution, and holds at
        # least one.
        while True:
            executions.append(run_once(False, workload))
            elapsed = time.perf_counter() - started
            mean = elapsed / len(executions)
            if elapsed + mean / 2 > min(seconds, RUN_BUDGET_S):
                break
        done = [e for e in executions if "wall_s" in e]
        setup += [e["setup_s"] for e in done]
        samples = {"setup_s": setup}
        for name in ("wall_s", "cpu_s", "peak_rss_mb"):
            samples[name] = [e[name] for e in done]
        for m in spec["end_to_end"]:
            if samples.get(m["name"]):
                metrics[m["name"]] = summarize(samples[m["name"]], m["unit"])

    failed = sum(not e["ok"] for e in executions)
    versions = next((e["versions"] for e in executions if "versions" in e), {})
    return {
        "workload": workload, "seed": seed, "tiny": tiny, "trace": trace,
        "variant": seed % len(VARIANTS), "overrides": variant(seed),
        "argv": argv, "machine": machine(),
        "environment": {"DISPERSAL_THREADS": "cleared",
                        "PYTHONDONTWRITEBYTECODE": "cleared",
                        "OPENBLAS_NUM_THREADS": env["OPENBLAS_NUM_THREADS"],
                        "OMP_NUM_THREADS": env["OMP_NUM_THREADS"],
                        **versions},
        "code": code_identity(),
        "executions": executions, "metrics": metrics,
        "attempted": len(executions), "failed": failed,
        "error_rate": failed / len(executions), "correct": failed == 0,
    }


def report(record: dict) -> None:
    """Human-readable lines, then the one-line JSON result last."""
    env = record["environment"]
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"variant {record['variant']} {record['overrides']}  "
          f"trace {int(record['trace'])}")
    print(f"machine {json.dumps(record['machine'])}")
    print(f"environment {json.dumps(env)}  code {json.dumps(record['code'])}")
    for e in record["executions"]:
        for problem in e["problems"]:
            print(f"FAILED: {problem}")
    for name, m in record["metrics"].items():
        if record["trace"]:
            note = "from the traced execution"
        elif m["tail"]:
            note = (f"median of n={m['samples']}; "
                    f"{m['tail'][0]} {m['tail'][1]:.6g}")
        else:
            note = (f"median of n={m['samples']}; no percentile has "
                    f"10 samples beyond it")
        print(f"  {name:<36} {m['value']:>14.6g} {m['unit']:<6} {note}")
    print(f"  {'error_rate':<36} {record['error_rate']:>14.6g} {'ratio':<6} "
          f"{record['failed']} failed of {record['attempted']} attempted")
    if record["trace"]:
        traced = record["executions"][-1]
        if "self_time_sum_s" in traced:
            print(f"  self times of all spans sum to "
                  f"{traced['self_time_sum_s']:.6g} s; traced wall "
                  f"{traced['wall_s']:.6g} s; untraced wall "
                  f"{record['executions'][0].get('wall_s', float('nan')):.6g} s")
            print(f"  principal eigenpairs outside profile construction: "
                  f"{traced['eigenpairs_outside_profile']}")
        totals = {k: m["value"] for k, m in record["metrics"].items()
                  if k.endswith(".s")}
        if totals:
            print(f"  largest layer: {max(totals, key=totals.get)}")
    print(json.dumps({
        "correct": record["correct"], "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                    for k, v in record["metrics"].items()}}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dispersal" / "harness" / "cli.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'dispersal'} is "
              f"missing", file=sys.stderr)
        return 2
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    path = (WORK / "results" /
            f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    path.write_text(json.dumps(record, indent=1), encoding="utf-8")
    report(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
