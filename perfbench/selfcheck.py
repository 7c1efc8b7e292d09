"""Quick self-check of the benchmark, on short horizons.

Usage, from the repository root:  python3 perfbench/selfcheck.py

For each workload, run at the short horizon in run.TINY, it asserts that
- every end-to-end and per-layer metric of BENCHMARK.json is printed with
  its unit in the result line;
- the per-layer counts repeat exactly across two traced runs;
- a deliberately perturbed reference value turns the run into a failure;
- bundle work is absent from ess and pde_fine, and on pde_fine every
  principal eigenpair belongs to profile construction.
Exits 0 when all hold.  Takes a few minutes.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run

EXACT_UNITS = ("count", "bytes", "ratio")


def result_line(record: dict) -> dict:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        run.report(record)
    return json.loads(buffer.getvalue().strip().splitlines()[-1])


def emitted(line: dict, declared: list[dict]) -> list[str]:
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in line["metrics"].items()}
    return [f"{name} emitted as {got.get(name)!r}, declared {unit!r}"
            for name, unit in want.items() if got.get(name) != unit]


def check(workload: str, spec: dict) -> list[str]:
    problems = []
    first = run.measure(workload, 0, 0.0, True, tiny=True, reference={})
    if not first["correct"]:
        return [f"first run failed: {first['executions'][0]['problems']}"]
    ref = first["executions"][0]["outputs"]

    second = run.measure(workload, 0, 0.0, True, tiny=True, reference=ref)
    line = result_line(second)
    if not line["correct"] or line["failed"]:
        problems.append("run against its own reference failed")
    problems += emitted(line, spec["per_layer"])
    for m in spec["per_layer"]:
        if m["unit"] in EXACT_UNITS:
            a = first["metrics"].get(m["name"], {}).get("value")
            b = second["metrics"].get(m["name"], {}).get("value")
            if a != b:
                problems.append(f"{m['name']} did not repeat: {a} then {b}")
    if workload != "sweep" and \
            second["metrics"]["bundle.effective_hamiltonian.calls"]["value"]:
        problems.append("bundle work on a workload predicted to have none")
    outside = second["executions"][-1]["eigenpairs_outside_profile"]
    if workload == "pde_fine" and outside:
        problems.append(f"{outside} eigenpairs outside profile construction")

    name = sorted(ref)[0]
    perturbed = dict(ref, **{name: ref[name] * (1.0 + 1e-3) + 1e-9})
    broken = run.measure(workload, 0, 0.0, False, tiny=True,
                         reference=perturbed)
    line = result_line(broken)
    problems += emitted(line, spec["end_to_end"])
    if line["correct"] or line["failed"] != line["attempted"]:
        problems.append(f"perturbed reference {name} did not fail the run")
    return problems


def main() -> int:
    spec = run.read_json(run.ROOT / "BENCHMARK.json")
    failures = 0
    for workload in run.WORKLOADS:
        problems = check(workload, spec)
        failures += bool(problems)
        print(f"{workload}: {'ok' if not problems else 'FAILED'}", flush=True)
        for problem in problems:
            print(f"  {problem}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
