"""Compare result records of perfbench/run.py between two versions.

Usage, from the repository root:

    python3 perfbench/compare.py --base A1.json A2.json ... --new B1.json ...

Each file is one record from .perfbench_out/results/.  All records must come
from one workload, and from the same machine and library stack; otherwise
the comparison is refused with exit code 2.  For every metric it prints the
median of each side, the change as a share of the base median and, for
end-to-end metrics, whether the change stays within the bound that
BENCHMARK.json fixes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

import run

MACHINE_KEYS = ("cpu_model", "nproc", "L2", "L3")
LIBRARY_KEYS = ("python", "numpy", "scipy", "numpy_blas", "scipy_blas")


def identity(record: dict) -> dict:
    found = {k: record["machine"].get(k) for k in MACHINE_KEYS}
    found.update({k: record["environment"].get(k) for k in LIBRARY_KEYS})
    found["workload"] = record["workload"]
    return found


def medians(records: list[dict]) -> dict[str, float]:
    names = {name for r in records for name in r["metrics"]}
    return {name: statistics.median(r["metrics"][name]["value"]
                                    for r in records if name in r["metrics"])
            for name in sorted(names)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)
    base = [run.read_json(Path(p)) for p in args.base]
    new = [run.read_json(Path(p)) for p in args.new]

    reference = identity(base[0])
    for path, record in zip(args.base + args.new, base + new):
        differs = {k: (reference[k], v) for k, v in identity(record).items()
                   if v != reference[k]}
        if differs:
            print(f"refusing to compare: {path} differs from {args.base[0]} "
                  f"in {json.dumps(differs)}", file=sys.stderr)
            return 2

    spec = run.read_json(run.ROOT / "BENCHMARK.json")
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    before, after = medians(base), medians(new)
    for name, b in before.items():
        a = after.get(name)
        if a is None:
            print(f"{name:<36} {b:>14.6g} {'absent':>14}")
            continue
        share = (a - b) / b if b else float("nan")
        verdict = ""
        if name in bounds:
            m = bounds[name]
            worse = share if m["better"] == "lower" else -share
            verdict = "REGRESSION" if worse > m["bound"] else "within bound"
        print(f"{name:<36} {b:>14.6g} {a:>14.6g} {share:>+9.2%}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
