"""Write perfbench/reference.json: the pinned outputs of every workload variant.

Usage, from the repository root:  python3 perfbench/make_reference.py

Runs each workload once per seed variant, requires the command's own
verdicts to pass, and stores the checked outputs at full precision.  Run it
only when a change is meant to move the numbers, and say so in CHANGES.md.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    table = {}
    for workload in run.WORKLOADS:
        table[workload] = {}
        for seed in range(len(run.VARIANTS)):
            record = run.measure(workload, seed, 0.0, False, reference={})
            execution = record["executions"][0]
            if not record["correct"]:
                print(f"{workload} variant {seed} failed: "
                      f"{execution['problems']}", file=sys.stderr)
                return 1
            table[workload][str(seed)] = execution["outputs"]
            print(f"{workload} variant {seed}: "
                  f"{execution['wall_s']:.2f} s", flush=True)
    payload = {"code": run.code_identity(), "rtol": run.RTOL,
               "variants": run.VARIANTS, "workloads": table}
    run.REFERENCE.write_text(json.dumps(payload, indent=1) + "\n",
                             encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
