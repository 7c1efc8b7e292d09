"""Golden outputs: short CLI runs checked by exact float equality.

Each case runs one command at a cheap setting and parses every CSV and JSON
file it writes.  The parsed numbers must equal the checked-in values in
`golden_cli.json` exactly; CSV cells are shortest round-trip reprs, so a
parse reproduces the in-memory doubles.  Columns longer than
`FULL_COLUMN_MAX` are pinned by the SHA-256 of their float64 bytes, with
their length and end values kept in the clear for diagnostics.  The run's
wall time and the library versions are not pinned.

A change that moves numbers on purpose re-blesses the file in the same
change, from the repository root:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from dispersal.harness.cli import main
from dispersal.harness.io import read_csv

GOLDEN = Path(__file__).with_name("golden_cli.json")
FULL_COLUMN_MAX = 200
UNPINNED = ("wall_time_s", "versions")

CASES = {
    "pde": ["pde", "--override", "T=0.1", "--override", "probes=0.05,0.1"],
    # covers check_H1's K_lower, the self-consistent source and the
    # canonical ODE, besides a short kinetic run
    "pipeline": ["pipeline", "--override", "T=0.1"],
    # the only caller of compute_bundle
    "floquet-test": ["floquet-test", "--override", "t_end=0.01",
                     "--override", "dtau=1e-4", "--override", "tol=1e-4"],
    # the effective-Hamiltonian march (h_gap, h_int) over several thousand
    # fast-time steps, besides three short kinetic runs
    "converge": ["converge", "--override", "T=0.2",
                 "--override", "eps_list=0.1,0.08,0.06",
                 "--override", "u_probes=0.2", "--override", "t_lo=0.1",
                 "--override", "h_t_lo=0.1", "--override", "h_t_hi=0.2",
                 "--override", "z_samples=5", "--override", "c_t=0.05"],
}


def _column(values) -> list | dict:
    if len(values) <= FULL_COLUMN_MAX:
        return [float(v) for v in values]
    return {"n": len(values), "first": float(values[0]),
            "last": float(values[-1]),
            "sha256": hashlib.sha256(values.astype("<f8").tobytes()).hexdigest()}


def parsed_outputs(out: Path) -> dict:
    """Every file a run wrote, parsed, keyed by its path below `out`."""
    files = {}
    for path in sorted(out.rglob("*")):
        key = path.relative_to(out).as_posix()
        if path.suffix == ".csv":
            files[key] = {name: _column(col)
                          for name, col in read_csv(path).items()}
        elif path.suffix == ".json":
            payload = json.loads(path.read_text(encoding="utf-8"))
            for name in UNPINNED:
                payload.pop(name, None)
            files[key] = payload
    return files


def run_case(name: str, out: Path) -> dict:
    code = main(CASES[name] + ["--out", str(out)])
    assert code == 0, f"{name} exited {code}"
    return parsed_outputs(out)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_outputs_match_golden(tmp_path, name):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))[name]
    got = run_case(name, tmp_path)
    assert sorted(got) == sorted(golden), "set of output files changed"
    for key in golden:
        assert got[key] == golden[key], f"{name}: {key} differs from golden"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        blessed = {name: run_case(name, Path(tmp) / name) for name in CASES}
    GOLDEN.write_text(json.dumps(blessed, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote {GOLDEN}", file=sys.stderr)
