"""Golden outputs: short CLI runs checked by exact float equality.

Each case runs one command at a cheap setting and parses every CSV and JSON
file it writes.  The parsed numbers must equal the checked-in values in
`golden_cli.json` exactly; CSV cells are shortest round-trip reprs, so a
parse reproduces the in-memory doubles.  Columns longer than
`FULL_COLUMN_MAX` are pinned by the SHA-256 of their float64 bytes, with
their length and end values kept in the clear for diagnostics.  The run's
wall time and the library versions are not pinned.

The last bits also depend on SIMD paths chosen at run time: the OpenBLAS
kernels and numpy's exp and log loops.  `golden_dispatch.json` records the
paths of the blessing host, and a case that differs on a host whose paths
differ too says so in its assertion.

A change that moves numbers on purpose re-blesses both files in the same
change, from the repository root:

    PYTHONPATH=src python tests/test_golden.py
"""

import ctypes
import hashlib
import json
import sys
from pathlib import Path

import numpy
import pytest
import scipy

from dispersal.harness.cli import main
from helpers import read_csv

GOLDEN = Path(__file__).with_name("golden_cli.json")
DISPATCH = Path(__file__).with_name("golden_dispatch.json")
FULL_COLUMN_MAX = 200
UNPINNED = ("wall_time_s", "versions")

CASES = {
    "theta": ["theta"],
    "alpha-build": ["alpha-build", "--override", "samples=9"],
    # on the finer grid every theta solve of the probe box falls back from
    # Newton to pseudo-time marching
    "alpha-build-n128": ["alpha-build", "--override", "n_x=128",
                         "--override", "samples=9"],
    # the pseudo-time fallback ends at a floating-point fixed point just
    # above its own target and within the theta contract
    "alpha-build-n256": ["alpha-build", "--override", "n_x=256",
                         "--override", "samples=9"],
    "lambda-surface": ["lambda-surface", "--override", "mutants=5",
                       "--override", "residents=3"],
    "check-h1": ["check-h1", "--override", "samples=5"],
    "hj": ["hj", "--override", "T=0.1"],
    "lax-oleinik": ["lax-oleinik", "--override", "T=0.1"],
    "pde":["pde", "--override", "T=0.1", "--override", "probes=0.05,0.1"],
    # covers check_H1's K_lower, the self-consistent source and the
    # canonical ODE, besides a short kinetic run
    "pipeline": ["pipeline", "--override", "T=0.1"],
    # the effective-Hamiltonian march on a frozen resident, recorded at
    # every step
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


def _reject(token):
    raise ValueError(f"bare {token} in a JSON artifact")


def parsed_outputs(out: Path) -> dict:
    """Every file a run wrote, parsed, keyed by its path below `out`.  JSON
    is read strictly: a bare NaN or Infinity fails the parse."""
    files = {}
    for path in sorted(out.rglob("*")):
        key = path.relative_to(out).as_posix()
        if path.suffix == ".csv":
            files[key] = {name: _column(col)
                          for name, col in read_csv(path).items()}
        elif path.suffix == ".json":
            payload = json.loads(path.read_text(encoding="utf-8"),
                                 parse_constant=_reject)
            for name in UNPINNED:
                payload.pop(name, None)
            files[key] = payload
    return files


def simd_dispatch() -> dict:
    """The run-time SIMD paths the goldens' last bits depend on: the core of
    the OpenBLAS that numpy bundles and of scipy's (None where a wheel
    bundles none), and the targets of numpy's float64 exp and log loops."""
    # numpy >= 2.0 only, and test_harness imports this module on any numpy
    import numpy.lib.introspect

    found = {}
    for package, suffix in ((numpy, "64_"), (scipy, "")):
        name = package.__name__
        libs = Path(package.__file__).parent.parent / f"{name}.libs"
        found[f"{name}_openblas"] = None
        for lib in sorted(libs.glob("*openblas*"))[:1]:
            core = getattr(ctypes.CDLL(str(lib)),
                           f"scipy_openblas_get_corename{suffix}")
            core.argtypes, core.restype = [], ctypes.c_char_p
            found[f"{name}_openblas"] = core().decode()
    loops = numpy.lib.introspect.opt_func_info(func_name="^(exp|log)$",
                                               signature="^float64$")
    for name in ("exp", "log"):
        found[name] = loops[name]["dd"]["current"]
    return found


def _dispatch_note() -> str:
    """Where this host's SIMD paths differ from the blessing host's."""
    blessed = json.loads(DISPATCH.read_text(encoding="utf-8"))
    running = simd_dispatch()
    moved = sorted(k for k in blessed.keys() | running.keys()
                   if blessed.get(k) != running.get(k))
    if not moved:
        return ""
    return (f"; blessed under {({k: blessed.get(k) for k in moved})}, "
            f"running under {({k: running.get(k) for k in moved})}")


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
        # the dispatch is read only for a case that differs
        assert got[key] == golden[key], \
            f"{name}: {key} differs from golden{_dispatch_note()}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        blessed = {name: run_case(name, Path(tmp) / name) for name in CASES}
    GOLDEN.write_text(json.dumps(blessed, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    DISPATCH.write_text(json.dumps(simd_dispatch(), indent=1, sort_keys=True)
                        + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN} and {DISPATCH}", file=sys.stderr)
