"""Run one dispersal CLI command in this fresh interpreter and measure it.

Usage: python3 child.py RESULT_JSON SPANS_JSON SRC_DIR -- <CLI arguments>

SPANS_JSON is "-" for an untraced run.  RESULT_JSON receives the import time
of dispersal.harness.cli (numpy and scipy included), the wall and CPU time
of the command after import, the peak RSS, the exit code, the library
versions and, for a traced run, the per-layer metrics.  A traceback escapes
as a nonzero exit without a result file.
"""

from __future__ import annotations

import time

_started = time.perf_counter()
import dispersal.harness.cli as cli  # noqa: E402
_setup_s = time.perf_counter() - _started

import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import uuid  # noqa: E402
from pathlib import Path  # noqa: E402

import tracer  # noqa: E402


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _blas(package) -> dict:
    """OpenBLAS build version and live thread count of a numpy/scipy wheel."""
    info = {"version": None, "threads": None}
    try:
        info["version"] = package.show_config(
            mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (TypeError, KeyError):
        pass
    libs = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
    for lib in glob.glob(str(libs / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                break
    return info


def versions() -> dict:
    import numpy
    import scipy

    return {"python": sys.version.split()[0],
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "numpy_blas": _blas(numpy), "scipy_blas": _blas(scipy)}


def main() -> int:
    result_path, spans_path, src_dir, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: child.py RESULT_JSON SPANS_JSON SRC_DIR -- ARGS")
    package = Path(sys.modules["dispersal"].__file__).resolve()
    if Path(src_dir).resolve() not in package.parents:
        raise SystemExit(f"imported dispersal from {package}, not {src_dir}")

    command = cli.main
    recorder = None
    if spans_path != "-":
        recorder = tracer.Recorder(uuid.uuid4().hex)
        installed = tracer.install(recorder)
        command = recorder.wrap(tracer.ROOT_SPAN, cli.main)

    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    try:
        code = command(argv)
    except SystemExit as exc:       # argparse rejects arguments this way
        code = exc.code
    wall_s = time.perf_counter() - t0
    cpu_s = _cpu_seconds() - cpu0

    result = {"exit": code, "setup_s": _setup_s, "wall_s": wall_s,
              "cpu_s": cpu_s,
              "peak_rss_mb": resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "versions": versions()}
    if recorder is not None:
        recorder.write(spans_path)
        result["run_id"] = recorder.run_id
        result["layers"] = tracer.layer_metrics(recorder, installed)
        result["self_time_sum_s"] = tracer.self_time_sum(recorder)
        result["eigenpairs_outside_profile"] = tracer.eigenpairs_outside(
            recorder, "ecology.construct_alpha")
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
