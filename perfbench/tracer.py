"""In-memory span recorder and the hooks that feed it from outside the program.

The traced run replaces public functions and methods of the dispersal modules
with timing wrappers.  A module-level function is rebound in the module that
defines it and in every dispersal module that imported it by name, which is
where its callers look it up; a method is rebound on its class.  Nothing in
the program's source changes.

Each span is [name, parent index, start, end] with times from
time.perf_counter(); the parent is the innermost open span when the span
started (-1 for the root).  The program runs single-threaded
(DISPERSAL_THREADS is cleared), so spans nest strictly and one stack suffices.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

# (defining module, attribute path, span name).  A target missing from the
# program under test is skipped and the metrics built on it are reported
# absent, so a later rename does not fail the benchmark.
HOOKS = (
    ("dispersal.ecology", "solve_theta", "ecology.solve_theta"),
    ("dispersal.ecology", "solve_theta_pseudotime", "ecology.theta_fallback"),
    ("dispersal.ecology", "ThetaCache.theta", "ecology.theta_cache"),
    ("dispersal.ecology", "principal_eigenpair", "ecology.principal_eigenpair"),
    ("dispersal.ecology", "lambda_derivs", "ecology.lambda_derivs"),
    ("dispersal.ecology", "lambda_table", "ecology.lambda_table"),
    ("dispersal.ecology", "check_H1", "ecology.check_H1"),
    ("dispersal.ecology", "construct_alpha", "ecology.construct_alpha"),
    ("dispersal.hj", "solve_constrained_hj", "hj.solve_constrained_hj"),
    ("dispersal.hj", "canonical_ode", "hj.canonical_ode"),
    ("dispersal.kinetic", "run", "kinetic.run"),
    ("dispersal.kinetic", "Stepper.step", "kinetic.step"),
    ("dispersal.tridiag", "BlockDiffusion.solve", "tridiag.BlockDiffusion"),
    ("dispersal.tridiag", "FactoredDiffusion.solve", "tridiag.FactoredDiffusion"),
    ("dispersal.bundle", "effective_hamiltonian", "bundle.effective_hamiltonian"),
    ("dispersal.harness.converge", "run_convergence", "harness.converge"),
    ("dispersal.harness.io", "write_csv", "harness.io.write_csv"),
    ("dispersal.harness.io", "write_json", "harness.io.write_json"),
)
ROOT_SPAN = "cli.main"
CSV_SPAN = "harness.io.write_csv"


class Recorder:
    """Spans of one run, kept in memory until the run ends."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.csv_bytes = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()

        return traced

    def count_csv_bytes(self, fn):
        @functools.wraps(fn)
        def counted(path, *args, **kwargs):
            out = fn(path, *args, **kwargs)
            self.csv_bytes += os.path.getsize(path)
            return out

        return counted

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run_id": self.run_id,
                       "fields": ["name", "parent", "start", "end"],
                       "spans": self.spans}, fh)


def install(recorder: Recorder) -> list[str]:
    """Wrap every hook target that exists; return the span names installed."""
    modules = [mod for key, mod in list(sys.modules.items())
               if mod is not None and (key == "dispersal"
                                       or key.startswith("dispersal."))]
    installed = []
    for module_name, attr, name in HOOKS:
        owner = sys.modules.get(module_name)
        *outer, last = attr.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        original = vars(owner).get(last) if owner is not None else None
        if not callable(original):
            continue
        target = original
        if name == CSV_SPAN:
            target = recorder.count_csv_bytes(original)
        wrapper = recorder.wrap(name, target)
        setattr(owner, last, wrapper)
        if not outer:
            for mod in modules:
                for key in [k for k, v in vars(mod).items() if v is original]:
                    setattr(mod, key, wrapper)
        installed.append(name)
    return installed


def _child_times(spans: list[list]) -> list[float]:
    child = [0.0] * len(spans)
    for _, parent, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    return child


def percentile(sorted_values: list[float], q: float) -> float:
    k = min(int(q * len(sorted_values)), len(sorted_values) - 1)
    return sorted_values[k]


def layer_metrics(recorder: Recorder, installed: list[str]) -> dict:
    """Per-layer metrics by name; a metric whose hook is missing is omitted.

    `.s` is a layer's total span time, `.self_s` that time minus the time of
    the spans it directly caused.  Tridiagonal solves count as x- or
    z-diffusion only when their parent span is a kinetic step, so theta
    pseudo-time solves are not mistaken for z-diffusion.
    """
    spans = recorder.spans
    child = _child_times(spans)
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    by_parent: dict[tuple, list] = {}
    step_durations = []
    for i, (name, parent, start, end) in enumerate(spans):
        d = end - start
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + d
        self_s[name] = self_s.get(name, 0.0) + d - child[i]
        pname = spans[parent][0] if parent >= 0 else None
        cell = by_parent.setdefault((name, pname), [0, 0.0])
        cell[0] += 1
        cell[1] += d
        if name == "kinetic.step":
            step_durations.append(d)

    have = set(installed)
    out: dict[str, float] = {}

    def put(metric, value, *needs):
        if all(n in have for n in needs):
            out[metric] = value

    for name in ("bundle.effective_hamiltonian", "ecology.principal_eigenpair",
                 "ecology.solve_theta", "ecology.lambda_derivs",
                 "hj.canonical_ode", "ecology.lambda_table", "ecology.check_H1",
                 "ecology.construct_alpha", "hj.solve_constrained_hj",
                 "kinetic.step", "harness.io.write_csv", "harness.converge"):
        put(f"{name}.calls", calls.get(name, 0), name)
        put(f"{name}.s", total.get(name, 0.0), name)
        put(f"{name}.self_s", self_s.get(name, 0.0), name)

    cache_calls = calls.get("ecology.theta_cache", 0)
    misses = by_parent.get(("ecology.solve_theta", "ecology.theta_cache"),
                           [0, 0.0])[0]
    put("ecology.theta_cache.calls", cache_calls, "ecology.theta_cache")
    put("ecology.theta_cache.hit_ratio",
        (cache_calls - misses) / cache_calls if cache_calls else 0.0,
        "ecology.theta_cache", "ecology.solve_theta")
    put("ecology.theta_fallbacks", calls.get("ecology.theta_fallback", 0),
        "ecology.theta_fallback")

    steps = len(step_durations)
    put("kinetic.step.us", 1e6 * total.get("kinetic.step", 0.0) / steps
        if steps else 0.0, "kinetic.step")
    step_durations.sort()
    put("kinetic.step.p99_us",
        1e6 * percentile(step_durations, 0.99) if steps else 0.0,
        "kinetic.step")

    for metric, hook in (("tridiag.xdiff", "tridiag.BlockDiffusion"),
                         ("tridiag.zdiff", "tridiag.FactoredDiffusion")):
        n, s = by_parent.get((hook, "kinetic.step"), [0, 0.0])
        put(f"{metric}.calls", n, hook, "kinetic.step")
        put(f"{metric}.s", s, hook, "kinetic.step")

    put("harness.io.bytes", recorder.csv_bytes, CSV_SPAN)
    put("trace.spans", len(spans))
    return out


def eigenpairs_outside(recorder: Recorder, ancestor: str) -> int:
    """Principal eigenpair spans that have no `ancestor` span above them."""
    spans = recorder.spans
    count = 0
    for name, parent, _, _ in spans:
        if name != "ecology.principal_eigenpair":
            continue
        while parent >= 0 and spans[parent][0] != ancestor:
            parent = spans[parent][1]
        count += parent < 0
    return count


def self_time_sum(recorder: Recorder) -> float:
    """Sum of every span's self time; equals the root span when nesting holds."""
    spans = recorder.spans
    child = _child_times(spans)
    return sum(end - start - child[i]
               for i, (_, _, start, end) in enumerate(spans))
