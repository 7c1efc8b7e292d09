"""CLI, config schema, artifact format, and convergence-report tests."""

import contextlib
import importlib.util
import io
import json
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from dispersal import kinetic
from dispersal.harness import commands, converge
from dispersal.harness.cli import main
from dispersal.harness.config import SCHEMAS, load_spec
from dispersal.harness.io import write_csv
from dispersal.errors import SolverError, ValidationError
from helpers import read_csv
from test_golden import CASES, GOLDEN


def run_cli(*args) -> int:
    return main(list(args))


def test_unknown_key_is_rejected_by_name(tmp_path, capsys):
    code = run_cli("hj", "--out", str(tmp_path), "--override", "dx=0.1")
    assert code == 2
    err = capsys.readouterr().err
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["error"] == "validation"
    assert payload["diagnostics"]["key"] == "dx"
    assert "dx" in payload["message"]


def test_unknown_command_is_an_argparse_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli("frobnicate", "--out", str(tmp_path))
    assert exc.value.code == 2


def test_unparsable_value_names_the_key(tmp_path):
    code = run_cli("hj", "--out", str(tmp_path), "--override", "dt=banana")
    assert code == 2


@pytest.mark.parametrize("command,override", [
    ("theta", "alpha=nan"),
    ("pde", "T=nan"),
    ("hj", "T=inf"),
    ("converge", "eps_list=0.05,0.025,nan"),
])
def test_non_finite_value_is_rejected(tmp_path, capsys, command, override):
    code = run_cli(command, "--out", str(tmp_path), "--override", override)
    assert code == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["error"] == "validation"
    assert payload["diagnostics"]["key"] == override.split("=")[0]


@pytest.mark.parametrize("command,override", [
    ("lambda-surface", "mutants=0"),       # an empty sample axis
    ("lambda-surface", "residents=0"),
    ("lambda-surface", "mutants=-1"),      # checked before the sample grids
    ("lambda-surface", "residents=-1"),
    ("floquet-test", "resident=-3"),      # the profile's log goes NaN there
    ("floquet-test", "z=2"),              # extrapolated rate, passed before
])
def test_input_outside_the_domain_is_rejected(tmp_path, capsys, command,
                                              override):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli(command, "--out", str(tmp_path),
                       "--override", override)
    assert not caught, [str(w.message) for w in caught]
    assert code == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "validation"


def test_non_finite_diagnostics_are_strict_json(tmp_path, capsys,
                                              monkeypatch):
    def blow_up(params, out):
        raise SolverError("non-finite density after step", n_max=np.inf,
                          n_min=float("nan"), history=[1.0, -np.inf],
                          table=np.array([np.nan, 2.0]))

    def reject(token):
        raise AssertionError(f"bare {token} in the diagnostic")

    monkeypatch.setitem(commands._COMMANDS, "theta", blow_up)
    assert run_cli("theta", "--out", str(tmp_path)) == 3
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0], parse_constant=reject)
    assert payload["diagnostics"] == {"n_max": "inf", "n_min": "nan",
                                      "history": [1.0, "-inf"],
                                      "table": ["nan", 2.0]}
    saved = (tmp_path / "error.json").read_text(encoding="utf-8")
    assert json.loads(saved, parse_constant=reject) == payload


def _number(lo, hi, bad=(0.0, -1.0)):
    """(in-range strategy, out-of-range strategy) of a float key."""
    return st.floats(lo, hi), st.sampled_from(bad)


def _count(lo, hi, bad=(0, -1)):
    return st.integers(lo, hi), st.sampled_from(bad)


_GEOMETRY = {"n_x": _count(8, 64, bad=(0, -1, 7)),
             "m_amp": _number(0.1, 0.9, bad=(-1.5, 2.0))}
_PROFILE = {"alpha0": _number(0.05, 3.0), "L0": _number(0.05, 3.0)}
_TRAITS = {"n_z": _count(16, 64, bad=(0, -1, 15)), "K0": _number(0.5, 8.0),
           "zbar0": _number(-0.4, 0.4, bad=(-0.7, 0.5)),
           "T": _number(1e-3, 0.02)}
# a tiny step passes the step cap only on a short horizon
_STEP = _number(1e-3, 0.02, bad=(0.0, -1.0, 4.8e-109, 1e-300))
# every key here is in the command's schema; the in-range values keep one
# run cheap (the hj, lax-oleinik and pde horizons at most 0.02, at most 40
# kinetic steps, at most 9 H1 samples per axis, at most a 5 x 3 surface,
# a floquet-test window of at most 2 fast-time steps of at least 1e-3)
_CONTRACT_KEYS = {
    "theta": {**_GEOMETRY, "alpha": _number(0.01, 5.0)},
    "alpha-build": {**_GEOMETRY, **_PROFILE, "samples": _count(1, 300)},
    "lambda-surface": {**_GEOMETRY, **_PROFILE, "mutants": _count(1, 5),
                       "residents": _count(1, 3)},
    "check-h1": {**_GEOMETRY, **_PROFILE,
                 "samples": _count(2, 9, bad=(1, 0, -1))},
    "floquet-test": {**_GEOMETRY, **_PROFILE,
                     "z": _number(-0.45, 0.45, bad=(2.0, -0.5)),
                     "resident": _number(-0.45, 0.45, bad=(-3.0, 0.5)),
                     "dtau": (st.floats(1e-3, 0.01), None),
                     "t_end": _number(0.0, 0.002, bad=(-1.0,)),
                     "tol": _number(1e-6, 1.0, bad=(-1.0,))},
    "hj": {**_GEOMETRY, **_PROFILE, **_TRAITS, "dt": _STEP,
           "record_every": _count(1, 5),
           "canonical": (st.booleans(), None)},
    "lax-oleinik": {**_GEOMETRY, **_PROFILE, **_TRAITS, "dt": _STEP,
                    "dt_dp": _number(0.016, 0.02, bad=(0.0, 1e-13)),
                    "reach": _number(8.0, 20.0, bad=(0.0, 1e12))},
    "pde": {**_GEOMETRY, **_PROFILE, **_TRAITS,
            "eps": _number(0.01, 0.1, bad=(0.0, 0.5)),
            "c_t": _number(0.05, 0.2, bad=(0.0, 0.5)),
            "out_stride": _count(1, 5), "history_stride": _count(1, 5)},
}
# drawn whether or not the case picks them: the defaults cost too much
_CHEAP = {"lambda-surface": ("mutants", "residents"),
          "check-h1": ("samples",), "floquet-test": ("dtau", "t_end"),
          "hj": ("T",), "lax-oleinik": ("T",), "pde": ("T",)}


# the two multi-stage commands on a grid of at most 16 x 32 cells to
# T <= 0.02; every comparison window is drawn inside the horizon, since the
# defaults (t_lo 0.1, h_t_lo 0.2) would reject every run up front, and so
# is each scale's first H record time, eps / 4
_SMALL = {"n_x": _count(8, 16, bad=(0, -1, 7)),
          "m_amp": _GEOMETRY["m_amp"], **_PROFILE,
          **_TRAITS, "n_z": _count(16, 32, bad=(0, -1, 15)),
          "c_t": _number(0.05, 0.2, bad=(0.0, 0.5))}
_MULTISTAGE_KEYS = {
    "converge": {**_SMALL, "T": _number(0.01, 0.02),
                 "eps_list": (st.lists(st.floats(0.01, 0.04), min_size=3,
                                       max_size=3, unique=True)
                              .map(lambda v: tuple(sorted(v, reverse=True))),
                              st.sampled_from([(0.05, 0.05, 0.01),
                                               (0.05, 0.025)])),
                 "hj_dt": _STEP,
                 "u_probes": (st.lists(st.floats(0.0, 0.02), min_size=1,
                                       max_size=3).map(tuple),
                              st.sampled_from([(-1.0,)])),
                 "t_lo": _number(0.0, 0.001, bad=(1.0,)),
                 "with_h": (st.booleans(), None),
                 "z_samples": _count(1, 5),
                 "h_t_lo": _number(0.0, 0.001, bad=(1.0,)),
                 "h_t_hi": _number(0.01, 0.02, bad=(-1.0,))},
    "pipeline": {**_SMALL, "eps": _number(0.01, 0.1, bad=(0.0, 0.5)),
                 "dt": _STEP},
}
_MULTISTAGE_CHEAP = {"converge": ("n_x", "n_z", "T", "c_t", "eps_list",
                                  "t_lo", "z_samples", "h_t_lo"),
                     "pipeline": ("n_x", "n_z", "T", "c_t")}


@st.composite
def _contract_overrides(draw, keys, cheap):
    chosen = draw(st.lists(st.sampled_from(sorted(keys)), unique=True,
                           max_size=4))
    overrides = {k: draw(keys[k][0]) for k in chosen}
    # at most one out-of-range value, and in a minority of the runs, so
    # that most runs get past input validation to the compute path
    if draw(st.integers(0, 2)) == 2:
        key = draw(st.sampled_from(sorted(k for k in keys
                                          if keys[k][1] is not None)))
        overrides[key] = draw(keys[key][1])
    for key in cheap:
        overrides.setdefault(key, draw(keys[key][0]))
    return overrides


def _override_text(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, tuple):
        return ",".join(map(repr, value))
    return repr(value)


def _assert_contract(runs) -> None:
    """Each run exits 0, 2, 3 or 4, warns nothing and prints on stderr
    nothing on success and one strict-JSON line on failure."""
    for command, overrides in runs.items():
        args = [command]
        for key, value in overrides.items():
            args += ["--override", f"{key}={_override_text(value)}"]
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as out, \
                contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli(*args, "--out", out)  # an exception fails too
        # a warning would be an extra stderr line outside the test harness
        assert not caught, [str(w.message) for w in caught]
        assert code in (0, 2, 3, 4)
        lines = err.getvalue().splitlines()
        if code == 0:
            assert lines == []
        else:
            assert len(lines) == 1
            payload = json.loads(lines[0], parse_constant=_reject)
            assert {"error", "message", "diagnostics"} <= set(payload)


def _reject(token):
    raise AssertionError(f"bare {token} in the diagnostic")


# each example runs every command once, so every command is drawn as often
@settings(max_examples=12, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.fixed_dictionaries({
    command: _contract_overrides(keys, _CHEAP.get(command, ()))
    for command, keys in _CONTRACT_KEYS.items()}))
# the draws seldom pick a tiny step; these runs would never end without the
# step cap (the lax-oleinik one would make 10^13 steps)
@example({"hj": {"dt": 4.8e-109, "T": 0.01}})
@example({"hj": {"dt": 1e-300, "T": 0.02}})
@example({"lax-oleinik": {"reach": 1e12, "dt_dp": 1e-13}})
# 2 * 10^6 steps, each recorded: within the step cap, past the record rule
@example({"hj": {"dt": 1e-8, "record_every": 1, "T": 0.02}})
# 10^4 steps, each recorded: within the record rule, past the V.csv row cap
@example({"hj": {"dt": 1e-6, "record_every": 1, "T": 0.01}})
def test_exit_code_contract(runs):
    _assert_contract(runs)


@settings(max_examples=5, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.fixed_dictionaries({
    command: _contract_overrides(keys, _MULTISTAGE_CHEAP[command])
    for command, keys in _MULTISTAGE_KEYS.items()}))
def test_exit_code_contract_of_converge_and_pipeline(runs):
    _assert_contract(runs)


def _rejection(capsys, out, command, overrides) -> str:
    """Message of the one strict-JSON validation line a rejected run prints."""
    args = [command, "--out", str(out)]
    for override in overrides:
        args += ["--override", override]
    assert run_cli(*args) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0], parse_constant=_reject)
    assert payload["error"] == "validation"
    return payload["message"]


@pytest.mark.parametrize("overrides,message", [
    # about 3.3e9 spin-up steps
    (("t_end=0", "dtau=1e-9"), "step cap"),
    # a subnormal step: an infinite step count, and an infinite record window
    (("t_end=0", "dtau=5e-324"), "step cap"),
    (("dtau=5e-324",), "recorded march"),
])
def test_floquet_test_rejects_a_march_past_the_step_cap(tmp_path, capsys,
                                                       overrides, message):
    assert message in _rejection(capsys, tmp_path, "floquet-test",
                                 overrides)


def test_floquet_test_checks_the_record_rule_before_the_profile(
        tmp_path, capsys, monkeypatch):
    # 160,001 records of 64 values: within the step cap, past the record rule
    def setting(params):
        raise AssertionError("the profile was built")

    monkeypatch.setattr(commands, "standard_setting", setting)
    assert run_cli("floquet-test", "--out", str(tmp_path),
                   "--override", "t_end=0.8") == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0], parse_constant=_reject) == {
        "error": "validation",
        "message": "recorded march exceeds the step cap",
        "diagnostics": {"records": 160_001, "width": 64, "cap": 10_000_000}}


def test_pde_rejects_a_density_history_past_the_record_rule(
        tmp_path, capsys, monkeypatch):
    # 2 * 10^5 steps, each one's rho kept: 200,001 records of 64 values,
    # within the step cap, rejected before the first step
    def step(self):
        raise AssertionError("the kinetic march stepped")

    monkeypatch.setattr(kinetic.Stepper, "step", step)
    assert "recorded march" in _rejection(
        capsys, tmp_path, "pde",
        ("T=0.2", "eps=0.01", "c_t=1e-4", "history_stride=1"))


def test_lax_oleinik_rejects_a_march_past_the_step_cap(tmp_path, capsys):
    # a large reach lets a tiny dt_dp pass the reach-window check: 10^13
    # dynamic-programming steps, rejected before the first one
    assert "step cap" in _rejection(capsys, tmp_path, "lax-oleinik",
                                    ("reach=1e12", "dt_dp=1e-13"))


@pytest.mark.parametrize("override,diagnostics", [
    ("reach=0.1", {"dt_dp": 0.015, "reach": 0.1, "h_z": 0.0078125}),
    ("dt_dp=1e-13", {"dt_dp": 1e-13, "reach": 4.0, "h_z": 0.0078125}),
])
def test_lax_oleinik_checks_its_inputs_before_the_reference(
        tmp_path, capsys, monkeypatch, override, diagnostics):
    def reference(*args, **kwargs):
        raise AssertionError("the Godunov reference ran")

    monkeypatch.setattr(converge, "solve_constrained_hj", reference)
    assert run_cli("lax-oleinik", "--out", str(tmp_path),
                   "--override", override) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0], parse_constant=_reject) == {
        "error": "validation",
        "message": "reach window spans no cell; increase dt_dp or reach",
        "diagnostics": diagnostics}


@pytest.mark.parametrize("command,overrides,message", [
    # n_x = 256 alone makes the profile's theta solves fail (exit 3)
    ("hj", ("dt=0", "n_x=256"), "dt and T must be positive"),
    ("lax-oleinik", ("dt_dp=0", "n_x=256"),
     "dt_dp, T, reach must be positive"),
    ("lax-oleinik", ("dt=0",), "dt and T must be positive"),
    ("pipeline", ("dt=0", "n_x=256"), "dt and T must be positive"),
    ("converge", ("hj_dt=0", "n_x=256"), "dt and T must be positive"),
])
def test_hj_commands_check_march_inputs_before_the_profile(
        tmp_path, capsys, monkeypatch, command, overrides, message):
    def setting(params):
        raise AssertionError("the profile was built")

    monkeypatch.setattr(commands, "standard_setting", setting)
    monkeypatch.setattr(converge, "standard_setting", setting)
    assert _rejection(capsys, tmp_path, command, overrides) == message


@pytest.mark.parametrize("command,overrides,message", [
    ("pipeline", ("c_t=0.5",), "c_t must lie in (0, 0.2]"),
    ("converge", ("c_t=0.5",), "c_t must lie in (0, 0.2]"),
    # 8 * 10^6 kinetic steps, a history of 8 * 10^5 records of 64 values
    ("pipeline", ("T=100", "c_t=0.001"),
     "recorded march exceeds the step cap"),
])
def test_multistage_commands_check_kinetic_inputs_before_the_limit(
        tmp_path, capsys, monkeypatch, command, overrides, message):
    def limit(*args, **kwargs):
        raise AssertionError("the limit ran")

    monkeypatch.setattr(commands, "check_H1", limit)
    monkeypatch.setattr(converge, "solve_constrained_hj", limit)
    assert _rejection(capsys, tmp_path, command, overrides) == message


@pytest.mark.parametrize("command,overrides", [
    # every step recorded: 2 * 10^6 records of 128 trait values
    ("hj", ("dt=1e-8", "record_every=1", "T=0.02")),
    # 10^7 dynamic-programming steps, each one recorded; the step cap
    # alone would accept it and keep some 20 GB
    ("lax-oleinik", ("reach=1e5", "dt_dp=1e-7")),
])
def test_hj_marches_reject_records_past_the_step_cap(tmp_path, capsys,
                                                     command, overrides):
    assert "recorded march" in _rejection(capsys, tmp_path, command,
                                          overrides)


def test_hj_rejects_a_v_csv_past_the_row_cap(tmp_path, capsys, monkeypatch):
    # 10^4 + 1 records of 128 trait values: 1,280,128 rows of V.csv, within
    # the record rule, rejected before the solve
    def solve(*args, **kwargs):
        raise AssertionError("the constrained march ran")

    monkeypatch.setattr(converge, "solve_constrained_hj", solve)
    assert run_cli("hj", "--out", str(tmp_path), "--override", "dt=1e-6",
                   "--override", "record_every=1", "--override", "T=0.01") == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0], parse_constant=_reject) == {
        "error": "validation", "message": "V.csv would exceed the row cap",
        "diagnostics": {"rows": 1_280_128, "cap": commands.V_CSV_MAX_ROWS}}


def test_benchmark_hook_targets_exist():
    # perfbench/tracer.py times the program by rebinding these attributes,
    # looking each one up in vars() of its module or class; a target that is
    # renamed, or a method inherited instead of defined on its class, drops
    # the per-layer metrics built on it without any error
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module_name, attr, _ in tracer.HOOKS:
        owner = sys.modules[module_name]
        *outer, last = attr.split(".")
        for part in outer:
            owner = vars(owner)[part]
        assert callable(vars(owner).get(last)), f"{module_name}.{attr}"


def test_config_file_and_override_precedence(tmp_path):
    ini = tmp_path / "exp.ini"
    # T and K0 exercise case preservation (configparser lowercases by
    # default, which would reject every uppercase key as unknown)
    ini.write_text("[pde]\neps = 0.04\nc_t = 0.05\nT = 0.5\nK0 = 2.0\n\n"
                   "[hj]\ndt = 0.01\n", encoding="utf-8")
    spec = load_spec("pde", ini, ["c_t=0.025"], tmp_path / "out")
    assert spec.params["eps"] == 0.04
    assert spec.params["c_t"] == 0.025
    assert spec.params["T"] == 0.5
    assert spec.params["K0"] == 2.0
    assert spec.sources["eps"] == "file"
    assert spec.sources["c_t"] == "override"
    assert spec.sources["n_x"] == "default"
    # the hj section must not leak into the pde command
    assert "dt" not in spec.params


def test_missing_config_file_is_a_validation_error(tmp_path):
    with pytest.raises(ValidationError):
        load_spec("pde", tmp_path / "nope.ini", [], tmp_path)


def test_float_list_parsing(tmp_path):
    spec = load_spec("converge", None, ["eps_list=0.05, 0.04; 0.03"],
                     tmp_path)
    assert spec.params["eps_list"] == (0.05, 0.04, 0.03)


def test_every_schema_has_a_command(tmp_path):
    from dispersal.harness.commands import _COMMANDS
    assert sorted(_COMMANDS) == sorted(SCHEMAS)


def test_csv_shortest_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    a = rng.standard_normal(40) * 10.0 ** rng.integers(-12, 12, 40)
    b = np.array([0.1, 1 / 3, np.pi, 1e-300, 0.0, float("nan")] * 5 + [2.0] * 10)
    write_csv(tmp_path / "x.csv", ["a", "b"], [a, b])
    back = read_csv(tmp_path / "x.csv")
    assert np.array_equal(back["a"], a)
    assert np.array_equal(back["b"], b, equal_nan=True)


def test_csv_cells_are_the_float_repr(tmp_path):
    ints = np.array([0, -3, 2 ** 53 + 1, 7])
    flags = [True, False, True, False]
    edge = np.array([-0.0, 5e-324, 2.2250738585072014e-308, 1e300])
    mixed = [1, 0.1, np.float64(-2.5), np.int32(9)]
    columns = [ints, flags, edge, mixed]
    write_csv(tmp_path / "x.csv", ["i", "b", "e", "m"], columns)
    rows = [",".join(repr(float(v)) for v in row) for row in zip(*columns)]
    expect = "\n".join(["i,b,e,m", *rows]) + "\n"
    assert (tmp_path / "x.csv").read_bytes() == expect.encode("utf-8")


def test_csv_repeated_values_are_the_float_repr(tmp_path):
    # the chunks of a column with few distinct values format each bit
    # pattern once: 0.0 and -0.0, and two NaNs of different payload, must
    # still come out as their own repr
    other_nan = np.array([0x7FF8000000000001]).view(np.float64)[0]
    specials = [0.0, -0.0, np.nan, other_nan, np.inf, -np.inf, 5e-324, 0.1]
    repeats = np.tile(specials, 300)                    # 2,400 rows
    distinct = np.arange(repeats.size) / 7.0           # formatted cell by cell
    mixed = np.where(np.arange(repeats.size) % 3 == 0, distinct, -0.0)
    columns = [repeats, distinct, mixed]
    write_csv(tmp_path / "x.csv", ["r", "d", "m"], columns)
    rows = [",".join(repr(float(v)) for v in row) for row in zip(*columns)]
    expect = "\n".join(["r,d,m", *rows]) + "\n"
    assert (tmp_path / "x.csv").read_bytes() == expect.encode("utf-8")


def test_theta_with_constant_habitat_equals_m(tmp_path, capsys):
    code = run_cli("theta", "--out", str(tmp_path), "--override", "m_amp=0")
    assert code == 0
    cols = read_csv(tmp_path / "theta.csv")
    assert np.array_equal(cols["theta"], cols["m"])
    assert np.all(cols["m"] == 1.0)


def test_check_h1_passes_on_the_built_profile(tmp_path):
    assert run_cli("check-h1", "--out", str(tmp_path)) == 0
    report = json.loads((tmp_path / "h1.json").read_text())
    assert report["pass"] is True
    assert report["K_lower"] > 0.0


def test_pde_runs_are_byte_identical(tmp_path):
    args = ("pde", "--override", "T=0.2", "--override", "probes=0.1,0.2")
    assert run_cli(*args, "--out", str(tmp_path / "a")) == 0
    assert run_cli(*args, "--out", str(tmp_path / "b")) == 0
    for name in ("run.csv", "rho.csv", "u_snap_0.1.csv", "u_snap_0.2.csv"):
        assert (tmp_path / "a" / name).read_bytes() \
            == (tmp_path / "b" / name).read_bytes()
    meta = json.loads((tmp_path / "a" / "meta.json").read_text())
    assert meta["violations"] == []
    assert meta["config"]["eps"] == 0.05


def test_probes_that_round_to_one_step_each_get_the_snapshot(tmp_path):
    # 0.0999999 and the horizon 0.1 round to the same kinetic step
    assert run_cli("pde", "--override", "T=0.1", "--override",
                   "probes=0.0999999", "--out", str(tmp_path)) == 0
    assert (tmp_path / "u_snap_0.0999999.csv").read_bytes() \
        == (tmp_path / "u_snap_0.1.csv").read_bytes()


def test_converge_probe_beside_the_horizon_keeps_the_golden_metrics(
        tmp_path):
    args = [("u_probes=0.1999999" if a == "u_probes=0.2" else a)
            for a in CASES["converge"]]
    assert "u_probes=0.1999999" in args
    assert run_cli(*args, "--out", str(tmp_path)) == 0
    golden = json.loads(GOLDEN.read_text())["converge"]["report.json"]
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["metrics"] == golden["metrics"]


def test_pde_emits_plot_script_and_sidecars(tmp_path):
    assert run_cli("pde", "--override", "T=0.1", "--out", str(tmp_path)) == 0
    gp = (tmp_path / "run.gp").read_text()
    assert "run.csv" in gp and "plot" in gp
    assert (tmp_path / "summary.json").exists()


def test_validation_failure_leaves_error_json(tmp_path):
    # eps outside the supported range fails inside the command, after the
    # output directory exists
    code = run_cli("pde", "--out", str(tmp_path), "--override", "eps=0.5")
    assert code == 2
    payload = json.loads((tmp_path / "error.json").read_text())
    assert payload["error"] == "validation"


def test_degenerate_start_stays_at_the_minimum(tmp_path):
    code = run_cli("pde", "--out", str(tmp_path),
                   "--override", "zbar0=0.0", "--override", "T=0.5")
    assert code == 0
    cols = read_csv(tmp_path / "run.csv")
    h_z = 1.0 / 128
    assert np.abs(cols["zbar_eps"]).max() <= 2 * h_z


def test_converge_without_h_writes_strict_json(tmp_path):
    # with no bundle march h_gap and h_int are NaN at every scale; the JSON
    # sidecars carry them as the string "nan", never as a bare NaN
    code = run_cli("converge", "--out", str(tmp_path),
                   "--override", "with_h=false", "--override", "T=0.2",
                   "--override", "eps_list=0.1,0.08,0.06",
                   "--override", "u_probes=0.2", "--override", "t_lo=0.1",
                   "--override", "c_t=0.05")
    assert code == 0
    for name in ("report.json", "summary.json"):
        payload = json.loads((tmp_path / name).read_text(encoding="utf-8"),
                             parse_constant=_reject)
        report = payload["summary"] if name == "summary.json" else payload
        assert report["metrics"]["h_gap"] == ["nan"] * 3
        assert report["metrics"]["h_int"] == ["nan"] * 3


def test_converge_smoke(tmp_path):
    code = run_cli("converge", "--out", str(tmp_path),
                   "--override", "eps_list=0.05,0.04,0.03",
                   "--override", "T=0.3", "--override", "c_t=0.1",
                   "--override", "u_probes=0.25",
                   "--override", "z_samples=5")
    assert code in (0, 4)          # trends at this cheap setting may wobble
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["eps_list"] == [0.05, 0.04, 0.03]
    for eps in ("0.05", "0.04", "0.03"):
        assert (tmp_path / f"eps_{eps}" / "run.csv").exists()
    cols = read_csv(tmp_path / "report.csv")
    assert len(cols["eps"]) == 3
    assert set(report["verdicts"]) == {"zbar_gap", "rho_gap", "u_gap",
                                       "width", "h_gap", "h_int"}
    assert report["extras"]["envelope_stable_2x"] is True


@pytest.mark.parametrize("overrides", [
    # no H record reaches the window start: an empty mask crashed on .max()
    ("T=0.3", "eps_list=0.05,0.04,0.03", "h_t_hi=0.3", "h_t_lo=0.5",
     "n_z=16", "n_x=8"),
    # the density window starts after the horizon; this one used to pay
    # for the HJ solve and a kinetic run first
    ("T=0.01",),
    # an empty density window made rho_gap 0 at every scale, and passed
    ("t_lo=5",),
])
def test_converge_rejects_an_empty_comparison_window(tmp_path, capsys,
                                                     overrides):
    assert "comparison window is empty" in _rejection(
        capsys, tmp_path, "converge", overrides)
    # rejected before any compute: no scale was run
    assert list(tmp_path.iterdir()) == [tmp_path / "error.json"]


def test_converge_rejects_short_or_increasing_lists(tmp_path):
    assert run_cli("converge", "--out", str(tmp_path / "a"),
                   "--override", "eps_list=0.05,0.025") == 2
    assert run_cli("converge", "--out", str(tmp_path / "b"),
                   "--override", "eps_list=0.0125,0.025,0.05") == 2
