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

from dispersal.harness import commands
from dispersal.harness.cli import main
from dispersal.harness.config import SCHEMAS, load_spec
from dispersal.harness.io import read_csv, write_csv
from dispersal.errors import SolverError, ValidationError


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


def _number(lo, hi):
    return st.one_of(st.sampled_from([0.0, -1.0, -0.5]), st.floats(lo, hi))


def _count(lo, hi):
    return st.one_of(st.sampled_from([0, -1]), st.integers(lo, hi))


_GEOMETRY = {"n_x": _count(-2, 96), "m_amp": _number(-1.5, 1.5)}
_PROFILE = {"alpha0": _number(-0.5, 3.0), "L0": _number(-0.5, 3.0)}
# every key here is in the command's schema; the ranges keep one run cheap
# (the hj horizon at most 20 steps unless dt is tiny enough to pass the step
# cap, at most 9 H1 samples per axis)
_CONTRACT_KEYS = {
    "theta": {**_GEOMETRY, "alpha": _number(-1.0, 5.0)},
    "alpha-build": {**_GEOMETRY, **_PROFILE, "samples": _count(-3, 300)},
    "check-h1": {**_GEOMETRY, **_PROFILE, "samples": _count(-3, 9)},
    "hj": {**_GEOMETRY, **_PROFILE, "n_z": _count(-2, 64),
           "K0": _number(-2.0, 8.0), "zbar0": _number(-0.7, 0.7),
           "dt": st.one_of(_number(1e-3, 0.02),
                           st.sampled_from([4.8e-109, 1e-300])),
           "record_every": _count(-2, 5),
           "canonical": st.booleans()},
}


@st.composite
def _contract_case(draw):
    command = draw(st.sampled_from(sorted(_CONTRACT_KEYS)))
    keys = _CONTRACT_KEYS[command]
    chosen = draw(st.lists(st.sampled_from(sorted(keys)), unique=True,
                           max_size=4))
    overrides = {k: draw(keys[k]) for k in chosen}
    if command == "hj":
        overrides["T"] = draw(_number(1e-3, 0.02))
    return command, overrides


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_contract_case())
# the draws seldom pick a tiny dt; these runs would never end without the cap
@example(("hj", {"dt": 4.8e-109, "T": 0.01}))
@example(("hj", {"dt": 1e-300, "T": 0.02}))
def test_exit_code_contract(case):
    command, overrides = case
    args = [command]
    for key, value in overrides.items():
        text = str(value).lower() if isinstance(value, bool) else repr(value)
        args += ["--override", f"{key}={text}"]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, \
            contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli(*args, "--out", out)   # an exception here fails too
    # a warning would be an extra stderr line outside the test harness
    assert not caught, [str(w.message) for w in caught]
    assert code in (0, 2, 3, 4)
    lines = err.getvalue().splitlines()
    if code == 0:
        assert lines == []
    else:
        assert len(lines) == 1

        def reject(token):
            raise AssertionError(f"bare {token} in the diagnostic")

        payload = json.loads(lines[0], parse_constant=reject)
        assert {"error", "message", "diagnostics"} <= set(payload)


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


def test_converge_rejects_short_or_increasing_lists(tmp_path):
    assert run_cli("converge", "--out", str(tmp_path / "a"),
                   "--override", "eps_list=0.05,0.025") == 2
    assert run_cli("converge", "--out", str(tmp_path / "b"),
                   "--override", "eps_list=0.0125,0.025,0.05") == 2
