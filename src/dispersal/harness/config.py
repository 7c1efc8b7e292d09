"""Experiment configuration: per-command key schemas, INI parsing, overrides.

A config file holds one INI section per command; ``--override key=value``
entries are applied on top.  Every key must appear in the command's schema,
with unknown keys rejected by name before any compute starts.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from pathlib import Path

from ..errors import ValidationError


@dataclass(frozen=True)
class Key:
    name: str
    kind: str          # float | int | bool | floats
    default: object
    help: str = ""


def _keys(*entries) -> dict:
    return {k.name: k for k in entries}


_GEOMETRY = (
    Key("n_x", "int", 64, "habitat cells"),
    Key("m_amp", "float", 0.5, "amplitude of the cosine habitat profile"),
)
_PROFILE = (
    Key("alpha0", "float", 0.5, "dispersal rate at the trait minimum"),
    Key("L0", "float", 0.5, "dispersal rate span"),
)
_HJ_CORE = (
    Key("n_z", "int", 128, "trait cells"),
    Key("K0", "float", 4.0, "initial quadratic stiffness"),
    Key("zbar0", "float", 0.25, "initial trait"),
    Key("T", "float", 1.0, "horizon"),
)

SCHEMAS: dict[str, dict[str, Key]] = {
    "theta": _keys(
        *_GEOMETRY,
        Key("alpha", "float", 0.5, "dispersal rate"),
    ),
    "alpha-build": _keys(
        *_GEOMETRY, *_PROFILE,
        Key("samples", "int", 257, "emitted samples of the profile"),
    ),
    "lambda-surface": _keys(
        *_GEOMETRY, *_PROFILE,
        Key("mutants", "int", 41, "mutant-trait samples"),
        Key("residents", "int", 21, "resident-trait samples"),
    ),
    "check-h1": _keys(
        *_GEOMETRY, *_PROFILE,
        Key("samples", "int", 21, "diagonal samples for the convexity check"),
    ),
    "floquet-test": _keys(
        *_GEOMETRY, *_PROFILE,
        Key("z", "float", 0.3, "mutant trait"),
        Key("resident", "float", 0.25, "frozen resident trait"),
        Key("dtau", "float", 5e-6, "fast-time step"),
        Key("t_end", "float", 0.05, "fast-time record window"),
        Key("tol", "float", 1e-6, "pass threshold on |H - lambda|"),
    ),
    "hj": _keys(
        *_GEOMETRY, *_PROFILE, *_HJ_CORE,
        Key("dt", "float", 0.005, "requested time step"),
        Key("record_every", "int", 10, "steps between records"),
        Key("canonical", "bool", True, "also integrate the trait ODE"),
    ),
    "lax-oleinik": _keys(
        *_GEOMETRY, *_PROFILE, *_HJ_CORE,
        Key("dt", "float", 0.005, "Godunov reference step"),
        Key("dt_dp", "float", 0.015, "DP step"),
        Key("reach", "float", 4.0, "max speed of DP moves"),
    ),
    "pde": _keys(
        *_GEOMETRY, *_PROFILE, *_HJ_CORE,
        Key("eps", "float", 0.05, "scale separation"),
        Key("c_t", "float", 0.1, "time step over eps"),
        Key("out_stride", "int", 10, "steps between outputs"),
        Key("history_stride", "int", 10, "steps between density records"),
        Key("probes", "floats", (0.5, 1.0), "WKB snapshot times"),
    ),
    "converge": _keys(
        *_GEOMETRY, *_PROFILE, *_HJ_CORE,
        Key("eps_list", "floats", (0.05, 0.025, 0.0125), "strictly decreasing"),
        Key("c_t", "float", 0.0125, "time step over eps"),
        Key("hj_dt", "float", 0.005, "limit-solver step"),
        Key("u_probes", "floats", (0.25, 0.5, 0.75, 1.0), "WKB probe times"),
        Key("t_lo", "float", 0.1, "start of the density comparison window"),
        Key("with_h", "bool", True, "compute effective-Hamiltonian metrics"),
        Key("z_samples", "int", 17, "trait samples for the H table"),
        Key("h_t_lo", "float", 0.2, "H comparison window start"),
        Key("h_t_hi", "float", 0.9, "H comparison window end"),
    ),
    "pipeline": _keys(
        *_GEOMETRY, *_PROFILE, *_HJ_CORE,
        Key("eps", "float", 0.05, "scale separation"),
        Key("c_t", "float", 0.1, "time step over eps"),
        Key("dt", "float", 0.005, "limit-solver step"),
    ),
}


def _parse_value(key: Key, raw: str):
    try:
        if key.kind == "float":
            return _finite(key, raw, float(raw))
        if key.kind == "int":
            return int(raw)
        if key.kind == "bool":
            low = raw.strip().lower()
            if low in ("1", "true", "yes", "on"):
                return True
            if low in ("0", "false", "no", "off"):
                return False
            raise ValueError(raw)
        parts = [p for p in raw.replace(";", ",").split(",") if p.strip()]
        return tuple(_finite(key, raw, float(p)) for p in parts)
    except ValueError as exc:
        raise ValidationError(f"cannot parse key '{key.name}' as {key.kind}",
                              key=key.name, value=raw) from exc


def _finite(key: Key, raw: str, value: float) -> float:
    # nan and inf parse as floats but no command can use them; left in,
    # they surface as scipy or overflow tracebacks deep in a run
    if not math.isfinite(value):
        raise ValidationError(f"key '{key.name}' must be finite",
                              key=key.name, value=raw)
    return value


def load_spec(command: str, config_path: str | Path | None,
              overrides: list[str]) -> tuple[dict, dict]:
    """(params, sources) of `command`: each key's value, and where it came
    from (file | override | default)."""
    if command not in SCHEMAS:
        raise ValidationError("unknown command", command=command,
                              known=sorted(SCHEMAS))
    schema = SCHEMAS[command]
    params = {k.name: k.default for k in schema.values()}
    sources = {k: "default" for k in params}

    def assign(name: str, raw: str, source: str) -> None:
        if name not in schema:
            raise ValidationError(
                f"unknown key '{name}' for command '{command}'",
                key=name, command=command)
        params[name] = _parse_value(schema[name], raw)
        sources[name] = source

    if config_path is not None:
        # no %-interpolation: a % in a value fails as an unparsable number
        parser = configparser.ConfigParser(interpolation=None)
        parser.optionxform = str          # keys like T and K0 are case-exact
        try:
            read = parser.read(str(config_path), encoding="utf-8")
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ValidationError("cannot read the config file",
                                  path=str(config_path),
                                  reason=str(exc)) from exc
        if not read:
            raise ValidationError("config file not found",
                                  path=str(config_path))
        if parser.has_section(command):
            for name, raw in parser.items(command):
                assign(name, raw, "file")

    for item in overrides:
        if "=" not in item:
            raise ValidationError("override must look like key=value",
                                  override=item)
        name, raw = item.split("=", 1)
        assign(name.strip(), raw, "override")

    return params, sources
