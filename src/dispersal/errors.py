"""Error types shared across the package.

Every failure carries a short machine-readable code (used by the CLI for its
JSON diagnostics and exit status) plus a ``diagnostics`` dict with whatever
numbers were at hand when the failure was detected.
"""

from __future__ import annotations

import math


class DispersalError(Exception):
    """Base class; subclasses pin the code and the CLI exit status."""

    code = "error"
    exit_code = 3

    def __init__(self, message: str, **diagnostics):
        super().__init__(message)
        self.diagnostics = diagnostics

    def to_json_dict(self) -> dict:
        return {
            "error": self.code,
            "message": str(self),
            "diagnostics": strict(self.diagnostics),
        }


def strict(value):
    """`value` as strict JSON builtins, with the non-finite floats as the
    strings "nan", "inf" and "-inf", inside lists, tuples and dicts too.
    Anything with `tolist()` (a numpy scalar or array) goes through it;
    anything else (a path, say) becomes its str."""
    if isinstance(value, float):
        return value if math.isfinite(value) else str(float(value))
    if isinstance(value, (list, tuple)):
        return [strict(v) for v in value]
    if isinstance(value, dict):
        return {k: strict(v) for k, v in value.items()}
    if value is None or isinstance(value, (str, int)):
        return value
    if hasattr(value, "tolist"):
        return strict(value.tolist())
    return str(value)


class ValidationError(DispersalError):
    """Bad inputs or configuration; rejected before any compute."""

    code = "validation"
    exit_code = 2


class SolverError(DispersalError):
    """A numerical routine failed to produce a certified result."""

    code = "solver"
    exit_code = 3


class ThetaDiverged(SolverError):
    code = "theta-diverged"


class EigenDiverged(SolverError):
    code = "eigen-diverged"


class TrajectoryHitBoundary(SolverError):
    code = "trajectory-hit-boundary"


class CurvatureCollapsed(SolverError):
    code = "curvature-collapsed"


class AprioriViolated(SolverError):
    code = "apriori-violated"


class PopulationExtinct(SolverError):
    code = "population-extinct"


class AcceptanceFailure(DispersalError):
    """A verification pipeline ran to completion but its verdict failed."""

    code = "acceptance"
    exit_code = 4
