"""Fixtures shared by the test modules: a closed-form HJ source, constant and
affine dispersal profiles, midpoint quadrature and a CSV reader."""

from pathlib import Path

import numpy as np

from dispersal.ecology import DispersalProfile
from dispersal.errors import SolverError, ValidationError
from dispersal.grids import SpatialGrid


class SyntheticSource:
    """Closed-form source R(z, t) for tests and oracles.

    `canonical_ode` also reads a `profile` attribute for its interval; set
    one on the instance where a test needs it.
    """

    def __init__(self, rate_fn, grad_fn=None):
        self._rate = rate_fn
        self._grad = grad_fn

    def rate(self, z: np.ndarray, t: float,
             zbar: float | None = None) -> np.ndarray:
        out = np.asarray(self._rate(z, t), dtype=float)
        if not np.all(np.isfinite(out)):
            raise SolverError("source returned a non-finite rate", t=t)
        return np.broadcast_to(out, np.shape(z)).astype(float)

    def diag_gradient(self, zbar: float, t: float = 0.0) -> float:
        if self._grad is not None:
            return float(self._grad(zbar, t))
        dz = 1e-6
        lo = self._rate(np.array([zbar - dz]), t)
        hi = self._rate(np.array([zbar + dz]), t)
        return float((hi - lo) / (2 * dz))


def _floats(z) -> np.ndarray:
    return np.asarray(z, dtype=float)


def constant_profile(value: float, a: float, b: float) -> DispersalProfile:
    return DispersalProfile(a, b, lambda z: np.full_like(_floats(z), value),
                            lambda z: np.zeros_like(_floats(z)),
                            {"kind": "constant", "value": value})


def affine_profile(c0: float, c1: float, a: float,
                   b: float) -> DispersalProfile:
    return DispersalProfile(a, b, lambda z: c0 + c1 * _floats(z),
                            lambda z: np.full_like(_floats(z), c1),
                            {"kind": "affine", "c0": c0, "c1": c1})


def integrate(f) -> float:
    """Midpoint quadrature of a ScalarField or TraitField; exact for
    constants, second order for smooth data."""
    h = f.grid.h_x if isinstance(f.grid, SpatialGrid) else f.grid.h_z
    return float(h * f.values.sum())


def read_csv(path: Path) -> dict[str, np.ndarray]:
    text = Path(path).read_text(encoding="utf-8").strip().splitlines()
    if not text:
        raise ValidationError("empty csv", path=str(path))
    header = text[0].split(",")
    cells = [line.split(",") for line in text[1:]]
    out = {}
    for k, name in enumerate(header):
        out[name] = np.array([float(row[k]) for row in cells])
    return out
