"""One factor-once kernel for the implicit Neumann diffusion solves.

Every implicit substep in the package solves (I - mu*L) x = b, with L the
mirror-ghost Neumann Laplacian on n nodes of spacing h.  `diffusion_factor`
stacks one n-node block per mu along a single axis, with zero couplings
between the blocks, and factors the whole symmetric tridiagonal matrix once
with LAPACK's dpttrf (A = L D L^T, L unit lower bidiagonal).  Each later
solve is one `solve_in_place` (dpttrs) call over its argument, so a march
that holds the factor steps without a copy; `FactoredDiffusion` (one mu,
many right-hand sides) and `BlockDiffusion` (one mu per slice) are
front-ends that solve into a new array.

Positivity: I - mu*L is a diagonally dominant M-matrix, so its factor has
pivots d > 0 and multipliers l <= 0.  Forward substitution
y_i = b_i - l_{i-1} y_{i-1}, the scaling by 1/d_i and back substitution
x_i = y_i / d_i - l_i x_{i+1} then only add nonnegative terms, so a positive
right-hand side gives a strictly positive solution.  That sign pattern is
checked once per factorization; it is what keeps the marched densities
positive exactly.
"""

from __future__ import annotations

import numpy as np

from .errors import SolverError
from .grids import neumann_bands
from .lapack import dpttrf, dpttrs


def diffusion_factor(n: int, h: float, mus) -> tuple[np.ndarray, np.ndarray]:
    """dpttrf factor (d, l) of the stacked blocks I - mu_j*L, one per mu."""
    mus = np.asarray(mus, dtype=float)
    if mus.ndim != 1 or not np.all(mus >= 0.0):
        raise SolverError("implicit diffusion needs mu >= 0",
                          mu_min=float(np.min(mus)))
    main, band = neumann_bands(mus / (h * h), n)
    off = np.zeros((mus.size, n))
    off[:, :-1] = band                # zero at every block end: no coupling
    d, l, info = dpttrf((1.0 + main).ravel(), off.ravel()[:-1],
                        overwrite_d=1, overwrite_e=1)
    if info != 0:
        raise SolverError("diffusion factorization failed", info=int(info))
    if not (np.all(d > 0.0) and np.all(l <= 0.0)):
        raise SolverError("diffusion factor lost its positivity sign pattern",
                          d_min=float(d.min()), l_max=float(l.max()))
    return d, l


def solve_in_place(factor, x: np.ndarray) -> np.ndarray:
    """Overwrite x, the stacked blocks as one contiguous float vector or an
    (n, k) Fortran-ordered float array of k systems, with its solution
    through the `diffusion_factor` factor; returns x."""
    out, info = dpttrs(*factor, x, 1)     # overwrite_b, positional: faster
    if info != 0 or out is not x:
        raise SolverError("diffusion solve failed in place", info=int(info))
    return x


class FactoredDiffusion:
    """(I - mu*L)^{-1} for one mu, applied through a cached factorization."""

    def __init__(self, n: int, h: float, mu: float):
        self._factor = diffusion_factor(n, h, [mu])

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve (I - mu*L) x = rhs; rhs may be (n,) or (n, k) for k systems."""
        return solve_in_place(self._factor,
                              np.array(rhs, dtype=float, order="F"))


class BlockDiffusion:
    """Batched per-slice solves of (I - mu_j*L) x_j = rhs_j, one mu per slice."""

    def __init__(self, n: int, h: float, mus: np.ndarray):
        self._factor = diffusion_factor(n, h, mus)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """rhs has shape (n_slices, n); returns the same shape."""
        x = np.array(rhs, dtype=float, order="C")   # so reshape(-1) is a view
        return solve_in_place(self._factor, x.reshape(-1)).reshape(rhs.shape)
