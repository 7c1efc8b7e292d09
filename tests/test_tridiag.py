"""The factor-once tridiagonal kernel behind every implicit diffusion solve."""

import numpy as np
import pytest

from dispersal.errors import SolverError
from dispersal.tridiag import (BlockDiffusion, FactoredDiffusion,
                               diffusion_factor, solve_in_place)

N, H = 24, 1.0 / 24


def dense(mu, n=N, h=H):
    """I - mu*L with L the mirror-ghost Neumann Laplacian."""
    lap = np.diag(np.full(n - 1, 1.0), -1) + np.diag(np.full(n - 1, 1.0), 1)
    lap -= 2.0 * np.eye(n)
    lap[0, 0] = lap[-1, -1] = -1.0
    return np.eye(n) - mu / (h * h) * lap


def rel_err(x, ref):
    return np.max(np.abs(x - ref)) / np.max(np.abs(ref))


def test_factored_matches_dense_solve():
    rng = np.random.default_rng(0)
    solver = FactoredDiffusion(N, H, 0.03)
    b = rng.standard_normal(N)
    rhs = rng.standard_normal((N, 5))
    assert rel_err(solver.solve(b), np.linalg.solve(dense(0.03), b)) <= 1e-13
    x = solver.solve(rhs)
    assert x.shape == (N, 5)
    assert rel_err(x, np.linalg.solve(dense(0.03), rhs)) <= 1e-13


@pytest.mark.parametrize("mus", [[0.03], [0.0, 1e-4, 0.03, 2.0]])
def test_block_matches_dense_solve_per_slice(mus):
    rng = np.random.default_rng(1)
    rhs = rng.standard_normal((len(mus), N))
    x = BlockDiffusion(N, H, np.array(mus)).solve(rhs)
    assert x.shape == rhs.shape
    for j, mu in enumerate(mus):
        assert rel_err(x[j], np.linalg.solve(dense(mu), rhs[j])) <= 1e-13


def test_blocks_are_independent():
    rng = np.random.default_rng(2)
    solver = BlockDiffusion(N, H, np.array([0.01, 0.5, 0.1]))
    rhs = rng.random((3, N))
    base = solver.solve(rhs)
    bumped = rhs.copy()
    bumped[1, N - 1] += 1.0          # last node of the middle block
    out = solver.solve(bumped)
    assert np.array_equal(out[[0, 2]], base[[0, 2]])
    assert np.all(out[1] != base[1])


def test_positive_rhs_gives_positive_solution():
    rng = np.random.default_rng(3)
    mus = np.array([1e-6, 1e-3, 1.0, 1e3])
    rhs = 1e-3 + rng.random((mus.size, N))
    assert np.all(BlockDiffusion(N, H, mus).solve(rhs) > 0.0)
    assert np.all(FactoredDiffusion(N, H, 1e3).solve(rhs.T) > 0.0)


def test_zero_mu_is_the_identity():
    rhs = np.random.default_rng(4).standard_normal((N, 3))
    assert np.array_equal(FactoredDiffusion(N, H, 0.0).solve(rhs), rhs)
    assert np.array_equal(BlockDiffusion(N, H, np.zeros(3)).solve(rhs.T), rhs.T)


def test_negative_mu_is_rejected():
    with pytest.raises(SolverError):
        FactoredDiffusion(N, H, -1e-3)
    with pytest.raises(SolverError):
        BlockDiffusion(N, H, np.array([0.1, -0.1]))


def test_front_ends_solve_into_a_new_array_as_the_in_place_solve():
    rng = np.random.default_rng(6)
    mus = np.array([0.01, 0.5, 0.1])
    rhs = rng.random((mus.size, N))
    before = rhs.copy()
    flat = rhs.reshape(-1).copy()
    assert solve_in_place(diffusion_factor(N, H, mus), flat) is flat
    assert np.array_equal(BlockDiffusion(N, H, mus).solve(rhs),
                          flat.reshape(rhs.shape))
    col = rhs[:1].T.copy(order="F")
    assert np.array_equal(FactoredDiffusion(N, H, 0.01).solve(rhs[:1].T),
                          solve_in_place(diffusion_factor(N, H, [0.01]), col))
    assert np.array_equal(rhs, before)
    # a buffer that dpttrs would copy is refused, not solved into the copy
    with pytest.raises(SolverError, match="in place"):
        solve_in_place(diffusion_factor(N, H, mus),
                       np.ones(2 * mus.size * N)[::2])


def _factored_per_row(mus, rhs):
    return np.array([FactoredDiffusion(N, H, mu).solve(row)
                     for mu, row in zip(mus, rhs)])


def _block(mus, rhs):
    return BlockDiffusion(N, H, mus).solve(rhs)


@pytest.mark.parametrize("solve", [_factored_per_row, _block],
                         ids=["FactoredDiffusion", "BlockDiffusion"])
def test_repeated_solves_conserve_mass(solve):
    # the Neumann Laplacian has zero column sums, so every solve keeps h * sum
    rng = np.random.default_rng(5)
    mus = np.array([1e-4, 0.03, 0.3, 1.0])
    rhs = rng.random((mus.size, N))
    x = rhs
    for _ in range(50):
        x = solve(mus, x)
    mass = H * rhs.sum(axis=1)
    assert np.max(np.abs(H * x.sum(axis=1) - mass) / mass) <= 1e-12
