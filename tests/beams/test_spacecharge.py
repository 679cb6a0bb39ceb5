"""PIC space charge: deposition, Poisson solve, gather, kick."""

import numpy as np
import pytest

from repro.beams.spacecharge import (
    SpaceChargeSolver,
    deposit_cic,
    electric_field,
    gather_cic,
    solve_poisson_open,
)

LO = np.array([-1.0, -1.0, -1.0])
HI = np.array([1.0, 1.0, 1.0])


class TestDeposit:
    def test_charge_conservation(self, rng):
        pos = rng.uniform(-0.9, 0.9, (5000, 3))
        grid = deposit_cic(pos, (16, 16, 16), LO, HI)
        assert grid.sum() == pytest.approx(5000.0)

    def test_particle_on_node(self):
        grid = deposit_cic(np.array([[0.0, 0.0, 0.0]]), (3, 3, 3), LO, HI)
        assert grid[1, 1, 1] == pytest.approx(1.0)
        assert grid.sum() == pytest.approx(1.0)

    def test_particle_between_nodes_splits(self):
        # halfway along x between nodes 0 and 1
        grid = deposit_cic(np.array([[-0.5, -1.0, -1.0]]), (3, 3, 3), LO, HI)
        assert grid[0, 0, 0] == pytest.approx(0.5)
        assert grid[1, 0, 0] == pytest.approx(0.5)

    def test_weights(self):
        grid = deposit_cic(
            np.array([[0.0, 0.0, 0.0]]), (3, 3, 3), LO, HI, weights=np.array([2.5])
        )
        assert grid.sum() == pytest.approx(2.5)

    def test_outside_clamped_not_lost(self):
        grid = deposit_cic(np.array([[5.0, 5.0, 5.0]]), (4, 4, 4), LO, HI)
        assert grid.sum() == pytest.approx(1.0)

    def test_empty(self):
        grid = deposit_cic(np.empty((0, 3)), (4, 4, 4), LO, HI)
        assert grid.sum() == 0.0

    def test_too_small_grid_raises(self):
        with pytest.raises(ValueError):
            deposit_cic(np.zeros((1, 3)), (1, 4, 4), LO, HI)


class TestBadInput:
    """Non-finite positions, degenerate bounds and non-(N, 3) positions
    raise instead of landing silently on the grid edge or as NaN.

    Local generators: drawing from the shared ``rng`` fixture would
    shift the stream every later test sees."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_deposit_rejects_non_finite(self, bad):
        pos = np.random.default_rng(1).uniform(-0.9, 0.9, (1000, 3))
        pos[17, 1] = bad
        with pytest.raises(ValueError, match="NaN/Inf"):
            deposit_cic(pos, (8, 8, 8), LO, HI)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_gather_rejects_non_finite(self, bad):
        pos = np.random.default_rng(1).uniform(-0.9, 0.9, (1000, 3))
        pos[3, 2] = bad
        with pytest.raises(ValueError, match="NaN/Inf"):
            gather_cic(np.ones((3, 8, 8, 8)), pos, LO, HI)

    @pytest.mark.parametrize(
        "hi", [np.array([1.0, -1.0, 1.0]), np.array([1.0, 1.0, -2.0]), np.array([1.0, np.nan, 1.0])]
    )
    def test_degenerate_bounds_raise(self, hi):
        pos = np.zeros((5, 3))
        pos[:, 1] = -1.0
        with pytest.raises(ValueError, match="hi > lo"):
            deposit_cic(pos, (4, 4, 4), LO, hi)
        with pytest.raises(ValueError, match="hi > lo"):
            gather_cic(np.ones((4, 4, 4)), pos, LO, hi)

    def test_wide_positions_raise(self):
        particles = np.random.default_rng(2).uniform(-0.9, 0.9, (10, 6))
        with pytest.raises(ValueError, match=r"\(N, 3\)"):
            deposit_cic(particles, (4, 4, 4), LO, HI)
        with pytest.raises(ValueError, match=r"\(N, 3\)"):
            gather_cic(np.ones((4, 4, 4)), particles, LO, HI)
        with pytest.raises(ValueError, match=r"\(N, 3\)"):
            deposit_cic(np.zeros(3), (4, 4, 4), LO, HI)

    def test_field_shape_checked(self):
        with pytest.raises(ValueError, match="nx, ny, nz"):
            gather_cic(np.ones((2, 3, 4, 4, 4)), np.zeros((1, 3)), LO, HI)

    def test_gather_clamps_finite_outside(self):
        """Finite points outside the box still read the edge cells."""
        field = np.arange(64.0).reshape(4, 4, 4)
        outside = gather_cic(field, np.array([[-7.0, 0.0, 0.0]]), LO, HI)
        assert outside[0] == gather_cic(field, np.array([[-1.0, 0.0, 0.0]]), LO, HI)[0]

    def test_kick_with_nan_particle_raises_and_leaves_momenta(self):
        particles = np.random.default_rng(3).normal(0.0, 0.3, (1000, 6))
        particles[500, 0] = np.nan
        before = particles.copy()
        with pytest.raises(ValueError, match="NaN/Inf"):
            SpaceChargeSolver(grid_shape=(8, 8, 8)).kick(particles, dl=0.1)
        assert np.array_equal(particles, before, equal_nan=True)


class TestGather:
    def test_constant_field_exact(self, rng):
        field = np.full((8, 8, 8), 2.5)
        pts = rng.uniform(-0.9, 0.9, (100, 3))
        assert np.allclose(gather_cic(field, pts, LO, HI), 2.5)

    def test_linear_field_exact(self, rng):
        """Trilinear interpolation reproduces linear functions."""
        xs = np.linspace(-1, 1, 9)
        gx, gy, gz = np.meshgrid(xs, xs, xs, indexing="ij")
        field = 2.0 * gx - 3.0 * gy + 0.5 * gz
        pts = rng.uniform(-0.99, 0.99, (200, 3))
        expected = 2.0 * pts[:, 0] - 3.0 * pts[:, 1] + 0.5 * pts[:, 2]
        assert np.allclose(gather_cic(field, pts, LO, HI), expected, atol=1e-12)

    def test_vector_field_shape(self, rng):
        field = np.zeros((3, 8, 8, 8))
        out = gather_cic(field, rng.uniform(-0.5, 0.5, (10, 3)), LO, HI)
        assert out.shape == (3, 10)

    def test_deposit_gather_adjoint(self, rng):
        """<deposit(p), f> == <1_p, gather(f, p)> -- the CIC pair is
        adjoint, a standard PIC consistency requirement."""
        pos = rng.uniform(-0.9, 0.9, (50, 3))
        field = rng.standard_normal((8, 8, 8))
        lhs = float((deposit_cic(pos, (8, 8, 8), LO, HI) * field).sum())
        rhs = float(gather_cic(field, pos, LO, HI).sum())
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestPoisson:
    def test_point_charge_potential(self):
        """phi of a unit point charge matches 1/(4 pi r)."""
        n = 32
        rho = np.zeros((n, n, n))
        cell = np.full(3, 2.0 / n)
        rho[n // 2, n // 2, n // 2] = 1.0 / cell.prod()  # unit charge density
        phi = solve_poisson_open(rho, cell)
        for r_cells in (4, 8, 12):
            r = r_cells * cell[0]
            expected = 1.0 / (4 * np.pi * r)
            actual = phi[n // 2 + r_cells, n // 2, n // 2]
            assert actual == pytest.approx(expected, rel=1e-6)

    def test_superposition(self, rng):
        rho1 = rng.random((8, 8, 8))
        rho2 = rng.random((8, 8, 8))
        cell = np.full(3, 0.25)
        phi12 = solve_poisson_open(rho1 + rho2, cell)
        phi1 = solve_poisson_open(rho1, cell)
        phi2 = solve_poisson_open(rho2, cell)
        assert np.allclose(phi12, phi1 + phi2, atol=1e-10)

    def test_open_boundary_decay(self):
        """No periodic images: potential decays toward the grid edge."""
        n = 32
        rho = np.zeros((n, n, n))
        rho[n // 2, n // 2, n // 2] = 1.0
        phi = solve_poisson_open(rho, np.full(3, 0.1))
        assert phi[n // 2 + 2, n // 2, n // 2] > phi[n - 1, n // 2, n // 2]

    def test_field_points_outward(self):
        n = 16
        rho = np.zeros((n, n, n))
        rho[n // 2, n // 2, n // 2] = 1.0
        cell = np.full(3, 0.1)
        e = electric_field(solve_poisson_open(rho, cell), cell)
        # +x side of the charge: Ex must be positive (repulsive)
        assert e[0, n // 2 + 3, n // 2, n // 2] > 0
        assert e[0, n // 2 - 3, n // 2, n // 2] < 0


class TestSolverKick:
    def test_kick_defocuses_uniform_sphere(self, rng):
        """Space charge pushes particles outward on average."""
        n = 5000
        g = rng.standard_normal((n, 3))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        pos = g * rng.random((n, 1)) ** (1 / 3)
        particles = np.zeros((n, 6))
        particles[:, :3] = pos
        solver = SpaceChargeSolver(grid_shape=(16, 16, 16), strength=1.0)
        solver.kick(particles, dl=0.1)
        radial_p = np.sum(particles[:, 3:] * pos, axis=1) / np.linalg.norm(pos, axis=1)
        assert radial_p.mean() > 0

    def test_zero_strength_no_kick(self, rng):
        particles = rng.standard_normal((100, 6))
        before = particles.copy()
        SpaceChargeSolver(strength=0.0).kick(particles, dl=1.0)
        assert np.array_equal(particles, before)

    def test_field_at_returns_bounds(self, rng):
        particles = rng.standard_normal((200, 6))
        e, lo, hi = SpaceChargeSolver(grid_shape=(8, 8, 8)).field_at(particles)
        assert e.shape == (3, 200)
        assert np.all(lo < hi)
        assert np.all(lo <= particles[:, :3].min(axis=0))
        assert np.all(hi >= particles[:, :3].max(axis=0))
