"""Bitwise reference harness for the per-axis CIC and slice-geometry kernels.

The space-charge CIC pair (:func:`deposit_cic` / :func:`gather_cic`),
the solver's grid-bounds fit and :meth:`FrameGeometry.build` compute
their per-particle and per-pixel index math one 1-D axis column at a
time.  The ``_ref_*`` functions below are the earlier ``(N, 3)``
broadcast forms, kept verbatim: every output of the per-axis kernels
must equal theirs bit for bit -- values, dtype and shape.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.beams.spacecharge import (
    SpaceChargeSolver,
    deposit_cic,
    electric_field,
    gather_cic,
    solve_poisson_open,
)
from repro.core.trace import count
from repro.render.camera import Camera
from repro.render.frame_cache import FrameGeometry, geometry_key
from repro.render.volume import render_volume


# ----------------------------------------------------------------------
# reference kernels: the (N, 3) broadcast forms, verbatim
def _ref_deposit_cic(
    positions: np.ndarray,
    shape,
    lo,
    hi,
    weights: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    positions = np.asarray(positions, dtype=np.float64)
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    shape = tuple(int(s) for s in shape)
    if any(s < 2 for s in shape):
        raise ValueError("grid must be at least 2 nodes in each dimension")
    cell = (hi - lo) / (np.array(shape) - 1)
    if out is None:
        grid = np.zeros(shape)
    else:
        if out.shape != shape:
            raise ValueError(f"out has shape {out.shape}, expected {shape}")
        if out.dtype != np.float64 or not out.flags.c_contiguous:
            raise ValueError("out must be a C-contiguous float64 grid")
        grid = out
    if len(positions) == 0:
        return grid
    # node-centered: rel = (p - lo)/cell, node i at coordinate i
    rel = (positions - lo) / cell
    i0 = np.floor(rel).astype(np.int64)
    i0[:, 0] = np.clip(i0[:, 0], 0, shape[0] - 2)
    i0[:, 1] = np.clip(i0[:, 1], 0, shape[1] - 2)
    i0[:, 2] = np.clip(i0[:, 2], 0, shape[2] - 2)
    f = np.clip(rel - i0, 0.0, 1.0)
    w = np.ones(len(positions)) if weights is None else np.asarray(weights, dtype=np.float64)
    # flat-index bincount: far faster than np.add.at's buffered scatter
    nx, ny, nz = shape
    base = (i0[:, 0] * ny + i0[:, 1]) * nz + i0[:, 2]
    flat = grid.reshape(-1)
    for dx in (0, 1):
        wx = w * (f[:, 0] if dx else 1.0 - f[:, 0])
        for dy in (0, 1):
            wy = wx * (f[:, 1] if dy else 1.0 - f[:, 1])
            for dz in (0, 1):
                wz = wy * (f[:, 2] if dz else 1.0 - f[:, 2])
                idx = base + ((dx * ny + dy) * nz + dz)
                flat += np.bincount(idx, weights=wz, minlength=flat.size)
    return grid


def _ref_gather_cic(field: np.ndarray, positions: np.ndarray, lo, hi) -> np.ndarray:
    positions = np.asarray(positions, dtype=np.float64)
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    field = np.asarray(field, dtype=np.float64)
    vector = field.ndim == 4
    comps = field if vector else field[None]
    nx, ny, nz = comps.shape[1:]
    cell = (hi - lo) / (np.array([nx, ny, nz]) - 1)
    rel = (positions - lo) / cell
    i0 = np.floor(rel).astype(np.int64)
    i0[:, 0] = np.clip(i0[:, 0], 0, nx - 2)
    i0[:, 1] = np.clip(i0[:, 1], 0, ny - 2)
    i0[:, 2] = np.clip(i0[:, 2], 0, nz - 2)
    f = np.clip(rel - i0, 0.0, 1.0)
    out = np.zeros((comps.shape[0], len(positions)))
    # flat-index gathers: one (C, N) take per corner instead of
    # re-deriving 3-D index arithmetic per component
    flat = comps.reshape(comps.shape[0], -1)
    base = (i0[:, 0] * ny + i0[:, 1]) * nz + i0[:, 2]
    for dx in (0, 1):
        wx = f[:, 0] if dx else 1.0 - f[:, 0]
        for dy in (0, 1):
            wy = wx * (f[:, 1] if dy else 1.0 - f[:, 1])
            for dz in (0, 1):
                wz = wy * (f[:, 2] if dz else 1.0 - f[:, 2])
                idx = base + ((dx * ny + dy) * nz + dz)
                out += flat[:, idx] * wz
    return out if vector else out[0]


class _RefSolver(SpaceChargeSolver):
    """The solver with the reference bounds fit, deposit and gather."""

    def _fit_bounds(self, pos: np.ndarray):
        tol = self.bounds_tolerance
        if tol > 0.0 and self._center is not None:
            ext = np.maximum(np.abs(pos - self._center).max(axis=0), 1e-9)
            want = ext * self.padding
            contained = np.all(want <= self._half)
            oversized = np.any(self._half > (1.0 + tol) * want)
            if contained and not oversized:
                count("sc_bounds_reuse")
                return self._center, self._half
        center = pos.mean(axis=0)
        ext = np.maximum(np.abs(pos - center).max(axis=0), 1e-9)
        # sit mid-band so small breathing oscillations stay inside
        self._center = center
        self._half = ext * self.padding * (1.0 + 0.5 * tol)
        count("sc_bounds_refit")
        return self._center, self._half

    def field_at(self, particles: np.ndarray):
        pos = particles[:, :3]
        center, half = self._fit_bounds(pos)
        lo = center - half
        hi = center + half
        cell = (hi - lo) / (np.array(self.grid_shape) - 1)
        rho = _ref_deposit_cic(pos, self.grid_shape, lo, hi)
        rho /= len(particles) * float(np.prod(cell))  # normalized density
        phi = solve_poisson_open(rho, cell)
        e_grid = electric_field(phi, cell)
        e_particles = _ref_gather_cic(e_grid, pos, lo, hi)
        return e_particles, lo, hi


def _ref_build_geometry(camera, vol_shape, lo, hi, n_slices: int) -> FrameGeometry:
    from repro.render.volume import volume_depth_range

    cls = FrameGeometry
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    key = geometry_key(camera, vol_shape, lo, hi, n_slices)
    nx, ny, nz = (int(s) for s in vol_shape[:3])

    d0, d1 = volume_depth_range(camera, lo, hi)
    if d1 <= d0:
        return cls(
            key, d0, d1, 0.0, np.zeros(0),
            np.zeros(0, np.int32), np.zeros(1, np.int64), None,
        )
    slab = (d1 - d0) / n_slices
    depths = d1 - (np.arange(n_slices, dtype=np.float64) + 0.5) * slab

    origins, dirs = camera.pixel_rays()
    cos = np.maximum(dirs @ camera.forward, 1e-9)
    box_span = np.maximum(hi - lo, 1e-300)

    # corner strides of the flattened (nx, ny, nz) grid; clamped
    # axes (grid one voxel wide) collapse their stride to zero
    sx = ny * nz if nx > 1 else 0
    sy = nz if ny > 1 else 0
    sz = 1 if nz > 1 else 0
    corner_offsets = np.array(
        [0, sx, sy, sx + sy, sz, sx + sz, sy + sz, sx + sy + sz],
        dtype=np.int64,
    )

    pix_parts: list[np.ndarray] = []
    idx_parts: list[np.ndarray] = []
    w_parts: list[np.ndarray] = []
    row_start = np.zeros(n_slices + 1, dtype=np.int64)
    for s in range(n_slices):
        t = depths[s] / cos
        pts = origins + dirs * t[:, None]
        coords = (pts - lo) / box_span
        inside = np.all((coords >= 0.0) & (coords <= 1.0), axis=1)
        act = np.flatnonzero(inside)
        row_start[s + 1] = row_start[s] + len(act)
        if len(act) == 0:
            continue
        c = coords[act]
        # cell-centered texel convention, identical to
        # repro.render.volume.trilinear_sample
        fx = np.clip(c[:, 0] * nx - 0.5, 0.0, nx - 1.0)
        fy = np.clip(c[:, 1] * ny - 0.5, 0.0, ny - 1.0)
        fz = np.clip(c[:, 2] * nz - 0.5, 0.0, nz - 1.0)
        x0 = (
            np.minimum(fx.astype(np.int64), nx - 2)
            if nx > 1 else np.zeros(len(c), np.int64)
        )
        y0 = (
            np.minimum(fy.astype(np.int64), ny - 2)
            if ny > 1 else np.zeros(len(c), np.int64)
        )
        z0 = (
            np.minimum(fz.astype(np.int64), nz - 2)
            if nz > 1 else np.zeros(len(c), np.int64)
        )
        tx = fx - x0
        ty = fy - y0
        tz = fz - z0
        wx0, wx1 = 1.0 - tx, tx
        wy0, wy1 = 1.0 - ty, ty
        wz0, wz1 = 1.0 - tz, tz
        w = np.empty((len(c), 8))
        w[:, 0] = wx0 * wy0 * wz0
        w[:, 1] = wx1 * wy0 * wz0
        w[:, 2] = wx0 * wy1 * wz0
        w[:, 3] = wx1 * wy1 * wz0
        w[:, 4] = wx0 * wy0 * wz1
        w[:, 5] = wx1 * wy0 * wz1
        w[:, 6] = wx0 * wy1 * wz1
        w[:, 7] = wx1 * wy1 * wz1
        base = (x0 * ny + y0) * nz + z0
        idx = base[:, None] + corner_offsets[None, :]
        pix_parts.append(act.astype(np.int32))
        idx_parts.append(idx.astype(np.int32))
        w_parts.append(w)

    n_rows = int(row_start[-1])
    if n_rows == 0:
        return cls(
            key, d0, d1, slab, depths,
            np.zeros(0, np.int32), row_start, None,
        )
    pix = np.concatenate(pix_parts)
    data = np.concatenate(w_parts).ravel()
    indices = np.concatenate(idx_parts).ravel()
    indptr = np.arange(0, n_rows * 8 + 1, 8, dtype=np.int64)
    matrix = sp.csr_matrix(
        (data, indices, indptr), shape=(n_rows, nx * ny * nz), copy=False
    )
    return cls(key, d0, d1, slab, depths, pix, row_start, matrix)


# ----------------------------------------------------------------------
def assert_same(a, b):
    """Bitwise equality, including dtype and shape."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype
    assert a.shape == b.shape
    assert np.array_equal(a, b)


@st.composite
def cic_cases(draw):
    """(positions, shape, lo, hi, weights) covering the CIC edge cases:
    empty, one particle, particles on nodes and on the ``hi`` face,
    outside the box, all in one cell, 2-node axes, weights, and
    ``(N, 6)[:, :3]`` strided views."""
    shape = tuple(draw(st.lists(st.integers(2, 9), min_size=3, max_size=3)))
    lo = np.array(draw(st.lists(st.floats(-5.0, 5.0), min_size=3, max_size=3)))
    span = np.array(draw(st.lists(st.floats(0.01, 10.0), min_size=3, max_size=3)))
    hi = lo + span
    n = draw(st.sampled_from([0, 1, 2, 7, 40]))
    # unit coordinates: inside the box, with a margin outside it
    u = draw(arrays(np.float64, (n, 3), elements=st.floats(-0.5, 1.5)))
    kind = draw(st.sampled_from(["free", "nodes", "hi_face", "one_cell"]))
    cells = np.array(shape) - 1
    if kind == "nodes":
        u = draw(arrays(np.int64, (n, 3), elements=st.integers(0, 8))) % (cells + 1) / cells
    elif kind == "one_cell":
        k = np.array([draw(st.integers(0, c - 1)) for c in cells])
        u = (k + np.clip(u, 0.0, 1.0)) / cells
    positions = lo + u * (hi - lo)
    if kind == "hi_face":
        face = draw(st.integers(0, 2))
        positions[:, face] = hi[face]
    if draw(st.booleans()):
        wide = np.zeros((n, 6))
        wide[:, :3] = positions
        wide[:, 3:] = 7.0
        positions = wide[:, :3]
    weights = None
    if draw(st.booleans()):
        weights = draw(arrays(np.float64, (n,), elements=st.floats(0.0, 3.0)))
    return positions, shape, lo, hi, weights


class TestCicReference:
    @given(case=cic_cases())
    @settings(max_examples=150, deadline=None)
    def test_deposit_bitwise(self, case):
        positions, shape, lo, hi, weights = case
        assert_same(
            deposit_cic(positions, shape, lo, hi, weights=weights),
            _ref_deposit_cic(positions, shape, lo, hi, weights=weights),
        )

    @given(case=cic_cases(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_deposit_into_out_bitwise(self, case, seed):
        positions, shape, lo, hi, weights = case
        start = np.random.default_rng(seed).random(shape)
        got, ref = start.copy(), start.copy()
        deposit_cic(positions, shape, lo, hi, weights=weights, out=got)
        _ref_deposit_cic(positions, shape, lo, hi, weights=weights, out=ref)
        assert_same(got, ref)

    @given(case=cic_cases(), vector=st.booleans(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_gather_bitwise(self, case, vector, seed):
        positions, shape, lo, hi, _ = case
        field = np.random.default_rng(seed).standard_normal(((3,) if vector else ()) + shape)
        assert_same(
            gather_cic(field, positions, lo, hi),
            _ref_gather_cic(field, positions, lo, hi),
        )

    @pytest.mark.parametrize("n", [0, 1, 1000, 100_000])
    @pytest.mark.parametrize("shape", [(2, 2, 2), (32, 32, 32), (17, 5, 64)])
    def test_large_beams_bitwise(self, n, shape):
        rng = np.random.default_rng(n + sum(shape))
        particles = rng.normal(0.0, 0.3, (n, 6))
        pos = particles[:, :3]
        lo = np.array([-1.0, -0.8, -1.2])
        hi = np.array([1.1, 0.9, 1.0])
        weights = rng.random(n)
        for w in (None, weights):
            assert_same(
                deposit_cic(pos, shape, lo, hi, weights=w),
                _ref_deposit_cic(pos, shape, lo, hi, weights=w),
            )
        field = rng.standard_normal((3,) + shape)
        assert_same(gather_cic(field, pos, lo, hi), _ref_gather_cic(field, pos, lo, hi))
        assert_same(
            gather_cic(field[1], pos, lo, hi), _ref_gather_cic(field[1], pos, lo, hi)
        )


class TestSolverReference:
    @pytest.mark.parametrize("tolerance", [0.0, 0.05])
    def test_kick_trajectory_bitwise(self, tolerance):
        """20 kicks with drifts between them: every momentum and every
        fitted bound matches the reference solver bit for bit."""
        rng = np.random.default_rng(11)
        start = rng.normal(0.0, 0.4, (3000, 6))
        start[:, 3:] *= 0.05
        got, ref = start.copy(), start.copy()
        kw = dict(grid_shape=(16, 12, 20), strength=0.5, bounds_tolerance=tolerance)
        solver, ref_solver = SpaceChargeSolver(**kw), _RefSolver(**kw)
        for _ in range(20):
            for p in (got, ref):
                p[:, :3] += p[:, 3:] * 0.3
            solver.kick(got, 0.1)
            ref_solver.kick(ref, 0.1)
            assert_same(got, ref)
            assert_same(solver._center, ref_solver._center)
            assert_same(solver._half, ref_solver._half)

    @given(
        pos=arrays(
            np.float64, st.tuples(st.integers(1, 50), st.just(6)),
            elements=st.floats(-1e3, 1e3),
        ),
        tolerance=st.sampled_from([0.0, 0.05, 0.5]),
        shift=st.floats(-1.0, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_fit_bounds_bitwise(self, pos, tolerance, shift):
        solver, ref = SpaceChargeSolver(bounds_tolerance=tolerance), _RefSolver(
            bounds_tolerance=tolerance
        )
        for p in (pos[:, :3], pos[:, :3] * (1.0 + 0.01 * shift) + shift):
            for a, b in zip(solver._fit_bounds(p), ref._fit_bounds(p)):
                assert_same(a, b)


# ----------------------------------------------------------------------
def assert_same_geometry(got: FrameGeometry, ref: FrameGeometry):
    assert got.key == ref.key
    assert (got.d0, got.d1, got.slab) == (ref.d0, ref.d1, ref.slab)
    for name in ("depths", "pix", "row_start"):
        assert_same(getattr(got, name), getattr(ref, name))
    assert (got.matrix is None) == (ref.matrix is None)
    if ref.matrix is not None:
        assert got.matrix.shape == ref.matrix.shape
        for name in ("data", "indices", "indptr"):
            assert_same(getattr(got.matrix, name), getattr(ref.matrix, name))
    assert got.nbytes == ref.nbytes


@st.composite
def geometry_cases(draw):
    unit = st.floats(-1.0, 1.0)
    direction = np.array([draw(unit), draw(unit), draw(unit)])
    if np.linalg.norm(direction) < 1e-3:
        direction = np.array([0.3, 0.25, 1.0])
    lo = np.array([draw(st.floats(-2.0, 0.0)) for _ in range(3)])
    hi = lo + np.array([draw(st.floats(0.1, 3.0)) for _ in range(3)])
    dist = draw(st.floats(0.5, 8.0))
    center = 0.5 * (lo + hi)
    camera = Camera(
        eye=center + dist * direction / np.linalg.norm(direction),
        target=center + np.array([draw(st.floats(-0.3, 0.3)) for _ in range(3)]),
        up=(0.0, 1.0, 0.0) if abs(direction[1]) < 0.9 * np.linalg.norm(direction)
        else (1.0, 0.0, 0.0),
        fov_y=draw(st.floats(20.0, 80.0)),
        width=draw(st.integers(1, 40)),
        height=draw(st.integers(1, 40)),
    )
    shape = tuple(draw(st.sampled_from([1, 2, 3, 7, 16])) for _ in range(3))
    n_slices = draw(st.sampled_from([1, 2, 48]))
    return camera, shape, lo, hi, n_slices


class TestGeometryReference:
    @given(case=geometry_cases())
    @settings(max_examples=80, deadline=None)
    def test_build_bitwise(self, case):
        camera, shape, lo, hi, n_slices = case
        assert_same_geometry(
            FrameGeometry.build(camera, shape, lo, hi, n_slices),
            _ref_build_geometry(camera, shape, lo, hi, n_slices),
        )

    @pytest.mark.parametrize("shape", [(1, 9, 6), (5, 1, 4), (6, 7, 1), (1, 1, 1), (64, 64, 64)])
    @pytest.mark.parametrize("n_slices", [1, 48])
    def test_fitted_camera_bitwise(self, shape, n_slices):
        lo = np.array([-1.0, -0.7, -1.3])
        hi = np.array([1.2, 0.9, 1.1])
        camera = Camera.fit_bounds(lo, hi, width=96, height=80)
        got = FrameGeometry.build(camera, shape, lo, hi, n_slices)
        assert not got.empty
        assert_same_geometry(got, _ref_build_geometry(camera, shape, lo, hi, n_slices))

    def test_empty_geometry_bitwise(self):
        lo, hi = -np.ones(3), np.ones(3)
        away = Camera(eye=(0.0, 0.0, 5.0), target=(0.0, 0.0, 10.0), width=32, height=24)
        got = FrameGeometry.build(away, (8, 8, 8), lo, hi, 16)
        assert got.empty
        assert_same_geometry(got, _ref_build_geometry(away, (8, 8, 8), lo, hi, 16))

    def test_image_bitwise(self):
        vol = np.random.default_rng(5).random((12, 14, 10, 4))
        vol[..., 3] *= 0.3
        lo, hi = np.array([-1.0, -1.0, -1.0]), np.array([1.0, 1.2, 0.8])
        camera = Camera(eye=(2.5, 1.5, 3.0), target=(0, 0, 0), width=48, height=40)
        images = [
            render_volume(camera, vol, lo, hi, n_slices=24, geometry=build(
                camera, vol.shape[:3], lo, hi, 24
            )).rgba
            for build in (FrameGeometry.build, _ref_build_geometry)
        ]
        assert_same(images[0], images[1])
