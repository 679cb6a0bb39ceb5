"""The field chain's fast paths against the code they replaced, byte for
byte.

The references below are the full-grid ``TimeDomainSolver.step``, the
per-component ``sample_staggered`` and ``YeeSampler.__call__``, the
per-cell ``RadiusProfile.__call__`` and ``AcceleratorStructure.inside``
(with the ``wall_radius``, ``port_region`` and mask set-up they ran
through), kept verbatim apart from taking their object as an argument.
The solver steps only the box around the vacuum, the sampler gathers
all three components at once, and the profile evaluates every cell's
ramps together; every array they produce must equal the reference's,
signed zeros included.
"""

import tracemalloc

import numpy as np
import pytest

from repro.fields.eigen import ResonanceFinder
from repro.fields.geometry import RadiusProfile, make_multicell_structure, make_pillbox
from repro.fields.sampling import YeeSampler, sample_staggered
from repro.fields.solver import TimeDomainSolver, courant_dt


# -- the references, verbatim ---------------------------------------------
def _reference_step(self) -> None:
    """One leapfrog step: H half-behind E, standard Yee ordering."""
    dt = self.dt
    dx, dy, dz = self.d
    ex, ey, ez = self.ex, self.ey, self.ez
    hx, hy, hz = self.hx, self.hy, self.hz

    # -- update H from curl E -------------------------------------
    hx -= dt * (
        np.diff(ez, axis=1) / dy - np.diff(ey, axis=2) / dz
    )
    hy -= dt * (
        np.diff(ex, axis=2) / dz - np.diff(ez, axis=0) / dx
    )
    hz -= dt * (
        np.diff(ey, axis=0) / dx - np.diff(ex, axis=1) / dy
    )

    # -- update E from curl H (interior nodes only) ---------------
    ex[:, 1:-1, 1:-1] += dt * (
        np.diff(hz[:, :, 1:-1], axis=1) / dy - np.diff(hy[:, 1:-1, :], axis=2) / dz
    )
    ey[1:-1, :, 1:-1] += dt * (
        np.diff(hx[1:-1, :, :], axis=2) / dz - np.diff(hz[:, :, 1:-1], axis=0) / dx
    )
    ez[1:-1, 1:-1, :] += dt * (
        np.diff(hy[:, 1:-1, :], axis=0) / dx - np.diff(hx[1:-1, :, :], axis=1) / dy
    )

    # -- port drive (soft source on Ez) ----------------------------
    t_mid = self.time + 0.5 * dt
    if self._n_drive:
        ez[self._drive_mask] += dt * self._source_value(t_mid)

    # -- output-port sponge (conductive absorber) ------------------
    if self.sponge_sigma > 0.0:
        ez *= 1.0 / (1.0 + dt * self._sponge)

    # -- PEC walls: tangential E vanishes outside the vacuum ------
    ex *= self._mask["ex"]
    ey *= self._mask["ey"]
    ez *= self._mask["ez"]

    self.time += dt
    self.step_count += 1


def _reference_profile(self, z: np.ndarray) -> np.ndarray:
    """Radius at axial positions z (vectorized)."""
    z = np.asarray(z, dtype=np.float64)
    r = np.full(z.shape, self.iris_radius)
    blend = self.blend_fraction * min(self.cell_length, self.iris_length)
    if blend <= 0.0:
        for i in range(self.n_cells):
            z0, z1 = self.cell_z_range(i)
            inside = (z >= z0) & (z <= z1)
            r = np.where(inside, self.cell_radius, r)
        return r
    for i in range(self.n_cells):
        z0, z1 = self.cell_z_range(i)
        # cosine ramp up at z0, down at z1
        up = np.clip((z - (z0 - blend)) / (2 * blend), 0.0, 1.0)
        down = np.clip(((z1 + blend) - z) / (2 * blend), 0.0, 1.0)
        s = 0.5 - 0.5 * np.cos(np.pi * up)
        e = 0.5 - 0.5 * np.cos(np.pi * down)
        r = np.maximum(
            r, self.iris_radius + (self.cell_radius - self.iris_radius) * np.minimum(s, e)
        )
    return r


def _reference_wall_radius(self, theta: np.ndarray, z: np.ndarray) -> np.ndarray:
    """r(theta, z) of the wall, including port bumps."""
    theta = np.asarray(theta, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    base = _reference_profile(self.profile, z)
    s = np.ones(np.broadcast(theta, z).shape)
    for port in self.ports:
        s = s + port.bump * port.angular_window(theta) * port.axial_window(z)
    return base * s


def _reference_inside(self, points: np.ndarray, rtol: float = 1e-9) -> np.ndarray:
    """Boolean mask: which points lie inside the vacuum region."""
    p = np.atleast_2d(np.asarray(points, dtype=np.float64))
    z_ok = (p[:, 2] >= -rtol * self.length) & (
        p[:, 2] <= self.length * (1.0 + rtol)
    )
    theta = np.arctan2(p[:, 1], p[:, 0])
    r = np.hypot(p[:, 0], p[:, 1])
    wall = _reference_wall_radius(self, theta, np.clip(p[:, 2], 0.0, self.length))
    return z_ok & (r <= wall * (1.0 + rtol))


def _reference_port_region(self, port, points: np.ndarray) -> np.ndarray:
    """Mask of points in the port's drive region."""
    p = np.atleast_2d(np.asarray(points, dtype=np.float64))
    z0, z1 = port.z_range
    theta = np.arctan2(p[:, 1], p[:, 0])
    r = np.hypot(p[:, 0], p[:, 1])
    wall = _reference_wall_radius(self, theta, np.clip(p[:, 2], 0.0, self.length))
    near_wall = r >= 0.55 * wall
    in_window = port.angular_window(theta) > 0.3
    in_z = (p[:, 2] >= z0) & (p[:, 2] <= z1)
    return near_wall & in_window & in_z & _reference_inside(self, p)


def _reference_masks(self):
    """Vacuum masks per E component and port drive/sponge masks."""
    mask = {}
    for which in ("ex", "ey", "ez"):
        pts, shape = self._component_points(which)
        mask[which] = _reference_inside(self.structure, pts).reshape(shape)
    # drive: Ez sample points in input-port regions
    pts, shape = self._component_points("ez")
    drive = np.zeros(shape, dtype=bool)
    sponge = np.zeros(shape)
    for port in self.structure.ports:
        region = _reference_port_region(self.structure, port, pts).reshape(shape)
        if port.kind == "input":
            drive |= region
        else:
            sponge += self.sponge_sigma * region
    return mask, drive, sponge, int(drive.sum())


def _reference_sample_staggered(
    arr: np.ndarray, origin: np.ndarray, cell: np.ndarray, points: np.ndarray
) -> np.ndarray:
    """Trilinear sampling of one staggered-grid scalar component."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    rel = (pts - origin) / cell
    shape = np.array(arr.shape)
    inside = np.all((rel >= 0.0) & (rel <= shape - 1), axis=1)
    i0 = np.clip(np.floor(rel).astype(np.int64), 0, np.maximum(shape - 2, 0))
    f = np.clip(rel - i0, 0.0, 1.0)
    out = np.zeros(len(pts))
    ix, iy, iz = i0[:, 0], i0[:, 1], i0[:, 2]
    jx = np.minimum(ix + 1, shape[0] - 1)
    jy = np.minimum(iy + 1, shape[1] - 1)
    jz = np.minimum(iz + 1, shape[2] - 1)
    fx, fy, fz = f[:, 0], f[:, 1], f[:, 2]
    out = (
        arr[ix, iy, iz] * (1 - fx) * (1 - fy) * (1 - fz)
        + arr[jx, iy, iz] * fx * (1 - fy) * (1 - fz)
        + arr[ix, jy, iz] * (1 - fx) * fy * (1 - fz)
        + arr[jx, jy, iz] * fx * fy * (1 - fz)
        + arr[ix, iy, jz] * (1 - fx) * (1 - fy) * fz
        + arr[jx, iy, jz] * fx * (1 - fy) * fz
        + arr[ix, jy, jz] * (1 - fx) * fy * fz
        + arr[jx, jy, jz] * fx * fy * fz
    )
    out[~inside] = 0.0
    return out


class _ReferenceYeeSampler:
    """YeeSampler's constructor and ``__call__``: three component
    copies, one ``sample_staggered`` each."""

    def __init__(self, solver, field: str = "E"):
        names = ("ex", "ey", "ez") if field == "E" else ("hx", "hy", "hz")
        self._comps = [getattr(solver, n).copy() for n in names]
        self._origins = [solver.component_origin(n) for n in names]
        self._cell = solver.d.copy()

    def __call__(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        return np.column_stack(
            [
                _reference_sample_staggered(c, o, self._cell, pts)
                for c, o in zip(self._comps, self._origins)
            ]
        )


# -- helpers --------------------------------------------------------------
FIELDS = ("ex", "ey", "ez", "hx", "hy", "hz")


def assert_bytes_equal(a, b):
    """Same type, dtype, shape and bytes (signed zeros and NaN bits)."""
    assert type(a) is type(b)
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def field_sos_structure():
    """The 12-cell structure of the pipeline bench's field_sos workload."""
    return make_multicell_structure(12, n_xy=5, n_z_per_unit=5)


def fig68_structure():
    """The 3-cell structure of FIG6 and FIG8."""
    return make_multicell_structure(3, n_xy=5, n_z_per_unit=5)


def pair(make, **kwargs):
    """A solver to step with ``step`` and one to step with the reference."""
    return TimeDomainSolver(make(), **kwargs), TimeDomainSolver(make(), **kwargs)


def run_both(fast, ref, n_steps):
    for _ in range(n_steps):
        fast.step()
        _reference_step(ref)


def assert_fields_equal(fast, ref):
    for name in FIELDS:
        assert_bytes_equal(getattr(fast, name), getattr(ref, name))
    assert fast.time == ref.time and fast.step_count == ref.step_count


@pytest.fixture(scope="module")
def stepped():
    """A field_sos solver after 120 driven steps (nonzero E and H)."""
    solver = TimeDomainSolver(field_sos_structure(), cells_per_unit=8)
    solver.run(120)
    return solver


# -- masks and stepping ---------------------------------------------------
class TestMasks:
    @pytest.mark.parametrize("make", [field_sos_structure, fig68_structure])
    def test_masks_drive_and_sponge_bitwise(self, make):
        solver = TimeDomainSolver(make(), cells_per_unit=8)
        mask, drive, sponge, n_drive = _reference_masks(solver)
        for which in ("ex", "ey", "ez"):
            assert_bytes_equal(solver._mask[which], mask[which])
        assert_bytes_equal(solver._drive_mask, drive)
        assert_bytes_equal(solver._sponge, sponge)
        assert solver._n_drive == n_drive > 0
        assert sponge.max() > 0

    def test_port_region_bitwise(self):
        s = field_sos_structure()
        solver = TimeDomainSolver(s, cells_per_unit=8)
        pts, _ = solver._component_points("ez")
        for port in s.ports:
            assert_bytes_equal(s.port_region(port, pts), _reference_port_region(s, port, pts))

    def test_box_is_smaller_than_the_grid(self):
        solver = TimeDomainSolver(field_sos_structure(), cells_per_unit=8)
        box = solver._box["hx"]  # cells along y and z, nodes along x
        cells = (box[0].stop - box[0].start - 1) * np.prod(
            [sl.stop - sl.start for sl in box[1:]]
        )
        assert cells < 0.6 * np.prod(solver.shape)


class TestStep:
    @pytest.mark.parametrize("make", [field_sos_structure, fig68_structure])
    def test_driven_300_steps_bitwise(self, make):
        fast, ref = pair(make, cells_per_unit=8)
        assert fast._n_drive and fast.sponge_sigma > 0
        run_both(fast, ref, 300)
        assert np.abs(fast.ez).max() > 0 and np.abs(fast.hx).max() > 0
        assert_fields_equal(fast, ref)

    @pytest.mark.parametrize("smooth", [True, False])
    def test_kicked_cavity_without_drive_bitwise(self, smooth):
        """The eigenmode pattern: a masked Ez start (a Gaussian blob, or
        white noise whose negative values leave -0.0 products), then
        free ringing with the drive off."""
        fast, ref = pair(
            lambda: make_pillbox(radius=1.0, length=1.5, n_xy=5, n_z_per_unit=5),
            cells_per_unit=8.0,
        )
        for solver in (fast, ref):
            ResonanceFinder(solver).kick(seed=3, smooth=smooth)
        assert_fields_equal(fast, ref)
        run_both(fast, ref, 300)
        assert_fields_equal(fast, ref)

    def test_ported_structure_kicked_without_drive_bitwise(self):
        fast, ref = pair(fig68_structure, cells_per_unit=8, drive_amplitude=0.0)
        for solver in (fast, ref):
            ResonanceFinder(solver).kick()
        run_both(fast, ref, 300)
        assert_fields_equal(fast, ref)

    def test_dt_changed_after_construction_bitwise(self):
        """``step`` reads ``self.dt`` on every step, as
        benchmarks/bench_courant.py relies on."""
        fast, ref = pair(fig68_structure, cells_per_unit=8)
        for solver in (fast, ref):
            solver.dt = courant_dt(*solver.d, cfl=0.5)
        run_both(fast, ref, 150)
        assert_fields_equal(fast, ref)
        for solver in (fast, ref):
            solver.dt = courant_dt(*solver.d, cfl=0.9)
        run_both(fast, ref, 150)
        assert_fields_equal(fast, ref)

    def test_run_matches_stepping(self):
        fast, ref = pair(fig68_structure, cells_per_unit=8)
        fast.run(40)
        for _ in range(40):
            _reference_step(ref)
        assert_fields_equal(fast, ref)


# -- sampling -------------------------------------------------------------
def sample_points(solver, n, rng):
    """n random points over the grid's box widened by a third each side."""
    lo, hi = solver.lo, solver.hi
    pad = (hi - lo) / 3.0
    return rng.uniform(lo - pad, hi + pad, (n, 3))


def special_points(solver):
    """Exact node coordinates, the upper faces, and non-finite points."""
    pts = []
    for name in FIELDS:
        origin = solver.component_origin(name)
        shape = np.array(getattr(solver, name).shape)
        idx = np.array([[0, 0, 0], shape - 1, shape // 2, [1, 2, 3], shape - 2])
        pts.append(origin + idx * solver.d)
        upper = origin + (shape - 1) * solver.d
        face = origin + (shape // 3) * solver.d
        for axis in range(3):
            on_face = face.copy()
            on_face[axis] = upper[axis]
            pts.append(on_face[None])
            past = on_face.copy()
            past[axis] = np.nextafter(upper[axis], np.inf)
            pts.append(past[None])
    mid = 0.5 * (solver.lo + solver.hi)
    bad = np.array(
        [
            [np.nan, mid[1], mid[2]],
            [mid[0], np.nan, mid[2]],
            [mid[0], mid[1], np.nan],
            [np.inf, mid[1], mid[2]],
            [mid[0], -np.inf, mid[2]],
            [mid[0], mid[1], np.inf],
            [-np.inf, -np.inf, -np.inf],
            [np.nan, np.nan, np.nan],
            [1e300, 0.0, 0.0],
        ]
    )
    return np.vstack(pts + [bad])


class TestSampling:
    @pytest.mark.parametrize("n", [0, 1, 16, 100_000])
    @pytest.mark.parametrize("field", ["E", "B"])
    def test_random_points_bitwise(self, stepped, n, field):
        pts = sample_points(stepped, n, np.random.default_rng(n + 1))
        fast, ref = YeeSampler(stepped, field), _ReferenceYeeSampler(stepped, field)
        assert_bytes_equal(fast(pts), ref(pts))

    @pytest.mark.parametrize("field", ["E", "B"])
    def test_nodes_faces_and_non_finite_points_bitwise(self, stepped, field):
        pts = special_points(stepped)
        with np.errstate(invalid="ignore"):
            fast = YeeSampler(stepped, field)(pts)
            ref = _ReferenceYeeSampler(stepped, field)(pts)
        assert_bytes_equal(fast, ref)
        assert np.all(fast[-9:] == 0.0)

    def test_single_point_and_list_input_bitwise(self, stepped):
        point = [float(v) for v in 0.5 * (stepped.lo + stepped.hi)]
        for pts in (point, [point, point], np.asarray(point)):
            assert_bytes_equal(YeeSampler(stepped)(pts), _ReferenceYeeSampler(stepped)(pts))

    @pytest.mark.parametrize("name", FIELDS)
    def test_sample_staggered_bitwise(self, stepped, name):
        arr = getattr(stepped, name)
        origin = stepped.component_origin(name)
        rng = np.random.default_rng(7)
        with np.errstate(invalid="ignore"):
            for pts in (
                sample_points(stepped, 0, rng),
                sample_points(stepped, 1, rng),
                sample_points(stepped, 16, rng),
                sample_points(stepped, 100_000, rng),
                special_points(stepped),
            ):
                assert_bytes_equal(
                    sample_staggered(arr, origin, stepped.d, pts),
                    _reference_sample_staggered(arr, origin, stepped.d, pts),
                )

    def test_sample_staggered_non_contiguous_and_degenerate_bitwise(self):
        rng = np.random.default_rng(11)
        cell = np.array([0.5, 0.25, 1.0])
        origin = np.array([-1.0, 0.5, 2.0])
        for arr in (
            rng.standard_normal((9, 7, 5))[::2, :, ::-1],
            rng.standard_normal((1, 6, 2)),
            rng.standard_normal((2, 1, 1)),
            np.arange(9 * 7 * 5).reshape(9, 7, 5),
            rng.standard_normal((4, 5, 6)).astype(np.float32),
        ):
            pts = origin + rng.uniform(-1.0, 6.0, (500, 3)) * cell
            assert_bytes_equal(
                sample_staggered(arr, origin, cell, pts),
                _reference_sample_staggered(arr, origin, cell, pts),
            )

    def test_frozen_while_the_solver_steps(self):
        solver = TimeDomainSolver(fig68_structure(), cells_per_unit=8)
        solver.run(60)
        fast, ref = YeeSampler(solver, "E"), _ReferenceYeeSampler(solver, "E")
        pts = sample_points(solver, 2_000, np.random.default_rng(5))
        before = fast(pts)
        solver.run(40)
        assert_bytes_equal(fast(pts), before)
        assert_bytes_equal(fast(pts), ref(pts))
        assert not np.array_equal(YeeSampler(solver, "E")(pts), before)


# -- geometry -------------------------------------------------------------
PROFILES = [
    RadiusProfile(n_cells=12),
    RadiusProfile(n_cells=3),
    RadiusProfile(n_cells=1),
    RadiusProfile(n_cells=2, blend_fraction=1.0, iris_length=0.5),
    make_pillbox().profile,
    make_pillbox(radius=0.7, length=2.0).profile,
]


def dense_z(profile, n=20_001):
    """A dense grid through every blend zone and past both ends."""
    length = profile.total_length
    return np.linspace(-0.25 * length - 0.1, 1.25 * length + 0.1, n)


class TestProfile:
    @pytest.mark.parametrize("profile", PROFILES)
    def test_dense_grid_bitwise(self, profile):
        z = dense_z(profile)
        edges = np.array([profile.cell_z_range(i) for i in range(profile.n_cells)]).ravel()
        z = np.concatenate([z, edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)])
        assert_bytes_equal(profile(z), _reference_profile(profile, z))

    @pytest.mark.parametrize("profile", PROFILES)
    def test_scalar_and_2d_bitwise(self, profile):
        z = dense_z(profile, 3_000)
        for value in (z[0], z[1_500], float(z[2_000]), 0.0):
            assert_bytes_equal(profile(value), _reference_profile(profile, value))
        grid = z.reshape(60, 50)
        assert_bytes_equal(profile(grid), _reference_profile(profile, grid))
        assert_bytes_equal(profile(grid.T), _reference_profile(profile, grid.T))
        empty = np.zeros((0, 4))
        assert_bytes_equal(profile(empty), _reference_profile(profile, empty))

    @pytest.mark.parametrize("profile", PROFILES)
    def test_non_finite_bitwise(self, profile):
        z = np.array([np.nan, np.inf, -np.inf, -np.nan, 1e300, -1e300])
        assert_bytes_equal(profile(z), _reference_profile(profile, z))

    def test_memory_stays_bounded(self):
        """A one-shot (N, n_cells) broadcast would peak at 8 x n_cells
        bytes per point: 96 MB here.  The blocked evaluation holds the
        result plus a fixed-size block."""
        profile = RadiusProfile(n_cells=12)
        z = dense_z(profile, 1_000_000)
        tracemalloc.start()
        try:
            profile(z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 8 * len(z)


class TestInside:
    @pytest.mark.parametrize("make", [field_sos_structure, fig68_structure])
    def test_million_points_around_the_bounds_bitwise(self, make):
        s = make()
        lo, hi = s.bounds()
        pad = 0.1 * (hi - lo)
        pts = np.random.default_rng(13).uniform(lo - pad, hi + pad, (1_000_000, 3))
        fast = s.inside(pts)
        assert_bytes_equal(fast, _reference_inside(s, pts))
        assert 0.2 < fast.mean() < 0.8

    def test_wall_vertices_rtol_and_non_finite_bitwise(self):
        s = field_sos_structure()
        verts = s.mesh.vertices
        bad = np.array([[np.nan, 0, 1], [0, 0, np.nan], [np.inf, 0, 1], [0, 0, -np.inf]])
        for pts in (verts, verts * (1 + 1e-9), verts * (1 + 1e-6), bad, verts[0]):
            for rtol in (1e-9, 0.0, 1e-3):
                assert_bytes_equal(s.inside(pts, rtol), _reference_inside(s, pts, rtol))

    def test_pillbox_bitwise(self):
        s = make_pillbox()
        pts = np.random.default_rng(17).uniform(-1.5, 2.0, (200_000, 3))
        assert_bytes_equal(s.inside(pts), _reference_inside(s, pts))

    def test_wall_radius_bitwise(self):
        s = field_sos_structure()
        rng = np.random.default_rng(19)
        theta = rng.uniform(-np.pi, np.pi, 5_000)
        z = rng.uniform(-0.5, s.length + 0.5, 5_000)
        assert_bytes_equal(s.wall_radius(theta, z), _reference_wall_radius(s, theta, z))
        assert_bytes_equal(
            s.wall_radius(theta[:, None], z[None, :50]),
            _reference_wall_radius(s, theta[:, None], z[None, :50]),
        )
