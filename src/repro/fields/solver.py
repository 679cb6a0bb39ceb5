"""Courant-limited time-domain electromagnetic solver.

The stand-in for Tau3P (paper ref [16]): an explicit leapfrog
finite-difference time-domain (Yee) solver on a Cartesian staggered
grid that embeds the accelerator structure (stairstep PEC walls, the
same boundary treatment first-generation time-domain codes used).

"To achieve the needed accuracy, the simulations must not proceed
faster than electromagnetic information could physically flow through
mesh elements.  To satisfy the Courant Condition, simulating 100
nanoseconds in the real world requires millions of time steps."
:func:`courant_dt` is that constraint; the benches reproduce the
steps-per-nanosecond arithmetic at our scale.

RF power enters through *soft sources* in the input-port regions and
is absorbed by a conductive sponge in output-port regions, emulating
reflection/transmission through open ports.

Tau3P's hex mesh covers only the structure's interior; here the Yee
grid spans the structure's bounding box, and only 16 % of the E nodes
of the 12-cell structure are vacuum.  :meth:`TimeDomainSolver.step`
therefore updates only the *stepped box*: the index bounds of every
vacuum E node (drive and sponge nodes are vacuum nodes), widened by 2
cells on each side and clipped to the grid.  Outside that box the
full-grid update only ever leaves +0.0 while every field value is
finite, so the box step is then byte-equal to it (see
:meth:`~TimeDomainSolver.step` for why and for what differs once a
field overflows).

Units: c = eps0 = mu0 = 1.
"""

from __future__ import annotations

import numpy as np

from repro.core.trace import span
from repro.fields.geometry import AcceleratorStructure
from repro.fields.mesh import HexMesh

__all__ = ["courant_dt", "TimeDomainSolver"]


def courant_dt(dx: float, dy: float, dz: float, cfl: float = 0.99) -> float:
    """Largest stable Yee time step for the given cell size."""
    if min(dx, dy, dz) <= 0:
        raise ValueError("cell sizes must be positive")
    if not 0 < cfl <= 1:
        raise ValueError("cfl must be in (0, 1]")
    return cfl / np.sqrt(1.0 / dx**2 + 1.0 / dy**2 + 1.0 / dz**2)


class TimeDomainSolver:
    """Yee FDTD inside an accelerator structure.

    Parameters
    ----------
    structure : geometry (walls, ports) the fields live in
    cells_per_unit : grid resolution (cells per unit length)
    cfl : Courant number (fraction of the stability limit)
    drive_frequency : port drive in cycles per unit time; default is
        the pillbox TM010 frequency of the structure's cells
    drive_amplitude : soft-source strength
    sponge_sigma : conductivity of the output-port absorber
    """

    def __init__(
        self,
        structure: AcceleratorStructure,
        cells_per_unit: float = 10.0,
        cfl: float = 0.99,
        drive_frequency: float | None = None,
        drive_amplitude: float = 1.0,
        sponge_sigma: float = 2.0,
    ):
        self.structure = structure
        lo, hi = structure.bounds()
        margin = 0.05 * float(np.max(hi - lo))
        self.lo = lo - margin
        self.hi = hi + margin
        extent = self.hi - self.lo
        self.shape = tuple(
            max(int(np.ceil(cells_per_unit * s)), 4) for s in extent
        )
        self.d = extent / np.array(self.shape)
        self.dt = courant_dt(*self.d, cfl=cfl)
        self.time = 0.0
        self.step_count = 0

        nx, ny, nz = self.shape
        self.ex = np.zeros((nx, ny + 1, nz + 1))
        self.ey = np.zeros((nx + 1, ny, nz + 1))
        self.ez = np.zeros((nx + 1, ny + 1, nz))
        self.hx = np.zeros((nx + 1, ny, nz))
        self.hy = np.zeros((nx, ny + 1, nz))
        self.hz = np.zeros((nx, ny, nz + 1))

        if drive_frequency is None:
            from repro.fields.modes import pillbox_tm010

            mode = pillbox_tm010(structure.profile.cell_radius)
            drive_frequency = mode.frequency
        self.drive_frequency = float(drive_frequency)
        self.drive_amplitude = float(drive_amplitude)
        self.sponge_sigma = float(sponge_sigma)

        self._build_masks()

    # ------------------------------------------------------------------
    # grids and masks
    # ------------------------------------------------------------------
    def _component_points(self, which: str) -> np.ndarray:
        """Sample locations of one staggered component, flattened."""
        nx, ny, nz = self.shape
        off = {
            "ex": (0.5, 0.0, 0.0, (nx, ny + 1, nz + 1)),
            "ey": (0.0, 0.5, 0.0, (nx + 1, ny, nz + 1)),
            "ez": (0.0, 0.0, 0.5, (nx + 1, ny + 1, nz)),
            "hx": (0.0, 0.5, 0.5, (nx + 1, ny, nz)),
            "hy": (0.5, 0.0, 0.5, (nx, ny + 1, nz)),
            "hz": (0.5, 0.5, 0.0, (nx, ny, nz + 1)),
        }[which]
        ox, oy, oz, shape = off
        xs = self.lo[0] + (np.arange(shape[0]) + ox) * self.d[0]
        ys = self.lo[1] + (np.arange(shape[1]) + oy) * self.d[1]
        zs = self.lo[2] + (np.arange(shape[2]) + oz) * self.d[2]
        gx, gy, gz = np.meshgrid(xs, ys, zs, indexing="ij")
        return np.stack([gx, gy, gz], axis=-1).reshape(-1, 3), shape

    def component_origin(self, which: str) -> np.ndarray:
        off = {
            "ex": (0.5, 0.0, 0.0),
            "ey": (0.0, 0.5, 0.0),
            "ez": (0.0, 0.0, 0.5),
            "hx": (0.0, 0.5, 0.5),
            "hy": (0.5, 0.0, 0.5),
            "hz": (0.5, 0.5, 0.0),
        }[which]
        return self.lo + np.array(off) * self.d

    def _build_masks(self) -> None:
        """Vacuum masks per E component, port drive/sponge masks, and
        the stepped box.

        The wall is evaluated once per E component; the port regions
        come from the Ez evaluation.  ``_box`` maps each of the six
        component names to the slices of its array over the box's
        cells (``n + 1`` nodes along a node axis, ``n`` samples along a
        staggered one).
        """
        structure = self.structure
        self._mask = {}
        for which in ("ex", "ey", "ez"):
            pts, shape = self._component_points(which)
            vacuum, regions = structure._regions(pts, structure.ports if which == "ez" else ())
            self._mask[which] = vacuum.reshape(shape)
        # drive: Ez sample points (the last pass) in input-port regions
        drive = np.zeros(shape, dtype=bool)
        sponge = np.zeros(shape)
        for port, region in zip(structure.ports, regions):
            region = region.reshape(shape)
            if port.kind == "input":
                drive |= region
            else:
                sponge += self.sponge_sigma * region
        self._drive_mask = drive
        self._sponge = sponge
        self._n_drive = int(drive.sum())

        vacuum = np.concatenate([np.argwhere(m) for m in self._mask.values()])
        if len(vacuum):
            lo = np.maximum(vacuum.min(axis=0) - 2, 0)
            hi = np.minimum(vacuum.max(axis=0) + 2, self.shape)
        else:
            lo, hi = np.zeros(3, dtype=np.int64), np.array(self.shape)
        self._box = {
            name: tuple(
                slice(a, b + (size > n))
                for a, b, size, n in zip(lo, hi, getattr(self, name).shape, self.shape)
            )
            for name in ("ex", "ey", "ez", "hx", "hy", "hz")
        }

    # ------------------------------------------------------------------
    # time stepping
    # ------------------------------------------------------------------
    def _source_value(self, t: float) -> float:
        """Soft source amplitude with a 2-cycle turn-on ramp."""
        w = 2.0 * np.pi * self.drive_frequency
        ramp_time = 2.0 / self.drive_frequency
        ramp = min(t / ramp_time, 1.0)
        return self.drive_amplitude * ramp * np.sin(w * t)

    def step(self) -> None:
        """One leapfrog step: H half-behind E, standard Yee ordering.

        Only the stepped box is updated: the full-grid update runs on
        views of the six arrays, the masks, the drive and the sponge
        over the box's cells, in the same operation order, so a box
        edge acts as a PEC wall.  While every field value is finite
        this is byte-equal to stepping the whole grid.  In the full
        step an E node outside the vacuum is multiplied by 0 each
        step, so it holds +0.0 or -0.0; an H node
        stays +0.0 while every E node in its curl is +-0.0 (x - (+-0.0)
        is +0.0 for x = +0.0); and a masked E node stays +0.0 while
        every H node in its curl is +0.0.  So only the vacuum E nodes,
        the H within one cell of them, and the masked E nodes within
        one cell of those H ever differ from +0.0, and the box holds
        them all, with a node to spare inside its edges.  Once a
        value overflows to inf (a ``dt`` above the Courant limit), a
        masked E node next to it becomes inf * 0 = NaN: the full step
        spreads that NaN one cell a step over the whole grid, the box
        step stops it at the box's edges, so the arrays then differ
        outside the box.  Fields written outside the box are not
        stepped.  ``dt`` is read on every step.
        """
        dt = self.dt
        dx, dy, dz = self.d
        box = self._box
        ex, ey, ez = self.ex[box["ex"]], self.ey[box["ey"]], self.ez[box["ez"]]
        hx, hy, hz = self.hx[box["hx"]], self.hy[box["hy"]], self.hz[box["hz"]]

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
            ez[self._drive_mask[box["ez"]]] += dt * self._source_value(t_mid)

        # -- output-port sponge (conductive absorber) ------------------
        if self.sponge_sigma > 0.0:
            ez *= 1.0 / (1.0 + dt * self._sponge[box["ez"]])

        # -- PEC walls: tangential E vanishes outside the vacuum ------
        ex *= self._mask["ex"][box["ex"]]
        ey *= self._mask["ey"][box["ey"]]
        ez *= self._mask["ez"][box["ez"]]

        self.time += dt
        self.step_count += 1

    def run(self, n_steps: int, on_step=None, every: int = 1) -> None:
        """Advance ``n_steps``; ``on_step(solver)`` fires every
        ``every`` steps."""
        with span("solver_run", n_steps=int(n_steps)):
            for _ in range(int(n_steps)):
                self.step()
                if on_step is not None and self.step_count % every == 0:
                    on_step(self)

    def steps_for(self, duration: float) -> int:
        """Time steps needed to simulate ``duration`` time units --
        the Courant-condition arithmetic of the paper's section 3."""
        return int(np.ceil(duration / self.dt))

    # ------------------------------------------------------------------
    # diagnostics and output
    # ------------------------------------------------------------------
    def energy(self) -> float:
        """Total field energy 0.5 integral(E^2 + H^2)."""
        cell = float(np.prod(self.d))
        return 0.5 * cell * float(
            (self.ex**2).sum()
            + (self.ey**2).sum()
            + (self.ez**2).sum()
            + (self.hx**2).sum()
            + (self.hy**2).sum()
            + (self.hz**2).sum()
        )

    def sample_e(self, points: np.ndarray) -> np.ndarray:
        """Vector E at arbitrary points (component-wise trilinear)."""
        from repro.fields.sampling import sample_staggered

        return np.column_stack(
            [
                sample_staggered(self.ex, self.component_origin("ex"), self.d, points),
                sample_staggered(self.ey, self.component_origin("ey"), self.d, points),
                sample_staggered(self.ez, self.component_origin("ez"), self.d, points),
            ]
        )

    def sample_b(self, points: np.ndarray) -> np.ndarray:
        """Vector B (= H in these units) at arbitrary points."""
        from repro.fields.sampling import sample_staggered

        return np.column_stack(
            [
                sample_staggered(self.hx, self.component_origin("hx"), self.d, points),
                sample_staggered(self.hy, self.component_origin("hy"), self.d, points),
                sample_staggered(self.hz, self.component_origin("hz"), self.d, points),
            ]
        )

    def fields_on_mesh(self, mesh: HexMesh | None = None) -> HexMesh:
        """Sample E and B onto a hex mesh's vertices (default: the
        structure's own mesh), attaching fields "E" and "B".  This is
        the raw per-time-step payload whose size the paper's 26 TB
        storage argument counts."""
        mesh = mesh if mesh is not None else self.structure.mesh
        with span("fields_on_mesh", n_vertices=len(mesh.vertices)):
            mesh.set_field("E", self.sample_e(mesh.vertices))
            mesh.set_field("B", self.sample_b(mesh.vertices))
        return mesh
