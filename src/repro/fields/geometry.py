"""Accelerator structure geometry generators.

Builds the multi-cell linear accelerator structures of the paper's
section 3 -- "a 3-cell linear accelerator structure" (Figures 6-8) and
"a 12-cell linear accelerator structure" with input/output ports
(Figure 9) -- as all-hexahedral mapped meshes.

The cross-section is a disk meshed with the singularity-free
"squircle" map of the unit square onto the unit disk; the disk is
scaled along z by the cavity radius profile (wide cells joined by
narrow irises).  Ports are modeled as local radial protrusions of the
wall over a z-range on one side; this breaks the radial symmetry of
the geometry exactly as the paper describes ("the radial asymmetry in
the geometry of the ports causes asymmetry in the electric field")
while keeping the mapped topology.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.fields.mesh import StructuredHexMesh

__all__ = [
    "squircle_disk",
    "RadiusProfile",
    "Port",
    "AcceleratorStructure",
    "make_pillbox",
    "make_multicell_structure",
]

# ramp values per block of RadiusProfile.__call__ (z values x cells)
_PROFILE_BLOCK = 1 << 16


def squircle_disk(n: int) -> np.ndarray:
    """Map an (n+1)^2 grid on [-1, 1]^2 to the unit disk.

    Uses the elliptical (Fernandez-Guasti) mapping
    u' = u sqrt(1 - v^2/2), v' = v sqrt(1 - u^2/2), which is smooth and
    bijective -- no polar-axis degeneracy, so every quad is a valid
    element.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    u = np.linspace(-1.0, 1.0, n + 1)
    ug, vg = np.meshgrid(u, u, indexing="ij")
    x = ug * np.sqrt(1.0 - vg * vg / 2.0)
    y = vg * np.sqrt(1.0 - ug * ug / 2.0)
    return np.stack([x, y], axis=-1)


@dataclass(frozen=True)
class RadiusProfile:
    """Piecewise cavity radius r(z) with cosine-blended transitions.

    The structure is  iris | cell | iris | cell | ... | iris : a chain
    of ``n_cells`` cells of radius ``cell_radius`` separated (and
    terminated) by irises of radius ``iris_radius``.
    """

    n_cells: int = 3
    cell_radius: float = 1.0
    iris_radius: float = 0.45
    cell_length: float = 1.0
    iris_length: float = 0.3
    blend_fraction: float = 0.25

    def __post_init__(self):
        if self.n_cells < 1:
            raise ValueError("need at least one cell")
        if not 0 < self.iris_radius <= self.cell_radius:
            raise ValueError("need 0 < iris_radius <= cell_radius")

    @property
    def total_length(self) -> float:
        return self.n_cells * self.cell_length + (self.n_cells + 1) * self.iris_length

    def cell_z_range(self, i: int):
        """(z0, z1) of cell i (0-based)."""
        if not 0 <= i < self.n_cells:
            raise IndexError("cell index out of range")
        z0 = (i + 1) * self.iris_length + i * self.cell_length
        return z0, z0 + self.cell_length

    def __call__(self, z: np.ndarray) -> np.ndarray:
        """Radius at axial positions z (vectorized).

        Every cell's ramps are evaluated together, a bounded block of z
        at a time, so the temporaries stay a fixed size whatever the
        length of ``z``."""
        z = np.asarray(z, dtype=np.float64)
        blend = self.blend_fraction * min(self.cell_length, self.iris_length)
        if blend <= 0.0:
            r = np.full(z.shape, self.iris_radius)
            for i in range(self.n_cells):
                z0, z1 = self.cell_z_range(i)
                inside = (z >= z0) & (z <= z1)
                r = np.where(inside, self.cell_radius, r)
            return r
        z0, z1 = np.array([self.cell_z_range(i) for i in range(self.n_cells)]).T[:, :, None]
        flat = z.reshape(-1)
        r = np.empty(flat.shape)
        cols = max(_PROFILE_BLOCK // self.n_cells, 1)
        for b in range(0, flat.size, cols):
            zb, rb = flat[b : b + cols], r[b : b + cols]
            # cosine ramp up at z0, down at z1, one row per cell
            up = np.clip((zb - (z0 - blend)) / (2 * blend), 0.0, 1.0)
            down = np.clip(((z1 + blend) - zb) / (2 * blend), 0.0, 1.0)
            s = 0.5 - 0.5 * np.cos(np.pi * up)
            e = 0.5 - 0.5 * np.cos(np.pi * down)
            ramp = self.iris_radius + (self.cell_radius - self.iris_radius) * np.minimum(s, e)
            rb[...] = self.iris_radius
            for row in ramp:
                np.maximum(rb, row, out=rb)
        # [()] turns a 0-d result into a scalar, as np.maximum would
        return r.reshape(z.shape)[()]


@dataclass(frozen=True)
class Port:
    """A waveguide port on the structure's outer wall.

    ``side`` is '+y' or '-y'; the port occupies ``z_range`` and bulges
    the wall radially by ``bump`` (relative) over an azimuthal window
    of half-width ``half_angle`` around the side direction.
    """

    name: str
    z_range: tuple
    side: str = "+y"
    kind: str = "input"
    bump: float = 0.18
    half_angle: float = 0.5

    def __post_init__(self):
        if self.side not in ("+y", "-y"):
            raise ValueError("side must be '+y' or '-y'")
        if self.kind not in ("input", "output"):
            raise ValueError("kind must be 'input' or 'output'")

    @property
    def center_angle(self) -> float:
        return np.pi / 2.0 if self.side == "+y" else -np.pi / 2.0

    def angular_window(self, theta: np.ndarray) -> np.ndarray:
        """Smooth 0..1 azimuthal weight of the port bump."""
        d = np.angle(np.exp(1j * (np.asarray(theta) - self.center_angle)))
        return np.clip(1.0 - (np.abs(d) / self.half_angle) ** 2, 0.0, 1.0)

    def axial_window(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=np.float64)
        z0, z1 = self.z_range
        mid = 0.5 * (z0 + z1)
        half = max(0.5 * (z1 - z0), 1e-12)
        return np.clip(1.0 - ((z - mid) / half) ** 2, 0.0, 1.0)


class AcceleratorStructure:
    """A meshed accelerator structure plus its analytic geometry.

    Attributes
    ----------
    mesh : StructuredHexMesh of the interior
    profile : RadiusProfile r(z)
    ports : list of Port
    """

    def __init__(
        self,
        profile: RadiusProfile,
        ports=(),
        n_xy: int = 8,
        n_z_per_unit: float = 8.0,
    ):
        self.profile = profile
        self.ports = list(ports)
        for port in self.ports:
            z0, z1 = port.z_range
            if not (0.0 <= z0 < z1 <= profile.total_length):
                raise ValueError(f"port {port.name!r} z_range outside the structure")
        self.n_xy = int(n_xy)
        length = profile.total_length
        n_z = max(int(round(n_z_per_unit * length)), 2 * profile.n_cells + 1)
        self.n_z = n_z

        disk = squircle_disk(self.n_xy)                   # (n+1, n+1, 2)
        zs = np.linspace(0.0, length, n_z + 1)
        grid = np.empty((self.n_xy + 1, self.n_xy + 1, n_z + 1, 3))
        base_r = self.profile(zs)                         # (nz+1,)
        theta = np.arctan2(disk[..., 1], disk[..., 0])    # (n+1, n+1)
        rho = np.hypot(disk[..., 0], disk[..., 1])        # 0..1
        for k, z in enumerate(zs):
            scale = base_r[k] * self._port_scale(theta, z)
            # bump only affects the outer region, fading to zero at axis
            grid[..., k, 0] = disk[..., 0] * scale
            grid[..., k, 1] = disk[..., 1] * scale
            grid[..., k, 2] = z
        self.mesh = StructuredHexMesh(grid)

    # ------------------------------------------------------------------
    def _port_scale(self, theta: np.ndarray, z: float) -> np.ndarray:
        s = np.ones_like(np.asarray(theta, dtype=np.float64))
        for port in self.ports:
            s = s + port.bump * port.angular_window(theta) * float(
                port.axial_window(z)
            )
        return s

    @property
    def length(self) -> float:
        return self.profile.total_length

    @property
    def n_cells(self) -> int:
        return self.profile.n_cells

    def wall_radius(self, theta: np.ndarray, z: np.ndarray) -> np.ndarray:
        """r(theta, z) of the wall, including port bumps."""
        theta = np.asarray(theta, dtype=np.float64)
        z = np.asarray(z, dtype=np.float64)
        return self._wall(theta, z, [port.angular_window(theta) for port in self.ports])

    def _wall(self, theta, z, windows) -> np.ndarray:
        """:meth:`wall_radius` given each port's angular window."""
        base = self.profile(z)
        s = np.ones(np.broadcast(theta, z).shape)
        for port, window in zip(self.ports, windows):
            s = s + port.bump * window * port.axial_window(z)
        return base * s

    def inside(self, points: np.ndarray, rtol: float = 1e-9) -> np.ndarray:
        """Boolean mask: which points lie inside the vacuum region.

        ``rtol`` is a relative skin tolerance so points *on* the wall
        (e.g. the mesh's own surface vertices) count as inside."""
        return self._regions(points, rtol=rtol)[0]

    def port_region(self, port: Port, points: np.ndarray) -> np.ndarray:
        """Mask of points in the port's drive region (near the wall on
        the port side, within its z-range)."""
        return self._regions(points, [port])[1][0]

    def _regions(self, points, ports=(), rtol: float = 1e-9):
        """The vacuum mask at ``points`` and the drive region of each of
        ``ports``, from one evaluation of theta, r and the wall: the
        helper behind :meth:`inside`, :meth:`port_region` and the
        solver's masks."""
        p = np.atleast_2d(np.asarray(points, dtype=np.float64))
        theta = np.arctan2(p[:, 1], p[:, 0])
        r = np.hypot(p[:, 0], p[:, 1])
        windows = [port.angular_window(theta) for port in self.ports]
        wall = self._wall(theta, np.clip(p[:, 2], 0.0, self.length), windows)
        z_ok = (p[:, 2] >= -rtol * self.length) & (
            p[:, 2] <= self.length * (1.0 + rtol)
        )
        vacuum = z_ok & (r <= wall * (1.0 + rtol))
        near_wall = r >= 0.55 * wall
        regions = []
        for port in ports:
            z0, z1 = port.z_range
            in_window = port.angular_window(theta) > 0.3
            in_z = (p[:, 2] >= z0) & (p[:, 2] <= z1)
            regions.append(near_wall & in_window & in_z & vacuum)
        return vacuum, regions

    def bounds(self):
        return self.mesh.bounds()


def make_pillbox(
    radius: float = 1.0, length: float = 1.5, n_xy: int = 8, n_z_per_unit: float = 8.0
) -> AcceleratorStructure:
    """A single closed cylindrical cavity (the analytic-mode testbed)."""
    profile = RadiusProfile(
        n_cells=1,
        cell_radius=radius,
        iris_radius=radius,           # no narrowing: a plain cylinder
        cell_length=length,
        iris_length=1e-9,
        blend_fraction=0.0,
    )
    return AcceleratorStructure(profile, ports=(), n_xy=n_xy, n_z_per_unit=n_z_per_unit)


def make_multicell_structure(
    n_cells: int = 3,
    cell_radius: float = 1.0,
    iris_radius: float = 0.45,
    cell_length: float = 1.0,
    iris_length: float = 0.3,
    n_xy: int = 8,
    n_z_per_unit: float = 8.0,
    with_ports: bool = True,
) -> AcceleratorStructure:
    """The paper's multi-cell structures.

    ``n_cells=3`` gives the Figure 6-8 testbed, ``n_cells=12`` the
    Figure 9 structure.  With ``with_ports``, input ports (top and
    bottom, first cell) and an output port (top, last cell) are added,
    matching "power flows in from the top and bottom through input
    ports, and then flows to the right".
    """
    profile = RadiusProfile(
        n_cells=n_cells,
        cell_radius=cell_radius,
        iris_radius=iris_radius,
        cell_length=cell_length,
        iris_length=iris_length,
    )
    ports = []
    if with_ports:
        first = profile.cell_z_range(0)
        last = profile.cell_z_range(n_cells - 1)
        ports = [
            Port("input_top", first, side="+y", kind="input"),
            Port("input_bottom", first, side="-y", kind="input"),
            Port("output_top", last, side="+y", kind="output"),
        ]
    return AcceleratorStructure(profile, ports=ports, n_xy=n_xy, n_z_per_unit=n_z_per_unit)
