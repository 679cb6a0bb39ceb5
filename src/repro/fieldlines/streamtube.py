"""Polygonal streamtube baseline (paper Figure 6 (c)).

The conventional representation the paper compares against: each field
line becomes a tube of ``n_sides`` polygonal cross-section, swept with
a parallel-transport frame.  A line of k points costs
``2 * n_sides * (k - 1)`` triangles; the self-orienting strip costs
``2 (k - 1)`` -- the source of the "about five to six times less"
triangle budget at the paper's typical n_sides.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.render.camera import Camera
from repro.render.colormap import Colormap
from repro.render.framebuffer import Framebuffer
from repro.render.raster import rasterize, resolve_opaque
from repro.render.shading import magnitude_t, tube_colors

__all__ = ["TubeMesh", "build_tubes", "render_tubes"]


@dataclass
class TubeMesh:
    """Concatenated streamtubes with per-vertex normals."""

    vertices: np.ndarray
    triangles: np.ndarray
    normals: np.ndarray
    magnitude: np.ndarray
    line_id: np.ndarray
    meta: dict = field(default_factory=dict)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)


def _parallel_transport_frames(points: np.ndarray, tangents: np.ndarray):
    """Propagate a normal frame along the curve without twist."""
    k = len(points)
    normals = np.empty((k, 3))
    t0 = tangents[0]
    ref = np.array([0.0, 0.0, 1.0])
    if abs(np.dot(t0, ref)) > 0.9:
        ref = np.array([1.0, 0.0, 0.0])
    n = np.cross(t0, ref)
    n /= np.linalg.norm(n)
    normals[0] = n
    for i in range(1, k):
        t_prev = tangents[i - 1]
        t_cur = tangents[i]
        axis = np.cross(t_prev, t_cur)
        s = np.linalg.norm(axis)
        c = np.clip(np.dot(t_prev, t_cur), -1.0, 1.0)
        if s < 1e-12:
            normals[i] = normals[i - 1]
            continue
        axis = axis / s
        angle = np.arctan2(s, c)
        v = normals[i - 1]
        # Rodrigues rotation
        normals[i] = (
            v * np.cos(angle)
            + np.cross(axis, v) * np.sin(angle)
            + axis * np.dot(axis, v) * (1.0 - np.cos(angle))
        )
    binormals = np.cross(tangents, normals)
    bn = np.linalg.norm(binormals, axis=1, keepdims=True)
    binormals /= np.where(bn < 1e-12, 1.0, bn)
    return normals, binormals


def build_tubes(lines, radius: float = 0.01, n_sides: int = 6) -> TubeMesh:
    """Build polygonal tubes for the given field lines."""
    if n_sides < 3:
        raise ValueError("a tube needs at least 3 sides")
    verts = []
    tris = []
    norms = []
    mags = []
    ids = []
    v_offset = 0
    angles = 2.0 * np.pi * np.arange(n_sides) / n_sides
    ca, sa = np.cos(angles), np.sin(angles)
    for li, line in enumerate(lines):
        pts = line.points
        if len(pts) < 2:
            continue
        k = len(pts)
        normal, binormal = _parallel_transport_frames(pts, line.tangents)
        ring_dirs = (
            normal[:, None, :] * ca[None, :, None]
            + binormal[:, None, :] * sa[None, :, None]
        )  # (k, n_sides, 3)
        ring = pts[:, None, :] + radius * ring_dirs
        verts.append(ring.reshape(-1, 3))
        norms.append(ring_dirs.reshape(-1, 3))
        mags.append(np.repeat(line.magnitudes, n_sides))
        ids.append(np.full(k * n_sides, li))
        i = np.arange(k - 1)[:, None]
        j = np.arange(n_sides)[None, :]
        jn = (j + 1) % n_sides
        a = v_offset + i * n_sides + j
        b = v_offset + i * n_sides + jn
        c = v_offset + (i + 1) * n_sides + j
        d = v_offset + (i + 1) * n_sides + jn
        quads1 = np.stack([a, b, c], axis=-1).reshape(-1, 3)
        quads2 = np.stack([b, d, c], axis=-1).reshape(-1, 3)
        tris.append(np.vstack([quads1, quads2]))
        v_offset += k * n_sides

    if not verts:
        empty3 = np.empty((0, 3))
        return TubeMesh(
            empty3,
            np.empty((0, 3), dtype=np.int64),
            empty3.copy(),
            np.empty(0),
            np.empty(0),
        )
    return TubeMesh(
        vertices=np.vstack(verts),
        triangles=np.vstack(tris).astype(np.int64),
        normals=np.vstack(norms),
        magnitude=np.concatenate(mags),
        line_id=np.concatenate(ids),
        meta={"radius": radius, "n_sides": n_sides, "n_lines": len(lines)},
    )


def render_tubes(
    camera: Camera,
    tubes: TubeMesh,
    colormap: Colormap | str = "electric",
    fb: Framebuffer | None = None,
    magnitude_range=None,
) -> Framebuffer:
    """Phong-shaded opaque rendering of the tube mesh."""
    if fb is None:
        fb = Framebuffer(camera.width, camera.height)
    if tubes.n_triangles == 0:
        return fb
    frags = rasterize(
        camera,
        tubes.vertices,
        tubes.triangles,
        {"normal": tubes.normals, "mag": tubes.magnitude},
    )
    if len(frags) == 0:
        return fb
    t = magnitude_t(frags.attrs["mag"][:, 0], tubes.magnitude, magnitude_range)
    frags.attrs["rgb"] = tube_colors(frags.attrs["normal"], t, colormap, -camera.forward)
    fb.pixels_over(*resolve_opaque(frags))
    return fb
