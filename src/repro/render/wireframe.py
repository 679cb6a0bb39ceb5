"""Wireframe overlays: boxes, polylines, structure outlines.

The paper's figures anchor the field lines in context: Figure 9 shows
the accelerator structure's mesh surface around the lines ("the front
half of the mesh has been removed to permit viewing inside").  This
module draws that context -- constant-color polylines rasterized at
pixel rate with depth, so geometry occludes and is occluded correctly
when composited with strips and volumes.
"""

from __future__ import annotations

import numpy as np

from repro.render.camera import Camera
from repro.render.framebuffer import Framebuffer, resolve_fragments

__all__ = ["draw_polyline", "draw_box", "draw_structure_outline"]


def _polyline_fragments(camera: Camera, points: np.ndarray):
    """Sample a polyline at ~pixel rate; returns (pix, depth)."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    xy, depth, visible = camera.project(pts)
    pix_all, dep_all = [], []
    w, h = camera.width, camera.height
    for s in range(len(pts) - 1):
        if not (visible[s] and visible[s + 1]):
            continue
        length = np.linalg.norm(xy[s + 1] - xy[s])
        n = int(np.clip(np.ceil(length) + 1, 2, 512))
        ts = np.linspace(0.0, 1.0, n)
        sxy = xy[s] + (xy[s + 1] - xy[s]) * ts[:, None]
        sd = depth[s] + (depth[s + 1] - depth[s]) * ts
        ix = np.floor(sxy[:, 0]).astype(np.int64)
        iy = np.floor(sxy[:, 1]).astype(np.int64)
        ok = (ix >= 0) & (ix < w) & (iy >= 0) & (iy < h)
        pix_all.append(iy[ok] * w + ix[ok])
        dep_all.append(sd[ok])
    if not pix_all:
        return np.empty(0, dtype=np.int64), np.empty(0)
    return np.concatenate(pix_all), np.concatenate(dep_all)


def draw_polyline(
    camera: Camera,
    fb: Framebuffer,
    points: np.ndarray,
    color=(0.45, 0.45, 0.5),
    alpha: float = 1.0,
) -> Framebuffer:
    """Draw one polyline into the framebuffer (depth-composited)."""
    pix, dep = _polyline_fragments(camera, points)
    if len(pix) == 0:
        return fb
    rgba = np.empty((len(pix), 4))
    rgba[:, :3] = np.asarray(color, dtype=np.float64)
    rgba[:, 3] = alpha
    fb.pixels_over(*resolve_fragments(pix, dep, rgba))
    return fb


def draw_box(
    camera: Camera,
    fb: Framebuffer,
    lo,
    hi,
    color=(0.35, 0.35, 0.4),
    alpha: float = 1.0,
) -> Framebuffer:
    """Draw the 12 edges of an axis-aligned box."""
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    c = [
        np.array([x, y, z])
        for x in (lo[0], hi[0])
        for y in (lo[1], hi[1])
        for z in (lo[2], hi[2])
    ]
    edges = [
        (0, 1), (2, 3), (4, 5), (6, 7),   # z edges
        (0, 2), (1, 3), (4, 6), (5, 7),   # y edges
        (0, 4), (1, 5), (2, 6), (3, 7),   # x edges
    ]
    for a, b in edges:
        draw_polyline(camera, fb, np.vstack([c[a], c[b]]), color=color, alpha=alpha)
    return fb


def draw_structure_outline(
    camera: Camera,
    fb: Framebuffer,
    structure,
    n_rings: int = 24,
    n_theta: int = 48,
    n_axial: int = 8,
    color=(0.4, 0.42, 0.48),
    alpha: float = 0.5,
    half: str | None = None,
) -> Framebuffer:
    """Sketch an accelerator structure's wall as rings + axial lines.

    ``half='back'`` draws only y <= 0 (the look of the paper's
    Figure 9 with the front half of the mesh removed); 'front' the
    opposite; None draws everything.
    """
    if half not in (None, "front", "back"):
        raise ValueError("half must be None, 'front', or 'back'")
    if half == "back":
        thetas = np.linspace(np.pi, 2 * np.pi, n_theta)
    elif half == "front":
        thetas = np.linspace(0.0, np.pi, n_theta)
    else:
        thetas = np.linspace(0.0, 2 * np.pi, n_theta + 1)
    zs = np.linspace(0.0, structure.length, n_rings)
    # rings
    for z in zs:
        r = structure.wall_radius(thetas, np.full_like(thetas, z))
        ring = np.column_stack([r * np.cos(thetas), r * np.sin(thetas), np.full_like(thetas, z)])
        draw_polyline(camera, fb, ring, color=color, alpha=alpha)
    # axial lines
    z_fine = np.linspace(0.0, structure.length, 96)
    for theta in np.linspace(thetas[0], thetas[-1], n_axial):
        r = structure.wall_radius(np.full_like(z_fine, theta), z_fine)
        line = np.column_stack(
            [r * np.cos(theta), r * np.sin(theta), z_fine]
        )
        draw_polyline(camera, fb, line, color=color, alpha=alpha)
    return fb
