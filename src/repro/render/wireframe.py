"""Polylines at pixel rate: wireframe overlays and the line sampler.

The paper's figures anchor the field lines in context: Figure 9 shows
the accelerator structure's mesh surface around the lines ("the front
half of the mesh has been removed to permit viewing inside").  This
module draws that context -- constant-color polylines rasterized at
pixel rate with depth, so geometry occludes and is occluded correctly
when composited with strips and volumes.  Its segment sampler,
:func:`sample_polylines`, also rasterizes the flat and illuminated
line baselines of Figure 6 and the polylines of a ``Scene``.
"""

from __future__ import annotations

import numpy as np

from repro.render.camera import Camera
from repro.render.framebuffer import Framebuffer, resolve_fragments

__all__ = [
    "sample_polylines",
    "structure_outline",
    "draw_polyline",
    "draw_box",
    "draw_structure_outline",
]

# the most samples one segment gets: a visible segment that projects
# longer than MAX_SAMPLES_PER_SEGMENT - 1 pixels leaves gaps
MAX_SAMPLES_PER_SEGMENT = 512


def sample_polylines(camera: Camera, polylines):
    """Sample polylines at ~pixel rate, every segment at once.

    ``polylines`` is a sequence of (k, 3) point arrays.  A segment
    whose two ends are visible gets ``n = ceil(projected length) + 1``
    samples, clipped to [2, MAX_SAMPLES_PER_SEGMENT], at the
    ``np.linspace(0, 1, n)`` parameters; the samples that land on the
    screen are the fragments, in polyline, segment and sample order.

    Returns (pix, depth, start, t): flat pixel indices, eye depths, the
    index of each fragment's segment-start vertex in the concatenated
    polylines, and its parameter along that segment.
    """
    pts = [np.atleast_2d(np.asarray(p, dtype=np.float64)) for p in polylines]
    counts = np.array([len(p) for p in pts], dtype=np.int64)
    if counts.sum() < 2:
        return np.empty(0, dtype=np.int64), np.empty(0), np.empty(0, dtype=np.int64), np.empty(0)
    xy, depth, visible = camera.project(np.concatenate(pts))
    last = np.zeros(len(xy), dtype=bool)
    last[np.cumsum(counts)[counts > 0] - 1] = True
    seg = np.flatnonzero(visible[:-1] & visible[1:] & ~last[:-1])
    lengths = np.linalg.norm(xy[seg + 1] - xy[seg], axis=1)
    n = np.clip(np.ceil(lengths).astype(int) + 1, 2, MAX_SAMPLES_PER_SEGMENT)
    first = np.cumsum(n) - n
    # np.linspace(0, 1, n): k * (1 / (n - 1)), the last sample exactly 1
    t = (np.arange(n.sum()) - np.repeat(first, n)) * np.repeat(1.0 / (n - 1), n)
    t[first + n - 1] = 1.0
    s = np.repeat(seg, n)
    sxy = xy[s] + (xy[s + 1] - xy[s]) * t[:, None]
    sd = depth[s] + (depth[s + 1] - depth[s]) * t
    ix = np.floor(sxy[:, 0]).astype(np.int64)
    iy = np.floor(sxy[:, 1]).astype(np.int64)
    ok = (ix >= 0) & (ix < camera.width) & (iy >= 0) & (iy < camera.height)
    return iy[ok] * camera.width + ix[ok], sd[ok], s[ok], t[ok]


def _draw_polylines(camera: Camera, fb: Framebuffer, polylines, color, alpha) -> Framebuffer:
    """Sample every polyline in one call, then composite each polyline's
    fragments on their own, in order: overlapping polylines blend over
    each other rather than resolving as one stream."""
    polylines = [np.atleast_2d(np.asarray(p, dtype=np.float64)) for p in polylines]
    pix, dep, start, _ = sample_polylines(camera, polylines)
    rgba = np.empty((len(pix), 4))
    rgba[:, :3] = np.asarray(color, dtype=np.float64)
    rgba[:, 3] = alpha
    ends = np.searchsorted(start, np.cumsum([len(p) for p in polylines]))
    for lo, hi in zip([0, *ends[:-1]], ends):
        if hi > lo:
            fb.pixels_over(*resolve_fragments(pix[lo:hi], dep[lo:hi], rgba[lo:hi]))
    return fb


def draw_polyline(
    camera: Camera,
    fb: Framebuffer,
    points: np.ndarray,
    color=(0.45, 0.45, 0.5),
    alpha: float = 1.0,
) -> Framebuffer:
    """Draw one polyline into the framebuffer (depth-composited)."""
    return _draw_polylines(camera, fb, [points], color, alpha)


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
    return _draw_polylines(camera, fb, [np.vstack([c[a], c[b]]) for a, b in edges], color, alpha)


def structure_outline(
    structure,
    half: str | None = None,
    n_rings: int = 24,
    n_theta: int = 48,
    n_axial: int = 8,
) -> list[np.ndarray]:
    """The polylines that sketch a structure's wall: ``n_rings`` rings,
    then ``n_axial`` distinct axial lines.

    ``half='back'`` keeps only y <= 0 (the look of the paper's
    Figure 9 with the front half of the mesh removed); 'front' the
    opposite; None the whole wall.
    """
    if half not in (None, "front", "back"):
        raise ValueError("half must be None, 'front', or 'back'")
    if half == "back":
        thetas = np.linspace(np.pi, 2 * np.pi, n_theta)
    elif half == "front":
        thetas = np.linspace(0.0, np.pi, n_theta)
    else:
        thetas = np.linspace(0.0, 2 * np.pi, n_theta + 1)
    polylines = []
    for z in np.linspace(0.0, structure.length, n_rings):
        r = structure.wall_radius(thetas, np.full_like(thetas, z))
        polylines.append(
            np.column_stack([r * np.cos(thetas), r * np.sin(thetas), np.full_like(thetas, z)])
        )
    z_fine = np.linspace(0.0, structure.length, 96)
    # a full ring's last angle is its first: leave it out once
    for theta in np.linspace(thetas[0], thetas[-1], n_axial, endpoint=half is not None):
        r = structure.wall_radius(np.full_like(z_fine, theta), z_fine)
        polylines.append(np.column_stack([r * np.cos(theta), r * np.sin(theta), z_fine]))
    return polylines


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
    """Sketch an accelerator structure's wall as rings + axial lines
    (:func:`structure_outline`)."""
    polylines = structure_outline(structure, half, n_rings, n_theta, n_axial)
    return _draw_polylines(camera, fb, polylines, color, alpha)
