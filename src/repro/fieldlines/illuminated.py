"""Line-primitive baselines: flat lines and illuminated lines.

Paper Figure 6 (a) is "conventional line drawing" -- constant-color
1-pixel line segments; Figure 6 (b) is the "illuminated streamline
technique" of Stalling, Zoeckler & Hege [13] -- the same segments lit
through the tangent-based maximum-principle model.  Both share this
rasterization path: each polyline segment is sampled at pixel rate and
splatted as depth-tested fragments.
"""

from __future__ import annotations

import numpy as np

from repro.render.camera import Camera
from repro.render.colormap import Colormap, get_colormap
from repro.render.framebuffer import Framebuffer, resolve_fragments
from repro.render.shading import line_illumination

__all__ = ["line_fragments", "render_lines"]


def line_fragments(camera: Camera, lines, max_samples_per_segment: int = 64):
    """Sample polylines at ~pixel rate into a fragment stream.

    Returns (pix, depth, tangent (F, 3), mag (F,), line_id (F,)).
    """
    pix_all, dep_all, tan_all, mag_all, id_all = [], [], [], [], []
    w, h = camera.width, camera.height
    for li, line in enumerate(lines):
        pts = line.points
        if len(pts) < 2:
            continue
        xy, depth, visible = camera.project(pts)
        a_xy, b_xy = xy[:-1], xy[1:]
        a_d, b_d = depth[:-1], depth[1:]
        seg_ok = visible[:-1] & visible[1:]
        if not seg_ok.any():
            continue
        lengths = np.linalg.norm(b_xy - a_xy, axis=1)
        n_samples = np.clip(np.ceil(lengths).astype(int) + 1, 2, max_samples_per_segment)
        for s in np.flatnonzero(seg_ok):
            ts = np.linspace(0.0, 1.0, n_samples[s])
            sxy = a_xy[s] + (b_xy[s] - a_xy[s]) * ts[:, None]
            sd = a_d[s] + (b_d[s] - a_d[s]) * ts
            ix = np.floor(sxy[:, 0]).astype(np.int64)
            iy = np.floor(sxy[:, 1]).astype(np.int64)
            ok = (ix >= 0) & (ix < w) & (iy >= 0) & (iy < h)
            if not ok.any():
                continue
            pix_all.append(iy[ok] * w + ix[ok])
            dep_all.append(sd[ok])
            tangent = line.tangents[s] + ts[ok, None] * (
                line.tangents[s + 1] - line.tangents[s]
            )
            tan_all.append(tangent)
            mag = line.magnitudes[s] + ts[ok] * (
                line.magnitudes[s + 1] - line.magnitudes[s]
            )
            mag_all.append(mag)
            id_all.append(np.full(ok.sum(), li))
    if not pix_all:
        return (
            np.empty(0, dtype=np.int64),
            np.empty(0),
            np.empty((0, 3)),
            np.empty(0),
            np.empty(0, dtype=np.int64),
        )
    return (
        np.concatenate(pix_all),
        np.concatenate(dep_all),
        np.vstack(tan_all),
        np.concatenate(mag_all),
        np.concatenate(id_all),
    )


def render_lines(
    camera: Camera,
    lines,
    colormap: Colormap | str = "electric",
    fb: Framebuffer | None = None,
    illuminated: bool = True,
    alpha: float = 1.0,
    halo: bool = False,
    halo_pixels: int = 1,
    magnitude_range=None,
) -> Framebuffer:
    """Render lines as 1-pixel primitives.

    ``illuminated=False`` gives the flat "conventional line drawing";
    ``halo=True`` underlays each line with a black border ``halo_pixels``
    wide (the haloed-lines technique the paper compares against).
    """
    if fb is None:
        fb = Framebuffer(camera.width, camera.height)
    pix, dep, tan, mag, _ = line_fragments(camera, lines)
    if len(pix) == 0:
        return fb
    cmap = get_colormap(colormap) if isinstance(colormap, str) else colormap
    if magnitude_range is None:
        lo, hi = float(mag.min()), float(mag.max())
    else:
        lo, hi = magnitude_range
    t = np.clip((mag - lo) / max(hi - lo, 1e-300), 0.0, 1.0)
    base_rgb = cmap(t)
    if illuminated:
        headlight = -camera.forward
        rgb = line_illumination(tan, headlight, headlight, base_rgb)
    else:
        rgb = base_rgb

    if halo:
        # black fragments one pixel around, pushed slightly back in depth
        w = camera.width
        offsets = []
        r = int(halo_pixels)
        for dx in range(-r, r + 1):
            for dy in range(-r, r + 1):
                if dx or dy:
                    offsets.append(dy * w + dx)
        halo_pix = np.concatenate([pix + o for o in offsets])
        valid = (halo_pix >= 0) & (halo_pix < fb.n_pixels)
        halo_pix = halo_pix[valid]
        halo_dep = np.tile(dep, len(offsets))[valid] * 1.0005
        halo_rgba = np.zeros((len(halo_pix), 4))
        halo_rgba[:, 3] = 1.0
        pix = np.concatenate([pix, halo_pix])
        dep = np.concatenate([dep, halo_dep])
        rgba = np.vstack(
            [np.column_stack([rgb, np.full(len(rgb), alpha)]), halo_rgba]
        )
    else:
        rgba = np.column_stack([rgb, np.full(len(rgb), alpha)])

    fb.pixels_over(*resolve_fragments(pix, dep, rgba))
    return fb
