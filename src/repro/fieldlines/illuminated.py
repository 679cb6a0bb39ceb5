"""Line-primitive baselines: flat lines and illuminated lines.

Paper Figure 6 (a) is "conventional line drawing" -- constant-color
1-pixel line segments; Figure 6 (b) is the "illuminated streamline
technique" of Stalling, Zoeckler & Hege [13] -- the same segments lit
through the tangent-based maximum-principle model.  Both share this
rasterization path: each polyline segment is sampled at pixel rate
(the wireframe's sampler) and splatted as depth-tested fragments.
"""

from __future__ import annotations

import numpy as np

from repro.render.camera import Camera
from repro.render.colormap import Colormap, get_colormap
from repro.render.framebuffer import Framebuffer, resolve_fragments
from repro.render.shading import line_illumination, magnitude_t
from repro.render.wireframe import sample_polylines

__all__ = ["line_fragments", "render_lines"]


def line_fragments(camera: Camera, lines):
    """Sample polylines at ~pixel rate into a fragment stream
    (:func:`repro.render.wireframe.sample_polylines`), with tangents and
    magnitudes interpolated along each segment.

    Returns (pix, depth, tangent (F, 3), mag (F,), line_id (F,)).
    """
    lines = list(lines)
    pix, dep, start, t = sample_polylines(camera, [line.points for line in lines])
    if len(pix) == 0:
        return pix, dep, np.empty((0, 3)), np.empty(0), np.empty(0, dtype=np.int64)
    tangents = np.concatenate([line.tangents for line in lines])
    magnitudes = np.concatenate([line.magnitudes for line in lines])
    tangent = tangents[start] + t[:, None] * (tangents[start + 1] - tangents[start])
    mag = magnitudes[start] + t * (magnitudes[start + 1] - magnitudes[start])
    line_id = np.repeat(np.arange(len(lines)), [len(line.points) for line in lines])
    return pix, dep, tangent, mag, line_id[start]


def render_lines(
    camera: Camera,
    lines,
    colormap: Colormap | str = "electric",
    fb: Framebuffer | None = None,
    illuminated: bool = True,
    alpha: float = 1.0,
    halo: bool = False,
    magnitude_range=None,
) -> Framebuffer:
    """Render lines as 1-pixel primitives.

    ``illuminated=False`` gives the flat "conventional line drawing";
    ``halo=True`` underlays each line with a black border one pixel
    wide (the haloed-lines technique the paper compares against).
    """
    if fb is None:
        fb = Framebuffer(camera.width, camera.height)
    pix, dep, tan, mag, _ = line_fragments(camera, lines)
    if len(pix) == 0:
        return fb
    cmap = get_colormap(colormap) if isinstance(colormap, str) else colormap
    base_rgb = cmap(np.clip(magnitude_t(mag, mag, magnitude_range), 0.0, 1.0))
    if illuminated:
        headlight = -camera.forward
        rgb = line_illumination(tan, headlight, headlight, base_rgb)
    else:
        rgb = base_rgb

    if halo:
        # black fragments at the 8 neighbours on screen, pushed slightly
        # back in depth
        w, h = camera.width, camera.height
        dx, dy = np.array([(x, y) for x in (-1, 0, 1) for y in (-1, 0, 1) if x or y]).T
        hx = pix % w + dx[:, None]
        hy = pix // w + dy[:, None]
        valid = ((hx >= 0) & (hx < w) & (hy >= 0) & (hy < h)).ravel()
        halo_pix = (hy * w + hx).ravel()[valid]
        halo_dep = np.tile(dep, len(dx))[valid] * 1.0005
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
