"""Interior-structure disambiguation (paper section 3.3.3).

Three tools for seeing inside very dense line data:

- ``cutaway``: remove the lines in front of a clip plane ("cut away
  the data which is not in the region of interest", Figure 6 (h));
- ``region_emphasis_alpha``: opaque region of interest, transparent
  context ("leave the region of interest opaque while using
  transparency to de-emphasize the remaining data", Figure 6 (i));
- the transparent compositing itself rides on the order-independent
  per-pixel fragment sort of
  :func:`repro.render.framebuffer.resolve_fragments`, the software
  equivalent of the GeForce 3 path the paper cites.
"""

from __future__ import annotations

import numpy as np

from repro.fieldlines.sos import build_strips, render_strips
from repro.render.camera import Camera
from repro.render.framebuffer import Framebuffer

__all__ = ["cutaway", "region_emphasis_alpha", "render_with_emphasis"]


def cutaway(lines, plane_point, plane_normal, keep: str = "behind"):
    """Clip whole lines against a plane.

    A line survives when *all* its points are on the kept side
    (lines straddling the plane are dropped -- matching the clean
    front-half removal of the paper's Figure 9).  ``keep`` is
    'behind' (n . (p - p0) <= 0) or 'front'.
    """
    if keep not in ("behind", "front"):
        raise ValueError("keep must be 'behind' or 'front'")
    p0 = np.asarray(plane_point, dtype=np.float64)
    n = np.asarray(plane_normal, dtype=np.float64)
    n = n / np.linalg.norm(n)
    out = []
    for line in lines:
        side = (line.points - p0) @ n
        ok = side <= 0 if keep == "behind" else side >= 0
        if ok.all():
            out.append(line)
    return out


def region_emphasis_alpha(
    lines,
    center,
    radius: float,
    alpha_inside: float = 1.0,
    alpha_outside: float = 0.12,
) -> np.ndarray:
    """Per-line alpha: opaque inside a spherical region of interest,
    faint outside.  A line counts as inside when any point enters the
    sphere."""
    center = np.asarray(center, dtype=np.float64)
    alphas = np.empty(len(lines))
    for i, line in enumerate(lines):
        d2 = np.sum((line.points - center) ** 2, axis=1)
        alphas[i] = alpha_inside if float(d2.min()) <= radius * radius else alpha_outside
    return alphas


def render_with_emphasis(
    camera: Camera,
    lines,
    center,
    radius: float,
    width: float = 0.02,
    colormap="electric",
    alpha_inside: float = 1.0,
    alpha_outside: float = 0.12,
    fb: Framebuffer | None = None,
) -> Framebuffer:
    """Figure 6 (i): strips with opaque ROI and transparent context.

    Splits the line set by region and renders the faint context with
    the transparency path, then the opaque region over it.
    """
    alphas = region_emphasis_alpha(lines, center, radius, alpha_inside, alpha_outside)
    inside = [l for l, a in zip(lines, alphas) if a >= alpha_inside]
    outside = [l for l, a in zip(lines, alphas) if a < alpha_inside]
    if fb is None:
        fb = Framebuffer(camera.width, camera.height)
    mags = np.concatenate([l.magnitudes for l in lines]) if lines else np.zeros(1)
    mrange = (float(mags.min()), float(mags.max()))
    if outside:
        strips_out = build_strips(outside, camera, width)
        render_strips(
            camera, strips_out, colormap=colormap, fb=fb,
            base_alpha=alpha_outside, magnitude_range=mrange,
        )
    if inside:
        strips_in = build_strips(inside, camera, width)
        render_strips(
            camera, strips_in, colormap=colormap, fb=fb,
            base_alpha=alpha_inside if alpha_inside < 1.0 else 1.0,
            magnitude_range=mrange,
        )
    return fb
