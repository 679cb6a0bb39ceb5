"""Self-orienting surfaces (paper section 3.1, ref [12]).

"Each self-orienting surface is a triangle strip which is constructed
from a sequence of points along a curve, an associated sequence of
tangent vectors, and a viewing position.  The triangle strip always
orients toward the observer which makes aligning a texture to the
strip easy."

For each curve vertex p with tangent T, the strip extrudes +/- w/2
along  side = normalize(T x (eye - p)) : the strip plane contains the
view vector, so it faces the camera from every angle.  Texture
coordinates are view-independent: u runs along arc length, v across
the strip (0..1).  A strip of k points costs 2(k-1) triangles --
versus 2 m (k-1) for an m-sided polygonal streamtube, the paper's
"about five to six times less".
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.trace import count, span
from repro.render.camera import Camera
from repro.render.colormap import Colormap
from repro.render.framebuffer import Framebuffer, resolve_fragments
from repro.render.raster import rasterize, resolve_opaque
from repro.render.shading import magnitude_t, strip_colors

__all__ = ["StripMesh", "build_strip", "build_strips", "render_strips"]


@dataclass
class StripMesh:
    """Concatenated triangle strips with per-vertex attributes.

    Attributes
    ----------
    vertices : (V, 3)
    triangles : (T, 3) int
    v_coord : (V,) across-strip texture coordinate (0 or 1 at build)
    u_coord : (V,) along-strip arc length / width
    magnitude : (V,) |F| carried from the field line
    line_id : (V,) source line index
    """

    vertices: np.ndarray
    triangles: np.ndarray
    v_coord: np.ndarray
    u_coord: np.ndarray
    magnitude: np.ndarray
    line_id: np.ndarray
    meta: dict = field(default_factory=dict)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)


def build_strip(line, camera: Camera, width: float) -> StripMesh:
    """Build one self-orienting strip for a field line."""
    return build_strips([line], camera, width)


def build_strips(
    lines,
    camera: Camera,
    width: float = 0.02,
    width_by_magnitude: bool = False,
) -> StripMesh:
    """Build strips for many lines into one concatenated mesh.

    With ``width_by_magnitude`` the strip width scales with the local
    field magnitude (the paper's Figure 6 (e) "wider version ... with
    line density textured according to local field strength").

    Every line of two or more points is built in one pass over the
    concatenated vertices; only the arc-length prefix sums run per
    line, and the forward fill of a degenerate side per vertex.
    """
    eye = np.asarray(camera.eye, dtype=np.float64)
    with span("build_strips", n_lines=len(lines)):
        ids, kept = [], []
        for li, line in enumerate(lines):
            if len(line.points) >= 2:
                ids.append(li)
                kept.append(line)
        if not kept:
            empty3 = np.empty((0, 3))
            empty = np.empty(0)
            return StripMesh(
                empty3, np.empty((0, 3), dtype=np.int64), empty, empty, empty, empty
            )
        k = np.array([len(line.points) for line in kept])
        ends = np.cumsum(k)
        starts = ends - k
        n = int(ends[-1])
        pts = np.concatenate([line.points for line in kept])
        mags = np.concatenate([line.magnitudes for line in kept])

        # side = normalize(T x (eye - p)); a degenerate side (tangent
        # along the view ray) takes the previous good one on its line,
        # or +x before the first
        side = np.cross(np.concatenate([line.tangents for line in kept]), eye - pts)
        norms = np.linalg.norm(side, axis=1)
        good = norms > 1e-12
        if not good.all():
            for i0, i1 in zip(starts.tolist(), ends.tolist()):
                if good[i0:i1].all():
                    continue
                last = np.array([1.0, 0.0, 0.0])
                for i in range(i0, i1):
                    if good[i]:
                        last = side[i] / norms[i]
                    else:
                        side[i] = last
                        norms[i] = 1.0
        side /= np.where(norms < 1e-12, 1.0, norms)[:, None]

        if width_by_magnitude:
            peak = np.maximum(np.maximum.reduceat(mags, starts), 1e-300)
            w = width * (0.35 + 0.65 * mags / np.repeat(peak, k))
            half = side * (w[:, None] / 2.0)
        else:
            half = side * (width / 2.0)
        vertices = np.empty((2 * n, 3))
        vertices[0::2] = pts - half
        vertices[1::2] = pts + half

        # arc length: one prefix sum per line (a global cumsum minus each
        # line's offset rounds differently)
        seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        arc = np.zeros(n)
        for i0, i1 in zip(starts.tolist(), ends.tolist()):
            np.cumsum(seg[i0 : i1 - 1], out=arc[i0 + 1 : i1])

        # a segment joins vertex pairs (a, b = a + 1) and (c = a + 2,
        # d = a + 3); each line lists its (a, b, c) triangles, then its
        # (b, d, c) ones
        m = k - 1
        a = 2 * np.delete(np.arange(n), ends - 1)
        row = np.arange(len(a)) + np.repeat(np.cumsum(m) - m, m)
        triangles = np.empty((2 * len(a), 3), dtype=np.int64)
        triangles[row] = np.column_stack([a, a + 1, a + 2])
        triangles[row + np.repeat(m, m)] = np.column_stack([a + 1, a + 3, a + 2])

        mesh = StripMesh(
            vertices=vertices,
            triangles=triangles,
            v_coord=np.tile([0.0, 1.0], n),
            u_coord=np.repeat(arc / max(width, 1e-12), 2),
            magnitude=np.repeat(mags, 2),
            line_id=np.repeat(np.array(ids, dtype=np.int64), 2 * k),
            meta={"width": width, "n_lines": len(lines)},
        )
    count("triangles_emitted", mesh.n_triangles)
    return mesh


def render_strips(
    camera: Camera,
    strips: StripMesh,
    colormap: Colormap | str = "electric",
    fb: Framebuffer | None = None,
    shading: str = "bump",
    halo_core: float | None = 0.72,
    alpha_by_magnitude: bool = False,
    base_alpha: float = 1.0,
    magnitude_range=None,
) -> Framebuffer:
    """Rasterize and shade a strip mesh.

    Parameters
    ----------
    shading : 'bump' (the normal-mapped tube look), 'flat' (plain color)
    halo_core : lit-core fraction for haloing, or None to disable
    alpha_by_magnitude : opacity proportional to |F| (Figure 10 top);
        forces the order-independent-transparency compositing path
    base_alpha : alpha multiplier; < 1 also selects transparency
    magnitude_range : (lo, hi) normalization for color/alpha, default
        the mesh's own range
    """
    frags = None
    if strips.n_triangles:
        with span("rasterize", n_triangles=strips.n_triangles):
            frags = rasterize(
                camera,
                strips.vertices,
                strips.triangles,
                {"v": strips.v_coord, "mag": strips.magnitude},
            )

    # the framebuffer, shading, resolve and over: only the pixels the
    # strips cover are composited
    with span("strip_composite", n_fragments=0 if frags is None else len(frags)):
        if fb is None:
            fb = Framebuffer(camera.width, camera.height)
        if frags is None or len(frags) == 0:
            return fb
        t = magnitude_t(frags.attrs["mag"][:, 0], strips.magnitude, magnitude_range)
        rgb, alpha = strip_colors(
            frags.attrs["v"][:, 0], t, colormap, shading, halo_core, base_alpha,
            alpha_by_magnitude,
        )
        if not (alpha_by_magnitude or base_alpha < 1.0):
            frags.attrs["rgb"] = rgb
            fb.pixels_over(*resolve_opaque(frags))
        else:
            fb.pixels_over(
                *resolve_fragments(frags.pix, frags.depth, np.column_stack([rgb, alpha]))
            )
    return fb
