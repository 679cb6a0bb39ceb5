"""Streamribbons (paper section 3.1).

"This representation using hardware texturing can conveniently
display the field properties as lines, tubes, or ribbons."

Unlike self-orienting strips (which always turn toward the viewer), a
*ribbon* has a fixed orientation in space: its cross-vector follows a
secondary direction field -- for an electric field line, the local
magnetic field direction is the physically meaningful choice, so the
ribbon's twist shows how E and B interlock.  Ribbons are shaded
two-sided (front and back faces both lit), and cost the same
2 (k - 1) triangles per line as strips.
"""

from __future__ import annotations

import numpy as np

from repro.fieldlines.sos import StripMesh
from repro.render.camera import Camera
from repro.render.colormap import Colormap, get_colormap
from repro.render.framebuffer import Framebuffer
from repro.render.raster import rasterize, resolve_opaque
from repro.render.shading import magnitude_t, phong

__all__ = ["build_ribbons", "render_ribbons"]


def build_ribbons(
    lines,
    orientation_fn,
    width: float = 0.03,
) -> StripMesh:
    """Build fixed-orientation ribbons for the given field lines.

    Parameters
    ----------
    lines : traced field lines
    orientation_fn : callable(points (N, 3)) -> (N, 3); the secondary
        field whose direction (projected perpendicular to the line
        tangent) orients each ribbon cross-section.  Where the
        secondary field vanishes or aligns with the tangent, the
        previous good orientation is carried forward.
    width : ribbon width in world units
    """
    verts, tris = [], []
    v_coords, u_coords, mags, ids = [], [], [], []
    v_offset = 0
    for li, line in enumerate(lines):
        pts = line.points
        if len(pts) < 2:
            continue
        secondary = np.atleast_2d(orientation_fn(pts))
        # project out the tangential component
        t_dot = np.sum(secondary * line.tangents, axis=1, keepdims=True)
        side = secondary - t_dot * line.tangents
        norms = np.linalg.norm(side, axis=1)
        good = norms > 1e-12
        fallback = np.array([0.0, 0.0, 1.0])
        last = fallback
        for i in range(len(side)):
            if good[i]:
                last = side[i] / norms[i]
                side[i] = last
            else:
                side[i] = last
        left = pts - side * (width / 2.0)
        right = pts + side * (width / 2.0)
        k = len(pts)
        ribbon_verts = np.empty((2 * k, 3))
        ribbon_verts[0::2] = left
        ribbon_verts[1::2] = right
        i = np.arange(k - 1)
        a = v_offset + 2 * i
        tris.append(
            np.concatenate(
                [
                    np.stack([a, a + 1, a + 2], axis=1),
                    np.stack([a + 1, a + 3, a + 2], axis=1),
                ]
            )
        )
        verts.append(ribbon_verts)
        v_coords.append(np.tile([0.0, 1.0], k))
        u_coords.append(np.repeat(line.arc_lengths() / max(width, 1e-12), 2))
        mags.append(np.repeat(line.magnitudes, 2))
        ids.append(np.full(2 * k, li))
        v_offset += 2 * k

    if not verts:
        empty3 = np.empty((0, 3))
        empty = np.empty(0)
        return StripMesh(
            empty3, np.empty((0, 3), dtype=np.int64), empty, empty, empty, empty
        )
    return StripMesh(
        vertices=np.vstack(verts),
        triangles=np.vstack(tris).astype(np.int64),
        v_coord=np.concatenate(v_coords),
        u_coord=np.concatenate(u_coords),
        magnitude=np.concatenate(mags),
        line_id=np.concatenate(ids),
        meta={"width": width, "n_lines": len(lines), "kind": "ribbon"},
    )


def render_ribbons(
    camera: Camera,
    ribbons: StripMesh,
    colormap: Colormap | str = "electric",
    fb: Framebuffer | None = None,
    magnitude_range=None,
) -> Framebuffer:
    """Two-sided Phong rendering of ribbons.

    The geometric normal per fragment comes from the ribbon plane; the
    back face flips it toward the viewer (two-sided lighting), so the
    twist reads as alternating light/dark bands.
    """
    if fb is None:
        fb = Framebuffer(camera.width, camera.height)
    if ribbons.n_triangles == 0:
        return fb
    cmap = get_colormap(colormap) if isinstance(colormap, str) else colormap

    # per-vertex normals from the triangle fan (area-weighted)
    tri = ribbons.triangles
    v = ribbons.vertices
    face_n = np.cross(v[tri[:, 1]] - v[tri[:, 0]], v[tri[:, 2]] - v[tri[:, 0]])
    vert_n = np.zeros_like(v)
    for c in range(3):
        np.add.at(vert_n, tri[:, c], face_n)
    nn = np.linalg.norm(vert_n, axis=1, keepdims=True)
    vert_n = vert_n / np.where(nn < 1e-12, 1.0, nn)

    frags = rasterize(
        camera, v, tri, {"normal": vert_n, "mag": ribbons.magnitude}
    )
    if len(frags) == 0:
        return fb
    normals = frags.attrs["normal"]
    nn = np.linalg.norm(normals, axis=1, keepdims=True)
    normals = normals / np.where(nn < 1e-12, 1.0, nn)
    # two-sided: flip normals facing away from the camera
    view = -camera.forward
    facing = normals @ view
    normals = np.where(facing[:, None] < 0.0, -normals, normals)

    t = magnitude_t(frags.attrs["mag"][:, 0], ribbons.magnitude, magnitude_range)
    rgb = phong(normals, view, view, cmap(np.clip(t, 0.0, 1.0)))
    frags.attrs["rgb"] = rgb
    fb.pixels_over(*resolve_opaque(frags))
    return fb
