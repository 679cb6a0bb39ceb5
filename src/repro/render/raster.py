"""Software triangle rasterizer.

Rasterizes triangle meshes (the self-orienting strips and streamtubes
of paper section 3) into a fragment stream.  Fragments carry
perspective-correct interpolated vertex attributes and can be resolved
two ways, matching the two hardware paths the paper uses:

- ``resolve_opaque``: classic z-buffer (nearest fragment wins),
- ``resolve_fragments`` (in :mod:`repro.render.framebuffer`):
  per-pixel depth-sorted blending, the software equivalent of the
  GeForce 3 order-independent transparency path.

Both return only the pixels the fragments cover, which
:meth:`repro.render.framebuffer.Framebuffer.pixels_over` composites.

The inner loop is vectorized across triangles: triangles are grouped
into buckets of similar bounding-box size and each bucket is scanned
with one broadcasted edge-function evaluation.
"""

from __future__ import annotations

import numpy as np

from repro.render.camera import Camera
from repro.render.framebuffer import fragment_order

__all__ = ["rasterize", "resolve_opaque", "Fragments"]

# chunk budget: triangles-in-bucket * padded bbox area <= this
_PIXEL_BUDGET = 4_000_000


class Fragments:
    """A flat fragment stream produced by :func:`rasterize`.

    Attributes
    ----------
    pix : (F,) flat pixel indices
    depth : (F,) eye-space depth
    attrs : dict of (F, k) perspective-correct interpolated attributes
    tri : (F,) index of the source triangle
    """

    def __init__(self, pix, depth, attrs, tri):
        self.pix = pix
        self.depth = depth
        self.attrs = attrs
        self.tri = tri

    def __len__(self) -> int:
        return len(self.pix)

    @classmethod
    def empty(cls, attr_names, attr_dims):
        return cls(
            np.empty(0, dtype=np.int64),
            np.empty(0),
            {n: np.empty((0, d)) for n, d in zip(attr_names, attr_dims)},
            np.empty(0, dtype=np.int64),
        )

    @classmethod
    def concatenate(cls, parts):
        parts = [p for p in parts if len(p)]
        if not parts:
            raise ValueError("no non-empty fragment streams to concatenate")
        attrs = {
            k: np.concatenate([p.attrs[k] for p in parts]) for k in parts[0].attrs
        }
        return cls(
            np.concatenate([p.pix for p in parts]),
            np.concatenate([p.depth for p in parts]),
            attrs,
            np.concatenate([p.tri for p in parts]),
        )


def _bucket_edges(areas: np.ndarray):
    """Group triangle indices by padded bbox area."""
    buckets = []
    for lo, hi in ((0, 16), (16, 64), (64, 256), (256, 1024), (1024, 4096), (4096, None)):
        if hi is None:
            sel = np.flatnonzero(areas >= lo)
        else:
            sel = np.flatnonzero((areas >= lo) & (areas < hi))
        if sel.size:
            buckets.append(sel)
    return buckets


def rasterize(
    camera: Camera,
    vertices: np.ndarray,
    triangles: np.ndarray,
    attributes: dict[str, np.ndarray] | None = None,
) -> Fragments:
    """Rasterize a triangle mesh into fragments.

    Parameters
    ----------
    vertices : (V, 3) world-space positions
    triangles : (T, 3) int vertex indices
    attributes : per-vertex arrays (V,) or (V, k) to interpolate

    Triangles straddling the near plane are discarded (the strip
    geometry this renderer serves never crosses the camera).
    """
    attributes = attributes or {}
    vertices = np.asarray(vertices, dtype=np.float64)
    triangles = np.asarray(triangles, dtype=np.int64)
    attr_arrays = {}
    for name, arr in attributes.items():
        arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr[:, None]
        if len(arr) != len(vertices):
            raise ValueError(f"attribute {name!r} length mismatch")
        attr_arrays[name] = arr
    attr_names = list(attr_arrays)
    attr_dims = [attr_arrays[n].shape[1] for n in attr_names]

    if len(triangles) == 0:
        return Fragments.empty(attr_names, attr_dims)

    xy, depth, _ = camera.project(vertices)
    w, h = camera.width, camera.height

    tv = triangles  # (T, 3)
    p0, p1, p2 = xy[tv[:, 0]], xy[tv[:, 1]], xy[tv[:, 2]]
    d0, d1, d2 = depth[tv[:, 0]], depth[tv[:, 1]], depth[tv[:, 2]]
    in_front = (d0 > camera.near) & (d1 > camera.near) & (d2 > camera.near)

    xmin = np.maximum(np.floor(np.minimum(np.minimum(p0[:, 0], p1[:, 0]), p2[:, 0])), 0)
    xmax = np.minimum(np.ceil(np.maximum(np.maximum(p0[:, 0], p1[:, 0]), p2[:, 0])), w - 1)
    ymin = np.maximum(np.floor(np.minimum(np.minimum(p0[:, 1], p1[:, 1]), p2[:, 1])), 0)
    ymax = np.minimum(np.ceil(np.maximum(np.maximum(p0[:, 1], p1[:, 1]), p2[:, 1])), h - 1)
    bw = (xmax - xmin + 1).astype(np.int64)
    bh = (ymax - ymin + 1).astype(np.int64)
    # signed double area; degenerate triangles dropped
    area2 = (p1[:, 0] - p0[:, 0]) * (p2[:, 1] - p0[:, 1]) - (p1[:, 1] - p0[:, 1]) * (
        p2[:, 0] - p0[:, 0]
    )
    valid = in_front & (bw > 0) & (bh > 0) & (np.abs(area2) > 1e-12)
    candidates = np.flatnonzero(valid)
    if candidates.size == 0:
        return Fragments.empty(attr_names, attr_dims)

    areas = (bw * bh)[candidates]
    out_parts = []
    for bucket in _bucket_edges(areas):
        tris = candidates[bucket]
        pad_w = int(bw[tris].max())
        pad_h = int(bh[tris].max())
        per_tri = pad_w * pad_h
        chunk = max(1, _PIXEL_BUDGET // max(per_tri, 1))
        for start in range(0, tris.size, chunk):
            sel = tris[start : start + chunk]
            part = _raster_chunk(
                sel, p0, p1, p2, d0, d1, d2, xmin, ymin, bw, bh,
                pad_w, pad_h, area2, tv, attr_arrays, w,
            )
            if part is not None:
                out_parts.append(part)

    if not out_parts:
        return Fragments.empty(attr_names, attr_dims)
    return Fragments.concatenate(out_parts)


def _raster_chunk(
    sel, p0, p1, p2, d0, d1, d2, xmin, ymin, bw, bh,
    pad_w, pad_h, area2, tv, attr_arrays, screen_w,
):
    """Rasterize one bucket chunk with broadcasted edge functions."""
    n = sel.size
    gx = np.arange(pad_w)
    gy = np.arange(pad_h)
    # pixel centers, (n, pad_h, pad_w)
    px = xmin[sel, None, None] + gx[None, None, :] + 0.5
    py = ymin[sel, None, None] + gy[None, :, None] + 0.5

    a0 = p0[sel]
    a1 = p1[sel]
    a2 = p2[sel]
    inv_area = 1.0 / area2[sel]

    def edge(pa, pb):
        return (
            (pb[:, 0, None, None] - pa[:, 0, None, None]) * (py - pa[:, 1, None, None])
            - (pb[:, 1, None, None] - pa[:, 1, None, None]) * (px - pa[:, 0, None, None])
        )

    w0 = edge(a1, a2) * inv_area[:, None, None]
    w1 = edge(a2, a0) * inv_area[:, None, None]
    w2 = 1.0 - w0 - w1

    inside = (w0 >= 0) & (w1 >= 0) & (w2 >= 0)
    inside &= (px - 0.5 <= xmin[sel, None, None] + (bw[sel, None, None] - 1)) & (
        py - 0.5 <= ymin[sel, None, None] + (bh[sel, None, None] - 1)
    )
    if not inside.any():
        return None

    ti, yi, xi = np.nonzero(inside)
    tri_global = sel[ti]
    b0 = w0[ti, yi, xi]
    b1 = w1[ti, yi, xi]
    b2 = w2[ti, yi, xi]

    # perspective-correct interpolation using 1/depth
    iz0 = 1.0 / d0[tri_global]
    iz1 = 1.0 / d1[tri_global]
    iz2 = 1.0 / d2[tri_global]
    iz = b0 * iz0 + b1 * iz1 + b2 * iz2
    frag_depth = 1.0 / iz
    pb0 = b0 * iz0 / iz
    pb1 = b1 * iz1 / iz
    pb2 = b2 * iz2 / iz

    pix = (ymin[tri_global] + yi).astype(np.int64) * screen_w + (
        xmin[tri_global] + xi
    ).astype(np.int64)

    attrs = {}
    for name, arr in attr_arrays.items():
        v0 = arr[tv[tri_global, 0]]
        v1 = arr[tv[tri_global, 1]]
        v2 = arr[tv[tri_global, 2]]
        attrs[name] = v0 * pb0[:, None] + v1 * pb1[:, None] + v2 * pb2[:, None]

    return Fragments(pix, frag_depth, attrs, tri_global)


def resolve_opaque(frags: Fragments, rgb_attr: str = "rgb"):
    """Classic z-buffer resolve: nearest fragment per pixel wins.

    Returns the covered pixels only, in the form
    :meth:`repro.render.framebuffer.Framebuffer.pixels_over` takes:

    pix : (P,) unique flat pixel indices, ascending
    rgba : (P, 4) the winner's rgb clipped to [0, 1], alpha 1
    depth : (P,) nearest depth
    """
    if len(frags) == 0:
        return np.empty(0, dtype=np.int64), np.empty((0, 4)), np.empty(0)
    order, _ = fragment_order(frags.pix, frags.depth)
    pix = frags.pix[order]
    first = np.ones(pix.size, dtype=bool)
    first[1:] = pix[1:] != pix[:-1]
    idx = order[first]
    rgba = np.ones((idx.size, 4))
    rgba[:, :3] = np.clip(frags.attrs[rgb_attr][idx][:, :3], 0.0, 1.0)
    return pix[first], rgba, frags.depth[idx]
