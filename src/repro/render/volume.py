"""View-aligned slice volume rendering (texture-slicing emulation).

The paper renders the high-density beam core with texture-mapping
hardware: the density volume is loaded as a 3-D texture and composited
through view-aligned slices.  This module reproduces that pipeline in
software: for each of ``n_slices`` view-aligned slabs (back to front) a
full-screen slice is sampled trilinearly from the RGBA volume and
composited *over* the framebuffer.

``render_mixed`` implements the hybrid rendering of paper section 2:
explicit halo points are depth-interleaved with the volume slabs so
points inside, behind, and in front of the volume composite correctly.
The fragments of every depth range (behind the volume, behind and in
front of each slice plane, in front of the volume) are ordered and
folded in one pass (:func:`repro.render.framebuffer.accumulate_fragments`
with the range thresholds) before the slab loop over-steps them.

The slice geometry (which pixels each slice covers and the eight
trilinear gather indices + weights per covered pixel) is independent
of the volume contents, so ``render_mixed`` resolves it through
:mod:`repro.render.frame_cache`: repeated renders from the same camera
reuse the precomputed geometry and reduce the volume pass to one
sparse matrix product plus sparse compositing.  Cached and uncached
renders share every line of arithmetic, so their images are
bit-identical.  Only slice rows that can see a voxel with nonzero alpha
are sampled and composited: the rest premultiply to exactly 0, a no-op
over-step, so the image is bit-identical to full sampling.  A geometry
miss builds only the rows whose stencil reaches the volume's occupied
voxel box (:func:`repro.render.frame_cache.occupied_box`), which is part
of the cache key; a cached geometry of a box containing it serves it.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np

from repro.core.trace import count, span
from repro.render.camera import Camera
from repro.render.frame_cache import FrameGeometry, frame_geometry_cache, occupied_box
from repro.render.framebuffer import Framebuffer, accumulate_fragments
from repro.render.points import _EMPTY_FRAGMENTS

__all__ = [
    "trilinear_sample",
    "render_volume",
    "render_volume_mip",
    "render_mixed",
    "volume_depth_range",
]


def trilinear_sample(volume: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Trilinearly sample a volume at normalized coordinates.

    Parameters
    ----------
    volume : (X, Y, Z) or (X, Y, Z, C) array
    coords : (N, 3) coordinates in [0, 1]^3; samples outside return 0

    Returns
    -------
    (N,) or (N, C) sampled values
    """
    vol = np.asarray(volume, dtype=np.float64)
    scalar = vol.ndim == 3
    if scalar:
        vol = vol[..., None]
    nx, ny, nz, nc = vol.shape
    c = np.asarray(coords, dtype=np.float64)
    inside = np.all((c >= 0.0) & (c <= 1.0), axis=1)

    # cell-centered texel convention: coordinate 0.5/n is texel 0's center
    fx = np.clip(c[:, 0] * nx - 0.5, 0.0, nx - 1.0)
    fy = np.clip(c[:, 1] * ny - 0.5, 0.0, ny - 1.0)
    fz = np.clip(c[:, 2] * nz - 0.5, 0.0, nz - 1.0)
    x0 = np.minimum(fx.astype(np.int64), nx - 2) if nx > 1 else np.zeros(len(c), np.int64)
    y0 = np.minimum(fy.astype(np.int64), ny - 2) if ny > 1 else np.zeros(len(c), np.int64)
    z0 = np.minimum(fz.astype(np.int64), nz - 2) if nz > 1 else np.zeros(len(c), np.int64)
    x1 = np.minimum(x0 + 1, nx - 1)
    y1 = np.minimum(y0 + 1, ny - 1)
    z1 = np.minimum(z0 + 1, nz - 1)
    tx = (fx - x0)[:, None]
    ty = (fy - y0)[:, None]
    tz = (fz - z0)[:, None]

    # flat-index gathers are markedly faster than 3-axis fancy indexing
    flat = np.ascontiguousarray(vol).reshape(-1, nc)
    base00 = (x0 * ny + y0) * nz
    base10 = (x1 * ny + y0) * nz
    base01 = (x0 * ny + y1) * nz
    base11 = (x1 * ny + y1) * nz
    c000 = flat[base00 + z0]
    c100 = flat[base10 + z0]
    c010 = flat[base01 + z0]
    c110 = flat[base11 + z0]
    c001 = flat[base00 + z1]
    c101 = flat[base10 + z1]
    c011 = flat[base01 + z1]
    c111 = flat[base11 + z1]

    c00 = c000 * (1 - tx) + c100 * tx
    c10 = c010 * (1 - tx) + c110 * tx
    c01 = c001 * (1 - tx) + c101 * tx
    c11 = c011 * (1 - tx) + c111 * tx
    c0 = c00 * (1 - ty) + c10 * ty
    c1 = c01 * (1 - ty) + c11 * ty
    out = c0 * (1 - tz) + c1 * tz
    out[~inside] = 0.0
    return out[:, 0] if scalar else out


def volume_depth_range(camera: Camera, lo: np.ndarray, hi: np.ndarray):
    """Depth range spanned by an axis-aligned box as seen from a camera."""
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    corners = np.array(
        [[x, y, z] for x in (lo[0], hi[0]) for y in (lo[1], hi[1]) for z in (lo[2], hi[2])]
    )
    depths = camera.view_depth(corners)
    d0 = max(float(depths.min()), camera.near)
    d1 = min(float(depths.max()), camera.far)
    return d0, d1


def render_volume(
    camera: Camera,
    rgba_volume: np.ndarray,
    lo,
    hi,
    fb: Framebuffer | None = None,
    n_slices: int = 96,
    reference_slices: int = 96,
    cache=None,
    geometry: FrameGeometry | None = None,
) -> Framebuffer:
    """Render an RGBA volume with back-to-front view-aligned slices."""
    return render_mixed(
        camera,
        rgba_volume,
        lo,
        hi,
        point_fragments=None,
        fb=fb,
        n_slices=n_slices,
        reference_slices=reference_slices,
        cache=cache,
        geometry=geometry,
    )


def render_volume_mip(
    camera: Camera,
    scalar_volume: np.ndarray,
    lo,
    hi,
    colormap=None,
    fb: Framebuffer | None = None,
    n_samples: int = 96,
) -> Framebuffer:
    """Maximum-intensity projection of a scalar volume.

    The standard alternative compositing mode for density data: each
    pixel shows the largest sample along its ray, mapped through the
    colormap.  Useful for spotting the densest beam-core filaments
    that over-compositing can wash out.
    """
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    if fb is None:
        fb = Framebuffer(camera.width, camera.height)
    d0, d1 = volume_depth_range(camera, lo, hi)
    if d1 <= d0:
        return fb
    origins, dirs = camera.pixel_rays()
    cos = dirs @ camera.forward
    span = np.maximum(hi - lo, 1e-300)
    best = np.zeros(camera.width * camera.height)
    vmax = float(np.max(scalar_volume)) if scalar_volume.size else 0.0
    for depth in np.linspace(d0, d1, n_samples):
        t = depth / np.maximum(cos, 1e-9)
        pts = origins + dirs * t[:, None]
        coords = (pts - lo) / span
        np.maximum(best, trilinear_sample(scalar_volume, coords), out=best)
    t_norm = best / max(vmax, 1e-300)
    layer = np.zeros((fb.n_pixels, 4))
    if colormap is None:
        layer[:, :3] = t_norm[:, None]
    else:
        layer[:, :3] = colormap(t_norm)
    layer[:, 3] = np.clip(t_norm, 0.0, 1.0)
    fb.layer_over(layer.reshape(fb.height, fb.width, 4))
    return fb


def _merge_fragment_batches(batches):
    """Concatenate per-shard fragment batches into one stream.

    Batch order is preserved, so when the batches slice a point set in
    order (the streaming renderer's per-shard projection), the merged
    stream equals the single-call fragment stream and the composited
    image is identical.
    """
    batches = [b for b in batches if b is not None and len(b[0])]
    count("render_fragment_batches", len(batches))
    if not batches:
        return None
    if len(batches) == 1:
        return batches[0]
    return (
        np.concatenate([np.asarray(b[0]) for b in batches]),
        np.concatenate([np.asarray(b[1]) for b in batches]),
        np.concatenate([np.asarray(b[2]) for b in batches]),
    )


def render_mixed(
    camera: Camera,
    rgba_volume: np.ndarray | None,
    lo,
    hi,
    *,
    point_fragments=None,
    fb: Framebuffer | None = None,
    n_slices: int = 96,
    reference_slices: int = 96,
    cache=None,
    geometry: FrameGeometry | None = None,
) -> Framebuffer:
    """Hybrid volume + point rendering with depth-correct interleaving.

    Parameters
    ----------
    rgba_volume : finite (X, Y, Z, 4) volume texture, or None for points only
    lo, hi : world-space bounds of the volume
    point_fragments : optional (pix, depth, rgba) triple as produced by
        :func:`repro.render.points.point_fragments`, or a *list* of
        such triples (per-shard fragment batches from the streaming
        pipeline) which are composited as one stream
    n_slices : number of view-aligned slabs (>= 1)
    reference_slices : slice count at which volume alpha is calibrated
    cache : slice-geometry cache policy -- ``None`` uses the
        process-global :func:`repro.render.frame_cache.frame_geometry_cache`,
        ``False`` rebuilds the geometry for this call only (the
        uncached path), any :class:`FrameGeometryCache` uses that cache
    geometry : an explicit prebuilt :class:`FrameGeometry`, overriding
        ``cache``; built for the whole grid or for a box containing this
        volume's occupied box

    All tuning arguments are keyword-only; passing them positionally
    raises ``TypeError`` (the one-release ``DeprecationWarning`` shim
    was removed).

    Back-to-front over-compositing: for each slab (far to near), the
    point fragments whose depth falls behind the slab's slice plane are
    composited first, then the slice itself, then the slab's nearer
    fragments.  Fragments outside the volume's depth range composite
    before the farthest slab / after the nearest one, and NaN depths
    with the nearest.  Each range is folded per pixel (front-to-back
    *under*) exactly as on its own, but all ranges share one fragment
    order and one fold.  The loop runs premultiplied and touches only
    covered pixels; untouched pixels keep their exact prior framebuffer
    contents.
    """
    if n_slices < 1:
        raise ValueError(f"n_slices must be >= 1, got {n_slices}")
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    if fb is None:
        fb = Framebuffer(camera.width, camera.height)

    if isinstance(point_fragments, (list, tuple)) and (
        len(point_fragments) == 0
        or point_fragments[0] is None
        or isinstance(point_fragments[0], (list, tuple))
    ):
        point_fragments = _merge_fragment_batches(point_fragments)

    if point_fragments is None:
        point_fragments = _EMPTY_FRAGMENTS
    n_frag = len(point_fragments[0])

    # premultiplied working copy; only touched pixels are written back
    work = fb.rgba.reshape(-1, 4).copy()
    work[:, :3] *= work[:, 3:4]
    touched = np.zeros(fb.n_pixels, dtype=bool)
    depth_flat = fb.depth.reshape(-1)

    # classified AMR volumes (repro.render.amr.AmrRgbaVolume) carry a
    # flat per-cell RGBA plus their own brick-aware geometry builder;
    # everything past geometry resolution is shared with the flat path
    amr_mode = rgba_volume is not None and hasattr(rgba_volume, "flat_rgba")
    if amr_mode:
        flat = rgba_volume.flat_rgba
    elif rgba_volume is not None:
        rgba_volume = np.ascontiguousarray(rgba_volume, dtype=np.float64)
        if rgba_volume.ndim != 4 or rgba_volume.shape[3] != 4:
            raise ValueError("rgba_volume must be (X, Y, Z, 4)")
        flat = rgba_volume.reshape(-1, 4)
    if rgba_volume is not None:
        # a non-finite voxel would poison its pixels (0 * inf = NaN), and
        # the empty-space skip is exact only for finite inputs
        if not np.isfinite(flat).all():
            raise ValueError("rgba_volume must be finite")
        occupied = flat[:, 3] != 0
    if geometry is None and amr_mode:
        geometry = rgba_volume.geometry(camera, n_slices, cache)
    elif geometry is None and rgba_volume is not None:
        grid = rgba_volume.shape[:3]
        box = occupied_box(occupied.reshape(grid))
        if cache is None:
            cache = frame_geometry_cache()
        if cache is False:
            with span("frame_geometry_build", n_slices=int(n_slices)):
                geometry = FrameGeometry.build(camera, grid, lo, hi, n_slices, box)
        else:
            geometry = cache.get(camera, grid, lo, hi, n_slices, box)

    volume = rgba_volume is not None and not geometry.empty
    planes = geometry.n_slices if volume else 0
    with (
        span("slice_composite", n_slices=n_slices, n_fragments=n_frag)
        if volume
        else nullcontext()
    ):
        thresholds = ()
        if volume:
            exponent = reference_slices / n_slices
            with span("slice_sample"):
                # empty-space skip: a row whose stencil sees only alpha-0
                # voxels premultiplies to exactly 0, and its over-step is a
                # no-op that never moves the depth buffer (rows outside
                # the geometry's box were never built)
                live = geometry if occupied.all() else geometry.live_rows(occupied)
                count("slice_rows_sampled", len(live.pix))
                count("slice_rows_skipped", geometry.full_rows - len(live.pix))
                samples = live.sample(flat)
                # opacity correction for slice spacing, then premultiply
                a = np.clip(samples[:, 3], 0.0, 0.9999)
                if exponent != 1.0:
                    a = 1.0 - (1.0 - a) ** exponent
                samples[:, :3] *= a[:, None]
                samples[:, 3] = a

            # write-back un-premultiplies every covered pixel, skipped or not
            touched |= geometry.covered(fb.n_pixels)

            # point depth ranges, far to near: behind the volume, then
            # behind and in front of each slice plane (slab s covers
            # (d1 - (s+1)*slab, d1 - s*slab], its slice at the center),
            # then in front of the volume
            thresholds = np.empty(2 * planes + 1)
            thresholds[0::2] = geometry.d1 - np.arange(planes + 1) * geometry.slab
            thresholds[1::2] = geometry.depths

        with span("point_fold"):
            upix, frag_pm, near, bounds = accumulate_fragments(
                *point_fragments, thresholds
            )
            count("point_fragments", n_frag)
            count("point_ranges", int(np.count_nonzero(np.diff(bounds))))
        touched[upix] = True
        keep = 1.0 - frag_pm[:, 3:4]
        present = frag_pm[:, 3] > 1e-4
        bounds = bounds.tolist()
        # over-steps back to front: point range, slice, point range, ...
        for k in range(len(bounds) - 1):
            i, j = bounds[k], bounds[k + 1]
            if i < j:
                up = upix[i:j]
                work[up] = frag_pm[i:j] + work[up] * keep[i:j]
                up = up[present[i:j]]
                depth_flat[up] = np.minimum(depth_flat[up], near[i:j][present[i:j]])
            s = k // 2
            if k % 2 == 0 or s == planes:
                continue
            rows = live.slice_rows(s)
            spix = live.pix[rows]
            if len(spix):
                layer = samples[rows]
                work[spix] = layer + work[spix] * (1.0 - layer[:, 3:4])
                present_s = layer[:, 3] > 1e-4
                sp_ = spix[present_s]
                depth_flat[sp_] = np.minimum(depth_flat[sp_], geometry.depths[s])

    t_idx = np.flatnonzero(touched)
    if t_idx.size:
        out = work[t_idx]
        a = out[:, 3:4]
        safe = np.where(a <= 0.0, 1.0, a)
        rgba_flat = fb.rgba.reshape(-1, 4)
        rgba_flat[t_idx, :3] = out[:, :3] / safe
        rgba_flat[t_idx, 3:] = a
    return fb
