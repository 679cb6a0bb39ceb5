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

The slice geometry (which pixels each slice covers and the eight
trilinear gather indices + weights per covered pixel) is independent
of the volume contents, so ``render_mixed`` resolves it through
:mod:`repro.render.frame_cache`: repeated renders from the same camera
reuse the precomputed geometry and reduce the volume pass to one
sparse matrix product plus sparse compositing.  Cached and uncached
renders share every line of arithmetic, so their images are
bit-identical.  Only slice rows that can see a voxel with nonzero alpha
are sampled and composited: the rest premultiply to exactly 0, a no-op
over-step, so the image is bit-identical to full sampling.
"""

from __future__ import annotations

import numpy as np

from repro.core.trace import count, span
from repro.render.camera import Camera
from repro.render.frame_cache import FrameGeometry, frame_geometry_cache
from repro.render.framebuffer import Framebuffer, accumulate_fragments

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
        pipeline) which are composited as one depth-sorted stream
    n_slices : number of view-aligned slabs (>= 1)
    reference_slices : slice count at which volume alpha is calibrated
    cache : slice-geometry cache policy -- ``None`` uses the
        process-global :func:`repro.render.frame_cache.frame_geometry_cache`,
        ``False`` rebuilds the geometry for this call only (the
        uncached path), any :class:`FrameGeometryCache` uses that cache
    geometry : an explicit prebuilt :class:`FrameGeometry`, overriding
        ``cache``

    All tuning arguments are keyword-only; passing them positionally
    raises ``TypeError`` (the one-release ``DeprecationWarning`` shim
    was removed).

    Back-to-front over-compositing: for each slab (far to near), the
    point fragments whose depth falls behind the slab's slice plane are
    composited first, then the slice itself, then the slab's nearer
    fragments.  Fragments outside the volume's depth range composite
    before the farthest slab / after the nearest one.  The loop runs
    premultiplied and touches only covered pixels; untouched pixels
    keep their exact prior framebuffer contents.
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

    if point_fragments is not None:
        pix, pdep, prgba = point_fragments
        order = np.argsort(-np.asarray(pdep), kind="stable")  # far to near
        pix = np.asarray(pix)[order]
        pdep = np.asarray(pdep)[order]
        prgba = np.asarray(prgba)[order]
    else:
        pix = pdep = prgba = None
    n_frag = 0 if pix is None else len(pix)

    # premultiplied working copy; only touched pixels are written back
    work = fb.rgba.reshape(-1, 4).copy()
    work[:, :3] *= work[:, 3:4]
    touched = np.zeros(fb.n_pixels, dtype=bool)
    depth_flat = fb.depth.reshape(-1)

    def composite_point_range(a: int, b: int) -> None:
        if pix is None or a >= b:
            return
        upix, frag_pm, near = accumulate_fragments(pix[a:b], pdep[a:b], prgba[a:b])
        work[upix] = frag_pm + work[upix] * (1.0 - frag_pm[:, 3:4])
        touched[upix] = True
        present = frag_pm[:, 3] > 1e-4
        up = upix[present]
        depth_flat[up] = np.minimum(depth_flat[up], near[present])

    def write_back() -> None:
        t_idx = np.flatnonzero(touched)
        if t_idx.size == 0:
            return
        out = work[t_idx]
        a = out[:, 3:4]
        safe = np.where(a <= 0.0, 1.0, a)
        rgba_flat = fb.rgba.reshape(-1, 4)
        rgba_flat[t_idx, :3] = out[:, :3] / safe
        rgba_flat[t_idx, 3:] = a

    # classified AMR volumes (repro.render.amr.AmrRgbaVolume) carry a
    # flat per-cell RGBA plus their own brick-aware geometry builder;
    # everything past geometry resolution is shared with the flat path
    amr_mode = rgba_volume is not None and hasattr(rgba_volume, "flat_rgba")
    if amr_mode:
        if geometry is None:
            geometry = rgba_volume.geometry(camera, n_slices, cache)
        flat = rgba_volume.flat_rgba
    elif rgba_volume is not None:
        rgba_volume = np.ascontiguousarray(rgba_volume, dtype=np.float64)
        if rgba_volume.ndim != 4 or rgba_volume.shape[3] != 4:
            raise ValueError("rgba_volume must be (X, Y, Z, 4)")
        if geometry is None:
            if cache is None:
                cache = frame_geometry_cache()
            if cache is False:
                with span("frame_geometry_build", n_slices=int(n_slices)):
                    geometry = FrameGeometry.build(
                        camera, rgba_volume.shape[:3], lo, hi, n_slices
                    )
            else:
                geometry = cache.get(
                    camera, rgba_volume.shape[:3], lo, hi, n_slices
                )
        flat = rgba_volume.reshape(-1, 4)
    # a non-finite voxel would poison its pixels (0 * inf = NaN), and
    # the empty-space skip is exact only for finite inputs
    if rgba_volume is not None and not np.isfinite(flat).all():
        raise ValueError("rgba_volume must be finite")

    if rgba_volume is None or geometry.empty:
        composite_point_range(0, n_frag)
        write_back()
        return fb

    exponent = reference_slices / n_slices
    d1 = geometry.d1
    slab = geometry.slab

    with span("slice_composite", n_slices=n_slices, n_fragments=n_frag):
        with span("slice_sample"):
            # empty-space skip: a row whose stencil sees only alpha-0
            # voxels premultiplies to exactly 0, and its over-step is a
            # no-op that never moves the depth buffer
            occupied = flat[:, 3] != 0
            live = geometry if occupied.all() else geometry.live_rows(occupied)
            count("slice_rows_sampled", len(live.pix))
            count("slice_rows_skipped", len(geometry.pix) - len(live.pix))
            samples = live.sample(flat)
            # opacity correction for slice spacing, then premultiply
            a = np.clip(samples[:, 3], 0.0, 0.9999)
            if exponent != 1.0:
                a = 1.0 - (1.0 - a) ** exponent
            samples[:, :3] *= a[:, None]
            samples[:, 3] = a

        # write-back un-premultiplies every covered pixel, skipped or not
        touched |= geometry.covered(fb.n_pixels)

        # fragment index boundaries per slab (pdep sorted descending)
        cursor = 0
        if pix is not None:
            # fragments farther than the volume: composite them first
            behind = int(np.searchsorted(-pdep, -d1))
            composite_point_range(0, behind)
            cursor = behind

        for s in range(geometry.n_slices):
            # slab s covers depth (d1 - (s+1)*slab, d1 - s*slab]; slice at center
            depth_slice = geometry.depths[s]
            slab_near = d1 - (s + 1) * slab
            if pix is not None:
                # points behind the slice plane within this slab
                upto = int(np.searchsorted(-pdep, -depth_slice))
                composite_point_range(cursor, upto)
                cursor = upto
            rows = live.slice_rows(s)
            spix = live.pix[rows]
            if len(spix):
                layer = samples[rows]
                work[spix] = layer + work[spix] * (1.0 - layer[:, 3:4])
                present = layer[:, 3] > 1e-4
                sp_ = spix[present]
                depth_flat[sp_] = np.minimum(depth_flat[sp_], depth_slice)
            if pix is not None:
                upto = int(np.searchsorted(-pdep, -slab_near))
                composite_point_range(cursor, upto)
                cursor = upto

        # fragments nearer than the volume
        composite_point_range(cursor, n_frag)
    write_back()
    return fb
