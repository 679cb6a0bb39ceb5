"""Bitwise reference harness for the slice compositor and point fold.

:func:`render_mixed` samples and composites only the *live* slice rows,
the rows whose trilinear stencil gives nonzero weight to a voxel with
nonzero alpha; it folds the point fragments of every depth range in
one ordered pass (:func:`repro.render.framebuffer.accumulate_fragments`
over :func:`repro.render.framebuffer.fragment_order`); and
:class:`HybridRenderer` memoizes its volume classification.  The
``_ref_*`` functions below are what these replaced, kept verbatim: the
full-sampling compositor with one lexsort fold per depth range, the
per-call classification, the (offsets x points) sprite grid and the
lexsort z-buffer resolve.  Every image and depth buffer must equal
theirs byte for byte.

The one exception is a framebuffer prefilled with -0.0.  The reference
over-steps a skipped row as ``+0.0 + work``, which turns -0.0 into +0.0,
so that case is compared with ``np.array_equal``.
"""

from __future__ import annotations

import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.hybrid.renderer as hybrid_renderer
import repro.render.scene as scene_module
from repro.core.dataset import as_dataset
from repro.core.trace import capture, span
from repro.hybrid.renderer import HybridRenderer
from repro.hybrid.transfer import LinkedTransferFunctions
from repro.octree.extraction import extract
from repro.octree.partition import partition
from repro.render.camera import Camera
from repro.render.frame_cache import (
    FrameGeometry,
    FrameGeometryCache,
    frame_geometry_cache,
    set_frame_geometry_cache,
)
from repro.render.framebuffer import Framebuffer
from repro.render.points import _EMPTY_FRAGMENTS, point_fragments
from repro.render.raster import Fragments
from repro.render.scene import Scene
from repro.render.volume import _merge_fragment_batches, render_mixed


# ----------------------------------------------------------------------
# reference: the full-sampling compositor, its per-range fold, the
# classification, the sprite grid and the z-buffer resolve, verbatim
_ALPHA_MAX = 0.99999


def _ref_render_mixed(
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
        upix, frag_pm, near = _ref_accumulate_fragments(pix[a:b], pdep[a:b], prgba[a:b])
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

    if rgba_volume is None or geometry.empty:
        composite_point_range(0, n_frag)
        write_back()
        return fb

    exponent = reference_slices / n_slices
    d1 = geometry.d1
    slab = geometry.slab

    with span("slice_composite", n_slices=n_slices, n_fragments=n_frag):
        with span("slice_sample"):
            samples = geometry.sample(flat)
            # opacity correction for slice spacing, then premultiply
            a = np.clip(samples[:, 3], 0.0, 0.9999)
            if exponent != 1.0:
                a = 1.0 - (1.0 - a) ** exponent
            samples[:, :3] *= a[:, None]
            samples[:, 3] = a

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
            rows = geometry.slice_rows(s)
            spix = geometry.pix[rows]
            if len(spix):
                layer = samples[rows]
                work[spix] = layer + work[spix] * (1.0 - layer[:, 3:4])
                touched[spix] = True
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


def _ref_composite_fragments(
    pixels: np.ndarray,
    depths: np.ndarray,
    rgba: np.ndarray,
    n_pixels: int,
):
    out_rgba = np.zeros((n_pixels, 4))
    out_depth = np.full(n_pixels, np.inf)
    upix, pm, near = _ref_accumulate_fragments(pixels, depths, rgba)
    if upix.size == 0:
        return out_rgba, out_depth
    out_rgba[upix] = pm
    out_depth[upix] = near

    # un-premultiply
    a = out_rgba[:, 3:4]
    safe = np.where(a <= 0.0, 1.0, a)
    out_rgba[:, :3] /= safe
    return out_rgba, out_depth


def _ref_accumulate_fragments(
    pixels: np.ndarray,
    depths: np.ndarray,
    rgba: np.ndarray,
):
    """Sparse core of :func:`composite_fragments`.

    Folds an unordered fragment stream per pixel (front-to-back
    *under*) but returns only the touched pixels, premultiplied -- the
    form the interleaved volume compositor consumes directly without
    allocating full-frame layers per slab.

    Returns
    -------
    upix : (U,) int64 unique flat pixel indices (ascending)
    pm_rgba : (U, 4) premultiplied composited color per touched pixel
    near_depth : (U,) depth of the nearest contributing fragment
    """
    pixels = np.asarray(pixels)
    depths = np.asarray(depths, dtype=np.float64)
    rgba = np.asarray(rgba, dtype=np.float64)
    if pixels.size == 0:
        return (
            np.empty(0, dtype=np.int64),
            np.empty((0, 4)),
            np.empty(0),
        )

    order = np.lexsort((depths, pixels))
    pix = pixels[order]
    dep = depths[order]
    col = rgba[order]

    alpha = np.clip(col[:, 3], 0.0, _ALPHA_MAX)
    trans = 1.0 - alpha                           # per-fragment transmittance
    # log-space segmented prefix product: stable even for long segments
    logt = np.log(np.maximum(trans, 1e-12))
    c_log = np.cumsum(logt)
    seg_start = np.ones(pix.size, dtype=bool)
    seg_start[1:] = pix[1:] != pix[:-1]
    start_idx = np.flatnonzero(seg_start)
    # log prefix product *before* each fragment within its segment:
    # prefix_log[i] = c_log[i-1] - c_log[segment_start(i)-1]
    seg_id = np.cumsum(seg_start) - 1
    base_vals = np.where(start_idx > 0, c_log[start_idx - 1], 0.0)
    base_per_frag = base_vals[seg_id]
    prefix_log = np.concatenate([[0.0], c_log[:-1]]) - base_per_frag
    prefix_log[start_idx] = 0.0
    prefix = np.exp(prefix_log)

    weight = alpha * prefix
    contrib = col[:, :3] * weight[:, None]
    pm_rgba = np.empty((start_idx.size, 4))
    pm_rgba[:, 0] = np.add.reduceat(contrib[:, 0], start_idx)
    pm_rgba[:, 1] = np.add.reduceat(contrib[:, 1], start_idx)
    pm_rgba[:, 2] = np.add.reduceat(contrib[:, 2], start_idx)
    pm_rgba[:, 3] = np.add.reduceat(weight, start_idx)
    return pix[start_idx].astype(np.int64), pm_rgba, dep[start_idx]


def _ref_point_fragments(
    camera: Camera,
    points: np.ndarray,
    rgba: np.ndarray,
    point_size: int = 1,
):
    """Project points and produce a fragment stream.

    Parameters
    ----------
    points : (N, 3) world positions
    rgba : (N, 4) or (4,) color(s) with alpha
    point_size : square sprite edge length in pixels (1 = single pixel)

    Returns
    -------
    (pix, depth, rgba) arrays suitable for
    :func:`repro.render.framebuffer.composite_fragments` and
    :func:`repro.render.volume.render_mixed`.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.size == 0:
        # an empty point set must yield an empty fragment stream, not a
        # (1, 0) atleast_2d artifact that breaks projection downstream
        return _EMPTY_FRAGMENTS
    points = np.atleast_2d(points)
    rgba = np.asarray(rgba, dtype=np.float64)
    if rgba.ndim == 1:
        rgba = np.broadcast_to(rgba, (len(points), 4))
    xy, depth, visible = camera.project(points)
    xy = xy[visible]
    depth = depth[visible]
    rgba = rgba[visible]

    w, h = camera.width, camera.height
    if point_size <= 1:
        dx = dy = np.zeros(1, dtype=np.int64)
    else:
        r = point_size // 2
        span = np.arange(-r, point_size - r, dtype=np.int64)
        # all point_size^2 sprite offsets in one broadcast, x-major to
        # match the historical (dx, dy) nesting order
        dx = np.repeat(span, point_size)
        dy = np.tile(span, point_size)
    ix0 = np.floor(xy[:, 0]).astype(np.int64)
    iy0 = np.floor(xy[:, 1]).astype(np.int64)
    # (n_offsets, n_points) grids: every sprite texel of every point
    ix = dx[:, None] + ix0[None, :]
    iy = dy[:, None] + iy0[None, :]
    ok = (ix >= 0) & (ix < w) & (iy >= 0) & (iy < h)
    off_idx, pt_idx = np.nonzero(ok)
    return (
        iy[off_idx, pt_idx] * w + ix[off_idx, pt_idx],
        depth[pt_idx],
        rgba[pt_idx],
    )


def _ref_resolve_opaque(frags: Fragments, n_pixels: int, rgb_attr: str = "rgb"):
    """Classic z-buffer resolve: nearest fragment per pixel wins.

    Returns
    -------
    rgba : (n_pixels, 4) with alpha 1 where covered
    depth : (n_pixels,) nearest depth (+inf where empty)
    """
    rgba = np.zeros((n_pixels, 4))
    depth_out = np.full(n_pixels, np.inf)
    if len(frags) == 0:
        return rgba, depth_out
    order = np.lexsort((frags.depth, frags.pix))
    pix = frags.pix[order]
    first = np.ones(pix.size, dtype=bool)
    first[1:] = pix[1:] != pix[:-1]
    idx = order[first]
    rgb = frags.attrs[rgb_attr][idx]
    rgba[frags.pix[idx], :3] = np.clip(rgb[:, :3], 0.0, 1.0)
    rgba[frags.pix[idx], 3] = 1.0
    depth_out[frags.pix[idx]] = frags.depth[idx]
    return rgba, depth_out


def _ref_classify_volume(self, frame):
    norm = self._normalizer(frame)
    amr = self._frame_amr(frame)
    if amr is not None:
        from repro.render.amr import AmrRgbaVolume

        t = norm(amr.data.astype(np.float64))
        return AmrRgbaVolume(amr, self.transfer.volume_rgba(t))
    t = norm(frame.volume.astype(np.float64))
    return self.transfer.volume_rgba(t)


# ----------------------------------------------------------------------
def assert_same_fb(got: Framebuffer, want: Framebuffer) -> None:
    assert got.rgba.tobytes() == want.rgba.tobytes()
    assert got.depth.tobytes() == want.depth.tobytes()


def core_halo_beam(n: int, seed: int) -> np.ndarray:
    """A seeded 6-D beam: 90 % narrow core, 10 % wide halo."""
    rng = np.random.default_rng(seed)
    n_core = int(n * 0.9)
    p = np.empty((n, 6))
    p[:n_core] = rng.normal(0.0, 0.3, (n_core, 6))
    p[n_core:] = rng.normal(0.0, 1.8, (n - n_core, 6))
    return p


def orbit(lo, hi, views: int, size: int = 72):
    return [
        Camera.fit_bounds(
            lo, hi, direction=(np.cos(a), 0.35, np.sin(a)), width=size, height=size
        )
        for a in 2 * np.pi * np.arange(views) / views
    ]


@pytest.fixture(scope="module")
def beam_partition():
    return partition(
        as_dataset(core_halo_beam(40_000, 3)), "xyz", max_level=5, capacity=64
    )


@pytest.fixture(scope="module")
def orbit_frames(beam_partition):
    """Frames at four thresholds sharing one volume (``volume_from="all"``)."""
    dens = beam_partition.nodes["density"]
    return [
        extract(beam_partition, float(np.percentile(dens, pct)), volume_resolution=24)
        for pct in (50, 60, 70, 80)
    ]


@pytest.fixture(scope="module")
def amr_frame(beam_partition):
    thr = float(np.percentile(beam_partition.nodes["density"], 60))
    return extract(
        beam_partition, thr, volume_resolution=16,
        adaptive=True, amr_bricks=4, amr_brick_cells=4,
    )


def hybrid_pair(monkeypatch, frames, cameras, orbits=2, **kwargs):
    """Render every (orbit, frame, camera) with the skipping renderer
    (one instance, so both memos run warm) and with the reference path
    (a fresh instance per image), returning the two image lists and the
    skipping renders' trace counters."""
    fast = HybridRenderer(cache=FrameGeometryCache(), **kwargs)
    jobs = [(h, c) for _ in range(orbits) for h in frames for c in cameras]
    with capture(enabled=True) as tracer:
        got = [fast.render(h, c) for h, c in jobs]
    counters = dict(tracer.counters)
    with monkeypatch.context() as m:
        m.setattr(hybrid_renderer, "render_mixed", _ref_render_mixed)
        m.setattr(hybrid_renderer, "point_fragments", _ref_point_fragments)
        want = []
        for h, c in jobs:
            ref = HybridRenderer(cache=FrameGeometryCache(), **kwargs)
            ref.classify_volume = types.MethodType(_ref_classify_volume, ref)
            want.append(ref.render(h, c))
    return got, want, counters


def volume_scene(seed=0, shape=(10, 12, 9), fill=0.02, size=40):
    """A sparse RGBA volume (most alpha exactly 0), bounds, a camera and
    a point-fragment stream."""
    rng = np.random.default_rng(seed)
    vol = rng.random(shape + (4,))
    vol[..., 3] *= 0.5
    vol[..., 3][rng.random(shape) > fill] = 0.0
    lo, hi = np.array([-1.0, -0.8, -1.2]), np.array([1.1, 0.9, 1.0])
    camera = Camera.fit_bounds(lo, hi, direction=(1.0, 0.4, 0.7), width=size, height=size)
    pts = rng.normal(0.0, 0.6, (300, 3))
    frags = point_fragments(camera, pts, rng.random((300, 4)), point_size=1)
    return camera, vol, lo, hi, frags


# ----------------------------------------------------------------------
class TestBeamFrames:
    def test_store_orbit_like(self, monkeypatch, orbit_frames):
        """Four thresholds x three views, orbited twice: every image of
        the warm renderer equals the reference, and the skip ran."""
        cameras = orbit(orbit_frames[0].lo, orbit_frames[0].hi, 3)
        got, want, counters = hybrid_pair(
            monkeypatch, orbit_frames, cameras, n_slices=24
        )
        for g, w in zip(got, want):
            assert_same_fb(g, w)
        assert counters["slice_rows_sampled"] > 0
        assert counters["slice_rows_skipped"] > counters["slice_rows_sampled"]

    def test_beam_sc_like(self, monkeypatch, beam_partition):
        """A camera refit to a low-threshold frame: many rows are live."""
        thr = float(np.percentile(beam_partition.nodes["density"], 20))
        h = extract(beam_partition, thr, volume_resolution=32)
        camera = Camera.fit_bounds(h.lo, h.hi, width=64, height=64)
        got, want, counters = hybrid_pair(
            monkeypatch, [h], [camera], orbits=1, n_slices=32
        )
        assert_same_fb(got[0], want[0])
        assert counters["slice_rows_sampled"] > 0
        assert counters["slice_rows_skipped"] > 0

    def test_amr_frame(self, monkeypatch, amr_frame):
        assert amr_frame.meta.get("amr") is not None
        cameras = orbit(amr_frame.lo, amr_frame.hi, 2)
        got, want, _ = hybrid_pair(monkeypatch, [amr_frame], cameras, n_slices=20)
        for g, w in zip(got, want):
            assert_same_fb(g, w)

    @pytest.mark.parametrize(
        "kwargs",
        [{"point_batch_size": 97}, {"point_mode": "splat"}, {"point_size": 2}],
        ids=["batches", "splats", "sprites"],
    )
    def test_point_modes(self, monkeypatch, orbit_frames, kwargs):
        cameras = orbit(orbit_frames[1].lo, orbit_frames[1].hi, 2, size=56)
        got, want, _ = hybrid_pair(
            monkeypatch, orbit_frames[1:2], cameras, n_slices=16, **kwargs
        )
        for g, w in zip(got, want):
            assert_same_fb(g, w)


class TestTransferExtremes:
    def test_alpha_at_zero_density_samples_every_row(self, monkeypatch, orbit_frames):
        """Alpha > 0 everywhere: full occupancy, nothing skipped."""
        tf = LinkedTransferFunctions(boundary=-0.1, ramp=0.0)
        cameras = orbit(orbit_frames[0].lo, orbit_frames[0].hi, 2, size=48)
        got, want, counters = hybrid_pair(
            monkeypatch, orbit_frames[:1], cameras, n_slices=16, transfer=tf
        )
        for g, w in zip(got, want):
            assert_same_fb(g, w)
        assert counters.get("slice_rows_skipped", 0) == 0
        assert counters["slice_rows_sampled"] > 0

    def test_transparent_everywhere_skips_every_row(self, monkeypatch, orbit_frames):
        tf = LinkedTransferFunctions(opacity=0.0)
        cameras = orbit(orbit_frames[0].lo, orbit_frames[0].hi, 2, size=48)
        got, want, counters = hybrid_pair(
            monkeypatch, orbit_frames[:1], cameras, n_slices=16, transfer=tf
        )
        for g, w in zip(got, want):
            assert_same_fb(g, w)
        assert counters.get("slice_rows_sampled", 0) == 0
        assert counters["slice_rows_skipped"] > 0


class TestPrefilledFramebuffer:
    def _pair(self, fb, *args, **kwargs):
        a = Framebuffer(fb.width, fb.height)
        a.rgba[...] = fb.rgba
        a.depth[...] = fb.depth
        b = Framebuffer(fb.width, fb.height)
        b.rgba[...] = fb.rgba
        b.depth[...] = fb.depth
        return (
            render_mixed(*args, fb=a, **kwargs),
            _ref_render_mixed(*args, fb=b, **kwargs),
        )

    @pytest.mark.parametrize("opacity", [0.0, 1.0], ids=["transparent", "sparse"])
    def test_background(self, opacity):
        """Covered pixels are un-premultiplied even where no row is
        live: a transparent volume turns their 0.2 background to 0."""
        camera, vol, lo, hi, _ = volume_scene(1)
        vol[..., 3] *= opacity
        fb = Framebuffer(camera.width, camera.height, background=(0.2, 0.3, 0.4, 0.0))
        got, want = self._pair(fb, camera, vol, lo, hi, n_slices=12, cache=False)
        assert_same_fb(got, want)
        covered = FrameGeometry.build(camera, vol.shape[:3], lo, hi, 12).covered(
            fb.n_pixels
        )
        if opacity == 0.0:
            assert np.all(got.rgba.reshape(-1, 4)[covered, 0] == 0.0)
        assert np.all(got.rgba.reshape(-1, 4)[~covered, 0] == 0.2)

    def test_partly_opaque_prior_content(self):
        camera, vol, lo, hi, frags = volume_scene(2)
        rng = np.random.default_rng(9)
        fb = Framebuffer(camera.width, camera.height, background=(0.2, 0.3, 0.4, 0.0))
        band = slice(camera.height // 3, 2 * camera.height // 3)
        fb.rgba[band] = rng.random(fb.rgba[band].shape)
        fb.depth[band] = rng.uniform(1.0, 6.0, fb.depth[band].shape)
        got, want = self._pair(
            fb, camera, vol, lo, hi, point_fragments=frags, n_slices=12, cache=False
        )
        assert_same_fb(got, want)

    def test_scene_path(self, monkeypatch):
        camera, vol, lo, hi, _ = volume_scene(3)

        def draw():
            scene = Scene(camera)
            scene.add_polyline(np.array([[-1.5, 0.0, 0.0], [1.5, 0.2, 0.1]]))
            scene.add_points(
                np.random.default_rng(4).normal(0, 0.5, (200, 3)),
                np.tile([0.9, 0.8, 0.2, 0.4], (200, 1)),
            )
            scene.add_volume(vol, lo, hi)
            fb = Framebuffer(camera.width, camera.height, background=(0.2, 0.3, 0.4, 0.0))
            return scene.render(fb, n_slices=10)

        got = draw()
        monkeypatch.setattr(scene_module, "render_mixed", _ref_render_mixed)
        monkeypatch.setattr(scene_module, "point_fragments", _ref_point_fragments)
        assert_same_fb(got, draw())

    def test_negative_zero_background(self):
        """The reference turns a -0.0 prior into +0.0 under a skipped
        row; the skip leaves it -0.0.  Values are equal, bytes are not."""
        camera, vol, lo, hi, frags = volume_scene(5)
        fb = Framebuffer(camera.width, camera.height, background=(-0.0, -0.0, -0.0, -0.0))
        got, want = self._pair(
            fb, camera, vol, lo, hi, point_fragments=frags, n_slices=12, cache=False
        )
        assert np.array_equal(got.rgba, want.rgba)
        assert got.depth.tobytes() == want.depth.tobytes()


def one_box_scene(shape, occupy, seed=0, size=36, eye=None):
    """An RGBA volume whose only nonzero alphas sit at ``occupy`` (an
    index into the (X, Y, Z) grid), its bounds, a camera (``eye``: look
    from there at the center) and a point-fragment stream."""
    rng = np.random.default_rng(seed)
    vol = rng.random(tuple(shape) + (4,))
    alpha = np.zeros(shape)
    alpha[occupy] = rng.uniform(0.2, 0.9, alpha[occupy].shape)
    vol[..., 3] = alpha
    lo, hi = np.array([-1.0, -0.8, -1.2]), np.array([1.1, 0.9, 1.0])
    if eye is None:
        camera = Camera.fit_bounds(lo, hi, direction=(1.0, 0.4, 0.7), width=size, height=size)
    else:
        camera = Camera(eye=eye, target=0.5 * (lo + hi) + 0.05, width=size, height=size)
    pts = rng.normal(0.0, 0.6, (200, 3))
    frags = point_fragments(camera, pts, rng.random((200, 4)), point_size=1)
    return camera, vol, lo, hi, frags


def assert_box_render(camera, vol, lo, hi, frags, fb=None, n_slices=12):
    """Cold and warm renders over the occupied box equal the reference;
    returns the cached geometry and the trace counters."""
    def prefilled():
        out = Framebuffer(camera.width, camera.height)
        if fb is not None:
            out.rgba[...] = fb.rgba
            out.depth[...] = fb.depth
        return out

    cache = FrameGeometryCache()
    kw = dict(point_fragments=frags, n_slices=n_slices)
    with capture(enabled=True) as tracer:
        got = [render_mixed(camera, vol, lo, hi, fb=prefilled(), cache=cache, **kw)
               for _ in range(2)]
    want = _ref_render_mixed(camera, vol, lo, hi, fb=prefilled(), cache=False, **kw)
    for g in got:
        assert_same_fb(g, want)
    (geometry,) = cache._entries.values()
    return geometry, dict(tracer.counters)


CORNERS = [(x, y, z) for x in (0, -1) for y in (0, -1) for z in (0, -1)]
FACES = [
    (slice(None),) * a + (i,) + (slice(None),) * (2 - a) for a in range(3) for i in (0, -1)
]


class TestOccupiedBox:
    """A geometry miss builds only the rows whose stencil reaches the
    occupied voxel box; images equal full sampling's."""

    @pytest.mark.parametrize("corner", CORNERS, ids=str)
    def test_one_voxel_at_a_corner(self, corner):
        case = one_box_scene((7, 6, 5), corner, seed=CORNERS.index(corner))
        geometry, counters = assert_box_render(*case)
        assert geometry.key[-1] is not None  # restricted to the box
        assert 0 < len(geometry.pix) < geometry.full_rows
        assert counters["slice_rows_skipped"] + counters["slice_rows_sampled"] == 2 * (
            geometry.full_rows
        )

    @pytest.mark.parametrize("face", FACES, ids=str)
    def test_one_voxel_slab_on_a_face(self, face):
        geometry, _ = assert_box_render(*one_box_scene((7, 6, 5), face, seed=3))
        assert len(geometry.pix) < geometry.full_rows

    def test_full_occupancy(self):
        case = one_box_scene((7, 6, 5), (slice(None),) * 3, seed=4)
        geometry, counters = assert_box_render(*case)
        assert geometry.key[-1] is None  # the whole grid: no restriction
        assert counters.get("slice_rows_skipped", 0) == 0

    @pytest.mark.parametrize(
        "shape, occupy",
        [((1, 7, 5), (0, 3, 2)), ((6, 1, 4), (slice(2, 4), 0, 1)),
         ((5, 6, 1), (4, slice(None), 0)), ((1, 1, 1), (0, 0, 0))],
        ids=["x1", "y1", "z1", "xyz1"],
    )
    def test_one_wide_axes(self, shape, occupy):
        assert_box_render(*one_box_scene(shape, occupy, seed=5))

    def test_eye_inside_the_box(self):
        """A box corner behind ``near``: the inside test runs over
        every pixel."""
        case = one_box_scene((7, 6, 5), (slice(2, 5), 3, slice(1, 3)), eye=(0.1, 0.2, -0.3))
        geometry, counters = assert_box_render(*case)
        assert counters["frame_geometry_full_screen"] == 1
        assert len(geometry.pix) < geometry.full_rows

    def test_transparent_volume_keeps_its_covered_pixels(self):
        """No voxel is occupied, so the box builds no row, but the
        geometry is not empty: covered pixels of a (0.2, 0.3, 0.4, 0)
        background are still written back, as full sampling does."""
        camera, vol, lo, hi, frags = one_box_scene((7, 6, 5), (slice(0, 0),) * 3, seed=6)
        assert not vol[..., 3].any()
        fb = Framebuffer(camera.width, camera.height, background=(0.2, 0.3, 0.4, 0.0))
        geometry, counters = assert_box_render(camera, vol, lo, hi, frags, fb=fb)
        assert geometry.matrix is None and len(geometry.pix) == 0
        assert not geometry.empty
        assert counters["slice_rows_skipped"] == 2 * geometry.full_rows > 0
        covered = geometry.covered(camera.width * camera.height)
        got = render_mixed(camera, vol, lo, hi, fb=Framebuffer(
            camera.width, camera.height, background=(0.2, 0.3, 0.4, 0.0)
        ), n_slices=12)
        assert np.all(got.rgba.reshape(-1, 4)[covered, 0] == 0.0)
        assert np.all(got.rgba.reshape(-1, 4)[~covered, 0] == 0.2)


class TestCachePolicies:
    @pytest.fixture
    def global_cache(self):
        previous = set_frame_geometry_cache(FrameGeometryCache())
        yield frame_geometry_cache()
        set_frame_geometry_cache(previous)

    @pytest.mark.parametrize("policy", ["uncached", "global", "explicit", "own"])
    def test_policy(self, policy, global_cache):
        camera, vol, lo, hi, frags = volume_scene(6)
        if policy == "explicit":
            kw = {"geometry": FrameGeometry.build(camera, vol.shape[:3], lo, hi, 14)}
        else:
            caches = {"uncached": False, "global": None, "own": FrameGeometryCache()}
            kw = {"cache": caches[policy]}
        for _ in range(2):  # cold, then warm
            got = render_mixed(camera, vol, lo, hi, point_fragments=frags, n_slices=14, **kw)
            want = _ref_render_mixed(
                camera, vol, lo, hi, point_fragments=frags, n_slices=14, cache=False
            )
            assert_same_fb(got, want)
        if policy == "global":
            assert global_cache.stats()["hits"] == 1


@st.composite
def sparse_cases(draw):
    shape = tuple(draw(st.sampled_from([1, 2, 3, 5, 8])) for _ in range(3))
    n_vox = int(np.prod(shape))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    vol = rng.uniform(-0.5, 1.5, shape + (4,))
    alpha = np.zeros(n_vox)
    hot = draw(st.lists(st.integers(0, n_vox - 1), max_size=4, unique=True))
    alpha[hot] = draw(
        st.lists(
            st.sampled_from([1e-300, 1e-5, 0.3, 0.9999, 1.0, 2.5, -0.4]),
            min_size=len(hot), max_size=len(hot),
        )
    )
    vol[..., 3] = alpha.reshape(shape)
    direction = draw(st.sampled_from([(1.0, 0.4, 0.7), (0.0, 0.0, 1.0), (-0.3, 1.0, 0.2)]))
    n_slices = draw(st.sampled_from([1, 5, 16]))
    reference_slices = draw(st.sampled_from([n_slices, 96]))
    with_points = draw(st.booleans())
    return vol, direction, n_slices, reference_slices, with_points, seed


class TestSparseOccupancy:
    @given(case=sparse_cases())
    @settings(max_examples=60, deadline=None)
    def test_sparse_bitwise(self, case):
        vol, direction, n_slices, reference_slices, with_points, seed = case
        lo, hi = np.array([-1.0, -0.8, -1.2]), np.array([1.1, 0.9, 1.0])
        camera = Camera.fit_bounds(lo, hi, direction=direction, width=28, height=24)
        frags = None
        if with_points:
            rng = np.random.default_rng(seed)
            frags = point_fragments(
                camera, rng.normal(0.0, 0.7, (60, 3)), rng.random((60, 4))
            )
        kw = dict(point_fragments=frags, n_slices=n_slices, reference_slices=reference_slices)
        cache = FrameGeometryCache()
        for _ in range(2):  # live-row memo cold, then warm
            got = render_mixed(camera, vol, lo, hi, cache=cache, **kw)
            assert_same_fb(got, _ref_render_mixed(camera, vol, lo, hi, cache=False, **kw))
