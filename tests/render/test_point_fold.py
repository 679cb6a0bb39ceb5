"""The one-pass point fold, bit for bit against the per-range folds.

:func:`render_mixed` orders the point fragments of every depth range of
a frame once (:func:`repro.render.framebuffer.fragment_order`) and folds
them in one :func:`repro.render.framebuffer.accumulate_fragments` call.
Every case here is compared byte for byte with the verbatim references
of ``test_composite_reference``, which fold each depth range with its
own lexsort: adversarial streams (ties, range edges, non-finite and
signed-zero depths, alpha extremes, 0-2 fragments, sprites, an image
wider than 16-bit pixel indices) and random tie-heavy streams through
``fragment_order``, ``accumulate_fragments``, ``composite_fragments``
and ``resolve_opaque``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.trace import capture
from repro.render.camera import Camera
from repro.render.frame_cache import FrameGeometry
from repro.render.framebuffer import (
    accumulate_fragments,
    composite_fragments,
    fragment_order,
)
from repro.render.points import point_fragments
from repro.render.raster import Fragments, resolve_opaque
from repro.render.volume import render_mixed

from .test_composite_reference import (
    _ref_accumulate_fragments,
    _ref_composite_fragments,
    _ref_point_fragments,
    _ref_render_mixed,
    _ref_resolve_opaque,
    assert_same_fb,
    volume_scene,
)

# the tie streams carry NaN alphas and inf colours, which both folds
# turn into NaN (inf * 0) the same way
pytestmark = pytest.mark.filterwarnings(
    "ignore:invalid value encountered:RuntimeWarning"
)

N_SLICES = 12


def scene(seed=0, size=40):
    """A sparse volume, its bounds, a camera, the slice geometry and a
    seeded point-fragment stream."""
    camera, vol, lo, hi, frags = volume_scene(seed, fill=0.1, size=size)
    geo = FrameGeometry.build(camera, vol.shape[:3], lo, hi, N_SLICES)
    return camera, vol, lo, hi, geo, frags


def assert_matches_reference(camera, vol, lo, hi, frags, **kwargs):
    kwargs.setdefault("n_slices", N_SLICES)
    got = render_mixed(camera, vol, lo, hi, point_fragments=frags, cache=False, **kwargs)
    want = _ref_render_mixed(
        camera, vol, lo, hi, point_fragments=frags, cache=False, **kwargs
    )
    assert_same_fb(got, want)
    return got


def stream(camera, depths, rng):
    """Fragments at the given depths on random pixels of the image."""
    n = len(depths)
    pix = rng.integers(0, camera.width * camera.height, n)
    return pix, np.asarray(depths, dtype=np.float64), rng.random((n, 4))


# ----------------------------------------------------------------------
class TestAdversarialStreams:
    def test_duplicated_points(self):
        """Same pixel and equal depth, different colors and alphas;
        one pixel holds 10,000 of them in a middle range."""
        camera, vol, lo, hi, geo, (pix, dep, rgba) = scene(1)
        rng = np.random.default_rng(1)
        k = 60
        dup_pix = np.repeat(pix[:k], 3)
        dup_dep = np.repeat(dep[:k], 3)
        big = 10_000
        mid = geo.depths[N_SLICES // 2]
        frags = (
            np.concatenate([pix, dup_pix, np.full(big, pix[0])]),
            np.concatenate([dep, dup_dep, np.full(big, mid)]),
            np.concatenate([rgba, rng.random((3 * k, 4)), rng.random((big, 4))]),
        )
        perm = rng.permutation(len(frags[0]))
        assert_matches_reference(camera, vol, lo, hi, frags)
        assert_matches_reference(camera, vol, lo, hi, tuple(a[perm] for a in frags))

    def test_fragments_on_range_edges(self):
        """At d1, on each slice plane and on each slab's near edge, and
        one ulp to either side of each."""
        camera, vol, lo, hi, geo, _ = scene(2)
        edges = np.concatenate(
            [[geo.d1], geo.depths, geo.d1 - np.arange(1, N_SLICES + 1) * geo.slab]
        )
        depths = np.concatenate(
            [edges, np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf)]
        )
        rng = np.random.default_rng(2)
        frags = stream(camera, np.tile(depths, 4), rng)
        assert_matches_reference(camera, vol, lo, hi, frags)

    @pytest.mark.parametrize("where", ["behind", "in_front"])
    def test_every_fragment_outside_the_volume(self, where):
        camera, vol, lo, hi, geo, _ = scene(3)
        rng = np.random.default_rng(3)
        if where == "behind":
            depths = geo.d1 + rng.uniform(1e-9, 2.0, 500)
        else:
            depths = geo.d0 - rng.uniform(1e-9, 0.5 * geo.d0, 500)
        assert_matches_reference(camera, vol, lo, hi, stream(camera, depths, rng))

    @pytest.mark.parametrize("volume", [True, False], ids=["volume", "points_only"])
    def test_non_finite_and_signed_zero_depths(self, volume):
        camera, vol, lo, hi, geo, _ = scene(4)
        rng = np.random.default_rng(4)
        special = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, geo.d1, geo.depths[3]])
        depths = np.concatenate(
            [rng.choice(special, 400), rng.uniform(geo.d0, geo.d1, 200)]
        )
        pix, dep, rgba = stream(camera, depths, rng)
        pix[:300] = rng.integers(0, 20, 300)  # many (pixel, depth) ties
        assert_matches_reference(camera, vol if volume else None, lo, hi, (pix, dep, rgba))

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 2.5, -0.3, 1e-300])
    def test_alpha_extremes(self, alpha):
        camera, vol, lo, hi, geo, (pix, dep, rgba) = scene(5)
        rgba = rgba.copy()
        rgba[::2, 3] = alpha
        assert_matches_reference(camera, vol, lo, hi, (pix, dep, rgba))

    @pytest.mark.parametrize("n", [0, 1, 2])
    @pytest.mark.parametrize("same", [True, False], ids=["one_pixel", "two_ranges"])
    def test_tiny_streams(self, n, same):
        camera, vol, lo, hi, geo, _ = scene(6)
        rng = np.random.default_rng(6)
        depths = [geo.depths[2], geo.depths[2] if same else geo.d1 + 1.0][:n]
        pix, dep, rgba = stream(camera, depths, rng)
        if same and n == 2:
            pix[1] = pix[0]
        assert_matches_reference(camera, vol, lo, hi, (pix, dep, rgba))

    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_sprite_sizes(self, size):
        """The sprite streams equal the reference grid's, arrays and
        order, with points behind the camera, off screen and NaN."""
        camera, vol, lo, hi, geo, _ = scene(7)
        rng = np.random.default_rng(7)
        pts = rng.normal(0.0, 0.8, (400, 3))
        pts[:20] = camera.eye + 3.0 * (camera.eye - camera.target)  # behind
        pts[20:40] *= 40.0  # off screen
        pts[40] = np.nan
        rgba = rng.random((400, 4))
        got = point_fragments(camera, pts, rgba, point_size=size)
        want = _ref_point_fragments(camera, pts, rgba, point_size=size)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert g.tobytes() == w.tobytes()
        one_color = np.array([0.9, 0.2, 0.1, 0.6])
        got = point_fragments(camera, pts, one_color, point_size=size)
        want = _ref_point_fragments(camera, pts, one_color, point_size=size)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()
        assert_matches_reference(camera, vol, lo, hi, got)

    def test_image_wider_than_16_bit_pixels(self):
        """300 x 240 = 72,000 pixels: the pixel key needs two digits."""
        camera, vol, lo, hi, _, _ = scene(8)
        camera = Camera.fit_bounds(lo, hi, direction=(1.0, 0.4, 0.7), width=300, height=240)
        rng = np.random.default_rng(8)
        frags = point_fragments(
            camera, rng.normal(0.0, 0.7, (20_000, 3)), rng.random((20_000, 4))
        )
        assert frags[0].max() >= 1 << 16
        assert_matches_reference(camera, vol, lo, hi, frags)


class TestTrace:
    def test_fold_span_and_counters(self):
        camera, vol, lo, hi, geo, frags = scene(9)
        with capture(enabled=True) as t:
            render_mixed(
                camera, vol, lo, hi, point_fragments=frags, n_slices=N_SLICES, cache=False
            )
            render_mixed(camera, None, lo, hi, point_fragments=frags)
        assert t.spans["slice_composite/point_fold"]["count"] == 1
        assert t.spans["point_fold"]["count"] == 1
        assert t.counters["point_fragments"] == 2 * len(frags[0])
        thresholds = np.empty(2 * N_SLICES + 1)
        thresholds[0::2] = geo.d1 - np.arange(N_SLICES + 1) * geo.slab
        thresholds[1::2] = geo.depths
        in_volume_render = len(np.unique(per_range(frags[1], thresholds)))
        assert in_volume_render > 2
        assert t.counters["point_ranges"] == in_volume_render + 1


# ----------------------------------------------------------------------
# random streams with many ties
DEPTHS = [0.0, -0.0, 0.5, 1.0, 1.0 + 2**-52, 2.0, np.nan, np.inf, -np.inf]


@st.composite
def tie_streams(draw):
    n = draw(st.integers(0, 120))
    n_pixels = draw(st.sampled_from([1, 3, 17, 70_000]))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    pix = rng.integers(0, n_pixels, n)
    depths = rng.choice(np.array(DEPTHS), n)
    if draw(st.booleans()):
        rounded = rng.uniform(-1.0, 3.0, n).round(1)
        depths = np.where(rng.random(n) < 0.5, rounded, depths)
    rgba = rng.uniform(-0.2, 1.3, (n, 4))
    rgba[rng.random(n) < 0.2, 3] = 0.0
    rgba[rng.random(n) < 0.05, 3] = np.nan
    rgba[rng.random(n) < 0.05, 0] = np.inf
    n_thresholds = draw(st.integers(0, 4))
    thresholds = -np.sort(-rng.choice(np.array([0.0, 0.5, 1.0, 2.0, 2.5]), n_thresholds))
    return pix, depths, rgba, n_pixels, thresholds


def per_range(depths, thresholds):
    """Each fragment's depth range, as the per-range searchsorted
    cursor of the reference compositor assigns it."""
    return np.searchsorted(-thresholds, -depths, side="right")


class TestTieStreams:
    @given(case=tie_streams())
    @settings(max_examples=150, deadline=None)
    def test_order_is_lexsort_per_range(self, case):
        pix, depths, _, _, thresholds = case
        order, sizes = fragment_order(pix, depths, thresholds)
        ranges = per_range(depths, thresholds)
        want = [np.flatnonzero(ranges == k) for k in range(len(thresholds) + 1)]
        want = [idx[np.lexsort((depths[idx], pix[idx]))] for idx in want]
        assert list(sizes) == [len(w) for w in want]
        assert np.array_equal(order, np.concatenate(want).astype(np.int64))

    @given(case=tie_streams())
    @settings(max_examples=150, deadline=None)
    def test_fold_is_one_call_per_range(self, case):
        pix, depths, rgba, _, thresholds = case
        upix, pm, near, bounds = accumulate_fragments(pix, depths, rgba, thresholds)
        ranges = per_range(depths, thresholds)
        for k in range(len(thresholds) + 1):
            sel = ranges == k
            want = _ref_accumulate_fragments(pix[sel], depths[sel], rgba[sel])
            got = (a[bounds[k]:bounds[k + 1]] for a in (upix, pm, near))
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and g.tobytes() == w.tobytes()

    @given(case=tie_streams())
    @settings(max_examples=150, deadline=None)
    def test_composite_fragments(self, case):
        pix, depths, rgba, n_pixels, _ = case
        got = composite_fragments(pix, depths, rgba, n_pixels)
        want = _ref_composite_fragments(pix, depths, rgba, n_pixels)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()

    @given(case=tie_streams())
    @settings(max_examples=150, deadline=None)
    def test_resolve_opaque(self, case):
        pix, depths, rgba, n_pixels, _ = case
        frags = Fragments(pix, depths, {"rgb": rgba[:, :3]}, np.arange(len(pix)))
        got = resolve_opaque(frags, n_pixels)
        want = _ref_resolve_opaque(frags, n_pixels)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()
