"""The compositor's hot-path memos and the typed render-input errors.

- :meth:`FrameGeometry.live_rows` keeps one live-row selection per
  geometry, and its bytes count toward the frame cache's budget.
- :meth:`HybridRenderer.classify_volume` keeps one classification per
  renderer, keyed on the frame's density key, the normalizer and the
  volume transfer function; the point classification keeps one entry
  keyed on the frame's point key, the normalizer and the point
  settings, and a hit reads no frame array.
- Non-finite volumes and slice counts below one raise ``ValueError``.

Frames are immutable, so a test that needs an edited frame builds a
new one (:func:`edited`).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import repro.hybrid.renderer as hybrid_renderer
from repro.core.dataset import as_dataset
from repro.core.trace import capture
from repro.hybrid.renderer import HybridRenderer
from repro.octree.amr import AmrVolume
from repro.octree.extraction import extract
from repro.octree.partition import partition
from repro.render.amr import AmrRgbaVolume
from repro.render.camera import Camera
from repro.render.colormap import Colormap, get_colormap
from repro.render.frame_cache import FrameGeometry, FrameGeometryCache
from repro.render.volume import render_mixed


@pytest.fixture(scope="module")
def pf():
    rng = np.random.default_rng(11)
    p = np.vstack([rng.normal(0.0, 0.3, (9000, 6)), rng.normal(0.0, 1.8, (1000, 6))])
    return partition(as_dataset(p), "xyz", max_level=5, capacity=64)


@pytest.fixture(scope="module")
def frames(pf):
    dens = pf.nodes["density"]
    return [
        extract(pf, float(np.percentile(dens, pct)), volume_resolution=16)
        for pct in (50, 80)
    ]


@pytest.fixture(scope="module")
def amr_frame(pf):
    thr = float(np.percentile(pf.nodes["density"], 60))
    return extract(
        pf, thr, volume_resolution=16, adaptive=True, amr_bricks=4, amr_brick_cells=4
    )


def edited(frame, index, value, array="volume"):
    """A new frame equal to ``frame`` except ``array[index] = value``;
    ``array`` names a frame array or ``"amr"``, the adaptive cells."""
    if array == "amr":
        a = frame.meta["amr"]
        data = a.data.copy()
        data[index] = value
        amr = AmrVolume(a.lo, a.hi, a.bricks, a.brick_cells, a.levels, data)
        return dataclasses.replace(frame, meta={**frame.meta, "amr": amr})
    values = getattr(frame, array).copy()
    values[index] = value
    return dataclasses.replace(frame, **{array: values})


def sparse_volume(seed=0, shape=(10, 9, 8)):
    rng = np.random.default_rng(seed)
    vol = rng.random(shape + (4,))
    vol[..., 3][rng.random(shape) > 0.05] = 0.0
    return vol


LO, HI = np.array([-1.0, -1.0, -1.0]), np.array([1.0, 1.0, 1.0])


def camera_at(direction, size=32):
    return Camera.fit_bounds(LO, HI, direction=direction, width=size, height=size)


def own_bytes(geo: FrameGeometry) -> int:
    m = geo.matrix
    return int(
        geo.pix.nbytes + geo.row_start.nbytes + geo.depths.nbytes
        + m.data.nbytes + m.indices.nbytes + m.indptr.nbytes
    )


# ----------------------------------------------------------------------
class TestLiveRowMemo:
    def test_one_entry_per_occupancy(self):
        vol = sparse_volume()
        geo = FrameGeometry.build(camera_at((1, 0.3, 0.5)), vol.shape[:3], LO, HI, 12)
        occ = vol[..., 3].reshape(-1) != 0
        live = geo.live_rows(occ)
        assert 0 < len(live.pix) < len(geo.pix)
        memo = geo._live
        assert np.array_equal(live.pix, geo.pix[memo[1]])
        geo.live_rows(occ.copy())
        assert geo._live is memo  # hit on equal contents
        other = occ.copy()
        other[np.flatnonzero(~occ)[:40]] = True
        assert len(geo.live_rows(other).pix) > len(live.pix)
        assert geo._live[0] != memo[0]  # one entry: the old one is gone

    def test_all_rows_live_returns_self(self):
        geo = FrameGeometry.build(camera_at((1, 0.3, 0.5)), (24, 20, 16), LO, HI, 12)
        # occupied = every voxel some stencil weights: all rows live
        occ = np.asarray(geo.matrix.sum(axis=0)).ravel() > 0
        assert not occ.all()
        assert geo.live_rows(occ) is geo
        assert geo.nbytes == own_bytes(geo)

    def test_zero_weight_corner_is_not_live(self):
        """A row sampled exactly on a voxel's face gives its far corners
        weight 0; occupying only those corners leaves the row dead."""
        geo = FrameGeometry.build(camera_at((1, 0.3, 0.5)), (10, 9, 8), LO, HI, 12)
        occ = np.zeros(10 * 9 * 8, dtype=bool)
        occ[1::2] = True  # odd z: the clamped top face z=7 only
        live = geo.live_rows(occ)
        assert len(live.pix) < len(geo.pix)
        kept = np.asarray(geo.matrix @ occ.astype(float)) > 0
        assert len(live.pix) == int(kept.sum())

    def test_nbytes_counts_memos(self):
        vol = sparse_volume()
        camera = camera_at((1, 0.3, 0.5))
        cache = FrameGeometryCache()
        render_mixed(camera, vol, LO, HI, n_slices=12, cache=cache)
        (geo,) = cache._entries.values()
        live = geo.live_rows(vol[..., 3].reshape(-1) != 0)
        covered = geo.covered(camera.width * camera.height)
        rows = geo._live[1]
        assert len(rows) == len(live.pix) < len(geo.pix)
        assert geo.nbytes == own_bytes(geo) + covered.nbytes + rows.nbytes
        assert cache.total_bytes == geo.nbytes

    def test_total_bytes_exact_and_budget_evicts(self):
        """Memo bytes filled after insertion count at the next eviction."""
        vol = sparse_volume()
        dense = np.random.default_rng(1).random(vol.shape)  # no alpha is 0
        dirs = [(1, 0.3, 0.5), (-0.4, 1.0, 0.2), (0.1, 0.2, 1.0)]
        probe = FrameGeometryCache()
        for d in dirs[:2]:
            render_mixed(camera_at(d), vol, LO, HI, n_slices=12, cache=probe)
        assert probe.total_bytes == sum(g.nbytes for g in probe._entries.values())
        first, second = probe._entries.values()
        assert first.nbytes > own_bytes(first)

        # room for the first view with its memos plus a bare second
        # build, less one byte: inserting the second must evict the first
        budget = first.nbytes + own_bytes(second) - 1
        cache = FrameGeometryCache(max_bytes=budget)
        render_mixed(camera_at(dirs[0]), vol, LO, HI, n_slices=12, cache=cache)
        assert len(cache) == 1 and cache.total_bytes == first.nbytes
        render_mixed(camera_at(dirs[1]), vol, LO, HI, n_slices=12, cache=cache)
        assert len(cache) == 1
        # a dense volume fills no live-row memo, only the covered mask
        for d in dirs:
            render_mixed(camera_at(d), dense, LO, HI, n_slices=12, cache=cache)
            assert cache.total_bytes == sum(g.nbytes for g in cache._entries.values())


class TestClassifyMemo:
    def classify_counts(self, renderer, frame):
        with capture(enabled=True) as t:
            out = renderer.classify_volume(frame)
        return out, t.counters.get("classify_memo_hit", 0), t.counters.get(
            "classify_memo_miss", 0
        )

    def test_hit_is_read_only_and_shared(self, frames):
        a, b = frames
        assert np.array_equal(a.volume, b.volume)  # volume_from="all"
        r = HybridRenderer()
        first, _, miss = self.classify_counts(r, a)
        second, hit, _ = self.classify_counts(r, dataclasses.replace(b, volume=b.volume.copy()))
        assert (miss, hit) == (1, 1)
        assert second is first
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0, 0, 0, 0] = 1.0
        assert np.array_equal(first, HybridRenderer().classify_volume(a))

    @pytest.mark.parametrize(
        "edit",
        ["boundary", "ramp", "opacity", "colormap", "max_density", "volume"],
    )
    def test_edit_reclassifies(self, frames, edit):
        frame = frames[0]
        r = HybridRenderer()
        before, _, _ = self.classify_counts(r, frame)
        if edit == "boundary":
            r.transfer.set_boundary(0.5)
        elif edit == "ramp":
            r.transfer.set_ramp(0.3)
        elif edit == "opacity":
            r.transfer.volume.opacity = 0.2
        elif edit == "colormap":
            r.transfer.volume.colormap = get_colormap("gray")
        elif edit == "max_density":
            r.max_density = 0.5 * frame.max_density()
        else:
            frame = edited(frame, slice(None, frame.volume.shape[0] // 2), 0.0)
        after, hit, miss = self.classify_counts(r, frame)
        assert (hit, miss) == (0, 1)
        assert after is not before
        fresh = HybridRenderer(transfer=r.transfer, max_density=r.max_density)
        assert after.tobytes() == fresh.classify_volume(frame).tobytes()
        assert after.tobytes() != before.tobytes()

    def test_amr_memo(self, amr_frame):
        frame = amr_frame
        r = HybridRenderer()
        first, _, _ = self.classify_counts(r, frame)
        again, hit, _ = self.classify_counts(r, frame)
        assert isinstance(again, AmrRgbaVolume) and hit == 1
        assert again.flat_rgba is first.flat_rgba
        assert not again.flat_rgba.flags.writeable
        data = frame.meta["amr"].data
        frame = edited(frame, slice(None, len(data) // 2), 0.0, "amr")
        changed, _, miss = self.classify_counts(r, frame)
        assert miss == 1
        assert changed.flat_rgba.tobytes() == HybridRenderer().classify_volume(
            frame
        ).flat_rgba.tobytes()
        assert changed.flat_rgba.tobytes() != first.flat_rgba.tobytes()

    def test_amr_maximum_scanned_once(self, amr_frame, monkeypatch):
        """Four renders of one adaptive frame scan its cells for their
        maximum once, and draw what a pinned maximum draws."""
        frame = dataclasses.replace(amr_frame)  # a fresh memo
        amr = frame.meta["amr"]
        pinned = HybridRenderer(
            n_slices=8, max_density=max(frame.max_density(), float(amr.data.max()))
        ).render(frame, camera_at((1, 0.3, 0.5)))
        scans = []
        real = AmrVolume.max_density

        def spy(self):
            scans.append(self)
            return real(self)

        monkeypatch.setattr(AmrVolume, "max_density", spy)
        r = HybridRenderer(n_slices=8)
        images = [r.render(frame, camera_at((1, 0.3, 0.5))) for _ in range(4)]
        assert scans == [amr]
        for image in images:
            assert image.rgba.tobytes() == pinned.rgba.tobytes()
            assert image.depth.tobytes() == pinned.depth.tobytes()

    def test_orbit_classifies_once(self, frames):
        """Thresholds sharing one volume, several views, two orbits:
        one classification, and most slice rows skipped."""
        r = HybridRenderer(n_slices=16, cache=FrameGeometryCache())
        cameras = [camera_at((np.cos(a), 0.35, np.sin(a)), 40) for a in (0.0, 2.0, 4.0)]
        with capture(enabled=True) as t:
            for _ in range(2):
                for h in frames:
                    for c in cameras:
                        r.render(h, c)
        c = t.counters
        assert c["classify_memo_miss"] == 1
        assert c["classify_memo_hit"] == 2 * len(frames) * len(cameras) - 1
        assert c["frame_cache_miss"] == len(cameras)
        assert 0 < c["slice_rows_sampled"] < c["slice_rows_skipped"]


class TestPointMemo:
    def test_second_view_reads_no_frame_array(self, frames, monkeypatch):
        """A second view of a frame calls none of the point selection,
        the colormap or a finiteness check of a frame array: both memos
        hit.  Only the compositor's own check of the classified RGBA
        runs, once per render."""
        frame = frames[0]
        r = HybridRenderer(n_slices=8, cache=FrameGeometryCache())
        r.render(frame, camera_at((1, 0.3, 0.5)))
        rgba = r.classify_volume(frame)
        calls = []

        def spy(fn):
            def wrapped(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)

            return wrapped

        isfinite = np.isfinite

        def finite_spy(a, *args, **kwargs):
            calls.append("isfinite(rgba)" if np.shares_memory(a, rgba) else "isfinite")
            return isfinite(a, *args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(hybrid_renderer, "select_fraction", spy(hybrid_renderer.select_fraction))
            m.setattr(Colormap, "__call__", spy(Colormap.__call__))
            m.setattr(np, "isfinite", finite_spy)
            with capture(enabled=True) as t:
                fb = r.render(frame, camera_at((-0.4, 1.0, 0.2)))
        assert calls == ["isfinite(rgba)"]
        c = t.counters
        assert (c["classify_memo_hit"], c["classify_points_memo_hit"]) == (1, 1)
        assert "classify_points_memo_miss" not in c and "classify_memo_miss" not in c
        fresh = HybridRenderer(n_slices=8, cache=False).render(
            frame, camera_at((-0.4, 1.0, 0.2))
        )
        assert fb.rgba.tobytes() == fresh.rgba.tobytes()
        assert fb.depth.tobytes() == fresh.depth.tobytes()

    def test_hit_is_read_only_and_one_miss_per_frame(self, frames):
        r = HybridRenderer(n_slices=8, cache=FrameGeometryCache())
        cameras = [camera_at((np.cos(a), 0.35, np.sin(a))) for a in (0.0, 2.0, 4.0)]
        with capture(enabled=True) as t:
            for h in frames:
                for c in cameras:
                    r.render(h, c)
        assert t.counters["classify_points_memo_miss"] == len(frames)
        assert t.counters["classify_points_memo_hit"] == len(frames) * (len(cameras) - 1)
        pos, rgba = r.classified_points(frames[-1])
        want = HybridRenderer().classified_points(frames[-1])
        assert pos.tobytes() == want[0].tobytes() and rgba.tobytes() == want[1].tobytes()
        for a in (pos, rgba):
            with pytest.raises(ValueError, match="read-only"):
                a[0, 0] = 1.0

    @pytest.mark.parametrize(
        "edit",
        ["boundary", "ramp", "alpha", "colormap", "color_by", "max_density", "points"],
    )
    def test_edit_reclassifies(self, frames, edit):
        n = frames[0].n_points
        frame = dataclasses.replace(
            frames[0], attributes={"energy": np.linspace(0.0, 1.0, n)}
        )
        r = HybridRenderer()
        before = r.classified_points(frame)
        if edit == "boundary":
            r.transfer.set_boundary(0.5, side="point")
        elif edit == "ramp":
            r.transfer.set_ramp(0.3, side="point")
        elif edit == "alpha":
            r.point_alpha = 0.2
        elif edit == "colormap":
            r.point_colormap = get_colormap("gray")
        elif edit == "color_by":
            r.point_color_by = "energy"
        elif edit == "max_density":
            r.max_density = 0.5 * frame.max_density()
        else:
            frame = edited(frame, slice(None, n // 2), 0.0, "point_densities")
        with capture(enabled=True) as t:
            after = r.classified_points(frame)
        assert t.counters["classify_points_memo_miss"] == 1
        fresh = HybridRenderer(
            transfer=r.transfer, max_density=r.max_density, point_alpha=r.point_alpha,
            point_colormap=r.point_colormap, point_color_by=r.point_color_by,
        ).classified_points(frame)
        assert [a.tobytes() for a in after] == [a.tobytes() for a in fresh]
        assert [a.tobytes() for a in after] != [a.tobytes() for a in before]


class TestInvalidInputs:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_density(self, frames, bad):
        frame = edited(frames[0], (3, 4, 5), bad)
        r = HybridRenderer(n_slices=8)
        with pytest.raises(ValueError, match="non-finite"):
            r.render(frame, camera_at((1, 0.3, 0.5)))

    @pytest.mark.parametrize(
        "array, bad, message",
        [
            ("points", np.nan, "point positions"),
            ("points", np.inf, "point positions"),
            ("point_densities", np.nan, "point densities"),
            ("point_densities", np.inf, "point densities"),
            ("energy", np.nan, "'energy'"),
            ("energy", -np.inf, "'energy'"),
        ],
    )
    def test_non_finite_points(self, frames, array, bad, message):
        """Named before the normalizer reads ``max_density()``: an
        infinite density used to surface as a non-finite volume, a NaN
        attribute value as an all-NaN image, and NaN positions or
        densities were dropped silently."""
        n = frames[0].n_points
        energy = np.linspace(0.0, 1.0, n)
        if array == "energy":
            energy[n // 2] = bad
        frame = dataclasses.replace(frames[0], attributes={"energy": energy})
        if array != "energy":
            frame = edited(frame, (n // 2, 0) if array == "points" else n // 2, bad, array)
        r = HybridRenderer(n_slices=8, point_color_by="energy")
        with pytest.raises(ValueError, match=message):
            r.render(frame, camera_at((1, 0.3, 0.5)))
        with pytest.raises(ValueError, match=message):
            r.classified_points(frame)
        with pytest.raises(ValueError, match=message):
            HybridRenderer(max_density=1.0, point_color_by="energy").render_point_part(
                frame, camera_at((1, 0.3, 0.5))
            )

    def test_non_finite_amr_density(self, amr_frame):
        frame = edited(amr_frame, 7, np.nan, "amr")
        with pytest.raises(ValueError, match="non-finite"):
            HybridRenderer(n_slices=8).render(frame, camera_at((1, 0.3, 0.5)))

    @pytest.mark.parametrize(
        "where", ["nan_rgb_at_zero_alpha", "inf_alpha", "nan_alpha"]
    )
    def test_non_finite_rgba_volume(self, where):
        vol = sparse_volume()
        if where == "nan_rgb_at_zero_alpha":
            i = np.argwhere(vol[..., 3] == 0)[0]
            vol[tuple(i) + (0,)] = np.nan
        elif where == "inf_alpha":
            vol[0, 0, 0, 3] = np.inf
        else:
            vol[4, 4, 4, 3] = np.nan
        with pytest.raises(ValueError, match="finite"):
            render_mixed(camera_at((1, 0.3, 0.5)), vol, LO, HI, n_slices=8, cache=False)

    def test_non_finite_amr_rgba_volume(self, amr_frame):
        classified = HybridRenderer().classify_volume(amr_frame)
        rgba = classified.flat_rgba.copy()
        rgba[2, 1] = np.inf
        with pytest.raises(ValueError, match="finite"):
            render_mixed(
                camera_at((1, 0.3, 0.5)), AmrRgbaVolume(amr_frame.meta["amr"], rgba),
                amr_frame.lo, amr_frame.hi, n_slices=8, cache=False,
            )

    @pytest.mark.parametrize("n", [0, -3])
    def test_bad_slice_count(self, frames, n):
        with pytest.raises(ValueError, match="n_slices"):
            HybridRenderer(n_slices=n)
        with pytest.raises(ValueError, match="n_slices"):
            render_mixed(camera_at((1, 0.3, 0.5)), sparse_volume(), LO, HI, n_slices=n)
