"""Frame-geometry cache correctness: bit-identity and invalidation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.trace import capture
from repro.octree.amr import AmrVolume
from repro.render.amr import AmrRgbaVolume, amr_geometry_key
from repro.render.camera import Camera
from repro.render.frame_cache import (
    FrameGeometry,
    FrameGeometryCache,
    frame_geometry_cache,
    geometry_key,
)
from repro.render.points import point_fragments
from repro.render.volume import render_mixed, render_volume


@pytest.fixture
def scene(rng):
    vol = rng.random((12, 14, 10, 4))
    vol[..., 3] *= 0.3
    lo = np.array([-1.0, -1.0, -1.0])
    hi = np.array([1.0, 1.2, 0.8])
    camera = Camera(eye=(2.5, 1.5, 3.0), target=(0, 0, 0), width=48, height=40)
    pts = rng.normal(0, 0.5, (500, 3))
    cols = rng.random((500, 4))
    frags = point_fragments(camera, pts, cols, point_size=1)
    return camera, vol, lo, hi, frags


class TestBitIdentity:
    def test_cached_equals_uncached(self, scene):
        camera, vol, lo, hi, frags = scene
        cache = FrameGeometryCache()
        uncached = render_mixed(
            camera, vol, lo, hi, point_fragments=frags, n_slices=24, cache=False
        )
        cold = render_mixed(
            camera, vol, lo, hi, point_fragments=frags, n_slices=24, cache=cache
        )
        warm = render_mixed(
            camera, vol, lo, hi, point_fragments=frags, n_slices=24, cache=cache
        )
        assert np.array_equal(uncached.rgba, cold.rgba)
        assert np.array_equal(uncached.rgba, warm.rgba)
        assert np.array_equal(uncached.depth, warm.depth)
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_volume_only_bit_identical(self, scene):
        camera, vol, lo, hi, _ = scene
        cache = FrameGeometryCache()
        a = render_volume(camera, vol, lo, hi, n_slices=16, cache=False)
        b = render_volume(camera, vol, lo, hi, n_slices=16, cache=cache)
        c = render_volume(camera, vol, lo, hi, n_slices=16, cache=cache)
        assert np.array_equal(a.rgba, b.rgba)
        assert np.array_equal(a.rgba, c.rgba)

    def test_contents_change_reuses_geometry(self, scene):
        """New volume contents with the same grid reuse cached geometry
        and still render exactly as the uncached path would."""
        camera, vol, lo, hi, _ = scene
        cache = FrameGeometryCache()
        render_volume(camera, vol, lo, hi, n_slices=16, cache=cache)
        vol2 = np.sqrt(vol)
        warm = render_volume(camera, vol2, lo, hi, n_slices=16, cache=cache)
        ref = render_volume(camera, vol2, lo, hi, n_slices=16, cache=False)
        assert cache.stats()["hits"] == 1  # same geometry served both frames
        assert np.array_equal(warm.rgba, ref.rgba)


class TestInvalidation:
    def test_camera_move_is_new_entry(self, scene):
        camera, vol, lo, hi, _ = scene
        cache = FrameGeometryCache()
        render_volume(camera, vol, lo, hi, n_slices=16, cache=cache)
        moved = Camera(
            eye=(2.6, 1.5, 3.0), target=(0, 0, 0), width=48, height=40
        )
        render_volume(moved, vol, lo, hi, n_slices=16, cache=cache)
        assert cache.stats()["misses"] == 2
        assert len(cache) == 2

    def test_resolution_change_is_new_entry(self, scene):
        camera, vol, lo, hi, _ = scene
        cache = FrameGeometryCache()
        render_volume(camera, vol, lo, hi, n_slices=16, cache=cache)
        vol_hi = np.repeat(vol, 2, axis=0)
        render_volume(camera, vol_hi, lo, hi, n_slices=16, cache=cache)
        assert cache.stats()["misses"] == 2

    def test_slice_count_and_bounds_in_key(self, scene):
        camera, vol, lo, hi, _ = scene
        k0 = geometry_key(camera, vol.shape[:3], lo, hi, 16)
        assert geometry_key(camera, vol.shape[:3], lo, hi, 32) != k0
        assert geometry_key(camera, vol.shape[:3], lo, hi + 0.1, 16) != k0
        assert geometry_key(camera, vol.shape[:3], lo, hi, 16) == k0

    def test_transfer_function_mutation_renders_fresh(self, scene):
        """The transfer function is applied per frame on top of cached
        geometry: editing it changes the image without a rebuild."""
        camera, vol, lo, hi, _ = scene
        cache = FrameGeometryCache()
        a = render_volume(camera, vol, lo, hi, n_slices=16, cache=cache)
        edited = vol.copy()
        edited[..., 3] = np.clip(edited[..., 3] * 2.0, 0.0, 1.0)
        b = render_volume(camera, edited, lo, hi, n_slices=16, cache=cache)
        assert cache.stats() == {
            "hits": 1, "misses": 1,
            "entries": 1, "bytes": cache.total_bytes,
        }
        assert not np.array_equal(a.rgba, b.rgba)


def boxed(vol, box):
    """``vol`` with alpha zeroed outside the voxel box ``box``."""
    out = vol.copy()
    keep = np.zeros(vol.shape[:3], dtype=bool)
    keep[box[0]:box[1], box[2]:box[3], box[4]:box[5]] = True
    out[~keep, 3] = 0.0
    return out


class TestBoxReuse:
    """A cached geometry of the same view whose box contains a new box
    serves it; a second box that misses builds the whole grid once."""

    EMPTY = (0, 0, 0, 0, 0, 0)

    def render_pair(self, scene, box, cache):
        camera, vol, lo, hi, frags = scene
        v = boxed(vol, box)
        warm = render_mixed(
            camera, v, lo, hi, point_fragments=frags, n_slices=16, cache=cache
        )
        ref = render_mixed(
            camera, v, lo, hi, point_fragments=frags, n_slices=16, cache=False
        )
        assert warm.rgba.tobytes() == ref.rgba.tobytes()
        assert warm.depth.tobytes() == ref.depth.tobytes()

    def cached_boxes(self, scene, cache, boxes):
        camera, vol, lo, hi, _ = scene
        return [
            b for b in boxes
            if geometry_key(camera, vol.shape[:3], lo, hi, 16, b) in cache
        ]

    def test_edit_sweep_builds_box_then_whole_grid(self, scene):
        """Shrinking, emptying, growing and whole-grid boxes from one
        view: every image equals the uncached render, and the view
        builds twice -- the first box, then the whole grid."""
        sweep = [
            (3, 8, 4, 9, 2, 7), (4, 7, 5, 8, 3, 6), self.EMPTY,
            (2, 9, 4, 9, 2, 7), (5, 6, 6, 7, 4, 5), (0, 12, 0, 14, 0, 10),
        ]
        cache = FrameGeometryCache()
        with capture(enabled=True) as t:
            for box in sweep:
                self.render_pair(scene, box, cache)
        assert cache.stats()["misses"] == 2 and cache.stats()["hits"] == 4
        assert self.cached_boxes(scene, cache, sweep[:5] + [None]) == [sweep[0], None]
        # every covered row that is not sampled is counted, whatever box served it
        camera, vol, lo, hi, _ = scene
        full = FrameGeometry.build(camera, vol.shape[:3], lo, hi, 16).full_rows
        c = t.counters
        assert c["slice_rows_sampled"] + c["slice_rows_skipped"] == 2 * len(sweep) * full

    def test_empty_box(self, scene):
        """An empty box is held by every geometry of its view, and is not
        a box that a later one misses."""
        box = (3, 8, 4, 9, 2, 7)
        cache = FrameGeometryCache()
        for b in (box, self.EMPTY):
            self.render_pair(scene, b, cache)
        assert cache.stats()["misses"] == 1
        cache = FrameGeometryCache()
        for b in (self.EMPTY, box, self.EMPTY):
            self.render_pair(scene, b, cache)
        assert cache.stats()["misses"] == 2
        assert self.cached_boxes(scene, cache, [self.EMPTY, box, None]) == [self.EMPTY, box]

    def test_other_view_builds_its_own(self, scene):
        camera, vol, lo, hi, _ = scene
        cache = FrameGeometryCache()
        render_mixed(camera, boxed(vol, (2, 9, 3, 10, 2, 8)), lo, hi, n_slices=16, cache=cache)
        moved = Camera(eye=(2.6, 1.5, 3.0), target=(0, 0, 0), width=48, height=40)
        render_mixed(moved, boxed(vol, (3, 8, 4, 9, 2, 7)), lo, hi, n_slices=16, cache=cache)
        assert cache.stats()["misses"] == 2
        assert geometry_key(moved, vol.shape[:3], lo, hi, 16, (3, 8, 4, 9, 2, 7)) in cache


class TestCachePolicy:
    def test_lru_entry_bound(self, scene):
        camera, vol, lo, hi, _ = scene
        cache = FrameGeometryCache(max_entries=2)
        for n in (8, 12, 16):
            render_volume(camera, vol, lo, hi, n_slices=n, cache=cache)
        assert len(cache) == 2
        assert geometry_key(camera, vol.shape[:3], lo, hi, 8) not in cache
        assert geometry_key(camera, vol.shape[:3], lo, hi, 16) in cache

    def test_byte_budget_evicts(self, scene):
        camera, vol, lo, hi, _ = scene
        probe = FrameGeometry.build(camera, vol.shape[:3], lo, hi, 16)
        cache = FrameGeometryCache(max_entries=8, max_bytes=probe.nbytes + 1)
        render_volume(camera, vol, lo, hi, n_slices=16, cache=cache)
        render_volume(camera, vol, lo, hi, n_slices=24, cache=cache)
        assert len(cache) == 1  # first entry evicted to fit the budget

    def test_geometry_over_the_budget_is_returned_uncached(self, scene):
        camera, vol, lo, hi, _ = scene
        cache = FrameGeometryCache(max_bytes=1)
        with capture(enabled=True) as t:
            render_volume(camera, vol, lo, hi, n_slices=16, cache=cache)
            tiny = render_volume(camera, vol, lo, hi, n_slices=24, cache=cache)
        assert len(cache) == 0 and cache.total_bytes == 0
        assert t.counters["frame_cache_rejected"] == 2
        assert cache.stats()["misses"] == 2
        fresh = render_volume(camera, vol, lo, hi, n_slices=24, cache=False)
        assert np.array_equal(tiny.rgba, fresh.rgba)

    def test_empty_cache_is_truthy(self):
        assert FrameGeometryCache()

    def test_clear(self, scene):
        camera, vol, lo, hi, _ = scene
        cache = FrameGeometryCache()
        render_volume(camera, vol, lo, hi, n_slices=16, cache=cache)
        cache.clear()
        assert len(cache) == 0
        render_volume(camera, vol, lo, hi, n_slices=16, cache=cache)
        assert cache.stats()["misses"] == 2

    def test_global_cache_is_default(self, scene):
        camera, vol, lo, hi, _ = scene
        global_cache = frame_geometry_cache()
        global_cache.clear()
        before = global_cache.stats()["misses"]
        render_volume(camera, vol, lo, hi, n_slices=16)
        render_volume(camera, vol, lo, hi, n_slices=16)
        after = global_cache.stats()
        assert after["misses"] == before + 1
        assert after["hits"] >= 1
        global_cache.clear()

    def test_explicit_geometry_overrides(self, scene):
        camera, vol, lo, hi, _ = scene
        geo = FrameGeometry.build(camera, vol.shape[:3], lo, hi, 16)
        cache = FrameGeometryCache()
        fb = render_volume(
            camera, vol, lo, hi, n_slices=16, cache=cache, geometry=geo
        )
        ref = render_volume(camera, vol, lo, hi, n_slices=16, cache=False)
        assert cache.stats() == {"hits": 0, "misses": 0, "entries": 0, "bytes": 0}
        assert np.array_equal(fb.rgba, ref.rgba)


def _toy_amr(rng, lo, hi, bricks=2, brick_cells=4):
    """A small hand-built AMR volume: one empty brick, one refined."""
    levels = np.zeros((bricks,) * 3, dtype=np.int8)
    levels[0, 0, 0] = -1
    levels[1, 1, 1] = 1
    cells = sum(
        (brick_cells << int(l)) ** 3 for l in levels.ravel() if l >= 0
    )
    data = rng.random(cells).astype(np.float32)
    return AmrVolume(lo, hi, bricks, brick_cells, levels, data)


class TestAmrKeys:
    def test_amr_key_disjoint_from_flat(self, scene, rng):
        """An AMR key can never equal any flat key -- not even a flat
        volume whose grid shape happens to match the brick-geometry
        slot -- because the ("amr", level_hash) suffix changes arity."""
        camera, _, lo, hi, _ = scene
        amr = _toy_amr(rng, lo, hi)
        akey = amr_geometry_key(camera, amr, 16)
        collider = geometry_key(
            camera,
            (amr.bricks, amr.brick_cells, amr.total_cells),
            lo, hi, 16,
        )
        assert akey[: len(collider)] == collider
        assert akey != collider
        assert akey[-2:] == ("amr", amr.level_hash)

    def test_level_map_participates_in_key(self, scene, rng):
        camera, _, lo, hi, _ = scene
        a = _toy_amr(rng, lo, hi)
        k0 = amr_geometry_key(camera, a, 16)
        # same manifest, different contents: same key (contents are
        # applied per frame, exactly like the flat path)
        same = AmrVolume(
            lo, hi, a.bricks, a.brick_cells, a.levels,
            np.zeros_like(a.data),
        )
        assert amr_geometry_key(camera, same, 16) == k0
        # refine one more brick: new manifest, new key
        levels2 = a.levels.copy()
        levels2[0, 1, 0] = 1
        cells2 = sum(
            (a.brick_cells << int(l)) ** 3 for l in levels2.ravel() if l >= 0
        )
        refined = AmrVolume(
            lo, hi, a.bricks, a.brick_cells, levels2,
            np.zeros(cells2, np.float32),
        )
        assert amr_geometry_key(camera, refined, 16) != k0

    def test_amr_and_flat_share_cache_without_collision(self, scene, rng):
        """Flat and AMR geometries for the same camera/bounds/slicing
        coexist in one cache as distinct entries, and the warm AMR
        render is bitwise-identical to the uncached one."""
        camera, vol, lo, hi, _ = scene
        amr = _toy_amr(rng, lo, hi)
        classified = AmrRgbaVolume(
            amr, rng.random((amr.total_cells, 4))
        )
        cache = FrameGeometryCache()
        render_volume(camera, vol, lo, hi, n_slices=16, cache=cache)
        cold = render_mixed(
            camera, classified, lo, hi, n_slices=16, cache=cache
        )
        assert cache.stats()["misses"] == 2
        assert len(cache) == 2
        assert amr_geometry_key(camera, amr, 16) in cache
        assert geometry_key(camera, vol.shape[:3], lo, hi, 16) in cache
        warm = render_mixed(
            camera, classified, lo, hi, n_slices=16, cache=cache
        )
        fresh = render_mixed(
            camera, classified, lo, hi, n_slices=16, cache=False
        )
        assert cache.stats()["hits"] == 1
        assert np.array_equal(cold.rgba, warm.rgba)
        assert np.array_equal(fresh.rgba, warm.rgba)


class _StubGeometry:
    """Minimal nbytes-bearing stand-in for eviction accounting tests."""

    def __init__(self, nbytes):
        self.nbytes = int(nbytes)


class TestEvictionProperties:
    @given(
        sizes=st.lists(st.integers(1, 1_000), min_size=1, max_size=40),
        max_bytes=st.integers(1, 2_000),
        max_entries=st.integers(1, 12),
    )
    @settings(max_examples=200, deadline=None)
    def test_byte_exact_lru_eviction(self, sizes, max_bytes, max_entries):
        """For any insertion sequence of mixed flat/AMR-arity keys and
        any budget: a geometry larger than the budget is never cached,
        the survivors are exactly the most-recent suffix of the ones
        that fit, total_bytes is the exact sum of survivor nbytes, and
        the budget always holds."""
        cache = FrameGeometryCache(max_entries=max_entries, max_bytes=max_bytes)
        keys = []
        for i, nb in enumerate(sizes):
            # alternate key arities, mirroring flat (12) vs AMR (14) keys
            key = ("k",) * (12 + 2 * (i % 2)) + (i,)
            cache.get_keyed(key, lambda nb=nb: _StubGeometry(nb))
            if nb > max_bytes:
                assert key not in cache
            else:
                keys.append(key)
            assert len(cache) <= max_entries
            assert cache.total_bytes == sum(
                g.nbytes for g in cache._entries.values()
            )
            assert cache.total_bytes <= max_bytes
            # survivors are a contiguous most-recently-inserted suffix
            survivors = [k for k in keys if k in cache]
            assert survivors == keys[len(keys) - len(survivors):]
        assert cache.stats()["misses"] == len(sizes)

    @given(sizes=st.lists(st.integers(1, 100), min_size=2, max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_rehit_refreshes_lru_rank(self, sizes):
        """Re-fetching the oldest key promotes it past the next eviction."""
        cache = FrameGeometryCache(max_entries=2, max_bytes=1 << 30)
        k = [("k", i) for i in range(3)]
        cache.get_keyed(k[0], lambda: _StubGeometry(sizes[0]))
        cache.get_keyed(k[1], lambda: _StubGeometry(sizes[1]))
        cache.get_keyed(k[0], lambda: _StubGeometry(0))  # hit, promotes
        cache.get_keyed(k[2], lambda: _StubGeometry(sizes[-1]))
        assert k[0] in cache and k[2] in cache and k[1] not in cache
        assert cache.stats()["hits"] == 1


class TestGeometry:
    def test_sample_matches_trilinear(self, scene, rng):
        """The CSR resampling rows reproduce trilinear_sample exactly
        where the slice is inside the volume."""
        from repro.render.volume import trilinear_sample

        camera, vol, lo, hi, _ = scene
        geo = FrameGeometry.build(camera, vol.shape[:3], lo, hi, 8)
        flat = vol.reshape(-1, 4)
        samples = geo.sample(flat)
        # rebuild slice-0 coordinates independently
        origins, dirs = camera.pixel_rays()
        cos = np.maximum(dirs @ camera.forward, 1e-9)
        t = geo.depths[0] / cos
        pts = origins + dirs * t[:, None]
        coords = (pts - lo) / np.maximum(hi - lo, 1e-300)
        ref = trilinear_sample(vol, coords)
        rows = geo.slice_rows(0)
        assert np.allclose(samples[rows], ref[geo.pix[rows]], atol=1e-12)

    def test_empty_when_volume_behind_camera(self, scene):
        _, vol, lo, hi, _ = scene
        away = Camera(eye=(0, 0, 10.0), target=(0, 0, 20.0), width=16, height=16)
        geo = FrameGeometry.build(away, vol.shape[:3], lo, hi, 8)
        assert geo.empty
        fb = render_volume(away, vol, lo, hi, n_slices=8, geometry=geo)
        assert np.all(fb.rgba == 0.0)
