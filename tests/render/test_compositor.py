"""Deterministic sort-last compositor: algebra, ordering, edge cases."""

import numpy as np
import pytest

from repro.render.camera import Camera
from repro.octree.octree import morton_keys
from repro.render.compositor import SortLastCompositor, brick_ijk
from repro.render.framebuffer import Framebuffer
from repro.render.points import point_fragments
from repro.render.volume import render_mixed

LO = np.array([-1.0, -1.0, -1.0])
HI = np.array([1.0, 1.0, 1.0])


def _random_fb(rng, w=16, h=16, alpha_scale=0.8):
    fb = Framebuffer(w, h)
    fb.rgba[..., :3] = rng.uniform(0.0, 1.0, (h, w, 3))
    fb.rgba[..., 3] = rng.uniform(0.0, alpha_scale, (h, w))
    fb.depth[...] = rng.uniform(1.0, 5.0, (h, w))
    return fb


def _over(back, front):
    """Reference non-premultiplied over blend of two RGBA images."""
    a_f = front[..., 3:4]
    a_b = back[..., 3:4]
    out_a = a_f + a_b * (1.0 - a_f)
    safe = np.where(out_a <= 0.0, 1.0, out_a)
    out_rgb = (front[..., :3] * a_f + back[..., :3] * a_b * (1.0 - a_f)) / safe
    return np.concatenate([out_rgb, out_a], axis=-1)


class TestBrickIndexing:
    def test_morton_roundtrip(self):
        assert brick_ijk(0, 0) == (0, 0, 0)
        for level in (1, 2, 3):
            n = 2**level
            ijk = np.stack(np.meshgrid(*[np.arange(n)] * 3, indexing="ij"), -1)
            ijk = ijk.reshape(-1, 3)
            codes = morton_keys((ijk + 0.5) / n, np.zeros(3), np.ones(3), level)
            for code, cell in zip(codes, ijk):
                assert brick_ijk(int(code), level) == tuple(cell)
            assert set(codes.tolist()) == set(range(8**level))

    def test_power_of_two_required(self):
        with pytest.raises(ValueError, match="power of two"):
            SortLastCompositor(LO, HI, 3)
        with pytest.raises(ValueError, match="power of two"):
            SortLastCompositor(LO, HI, 0)

    def test_degenerate_bounds_rejected(self):
        with pytest.raises(ValueError, match="lo < hi"):
            SortLastCompositor(LO, [1.0, -1.0, 1.0], 2)


class TestVisibilityOrder:
    def test_back_to_front_distance(self):
        comp = SortLastCompositor(LO, HI, 2)
        cam = Camera.fit_bounds(LO, HI, width=8, height=8)
        order = comp.visibility_order(cam, range(8))
        eye = comp.eye_cell(cam)

        def dist(b):
            i, j, k = brick_ijk(b, 1)
            return abs(i - eye[0]) + abs(j - eye[1]) + abs(k - eye[2])

        dists = [dist(b) for b in order]
        assert dists == sorted(dists, reverse=True)

    def test_ties_broken_by_id(self):
        comp = SortLastCompositor(LO, HI, 2)
        cam = Camera.fit_bounds(LO, HI, width=8, height=8)
        order = comp.visibility_order(cam, range(8))
        eye = comp.eye_cell(cam)

        def dist(b):
            i, j, k = brick_ijk(b, 1)
            return abs(i - eye[0]) + abs(j - eye[1]) + abs(k - eye[2])

        for a, b in zip(order, order[1:]):
            if dist(a) == dist(b):
                assert a < b

    def test_order_is_permutation_and_deterministic(self):
        comp = SortLastCompositor(LO, HI, 4)
        cam = Camera.fit_bounds(LO, HI, direction=(0.7, -0.2, 0.4), width=8, height=8)
        ids = list(range(64))
        o1 = comp.visibility_order(cam, ids)
        o2 = comp.visibility_order(cam, reversed(ids))
        assert sorted(o1) == ids
        assert o1 == o2


class TestCompositeAlgebra:
    def test_matches_reference_fold(self):
        """The compositor's premultiplied fold equals the textbook
        non-premultiplied over fold in visibility order (~1e-12)."""
        rng = np.random.default_rng(7)
        comp = SortLastCompositor(LO, HI, 2)
        cam = Camera.fit_bounds(LO, HI, width=16, height=16)
        images = {b: _random_fb(rng) for b in range(8)}
        out = comp.composite(cam, images)

        ref = np.zeros((16, 16, 4))
        for b in comp.visibility_order(cam, images.keys()):
            ref = _over(ref, images[b].rgba)
        assert np.allclose(out.rgba, ref, atol=1e-12)

    def test_associative_under_bricking(self):
        """Merging a prefix of the visibility order first, then
        compositing the rest over it, matches the flat fold -- the
        regrouping a two-stage (tile-of-bricks) composite performs."""
        rng = np.random.default_rng(8)
        comp = SortLastCompositor(LO, HI, 2)
        cam = Camera.fit_bounds(LO, HI, width=16, height=16)
        images = {b: _random_fb(rng) for b in range(8)}
        order = comp.visibility_order(cam, images.keys())

        flat = np.zeros((16, 16, 4))
        for b in order:
            flat = _over(flat, images[b].rgba)

        back = np.zeros((16, 16, 4))
        for b in order[:4]:
            back = _over(back, images[b].rgba)
        front = images[order[4]].rgba
        for b in order[5:]:
            front = _over(front, images[b].rgba)
        grouped = _over(back, front)
        assert np.allclose(flat, grouped, atol=1e-12)

    def test_input_order_irrelevant(self):
        rng = np.random.default_rng(9)
        comp = SortLastCompositor(LO, HI, 2)
        cam = Camera.fit_bounds(LO, HI, width=16, height=16)
        fbs = [_random_fb(rng) for _ in range(8)]
        a = comp.composite(cam, {b: fbs[b] for b in range(8)})
        b_ = comp.composite(cam, {b: fbs[b] for b in reversed(range(8))})
        assert np.array_equal(a.rgba, b_.rgba)
        assert np.array_equal(a.depth, b_.depth)


class TestCompositeEdgeCases:
    def test_empty_input(self):
        comp = SortLastCompositor(LO, HI, 2)
        cam = Camera.fit_bounds(LO, HI, width=8, height=8)
        out = comp.composite(cam, {})
        assert np.all(out.rgba == 0.0)
        assert np.all(np.isinf(out.depth))

    def test_none_and_transparent_bricks_are_noops(self):
        rng = np.random.default_rng(10)
        comp = SortLastCompositor(LO, HI, 2)
        cam = Camera.fit_bounds(LO, HI, width=16, height=16)
        fb = _random_fb(rng)
        base = comp.composite(cam, {0: fb})
        padded = comp.composite(
            cam, {0: fb, 1: None, 2: Framebuffer(16, 16), 7: None}
        )
        assert np.array_equal(base.rgba, padded.rgba)
        assert np.array_equal(base.depth, padded.depth)

    def test_viewport_mismatch_raises(self):
        comp = SortLastCompositor(LO, HI, 2)
        cam = Camera.fit_bounds(LO, HI, width=16, height=16)
        rng = np.random.default_rng(11)
        with pytest.raises(ValueError, match="viewport"):
            comp.composite(cam, {0: _random_fb(rng, w=8, h=8)})

    def test_depth_is_min_of_contributors(self):
        rng = np.random.default_rng(12)
        comp = SortLastCompositor(LO, HI, 2)
        cam = Camera.fit_bounds(LO, HI, width=16, height=16)
        a, b = _random_fb(rng), _random_fb(rng)
        out = comp.composite(cam, {0: a, 7: b})
        assert np.array_equal(out.depth, np.minimum(a.depth, b.depth))


class TestBrickedPointsVsSingleRender:
    def test_bricked_point_merge_matches_single_image(self):
        """Point clouds clustered well inside each octant, rendered
        per-brick and composited, match the single render_mixed image
        (the two paths regroup the same over-blend arithmetic; tiny
        drift comes from the fragment accumulator's log-space
        products)."""
        rng = np.random.default_rng(21)
        cam = Camera.fit_bounds(LO, HI, width=64, height=64)
        comp = SortLastCompositor(LO, HI, 2)

        all_pos, images = [], {}
        for b in range(8):
            i, j, k = brick_ijk(b, 1)
            center = LO + (np.array([i, j, k]) + 0.5) * (HI - LO) / 2
            pos = center + rng.uniform(-0.25, 0.25, (200, 3))
            rgba = np.concatenate(
                [rng.uniform(0.2, 1.0, (200, 3)), np.full((200, 1), 0.5)], axis=1
            )
            all_pos.append((pos, rgba))
            frags = point_fragments(cam, pos, rgba)
            images[b] = render_mixed(cam, None, LO, HI, point_fragments=frags)

        pos = np.vstack([p for p, _ in all_pos])
        rgba = np.vstack([c for _, c in all_pos])
        single = render_mixed(
            cam, None, LO, HI, point_fragments=point_fragments(cam, pos, rgba)
        )
        merged = comp.composite(cam, images)
        assert np.allclose(merged.rgba, single.rgba, atol=1e-6)
