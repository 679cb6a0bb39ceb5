"""Framebuffer compositing: the over operator and per-pixel fragment
blending that every renderer in the package rides on."""

import numpy as np
import pytest

from repro.render.framebuffer import Framebuffer, composite_fragments, composite_over


class TestCompositeOver:
    def test_opaque_src_replaces(self):
        dst = np.array([[0.2, 0.4, 0.6, 1.0]])
        src = np.array([[1.0, 0.0, 0.0, 1.0]])
        composite_over(dst, src)
        assert np.allclose(dst, [[1.0, 0.0, 0.0, 1.0]])

    def test_transparent_src_noop(self):
        dst = np.array([[0.2, 0.4, 0.6, 0.8]])
        before = dst.copy()
        composite_over(dst, np.array([[1.0, 1.0, 1.0, 0.0]]))
        assert np.allclose(dst, before)

    def test_alpha_accumulates(self):
        dst = np.array([[1.0, 0.0, 0.0, 0.5]])
        composite_over(dst, np.array([[1.0, 0.0, 0.0, 0.5]]))
        assert dst[0, 3] == pytest.approx(0.75)

    def test_half_alpha_mixes_colors(self):
        dst = np.array([[0.0, 0.0, 1.0, 1.0]])
        composite_over(dst, np.array([[1.0, 0.0, 0.0, 0.5]]))
        assert np.allclose(dst[0, :3], [0.5, 0.0, 0.5])


class TestCompositeFragments:
    def test_empty_stream(self):
        rgba, depth = composite_fragments(
            np.empty(0, dtype=int), np.empty(0), np.empty((0, 4)), 16
        )
        assert rgba.shape == (16, 4)
        assert np.all(rgba == 0)
        assert np.all(np.isinf(depth))

    def test_single_fragment(self):
        rgba, depth = composite_fragments(
            np.array([3]), np.array([2.0]), np.array([[1.0, 0.5, 0.25, 0.8]]), 8
        )
        assert np.allclose(rgba[3], [1.0, 0.5, 0.25, 0.8])
        assert depth[3] == 2.0
        assert np.all(rgba[[0, 1, 2, 4, 5, 6, 7]] == 0)

    def test_order_independence(self):
        """Shuffled fragment order must not change the image."""
        rng = np.random.default_rng(0)
        pix = rng.integers(0, 10, 200)
        dep = rng.uniform(1.0, 5.0, 200)
        col = rng.uniform(0.0, 1.0, (200, 4))
        a, _ = composite_fragments(pix, dep, col, 10)
        perm = rng.permutation(200)
        b, _ = composite_fragments(pix[perm], dep[perm], col[perm], 10)
        assert np.allclose(a, b, atol=1e-10)

    def test_nearest_opaque_wins(self):
        pix = np.array([0, 0])
        dep = np.array([1.0, 2.0])
        col = np.array([[1.0, 0.0, 0.0, 1.0], [0.0, 1.0, 0.0, 1.0]])
        rgba, depth = composite_fragments(pix, dep, col, 1)
        # alpha is clamped at 1 - 1e-5, so a hair of green may leak
        assert np.allclose(rgba[0, :3], [1.0, 0.0, 0.0], atol=1e-4)
        assert depth[0] == 1.0

    def test_matches_sequential_over(self):
        """Fragment compositing must equal sequential back-to-front
        'over' for a single pixel."""
        rng = np.random.default_rng(1)
        n = 20
        dep = rng.uniform(0.5, 4.0, n)
        col = rng.uniform(0.1, 0.9, (n, 4))
        rgba, _ = composite_fragments(np.zeros(n, dtype=int), dep, col, 1)
        # sequential reference, farthest first
        ref = np.zeros((1, 4))
        for i in np.argsort(-dep):
            composite_over(ref, col[i : i + 1])
        assert np.allclose(rgba[0], ref[0], atol=1e-9)

    def test_two_pixels_independent(self):
        pix = np.array([0, 1])
        dep = np.array([1.0, 1.0])
        col = np.array([[1.0, 0, 0, 0.5], [0, 1.0, 0, 0.5]])
        rgba, _ = composite_fragments(pix, dep, col, 2)
        assert np.allclose(rgba[0], [1.0, 0, 0, 0.5])
        assert np.allclose(rgba[1], [0, 1.0, 0, 0.5])


class TestFramebuffer:
    def test_invalid_dims_raise(self):
        with pytest.raises(ValueError):
            Framebuffer(0, 10)

    def test_clear_resets(self):
        fb = Framebuffer(4, 4, background=(0.1, 0.2, 0.3, 1.0))
        fb.rgba[...] = 0.5
        fb.depth[...] = 1.0
        fb.clear()
        assert np.allclose(fb.rgba[0, 0], [0.1, 0.2, 0.3, 1.0])
        assert np.all(np.isinf(fb.depth))

    def test_pixel_index_bounds(self):
        fb = Framebuffer(8, 4)
        flat, ok = fb.pixel_index(np.array([[0.5, 0.5], [7.9, 3.9], [-1.0, 0.0], [8.0, 0.0]]))
        assert ok.tolist() == [True, True, False, False]
        assert flat[0] == 0
        assert flat[1] == 3 * 8 + 7

    def test_layer_over_updates_depth(self):
        fb = Framebuffer(2, 2)
        layer = np.zeros((2, 2, 4))
        layer[0, 0] = [1, 0, 0, 1]
        depth = np.full((2, 2), 3.0)
        fb.layer_over(layer, depth)
        assert fb.depth[0, 0] == 3.0
        assert np.isinf(fb.depth[1, 1])

    @pytest.mark.parametrize("background", [(0.2, 0.3, 0.4, 0.0), (-0.0, -0.0, -0.0, -0.0)])
    @pytest.mark.parametrize("size", [(1, 1), (3, 1), (7, 5), (256, 256)])
    def test_clear_equals_broadcast_fill(self, background, size):
        fb = Framebuffer(*size, background=background)
        rgba, depth = fb.rgba, fb.depth
        want = np.empty_like(rgba)
        want[...] = np.asarray(background, dtype=np.float64)
        assert rgba.tobytes() == want.tobytes()
        fb.rgba[...] = 0.5
        fb.depth[...] = 1.0
        fb.clear()
        assert fb.rgba is rgba and fb.depth is depth
        assert rgba.tobytes() == want.tobytes()
        assert np.all(np.isinf(depth))

    def test_pixels_over_updates_covered_pixels_only(self):
        fb = Framebuffer(3, 1, background=(0.2, 0.3, 0.4, 0.0))
        fb.depth[...] = 5.0
        before = fb.rgba.copy()
        pix = np.array([0, 2])
        rgba = np.array([[1.0, 0.0, 0.0, 1.0], [0.0, 1.0, 0.0, 1e-5]])
        fb.pixels_over(pix, rgba, np.array([3.0, 1.0]))
        assert fb.rgba[0, 0].tolist() == [1.0, 0.0, 0.0, 1.0]
        assert fb.rgba[0, 1].tobytes() == before[0, 1].tobytes()
        # depth moves only where the pass is visibly present
        assert fb.depth[0].tolist() == [3.0, 5.0, 5.0]

    def test_to_rgb8_blends_background(self):
        fb = Framebuffer(1, 1, background=(1.0, 1.0, 1.0, 0.0))
        layer = np.zeros((1, 1, 4)); layer[0, 0] = [0, 0, 0, 0.5]
        fb.layer_over(layer)
        img = fb.to_rgb8()
        assert img.dtype == np.uint8
        assert np.all(img[0, 0] == 128)  # half black over white

    def test_shape_mismatch_raises(self):
        fb = Framebuffer(4, 4)
        with pytest.raises(ValueError):
            fb.layer_over(np.zeros((2, 2, 4)))
