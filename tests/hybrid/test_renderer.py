"""Hybrid renderer: classification, subsampling, and the two passes."""

import numpy as np
import pytest

from repro.core.dataset import as_dataset
from repro.hybrid.renderer import HybridRenderer
from repro.hybrid.transfer import LinkedTransferFunctions
from repro.render.camera import Camera
from repro.render.image import coverage


@pytest.fixture(scope="module")
def camera(hybrid_frame_module):
    f = hybrid_frame_module
    return Camera.fit_bounds(f.lo, f.hi, width=80, height=80)


@pytest.fixture(scope="module")
def hybrid_frame_module():
    # build a private small frame so this module is independent of
    # session fixtures' exact content
    from repro.octree.extraction import extract
    from repro.octree.partition import partition

    rng = np.random.default_rng(17)
    core = rng.normal(0.0, 0.3, (8000, 6))
    halo = rng.normal(0.0, 2.0, (800, 6))
    pf = partition(as_dataset(np.vstack([core, halo])), "xyz", max_level=5, capacity=32)
    thr = float(np.percentile(pf.nodes["density"], 65))
    return extract(pf, thr, volume_resolution=24)


class TestClassification:
    def test_classified_volume_shape(self, hybrid_frame_module):
        r = HybridRenderer()
        rgba = r.classify_volume(hybrid_frame_module)
        assert rgba.shape == hybrid_frame_module.volume.shape + (4,)
        assert rgba[..., 3].max() <= r.transfer.volume.opacity + 1e-12

    def test_classified_points_subsample(self, hybrid_frame_module):
        r = HybridRenderer()
        pos, rgba = r.classified_points(hybrid_frame_module)
        assert 0 < len(pos) <= hybrid_frame_module.n_points
        assert rgba.shape == (len(pos), 4)
        assert np.allclose(rgba[:, 3], r.point_alpha)

    def test_boundary_zero_drops_all_points(self, hybrid_frame_module):
        tf = LinkedTransferFunctions(boundary=-0.1, ramp=0.0)
        r = HybridRenderer(transfer=tf)
        pos, _ = r.classified_points(hybrid_frame_module)
        assert len(pos) == 0

    def test_boundary_one_keeps_all_points(self, hybrid_frame_module):
        tf = LinkedTransferFunctions(boundary=1.1, ramp=0.0)
        r = HybridRenderer(transfer=tf)
        pos, _ = r.classified_points(hybrid_frame_module)
        assert len(pos) == hybrid_frame_module.n_points


class TestRendering:
    def test_render_produces_image(self, hybrid_frame_module, camera):
        fb = HybridRenderer(n_slices=16).render(hybrid_frame_module, camera)
        img = fb.to_rgb8()
        assert coverage(img) > 0.01

    def test_hybrid_is_union_of_parts(self, hybrid_frame_module, camera):
        """Pixels covered by either part must be covered by the
        combined rendering (Figure 4's decomposition)."""
        r = HybridRenderer(n_slices=16)
        full = r.render(hybrid_frame_module, camera).to_rgb8()
        vol = r.render_volume_part(hybrid_frame_module, camera).to_rgb8()
        pts = r.render_point_part(hybrid_frame_module, camera).to_rgb8()
        covered_parts = (vol.sum(axis=2) > 0) | (pts.sum(axis=2) > 0)
        covered_full = full.sum(axis=2) > 0
        assert (covered_parts & ~covered_full).mean() < 0.02

    def test_point_part_opaque_mode(self, hybrid_frame_module, camera):
        r = HybridRenderer(n_slices=8)
        faint = r.render_point_part(hybrid_frame_module, camera).rgba[..., 3]
        opaque = r.render_point_part(hybrid_frame_module, camera, opaque=True).rgba[..., 3]
        assert opaque.max() >= faint.max()

    def test_default_camera_autofit(self, hybrid_frame_module):
        fb = HybridRenderer(n_slices=8).render(hybrid_frame_module)
        assert fb.width == 256

    @pytest.mark.parametrize("size", [0, -3, 0.5])
    def test_point_size_below_one_rejected(self, size):
        with pytest.raises(ValueError, match="point_size"):
            HybridRenderer(point_size=size)

    def test_deterministic(self, hybrid_frame_module, camera):
        r = HybridRenderer(n_slices=8)
        a = r.render(hybrid_frame_module, camera).to_rgb8()
        b = r.render(hybrid_frame_module, camera).to_rgb8()
        assert np.array_equal(a, b)
