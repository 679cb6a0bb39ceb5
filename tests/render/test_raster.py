"""Triangle rasterization: coverage, interpolation, z-buffering."""

import numpy as np
import pytest

from repro.render.camera import Camera
from repro.render.raster import Fragments, rasterize, resolve_opaque


@pytest.fixture
def cam():
    return Camera(eye=[0, 0, 5.0], target=[0, 0, 0], width=64, height=64, fov_y=45)


def _full_screen_quad(z=0.0, size=3.0):
    verts = np.array(
        [[-size, -size, z], [size, -size, z], [size, size, z], [-size, size, z]]
    )
    tris = np.array([[0, 1, 2], [0, 2, 3]])
    return verts, tris


class TestRasterize:
    def test_empty_mesh(self, cam):
        f = rasterize(cam, np.empty((0, 3)), np.empty((0, 3), dtype=int))
        assert len(f) == 0

    def test_full_screen_coverage(self, cam):
        verts, tris = _full_screen_quad()
        f = rasterize(cam, verts, tris)
        covered = np.unique(f.pix)
        assert len(covered) == cam.width * cam.height

    def test_no_double_coverage_on_shared_edge(self, cam):
        """The two triangles of a quad share a diagonal; top-left fill
        convention isn't implemented, but interior pixels must not be
        covered twice by more than the diagonal's width."""
        verts, tris = _full_screen_quad()
        f = rasterize(cam, verts, tris)
        counts = np.bincount(f.pix, minlength=cam.width * cam.height)
        # diagonal pixels may be hit twice; that set is O(width)
        assert (counts > 1).sum() <= 2 * cam.width

    def test_winding_invariance(self, cam):
        verts, _ = _full_screen_quad()
        ccw = rasterize(cam, verts, np.array([[0, 1, 2]]))
        cw = rasterize(cam, verts, np.array([[2, 1, 0]]))
        assert set(ccw.pix) == set(cw.pix)

    def test_behind_camera_culled(self, cam):
        verts = np.array([[0, 0, 10.0], [1, 0, 10.0], [0, 1, 10.0]])
        f = rasterize(cam, verts, np.array([[0, 1, 2]]))
        assert len(f) == 0

    def test_degenerate_triangle_dropped(self, cam):
        verts = np.array([[0, 0, 0], [1, 1, 0], [2, 2, 0.0]])
        f = rasterize(cam, verts, np.array([[0, 1, 2]]))
        assert len(f) == 0

    def test_attribute_interpolation_range(self, cam):
        verts, tris = _full_screen_quad()
        vals = np.array([0.0, 1.0, 2.0, 3.0])
        f = rasterize(cam, verts, tris, {"val": vals})
        v = f.attrs["val"][:, 0]
        assert v.min() >= -1e-9 and v.max() <= 3.0 + 1e-9

    def test_constant_attribute_stays_constant(self, cam):
        verts, tris = _full_screen_quad()
        f = rasterize(cam, verts, tris, {"c": np.full(4, 7.5)})
        assert np.allclose(f.attrs["c"], 7.5)

    def test_depth_matches_plane(self, cam):
        verts, tris = _full_screen_quad(z=1.0)
        f = rasterize(cam, verts, tris)
        # plane z=1 is 4 in front of the eye at the center ray; depth
        # is eye-space z distance so all fragments sit at exactly 4
        assert f.depth.min() == pytest.approx(4.0, abs=1e-6)

    def test_attr_length_mismatch_raises(self, cam):
        verts, tris = _full_screen_quad()
        with pytest.raises(ValueError):
            rasterize(cam, verts, tris, {"bad": np.zeros(3)})

    def test_perspective_correctness(self, cam):
        """A slanted triangle's attribute midpoint must follow the
        perspective-correct (not screen-linear) interpolation."""
        verts = np.array([[0.0, -1.0, 2.0], [0.0, 1.0, -2.0], [1.0, -1.0, 2.0]])
        f = rasterize(cam, verts, np.array([[0, 1, 2]]), {"u": np.array([0.0, 1.0, 0.0])})
        # fragment nearest the screen midpoint of edge v0-v1
        xy, _, _ = cam.project(verts)
        mid = 0.5 * (xy[0] + xy[1])
        pix_mid = int(mid[1]) * cam.width + int(mid[0])
        sel = f.pix == pix_mid
        if sel.any():
            u = f.attrs["u"][sel, 0].mean()
            # screen-linear would give 0.5; perspective-correct must
            # weight the nearer vertex (u=0 at z=2, depth 3) more
            assert u < 0.45


class TestResolveOpaque:
    def test_nearest_wins(self, cam):
        verts = np.vstack(
            [_full_screen_quad(z=0.0)[0], _full_screen_quad(z=1.0)[0]]
        )
        tris = np.vstack(
            [_full_screen_quad()[1], _full_screen_quad()[1] + 4]
        )
        rgb = np.zeros((8, 3))
        rgb[4:, 0] = 1.0  # near quad (z=1 is closer to eye at z=5) is red
        f = rasterize(cam, verts, tris, {"rgb": rgb})
        pix, rgba, depth = resolve_opaque(f)
        assert pix.tolist() == list(range(cam.width * cam.height))
        assert np.allclose(rgba[:, 0], 1.0)
        assert np.allclose(rgba[:, 3], 1.0)
        assert depth.max() == pytest.approx(depth.min(), rel=0.3)

    def test_empty_fragments(self):
        f = Fragments.empty(["rgb"], [3])
        pix, rgba, depth = resolve_opaque(f)
        assert pix.shape == (0,) and rgba.shape == (0, 4) and depth.shape == (0,)
