"""Point splatting and the fraction-of-points-drawn selector."""

import numpy as np
import pytest

from repro.render.camera import Camera
from repro.render.points import point_fragments, render_points, select_fraction
from repro.render.scene import Scene


@pytest.fixture
def cam():
    return Camera.fit_bounds([-1, -1, -1], [1, 1, 1], width=64, height=64)


class TestSelectFraction:
    def test_fraction_zero_keeps_none(self):
        assert not select_fraction(1000, np.zeros(1000)).any()

    def test_fraction_one_keeps_all(self):
        assert select_fraction(1000, np.ones(1000)).all()

    def test_three_of_four(self):
        """The paper's example: at 0.75, three out of every four points
        are drawn."""
        keep = select_fraction(100_000, np.full(100_000, 0.75))
        assert keep.mean() == pytest.approx(0.75, abs=0.002)

    def test_deterministic(self):
        f = np.full(500, 0.4)
        assert np.array_equal(select_fraction(500, f), select_fraction(500, f))

    def test_scalar_fraction(self):
        keep = select_fraction(10_000, np.float64(0.3))
        assert keep.mean() == pytest.approx(0.3, abs=0.01)

    def test_monotone_in_fraction(self):
        """Raising every fraction can only add points (needed for a
        smooth transition when editing the transfer function)."""
        lo = select_fraction(5000, np.full(5000, 0.3))
        hi = select_fraction(5000, np.full(5000, 0.6))
        assert np.all(hi[lo])  # every kept point stays kept

    def test_contiguous_runs_balanced(self):
        """Low-discrepancy property: any window of 100 points at
        fraction 0.5 holds close to 50."""
        keep = select_fraction(10_000, np.full(10_000, 0.5))
        windows = keep.reshape(100, 100).sum(axis=1)
        assert windows.min() >= 45 and windows.max() <= 55

    def test_bad_length_raises(self):
        with pytest.raises(ValueError):
            select_fraction(10, np.ones(7))


class TestPointFragments:
    def test_invisible_points_dropped(self, cam):
        pts = np.array([[0.0, 0.0, 0.0], [100.0, 0.0, 0.0]])
        pix, dep, col = point_fragments(cam, pts, np.array([1.0, 0, 0, 1.0]))
        assert len(pix) == 1

    def test_per_point_colors(self, cam):
        pts = np.array([[0.2, 0.0, 0.0], [-0.2, 0.0, 0.0]])
        colors = np.array([[1.0, 0, 0, 1], [0, 1.0, 0, 1]])
        pix, dep, col = point_fragments(cam, pts, colors)
        assert len(pix) == 2
        assert {tuple(c[:3]) for c in col} == {(1.0, 0, 0), (0, 1.0, 0)}

    def test_point_size_expands_fragments(self, cam):
        pts = np.array([[0.0, 0.0, 0.0]])
        one = point_fragments(cam, pts, np.array([1.0, 0, 0, 1]), point_size=1)
        three = point_fragments(cam, pts, np.array([1.0, 0, 0, 1]), point_size=3)
        assert len(three[0]) == 9 * len(one[0])

    @pytest.mark.parametrize("size", [0, -3])
    def test_point_size_below_one_rejected(self, cam, size):
        pts = np.array([[0.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match="point_size"):
            point_fragments(cam, pts, np.array([1.0, 0, 0, 1]), point_size=size)
        with pytest.raises(ValueError, match="point_size"):
            Scene(cam).add_points(pts, np.array([1.0, 0, 0, 1]), point_size=size)

    def test_depths_positive(self, cam, rng):
        pts = rng.uniform(-0.5, 0.5, (100, 3))
        _, dep, _ = point_fragments(cam, pts, np.array([1.0, 1, 1, 1]))
        assert np.all(dep > 0)


class TestRenderPoints:
    def test_opaque_point_lands_fully_saturated(self, cam):
        fb = render_points(cam, np.array([[0.0, 0.0, 0.0]]), np.array([1.0, 0, 0, 1.0]))
        assert fb.to_rgb8().max() == 255

    def test_empty_input(self, cam):
        fb = render_points(cam, np.empty((0, 3)), np.array([1.0, 0, 0, 1.0]))
        assert fb.to_rgb8().sum() == 0

    def test_near_point_occludes_far(self, cam):
        d = cam.eye / np.linalg.norm(cam.eye)
        near = d * 0.5
        far = -d * 0.5
        # both project to the screen center
        fb = render_points(
            cam,
            np.vstack([far, near]),
            np.array([[0, 1.0, 0, 1.0], [1.0, 0, 0, 1.0]]),
        )
        img = fb.to_rgb8()
        iy, ix = np.unravel_index(img[..., 0].argmax(), img.shape[:2])
        assert img[iy, ix, 0] == 255 and img[iy, ix, 1] == 0  # red (near) wins
