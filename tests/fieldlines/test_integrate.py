"""Streamline integration against analytic fields."""

import numpy as np
import pytest

from repro.fieldlines.integrate import FieldLine, integrate_batch, integrate_streamline


class _UniformField:
    """Constant field along +x inside a slab |x| < 5."""

    def __call__(self, pts):
        pts = np.atleast_2d(pts)
        out = np.zeros_like(pts)
        out[:, 0] = 2.0
        return out

    def inside(self, pts):
        pts = np.atleast_2d(pts)
        return np.abs(pts[:, 0]) < 5.0


class _CircularField:
    """B = (-y, x, 0): circular field lines around the z axis."""

    def __call__(self, pts):
        pts = np.atleast_2d(pts)
        return np.column_stack([-pts[:, 1], pts[:, 0], np.zeros(len(pts))])

    def inside(self, pts):
        return np.ones(len(np.atleast_2d(pts)), dtype=bool)


class _DecayingField:
    """Field that dies beyond r = 1."""

    def __call__(self, pts):
        pts = np.atleast_2d(pts)
        r = np.linalg.norm(pts, axis=1)
        mag = np.where(r < 1.0, 1.0, 1e-12)
        out = np.zeros_like(pts)
        out[:, 0] = mag
        return out

    def inside(self, pts):
        return np.ones(len(np.atleast_2d(pts)), dtype=bool)


class TestStraightLine:
    def test_follows_direction_field(self):
        line = integrate_streamline(
            _UniformField(), [0.0, 0.0, 0.0], step=0.1, max_steps=200
        )
        # a straight line along x at y=z=0
        assert np.allclose(line.points[:, 1:], 0.0, atol=1e-12)
        assert line.termination == "domain"
        # covers nearly the full slab in both directions
        assert line.points[:, 0].min() < -4.5
        assert line.points[:, 0].max() > 4.5

    def test_unidirectional(self):
        line = integrate_streamline(
            _UniformField(), [0.0, 0.0, 0.0], step=0.1, bidirectional=False,
            max_steps=200,
        )
        assert line.points[:, 0].min() >= -1e-9  # never goes backward

    def test_arc_length_steps(self):
        """Step size is arc length: |F| = 2 but steps advance by 0.1."""
        line = integrate_streamline(
            _UniformField(), [0.0, 0.0, 0.0], step=0.1, bidirectional=False,
            max_steps=10,
        )
        seg = np.linalg.norm(np.diff(line.points, axis=0), axis=1)
        assert np.allclose(seg, 0.1, atol=1e-9)

    def test_max_steps_cap(self):
        line = integrate_streamline(
            _UniformField(), [0.0, 0.0, 0.0], step=0.01, max_steps=7,
            bidirectional=False,
        )
        assert line.n_points <= 8
        assert line.termination == "cap"


class TestCircularLine:
    def test_stays_on_circle(self):
        line = integrate_streamline(
            _CircularField(), [1.0, 0.0, 0.0], step=0.02, max_steps=400,
            bidirectional=False,
        )
        r = np.linalg.norm(line.points[:, :2], axis=1)
        assert np.allclose(r, 1.0, atol=1e-5)  # RK4 accuracy on a circle

    def test_loop_detection(self):
        line = integrate_streamline(
            _CircularField(), [1.0, 0.0, 0.0], step=0.05, max_steps=400,
            loop_tolerance=0.05, bidirectional=False,
        )
        assert line.termination == "loop"
        # about one full circumference, not more
        assert line.length < 2.2 * np.pi

    def test_tangents_unit(self):
        line = integrate_streamline(
            _CircularField(), [1.0, 0.0, 0.0], step=0.05, max_steps=50
        )
        assert np.allclose(np.linalg.norm(line.tangents, axis=1), 1.0, atol=1e-6)


class TestTermination:
    def test_weak_field_stops(self):
        line = integrate_streamline(
            _DecayingField(), [0.0, 0.0, 0.0], step=0.05, max_steps=200,
            min_magnitude=1e-6, bidirectional=False,
        )
        assert line.termination == "weak"
        assert np.linalg.norm(line.points[-1]) < 1.2

    def test_magnitudes_recorded(self):
        line = integrate_streamline(
            _UniformField(), [0.0, 0.0, 0.0], step=0.1, max_steps=20
        )
        assert np.allclose(line.magnitudes, 2.0)

    def test_seed_outside_gives_stub(self):
        line = integrate_streamline(
            _UniformField(), [10.0, 0.0, 0.0], step=0.1, max_steps=20
        )
        assert line.n_points == 2  # degenerate stub, safe downstream


class TestFieldLineUtils:
    def test_arc_lengths(self):
        pts = np.array([[0, 0, 0], [1.0, 0, 0], [1.0, 2.0, 0]])
        line = FieldLine(
            points=pts, tangents=np.tile([1.0, 0, 0], (3, 1)), magnitudes=np.ones(3)
        )
        assert np.allclose(line.arc_lengths(), [0.0, 1.0, 3.0])
        assert line.length == pytest.approx(3.0)

    def test_mean_magnitude(self):
        line = FieldLine(
            points=np.zeros((3, 3)),
            tangents=np.zeros((3, 3)),
            magnitudes=np.array([1.0, 2.0, 3.0]),
        )
        assert line.mean_magnitude() == pytest.approx(2.0)


class TestBatch:
    def test_matches_single(self, rng):
        field = _CircularField()
        seeds = rng.uniform(-1, 1, (10, 3))
        batch = integrate_batch(field, seeds, step=0.05, max_steps=50)
        for seed, bline in zip(seeds, batch):
            sline = integrate_streamline(
                field, seed, step=0.05, max_steps=50, bidirectional=False
            )
            assert np.allclose(bline.points, sline.points, atol=1e-12)

    def test_mixed_termination(self):
        field = _UniformField()
        seeds = np.array([[0.0, 0, 0], [4.9, 0, 0], [10.0, 0, 0]])
        lines = integrate_batch(field, seeds, step=0.1, max_steps=500)
        assert lines[0].termination == "domain"
        assert lines[1].termination == "domain"
        assert lines[1].n_points < lines[0].n_points
        assert lines[2].n_points == 2  # started outside

    def test_per_seed_directions(self, rng):
        """A mixed-direction fleet matches separate single-direction runs."""
        field = _CircularField()
        seeds = rng.uniform(-1, 1, (6, 3))
        both = integrate_batch(
            field,
            np.vstack([seeds, seeds]),
            step=0.05,
            max_steps=40,
            direction=np.concatenate([np.ones(6), -np.ones(6)]),
        )
        fwd = integrate_batch(field, seeds, step=0.05, max_steps=40, direction=+1.0)
        bwd = integrate_batch(field, seeds, step=0.05, max_steps=40, direction=-1.0)
        for mixed, ref in zip(both, fwd + bwd):
            assert mixed.termination == ref.termination
            assert np.allclose(mixed.points, ref.points, atol=1e-12)

    def test_outside_seed_takes_first_step(self):
        """Every seed starts active: a seed outside ``inside()`` takes its
        first step, and keeps going if that step enters the domain."""
        field = _UniformField()
        seeds = np.array([[-5.05, 0.0, 0.0], [10.0, 0.0, 0.0]])
        enters, leaves = integrate_batch(field, seeds, step=0.1, max_steps=20)
        assert enters.termination == "cap"
        assert enters.n_points == 21
        assert enters.points[1, 0] == pytest.approx(-4.95)
        assert leaves.termination == "domain"
        assert leaves.n_points == 2  # the seed as a degenerate stub

    def test_scalar_backward_direction(self, rng):
        """direction=-1 retraces a forward line's path in reverse."""
        field = _UniformField()
        start = np.array([[0.0, 0.3, 0.0]])
        fwd = integrate_batch(field, start, step=0.1, max_steps=10)[0]
        back = integrate_batch(
            field, fwd.points[-1:], step=0.1, max_steps=10, direction=-1.0
        )[0]
        assert np.allclose(back.points[: fwd.n_points], fwd.points[::-1], atol=1e-12)
