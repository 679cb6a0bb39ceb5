"""The extraction program: threshold -> hybrid representation."""

import numpy as np
import pytest

from repro.core.dataset import as_dataset
from repro.octree.extraction import (
    extract,
    extraction_sizes,
    threshold_for_point_budget,
)
from repro.octree.partition import partition


@pytest.fixture(scope="module")
def frame():
    rng = np.random.default_rng(21)
    core = rng.normal(0.0, 0.25, (10_000, 6))
    halo = rng.normal(0.0, 2.0, (500, 6))
    return partition(as_dataset(np.vstack([core, halo])), "xyz", max_level=5, capacity=32)


class TestExtract:
    def test_points_are_exact_prefix(self, frame):
        thr = float(np.percentile(frame.nodes["density"], 50))
        h = extract(frame, thr, volume_resolution=16)
        cutoff = frame.density_cutoff_index(thr)
        assert h.n_points == cutoff
        assert np.allclose(h.points, frame.coords[:cutoff].astype(np.float32))

    def test_prefix_nesting_across_thresholds(self, frame):
        """t1 < t2 implies points(t1) is a prefix of points(t2)."""
        t1, t2 = np.percentile(frame.nodes["density"], [40, 80])
        h1 = extract(frame, float(t1), volume_resolution=8)
        h2 = extract(frame, float(t2), volume_resolution=8)
        assert h1.n_points <= h2.n_points
        assert np.array_equal(h2.points[: h1.n_points], h1.points)

    def test_zero_threshold_no_points(self, frame):
        h = extract(frame, 0.0, volume_resolution=8)
        assert h.n_points == 0

    def test_infinite_threshold_all_points(self, frame):
        h = extract(frame, np.inf, volume_resolution=8)
        assert h.n_points == frame.n_particles

    def test_volume_mass_conserved(self, frame):
        """'all' mode deposits every particle into the volume."""
        h = extract(frame, 0.0, volume_resolution=16)
        res = np.array(h.volume.shape)
        cell_vol = np.prod((h.hi - h.lo) / (res - 1))
        assert float(h.volume.sum()) * cell_vol == pytest.approx(
            frame.n_particles, rel=1e-5
        )

    def test_point_densities_below_threshold(self, frame):
        thr = float(np.percentile(frame.nodes["density"], 70))
        h = extract(frame, thr, volume_resolution=8)
        assert np.all(h.point_densities < thr)

    def test_metadata_propagates(self, frame):
        h = extract(frame, 1.0, volume_resolution=8)
        assert h.plot_type == frame.plot_type
        assert h.step == frame.step
        assert h.threshold == 1.0


class TestSizeAccounting:
    def test_sizes_monotone_in_threshold(self, frame):
        thresholds = np.percentile(frame.nodes["density"], [10, 40, 70, 95])
        rows = extraction_sizes(frame, thresholds)
        sizes = [r["total_bytes"] for r in rows]
        assert sizes == sorted(sizes)

    def test_sizes_match_actual_extraction(self, frame):
        thr = float(np.percentile(frame.nodes["density"], 60))
        row = extraction_sizes(frame, [thr], volume_resolution=16)[0]
        h = extract(frame, thr, volume_resolution=16)
        assert row["n_points"] == h.n_points
        assert row["total_bytes"] == h.nbytes()

    def test_threshold_for_budget(self, frame):
        thr = threshold_for_point_budget(frame, 1000)
        h = extract(frame, thr, volume_resolution=8)
        assert h.n_points <= 1000
        # the next node would overflow the budget
        idx = np.searchsorted(frame.nodes["density"], thr, side="right")
        overflow = h.n_points + int(frame.nodes["count"][idx - 1]) if idx > 0 else 0
        assert overflow >= 0  # structural sanity

    def test_budget_larger_than_all(self, frame):
        assert threshold_for_point_budget(frame, 10**9) == np.inf
