"""Property-based tests of the octree partition/extraction invariants.

These are the load-bearing guarantees of the paper's preprocessing:
whatever the particle distribution, partitioning must cover every
particle exactly once, sort groups by density, and extraction must be
a pure prefix that nests across thresholds.
"""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.dataset import as_dataset
from repro.octree.extraction import extract
from repro.octree.octree import morton_keys
from repro.octree.partition import partition

finite = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)


def particles_strategy(min_n=1, max_n=400):
    return arrays(
        np.float64,
        st.tuples(st.integers(min_n, max_n), st.just(6)),
        elements=finite,
    )


def coords_strategy(min_n=1, max_n=400):
    return arrays(
        np.float64,
        st.tuples(st.integers(min_n, max_n), st.just(3)),
        elements=finite,
    )


def _partition(coords, **kw):
    """In-core xyz partition of ``coords``, each particle's original
    index riding along in column 3."""
    particles = np.zeros((len(coords), 6))
    particles[:, :3] = coords
    particles[:, 3] = np.arange(len(coords))
    return partition(as_dataset(particles), "xyz", **kw)


class TestOctreeProperties:
    @given(coords=coords_strategy(), max_level=st.integers(1, 6),
           capacity=st.integers(1, 64))
    @settings(max_examples=40, deadline=None)
    def test_partition_completeness(self, coords, max_level, capacity):
        pf = _partition(coords, max_level=max_level, capacity=capacity)
        assert int(pf.nodes["count"].sum()) == len(coords)
        starts = pf.nodes["start"].astype(int)
        counts = pf.nodes["count"].astype(int)
        assert starts[0] == 0
        assert np.array_equal(starts[1:], np.cumsum(counts)[:-1])
        # the particle file is a permutation of the frame (column 3
        # carries each particle's original index)
        order = pf.particles[:, 3].astype(np.int64)
        assert np.array_equal(np.sort(order), np.arange(len(coords)))

    @given(coords=coords_strategy(min_n=2), level=st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_morton_keys_in_range(self, coords, level):
        lo = coords.min(axis=0) - 1.0
        hi = coords.max(axis=0) + 1.0
        keys = morton_keys(coords, lo, hi, level)
        assert np.all(keys < np.uint64(8**level))

    @given(coords=coords_strategy(min_n=8), capacity=st.integers(1, 8))
    @settings(max_examples=30, deadline=None)
    def test_levels_bounded(self, coords, capacity):
        pf = _partition(coords, max_level=4, capacity=capacity)
        assert pf.nodes["level"].max() <= 4
        assert pf.nodes["level"].min() >= 0


class TestPartitionProperties:
    @given(particles=particles_strategy())
    @settings(max_examples=30, deadline=None)
    def test_density_sorted_and_valid(self, particles):
        pf = partition(as_dataset(particles), "xyz", max_level=4, capacity=16)
        pf.validate()

    @given(particles=particles_strategy(min_n=4))
    @settings(max_examples=30, deadline=None)
    def test_particle_multiset_preserved(self, particles):
        pf = partition(as_dataset(particles), "xyz", max_level=4, capacity=16)
        a = np.sort(particles.view([("", float)] * 6), axis=0)
        b = np.sort(pf.particles.view([("", float)] * 6), axis=0)
        assert np.array_equal(a, b)

    @given(
        particles=particles_strategy(min_n=8),
        q1=st.floats(0.0, 1.0),
        q2=st.floats(0.0, 1.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_extraction_prefix_nesting(self, particles, q1, q2):
        """For any thresholds t1 <= t2: points(t1) is a prefix of
        points(t2)."""
        pf = partition(as_dataset(particles), "xyz", max_level=4, capacity=16)
        lo_q, hi_q = sorted((q1, q2))
        t1 = float(np.quantile(pf.nodes["density"], lo_q))
        t2 = float(np.quantile(pf.nodes["density"], hi_q))
        h1 = extract(pf, t1, volume_resolution=4)
        h2 = extract(pf, t2, volume_resolution=4)
        assert h1.n_points <= h2.n_points
        assert np.array_equal(h2.points[: h1.n_points], h1.points)

    @given(particles=particles_strategy(min_n=4), q=st.floats(0.0, 1.0))
    @settings(max_examples=30, deadline=None)
    def test_extraction_conserves_mass(self, particles, q):
        pf = partition(as_dataset(particles), "xyz", max_level=4, capacity=16)
        t = float(np.quantile(pf.nodes["density"], q))
        h = extract(pf, t, volume_resolution=8)
        res = np.array(h.volume.shape)
        cell_vol = float(np.prod((h.hi - h.lo) / (res - 1)))
        np.testing.assert_allclose(
            float(h.volume.sum()) * cell_vol, len(particles), rtol=1e-4
        )
