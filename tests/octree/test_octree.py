"""Morton keys and the adaptive octree every partition builds."""

import numpy as np
import pytest

from repro.core.dataset import as_dataset
from repro.octree.octree import (
    MAX_LEVEL_LIMIT,
    morton_decode,
    morton_keys,
    plot_columns,
)
from repro.octree.partition import partition

LO = np.zeros(3)
HI = np.ones(3)


class TestMortonKeys:
    def test_octant_assignment(self):
        pts = np.array(
            [
                [0.1, 0.1, 0.1],  # octant 0
                [0.9, 0.1, 0.1],  # octant 1 (x high)
                [0.1, 0.9, 0.1],  # octant 2 (y high)
                [0.1, 0.1, 0.9],  # octant 4 (z high)
                [0.9, 0.9, 0.9],  # octant 7
            ]
        )
        keys = morton_keys(pts, LO, HI, 1)
        assert keys.tolist() == [0, 1, 2, 4, 7]

    def test_keys_distinct_at_depth(self, rng):
        pts = rng.random((1000, 3))
        k1 = morton_keys(pts, LO, HI, 1)
        k5 = morton_keys(pts, LO, HI, 5)
        assert len(np.unique(k5)) > len(np.unique(k1))

    def test_clamps_out_of_bounds(self):
        pts = np.array([[-1.0, 0.5, 0.5], [2.0, 0.5, 0.5]])
        keys = morton_keys(pts, LO, HI, 3)
        assert np.all(keys < 8**3)

    def test_level_limits(self, rng):
        pts = rng.random((10, 3))
        with pytest.raises(ValueError):
            morton_keys(pts, LO, HI, 0)
        with pytest.raises(ValueError):
            morton_keys(pts, LO, HI, MAX_LEVEL_LIMIT + 1)

    def test_spatial_locality(self):
        """Points in the same deepest cell share a key."""
        base = np.array([[0.31, 0.52, 0.73]])
        jitter = base + 1e-9
        k = morton_keys(np.vstack([base, jitter]), LO, HI, 8)
        assert k[0] == k[1]


def _partition(coords, **kw):
    """In-core partition of a frame whose xyz columns are ``coords``."""
    particles = np.zeros((len(coords), 6))
    particles[:, :3] = coords
    return partition(as_dataset(particles), "xyz", **kw)


def _leaf_of(pf):
    """Leaf index of each particle, in particle-file order."""
    return np.repeat(np.arange(pf.n_nodes), pf.nodes["count"].astype(np.int64))


class TestOctreeBuild:
    def test_every_particle_in_exactly_one_leaf(self, rng):
        pts = rng.random((5000, 3))
        pf = _partition(pts, max_level=5, capacity=32)
        assert pf.nodes["count"].sum() == 5000
        starts = pf.nodes["start"].astype(int)
        counts = pf.nodes["count"].astype(int)
        covered = np.zeros(5000, dtype=int)
        for s, c in zip(starts, counts):
            covered[s : s + c] += 1
        assert np.all(covered == 1)

    def test_capacity_respected_above_max_level(self, rng):
        pts = rng.random((2000, 3))
        pf = _partition(pts, max_level=8, capacity=16)
        over = pf.nodes["count"] > 16
        # only max-level leaves may exceed capacity
        assert np.all(pf.nodes["level"][over] == 8)

    def test_max_level_bounds_depth(self, rng):
        pts = rng.random((2000, 3))
        pf = _partition(pts, max_level=3, capacity=1)
        assert pf.nodes["level"].max() <= 3

    def test_particles_in_leaf_bounds(self, rng):
        pts = rng.random((500, 3))
        pf = _partition(pts, max_level=4, capacity=8)
        level = pf.nodes["level"].astype(np.int64)
        size = (pf.hi - pf.lo) / (1 << level)[:, None]
        node_lo = pf.lo + size * morton_decode(pf.nodes["key"], 4)
        for i in range(pf.n_nodes):
            s = int(pf.nodes["start"][i])
            c = int(pf.nodes["count"][i])
            chunk = pf.coords[s : s + c]
            assert np.all(chunk >= node_lo[i] - 1e-9)
            assert np.all(chunk <= node_lo[i] + size[i] + 1e-9)

    def test_density_is_count_over_volume(self, rng):
        pts = rng.random((1000, 3))
        pf = _partition(pts, lo=LO, hi=HI, max_level=4, capacity=16)
        vols = 1.0 / 8.0 ** pf.nodes["level"].astype(float)
        assert np.allclose(pf.nodes["density"], pf.nodes["count"] / vols)

    def test_uniform_data_splits_evenly(self, rng):
        pts = rng.random((8000, 3))
        pf = _partition(pts, max_level=1, capacity=1)
        assert pf.n_nodes == 8
        assert pf.nodes["count"].min() > 800

    def test_clustered_data_adaptive_depth(self, rng):
        cluster = rng.normal(0.5, 0.01, (5000, 3))
        sparse = rng.random((100, 3))
        pf = _partition(np.vstack([cluster, sparse]), max_level=6, capacity=32)
        levels = pf.nodes["level"]
        assert levels.max() == 6  # refined at the cluster
        assert levels.min() <= 3  # coarse in the sparse region

    def test_single_particle(self):
        pf = _partition(np.array([[0.5, 0.5, 0.5]]), max_level=4)
        assert pf.n_nodes == 1
        assert pf.nodes["level"][0] == 0

    def test_validation_errors(self, rng):
        with pytest.raises(ValueError):
            _partition(np.empty((0, 3)))
        with pytest.raises(ValueError):
            partition(as_dataset(rng.random((10, 2))), "xyz")
        with pytest.raises(ValueError):
            _partition(rng.random((10, 3)), capacity=0)
        with pytest.raises(ValueError):
            _partition(rng.random((10, 3)), lo=HI, hi=LO)


class TestLeafLookups:
    def test_leaf_of_particles_consistent(self, rng):
        """Each particle's group is the leaf whose key prefixes its own."""
        pts = rng.random((800, 3))
        pf = _partition(pts, max_level=4, capacity=16)
        leaf_of = _leaf_of(pf)
        keys = morton_keys(pf.coords, pf.lo, pf.hi, pf.max_level)
        shift = (3 * (pf.max_level - pf.nodes["level"][leaf_of].astype(np.int64)))
        assert np.array_equal(keys >> shift.astype(np.uint64), pf.nodes["key"][leaf_of])

    def test_particle_densities_repeat(self, rng):
        pts = rng.random((300, 3))
        pf = _partition(pts, max_level=3, capacity=8)
        dens = np.repeat(pf.nodes["density"], pf.nodes["count"].astype(np.int64))
        assert len(dens) == 300
        # the particle file is sorted by the density of each particle's leaf
        assert np.all(np.diff(dens) >= 0)


class TestPlotColumns:
    def test_known_plot_types(self):
        assert plot_columns("xyz") == (0, 1, 2)
        assert plot_columns("xpxy") == (0, 3, 1)
        assert plot_columns("xpxz") == (0, 3, 2)
        assert plot_columns("pxpypz") == (3, 4, 5)

    def test_unknown(self):
        with pytest.raises(KeyError):
            plot_columns("zzz")
