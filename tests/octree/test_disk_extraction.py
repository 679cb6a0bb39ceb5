"""Disk-based extraction: 'discarded particles are never read'."""

import shutil

import numpy as np
import pytest

from repro.core.dataset import as_dataset
from repro.core.errors import FormatError
from repro.core.trace import capture
from repro.octree.disk_extraction import (
    extract_from_disk,
    node_bounds,
    volume_from_nodes,
)
from repro.octree.extraction import extract
from repro.octree.octree import Octree
from repro.octree.partition import partition
from repro.octree.stream_partition import PartitionedStore, partition_store


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """The in-core partition and the same frame as a 17-shard store."""
    rng = np.random.default_rng(31)
    particles = np.vstack(
        [rng.normal(0, 0.3, (8000, 6)), rng.normal(0, 1.5, (500, 6))]
    )
    pf = partition(as_dataset(particles), "xyz", max_level=5, capacity=32, step=4)
    pstore = partition_store(
        as_dataset(particles), tmp_path_factory.mktemp("disk") / "frame", "xyz",
        max_level=5, capacity=32, step=4, shard_rows=500,
    )
    return pf, pstore


class TestNodeBounds:
    def test_matches_octree_method(self, rng):
        coords = rng.random((500, 3))
        tree = Octree(coords, max_level=4, capacity=16)
        for i in range(0, tree.n_nodes, max(tree.n_nodes // 20, 1)):
            lo_a, hi_a = tree.node_bounds(i)
            lo_b, hi_b = node_bounds(
                int(tree.nodes["level"][i]), int(tree.nodes["key"][i]),
                tree.lo, tree.hi,
            )
            assert np.allclose(lo_a, lo_b)
            assert np.allclose(hi_a, hi_b)


class TestVolumeFromNodes:
    def test_mass_conserved(self, saved):
        pf, _ = saved
        vol = volume_from_nodes(pf.nodes, pf.lo, pf.hi, 16)
        span = pf.hi - pf.lo
        cell_volume = float(np.prod(span)) / 16**3
        total = vol.sum() * cell_volume
        assert total == pytest.approx(pf.n_particles, rel=1e-6)

    def test_density_hotspot_at_core(self, saved):
        """The dense beam core must dominate the node-rasterized
        volume just as it does the particle-binned one."""
        pf, _ = saved
        vol = volume_from_nodes(pf.nodes, pf.lo, pf.hi, 16)
        peak = np.unravel_index(vol.argmax(), vol.shape)
        # the core sits at the box center (beam centered on origin)
        assert all(4 <= p <= 11 for p in peak)

    def test_agrees_with_particle_binning(self, saved):
        """Node rasterization approximates the particle-binned volume
        (they sample the same underlying density)."""
        pf, _ = saved
        from_nodes = volume_from_nodes(pf.nodes, pf.lo, pf.hi, 12)
        from_particles = extract(pf, 0.0, volume_resolution=12).volume
        # compare smoothed mass distribution: correlation must be high
        a = from_nodes.ravel()
        b = from_particles.astype(np.float64).ravel()
        corr = np.corrcoef(a, b)[0, 1]
        assert corr > 0.95


class TestExtractFromDisk:
    def test_points_match_memory_extraction(self, saved):
        pf, pstore = saved
        thr = float(np.percentile(pf.nodes["density"], 60))
        on_disk = extract_from_disk(pstore, thr, volume_resolution=12)
        in_memory = extract(pf, thr, volume_resolution=12)
        assert on_disk.n_points == in_memory.n_points
        assert np.array_equal(on_disk.points, in_memory.points)
        assert np.array_equal(on_disk.point_densities, in_memory.point_densities)
        assert np.array_equal(
            on_disk.volume,
            volume_from_nodes(pf.nodes, pf.lo, pf.hi, 12).astype(np.float32),
        )
        assert on_disk.step == 4
        assert on_disk.plot_type == "xyz"

    def test_reads_exactly_the_prefix(self, saved):
        """The paper's I/O claim, counted: extraction from disk reads
        the halo prefix's bytes and nothing else, while the particle
        -binned extraction streams every shard on top of the prefix."""
        pf, pstore = saved
        thr = float(np.percentile(pf.nodes["density"], 60))
        cutoff = pstore.density_cutoff_index(thr)
        assert pstore.store.n_shards >= 3
        assert pstore.store.shard_rows < cutoff < pstore.n_particles
        with capture(enabled=True) as tracer:
            extract_from_disk(pstore, thr, volume_resolution=8)
        assert tracer.counters["store_shard_read_bytes"] == cutoff * 48
        with capture(enabled=True) as tracer:
            extract(pstore, thr, volume_resolution=8)
        assert tracer.counters["store_shard_read_bytes"] == (
            pstore.n_particles * 48 + cutoff * 48
        )

    def test_never_reads_discarded_particles(self, saved, tmp_path):
        """The paper's I/O claim, enforced: overwrite every shard byte
        past the halo prefix with garbage and extraction still returns
        the same hybrid, bit for bit."""
        pf, pstore = saved
        thr = float(np.percentile(pf.nodes["density"], 60))
        cutoff = pf.density_cutoff_index(thr)

        chopped_dir = tmp_path / "chopped"
        shutil.copytree(pstore.directory, chopped_dir)
        store = pstore.store
        for i in range(store.n_shards):
            keep = max(cutoff - store.shard_start(i), 0) * 48
            shard = chopped_dir / store.shard_path(i).name
            raw = shard.read_bytes()
            shard.write_bytes(raw[:keep] + b"\xff" * (len(raw) - keep))
        chopped = PartitionedStore.open(chopped_dir)
        with pytest.raises(FormatError):
            chopped.store.verify()  # the garbage really is on disk

        h = extract_from_disk(chopped, thr, volume_resolution=8)
        assert h.n_points == cutoff
        full = extract_from_disk(pstore, thr, volume_resolution=8)
        assert np.array_equal(h.points, full.points)
        assert np.array_equal(h.point_densities, full.point_densities)
        assert np.array_equal(h.volume, full.volume)

    def test_zero_threshold(self, saved):
        pf, pstore = saved
        h = extract_from_disk(pstore, 0.0, volume_resolution=8)
        assert h.n_points == 0
        assert h.volume.sum() > 0  # the volume still covers everything
