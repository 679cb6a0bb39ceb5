"""Two-pass out-of-core partitioning: bit-identical to the in-core path."""

import numpy as np
import pytest

import repro.octree.stream_partition as stream_mod
from repro.core.checkpoint import Checkpoint
from repro.core.dataset import as_dataset
from repro.core.errors import FormatError, SimulatedCrash
from repro.core.faults import FaultPlan
from repro.core.store import create_store
from repro.core.trace import capture
from repro.octree.extraction import extract
from repro.octree.octree import morton_keys
from repro.octree.partition import partition
from repro.octree.stream_partition import (
    NODES_FILE,
    PartitionedStore,
    _count_task,
    partition_store,
)


@pytest.fixture(scope="module")
def particles():
    rng = np.random.default_rng(31)
    core = rng.normal(0.0, 0.3, (30_000, 6))
    halo = rng.normal(0.0, 2.0, (2_000, 6))
    return np.vstack([core, halo])


@pytest.fixture(scope="module")
def incore(particles):
    return partition(as_dataset(particles), "xyz", max_level=5, capacity=48, step=7)


@pytest.fixture(scope="module")
def store(tmp_path_factory, particles):
    return create_store(
        tmp_path_factory.mktemp("src") / "store", particles, shard_rows=4096, step=7
    )


def _first_keys(pf):
    """First max-level key each leaf covers."""
    shift = 3 * (pf.max_level - pf.nodes["level"].astype(np.int64))
    return pf.nodes["key"] << shift.astype(np.uint64)


def assert_frames_identical(ps: PartitionedStore, pf) -> None:
    """Bit-for-bit: node table, bounds, and the particle file."""
    assert np.array_equal(ps.nodes, pf.nodes)
    assert np.array_equal(ps.lo, pf.lo) and np.array_equal(ps.hi, pf.hi)
    assert ps.step == pf.step
    assert ps.plot_type == pf.plot_type
    assert np.array_equal(ps.store.to_array(), pf.particles)


class TestEquivalence:
    def test_store_input_bitwise(self, tmp_path, store, incore):
        ps = partition_store(
            store, tmp_path / "out", "xyz", max_level=5, capacity=48
        )
        assert_frames_identical(ps, incore)
        ps.validate()

    def test_array_input_bitwise(self, tmp_path, particles, incore):
        ps = partition_store(
            particles, tmp_path / "out", "xyz", max_level=5, capacity=48, step=7
        )
        assert_frames_identical(ps, incore)

    def test_parallel_workers_bitwise(self, tmp_path, store, incore):
        ps = partition_store(
            store, tmp_path / "out", "xyz", max_level=5, capacity=48, workers=2
        )
        assert_frames_identical(ps, incore)

    def test_other_plot_type(self, tmp_path, store, particles):
        pf = partition(as_dataset(particles), "xpxy", max_level=4, capacity=64, step=7)
        ps = partition_store(
            store, tmp_path / "out", "xpxy", max_level=4, capacity=64
        )
        assert_frames_identical(ps, pf)

    def test_open_round_trip(self, tmp_path, store, incore):
        partition_store(store, tmp_path / "out", "xyz", max_level=5, capacity=48)
        ps = PartitionedStore.open(tmp_path / "out")
        assert_frames_identical(ps, incore)
        assert ps.to_frame().n_particles == incore.n_particles

    def test_passes_traced(self, tmp_path, store):
        with capture(enabled=True) as tracer:
            partition_store(store, tmp_path / "out", "xyz", max_level=4, capacity=64)
        assert tracer.counters["stream_partition_pass"] == 2
        assert tracer.counters["particles_routed"] == store.n_particles
        assert tracer.counters["store_shard_read"] >= 2 * store.n_shards
        assert tracer.gauges["peak_rss_bytes"] > 0


class _FailOnShard:
    """A pass-1 task that raises on one shard; module level so the
    worker processes of ``workers=2`` can unpickle it."""

    def __init__(self, shard: int):
        self.shard = shard

    def __call__(self, task):
        if task[1] == self.shard:
            raise RuntimeError(f"injected failure on shard {self.shard}")
        return _count_task(task)


class TestDamagedInput:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("explicit_bounds", [True, False], ids=["lo_hi", "data_bounds"])
    def test_flipped_byte_raises_format_error(
        self, tmp_path, particles, workers, explicit_bounds
    ):
        """One flipped byte in one input shard fails the partition with
        a FormatError naming that shard at every worker count, whether
        the bounds are given or read from the data."""
        store = create_store(tmp_path / "src", particles, shard_rows=4096)
        path = store.shard_path(3)
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0x01  # lowest mantissa byte: the coordinate stays finite
        path.write_bytes(bytes(raw))
        bounds = dict(lo=[-10.0] * 3, hi=[10.0] * 3) if explicit_bounds else {}
        with pytest.raises(FormatError, match=path.name):
            partition_store(
                store, tmp_path / "out", "xyz", max_level=5, capacity=48,
                workers=workers, **bounds,
            )


class TestCheckpointResume:
    def test_workers2_keeps_the_shards_before_the_failure(
        self, tmp_path, store, incore, monkeypatch
    ):
        """At ``workers=2`` a pass-1 failure on shard k leaves shards
        0..k-1 recorded in the checkpoint, and the resumed run is
        byte-equal to the in-core partition."""
        k = 3
        assert store.n_shards > k + 1
        ck = tmp_path / "ck"
        kw = dict(max_level=5, capacity=48, workers=2, checkpoint_dir=ck)
        monkeypatch.setattr(stream_mod, "_count_task", _FailOnShard(k))
        with pytest.raises(RuntimeError, match="injected"):
            partition_store(store, tmp_path / "out", "xyz", **kw)
        assert sorted(Checkpoint(ck).steps("pass1")) == list(range(k))
        monkeypatch.undo()

        ps = partition_store(store, tmp_path / "out", "xyz", **kw)
        assert_frames_identical(ps, incore)
        assert ps.store.to_array().tobytes() == incore.particles.tobytes()
        assert ps.nodes.tobytes() == incore.nodes.tobytes()

    def test_torn_write_then_resume_identical(self, tmp_path, store, incore):
        """A crash torn mid-write of a per-shard artifact must leave a
        resumable checkpoint; the resumed run matches the in-core
        result bit for bit."""
        plan = FaultPlan(seed=5, torn_write=0.3)
        ck = tmp_path / "ck"
        with pytest.raises(SimulatedCrash):
            with plan.file_faults():
                partition_store(
                    store, tmp_path / "out", "xyz",
                    max_level=5, capacity=48, checkpoint_dir=ck,
                )
        with capture(enabled=True) as tracer:
            ps = partition_store(
                store, tmp_path / "out", "xyz",
                max_level=5, capacity=48, checkpoint_dir=ck,
            )
        assert_frames_identical(ps, incore)
        # the resumed run must not have redone everything from scratch
        done = tracer.counters.get("stream_partition_pass", 0)
        assert done <= 2

    def test_resume_after_finalize_is_noop(self, tmp_path, store, incore):
        ck = tmp_path / "ck"
        partition_store(
            store, tmp_path / "out", "xyz", max_level=5, capacity=48,
            checkpoint_dir=ck,
        )
        with capture(enabled=True) as tracer:
            ps = partition_store(
                store, tmp_path / "out", "xyz", max_level=5, capacity=48,
                checkpoint_dir=ck,
            )
        assert tracer.counters["checkpoint_stages_resumed"] == 1
        assert "stream_partition_pass" not in tracer.counters
        assert_frames_identical(ps, incore)

    def test_without_checkpoint_workdir_removed(self, tmp_path, store):
        out = tmp_path / "out"
        partition_store(store, out, "xyz", max_level=4, capacity=64)
        assert not (out / "_work").exists()
        assert (out / NODES_FILE).is_file()


class TestStreamingExtraction:
    def test_hybrid_matches_incore_within_one_ulp(self, tmp_path, store, incore):
        ps = partition_store(store, tmp_path / "out", "xyz", max_level=5, capacity=48)
        threshold = float(np.percentile(incore.nodes["density"], 60))
        a = extract(incore, threshold, volume_resolution=24)
        b = extract(ps, threshold, volume_resolution=24)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.point_densities, b.point_densities)
        np.testing.assert_array_max_ulp(a.volume, b.volume, maxulp=1)
        assert a.threshold == b.threshold and a.step == b.step

    def test_image_matches_incore_within_one_ulp(self, tmp_path, store, incore):
        """The store bench's image row at test scale: the streamed
        extraction rendered in point batches against the in-core one."""
        from repro.hybrid.renderer import HybridRenderer
        from repro.render.camera import Camera

        ps = partition_store(store, tmp_path / "out", "xyz", max_level=5, capacity=48)
        threshold = float(np.percentile(incore.nodes["density"], 60))
        a = extract(incore, threshold, volume_resolution=24)
        b = extract(ps, threshold, volume_resolution=24)
        camera = Camera.fit_bounds(a.lo, a.hi, width=64, height=64)
        img_a = HybridRenderer(n_slices=24).render(a, camera=camera)
        img_b = HybridRenderer(n_slices=24, point_batch_size=1000).render(b, camera=camera)
        np.testing.assert_array_max_ulp(
            img_a.rgba.astype(np.float32), img_b.rgba.astype(np.float32), maxulp=1
        )

    def test_point_attributes_streaming(self, tmp_path, store, incore):
        ps = partition_store(store, tmp_path / "out", "xyz", max_level=5, capacity=48)
        threshold = float(np.percentile(incore.nodes["density"], 60))
        a = extract(incore, threshold, volume_resolution=16,
                    point_attributes=("pmag",))
        b = extract(ps, threshold, volume_resolution=16,
                    point_attributes=("pmag",))
        assert np.array_equal(a.attributes["pmag"], b.attributes["pmag"])

    def test_density_cutoff_matches(self, tmp_path, store, incore):
        ps = partition_store(store, tmp_path / "out", "xyz", max_level=5, capacity=48)
        for q in (10, 50, 90):
            t = float(np.percentile(incore.nodes["density"], q))
            assert ps.density_cutoff_index(t) == incore.density_cutoff_index(t)

    def test_read_prefix_is_file_prefix(self, tmp_path, store, incore):
        ps = partition_store(store, tmp_path / "out", "xyz", max_level=5, capacity=48)
        assert np.array_equal(ps.read_prefix(5000), incore.particles[:5000])


class TestBoundaryParticles:
    """Regression: particles exactly on the octree's max corner must
    land in the last cell, never out of range."""

    def test_keys_clamped_at_max_corner(self):
        lo = np.zeros(3)
        hi = np.ones(3)
        coords = np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.5, 1.0]])
        keys = morton_keys(coords, lo, hi, max_level=4)
        assert keys.max() < np.uint64(8) ** np.uint64(4)

    def test_leaf_for_keys_covers_boundary(self):
        """Particles exactly on the ``hi`` corner land in the last
        Morton leaf's group, those on ``lo`` in the first one's."""
        rng = np.random.default_rng(2)
        pts = rng.uniform(0.0, 1.0, (4000, 6))
        pts[:16, :3] = 1.0  # sit exactly on the max corner
        pts[16:32, :3] = 0.0
        pts[:, 3] = np.arange(len(pts))
        pf = partition(as_dataset(pts), "xyz", max_level=4, capacity=32,
                       lo=np.zeros(3), hi=np.ones(3))
        first_key = _first_keys(pf)
        for rows, leaf in ((slice(0, 16), np.argmax(first_key)),
                           (slice(16, 32), np.argmin(first_key))):
            s = int(pf.nodes["start"][leaf])
            group = pf.particles[s : s + int(pf.nodes["count"][leaf]), 3]
            assert set(range(len(pts))[rows]) <= set(group.astype(int))

    def test_leaf_of_coords_matches_leaf_of_particles(self):
        """Looking each particle's key up among the leaves finds the
        group it was filed in."""
        rng = np.random.default_rng(3)
        pts = rng.normal(0.0, 1.0, (3000, 6))
        pf = partition(as_dataset(pts), "xyz", max_level=5, capacity=16)
        first_key = _first_keys(pf)
        morton = np.argsort(first_key)
        keys = morton_keys(pf.coords, pf.lo, pf.hi, pf.max_level)
        found = morton[np.searchsorted(first_key[morton], keys, side="right") - 1]
        filed = np.repeat(np.arange(pf.n_nodes), pf.nodes["count"].astype(np.int64))
        assert np.array_equal(found, filed)

    def test_streamed_partition_with_boundary_particles(self, tmp_path):
        """End to end: a frame whose extremes sit exactly on the data
        bounds partitions identically in-core and streamed."""
        rng = np.random.default_rng(4)
        pts = rng.uniform(-1.0, 1.0, (6000, 6))
        pts[0, :3] = 1.0
        pts[1, :3] = -1.0
        pf = partition(as_dataset(pts), "xyz", max_level=4, capacity=32)
        st = create_store(tmp_path / "st", pts, shard_rows=1024)
        ps = partition_store(st, tmp_path / "out", "xyz", max_level=4, capacity=32)
        assert_frames_identical(ps, pf)
