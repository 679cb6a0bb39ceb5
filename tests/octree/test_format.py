"""The on-disk partitioned frame: a store directory holding the node
table (``partition.nodes``) next to the density-sorted particle shards."""

import numpy as np
import pytest

from repro.core.dataset import as_dataset
from repro.core.errors import FormatError
from repro.core.store import MANIFEST_NAME, create_store
from repro.core.trace import capture
from repro.octree.format import write_nodes_file
from repro.octree.partition import PartitionedFrame, partition
from repro.octree.stream_partition import NODES_FILE, PartitionedStore


@pytest.fixture(scope="module")
def frame():
    rng = np.random.default_rng(5)
    return partition(as_dataset(rng.normal(0, 1, (3000, 6))), "xpxy", max_level=4, capacity=16, step=12)


class TestRoundtrip:
    def test_full_roundtrip(self, frame, tmp_path):
        d = tmp_path / "frame12"
        ps = PartitionedStore.from_frame(frame, d)
        assert (d / NODES_FILE).is_file() and (d / MANIFEST_NAME).is_file()
        assert ps.n_particles == frame.n_particles
        back = PartitionedStore.open(d).to_frame()
        back.validate()
        assert back.plot_type == "xpxy"
        assert back.columns == (0, 3, 1)
        assert back.step == 12
        assert back.max_level == 4
        assert back.capacity == 16
        assert np.array_equal(back.particles, frame.particles)
        assert np.array_equal(back.nodes, frame.nodes)
        assert np.array_equal(back.lo, frame.lo)
        assert np.array_equal(back.hi, frame.hi)

    def test_prefix_read_matches_full(self, frame, tmp_path):
        """'Discarded particles are never read from disk': the prefix
        read returns exactly the head of the particle file."""
        ps = PartitionedStore.from_frame(frame, tmp_path / "f")
        assert np.array_equal(ps.read_prefix(500), frame.particles[:500])

    def test_prefix_read_clamped(self, frame, tmp_path):
        ps = PartitionedStore.from_frame(frame, tmp_path / "f")
        assert len(ps.read_prefix(10**9)) == frame.n_particles

    def test_prefix_bytes_scale_with_request(self, frame, tmp_path):
        """Reading a small prefix must not read the whole file --
        verified by the store's byte counter."""
        ps = PartitionedStore.from_frame(frame, tmp_path / "f")
        n = frame.n_particles // 30
        with capture(enabled=True) as tracer:
            ps.read_prefix(n)
        assert tracer.counters["store_shard_read_bytes"] == n * 48


class TestCorruption:
    def test_bad_nodes_magic(self, frame, tmp_path):
        d = tmp_path / "f"
        PartitionedStore.from_frame(frame, d)
        data = bytearray((d / NODES_FILE).read_bytes())
        data[:8] = b"BADMAGIC"
        (d / NODES_FILE).write_bytes(bytes(data))
        with pytest.raises(ValueError, match="not a partition nodes file"):
            PartitionedStore.open(d)

    def test_bad_particles_magic(self, frame, tmp_path):
        d = tmp_path / "f"
        PartitionedStore.from_frame(frame, d)
        manifest = d / MANIFEST_NAME
        manifest.write_text(manifest.read_text().replace("RPRSTORE", "BADMAGIC"))
        with pytest.raises(ValueError, match="not a store manifest"):
            PartitionedStore.open(d)

    def test_count_disagreement(self, frame, tmp_path):
        d = tmp_path / "f"
        PartitionedStore.from_frame(frame, d)
        # a store holding fewer particles than the node table covers
        create_store(d, frame.particles[:-10], step=frame.step)
        with pytest.raises(ValueError, match="store holds"):
            PartitionedStore.open(d)

    @pytest.mark.parametrize("damage", ["counts", "tiling", "density order"])
    def test_damaged_node_table_fails_at_open(self, frame, tmp_path, damage):
        """A node table that no longer tiles the particle file in
        density order is caught when the store opens, with the file
        named -- not later, deep inside an extraction."""
        nodes = frame.nodes.copy()
        if damage == "counts":
            nodes["count"][-1] += 1
        elif damage == "tiling":
            nodes["start"][1] += 1
        else:
            nodes["density"][[0, -1]] = nodes["density"][[-1, 0]]
        d = tmp_path / "f"
        PartitionedStore.from_frame(frame, d)
        write_nodes_file(
            d / NODES_FILE, nodes, frame.n_particles, frame.max_level,
            frame.capacity, frame.step, frame.lo, frame.hi, frame.plot_type,
        )
        with pytest.raises(FormatError, match=NODES_FILE):
            PartitionedStore.open(d)
        damaged = PartitionedFrame(
            plot_type=frame.plot_type, columns=frame.columns,
            particles=frame.particles, nodes=nodes, lo=frame.lo, hi=frame.hi,
            max_level=frame.max_level, capacity=frame.capacity,
        )
        with pytest.raises(FormatError):
            damaged.validate()
