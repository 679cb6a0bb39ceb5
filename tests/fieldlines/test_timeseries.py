"""Time series of packed field lines."""

import numpy as np
import pytest

from repro.fieldlines.integrate import FieldLine
from repro.fieldlines.timeseries import LineSequence


def _lines(seed, n=4, k=15):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        pts = np.cumsum(rng.uniform(-0.1, 0.1, (k, 3)), axis=0)
        t = np.gradient(pts, axis=0)
        t /= np.linalg.norm(t, axis=1, keepdims=True)
        out.append(FieldLine(points=pts, tangents=t, magnitudes=rng.random(k), order=i))
    return out


class TestLineSequence:
    def test_save_load_roundtrip(self, tmp_path):
        seq = LineSequence(tmp_path / "seq")
        original = _lines(1)
        seq.save(10, original)
        back = seq.load(10)
        assert len(back) == len(original)
        for a, b in zip(original, back):
            assert np.allclose(a.points, b.points, atol=1e-6)

    def test_steps_sorted(self, tmp_path):
        seq = LineSequence(tmp_path / "seq")
        for step in (30, 10, 20):
            seq.save(step, _lines(step))
        assert seq.steps() == [10, 20, 30]
        assert len(seq) == 3

    def test_missing_step(self, tmp_path):
        seq = LineSequence(tmp_path / "seq")
        with pytest.raises(FileNotFoundError):
            seq.load(99)

    def test_cache_hits(self, tmp_path):
        seq = LineSequence(tmp_path / "seq")
        seq.save(0, _lines(0))
        seq.load(0)
        seq.load(0)
        assert seq.stats["misses"] == 1
        assert seq.stats["hits"] == 1

    def test_budget_evicts(self, tmp_path):
        seq = LineSequence(tmp_path / "seq")
        for step in range(4):
            seq.save(step, _lines(step))
        one = LineSequence._lines_bytes(seq.load(0))
        tight = LineSequence(tmp_path / "seq", memory_budget_bytes=2 * one + 64)
        for step in range(4):
            tight.load(step)
        assert tight.stats["evictions"] >= 1
        assert tight._cache_bytes <= tight.memory_budget_bytes

    def test_resave_invalidates_cache(self, tmp_path):
        seq = LineSequence(tmp_path / "seq")
        seq.save(5, _lines(1))
        first = seq.load(5)
        seq.save(5, _lines(2))
        second = seq.load(5)
        assert not np.allclose(first[0].points, second[0].points)

    def test_quantized_smaller_on_disk(self, tmp_path):
        full = LineSequence(tmp_path / "full")
        quant = LineSequence(tmp_path / "quant", quantize=True)
        lines = _lines(3, n=10, k=40)
        full.save(0, lines)
        quant.save(0, lines)
        assert quant.disk_bytes() < full.disk_bytes()

    def test_storage_report(self, tmp_path, structure3):
        seq = LineSequence(tmp_path / "seq")
        for step in range(5):
            seq.save(step, _lines(step, n=6, k=20))
        rep = seq.storage_report(structure3.mesh)
        assert rep["n_steps"] == 5
        assert rep["raw_bytes"] == structure3.mesh.n_vertices * 48 * 5
        assert rep["compression_factor"] > 1.0



class TestFrameMmap:
    """A frame store's shards memory-map read-only: the access path for
    paper-scale frames (5 GB per 100 M-particle step), which reads only
    the pages a slice touches."""

    def test_mmap_matches_read(self, tmp_path, rng):
        from repro.core.store import create_store

        particles = rng.standard_normal((500, 6))
        store = create_store(tmp_path / "step_000008", particles, step=8)
        mapped = store.shard(0)
        assert store.step == 8
        assert np.array_equal(np.asarray(mapped), store.read_shard(0))
        assert np.array_equal(np.asarray(mapped), particles)

    def test_mmap_readonly(self, tmp_path, rng):
        from repro.core.store import create_store

        store = create_store(tmp_path / "f", rng.standard_normal((10, 6)))
        mapped = store.shard(0)
        with pytest.raises((ValueError, OSError)):
            mapped[0, 0] = 99.0

    def test_mmap_bad_magic(self, tmp_path, rng):
        from repro.core.store import MANIFEST_NAME, ShardedStore, create_store

        create_store(tmp_path / "f", rng.standard_normal((10, 6)))
        manifest = tmp_path / "f" / MANIFEST_NAME
        manifest.write_text(manifest.read_text().replace("RPRSTORE", "NOTAFRAM"))
        with pytest.raises(ValueError):
            ShardedStore.open(tmp_path / "f")

    def test_mmap_partition_integration(self, tmp_path, rng):
        """The partitioner consumes the memmap directly."""
        from repro.core.dataset import as_dataset
        from repro.core.store import create_store
        from repro.octree.partition import partition

        store = create_store(tmp_path / "f", rng.standard_normal((2000, 6)), step=1)
        pf = partition(as_dataset(store.shard(0)), "xyz", max_level=4, step=store.step)
        pf.validate()
        assert pf.n_particles == 2000
