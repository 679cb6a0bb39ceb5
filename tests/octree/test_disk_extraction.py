"""Extraction from a partitioned store: 'discarded particles are never
read'.

A store deposits its all-particle density volume once per resolution
and keeps it as a CRC-checked side file; once that file exists, an
extraction reads the node table, the halo prefix and the stored
volume -- nothing else.  The volume stays bitwise equal to the
shard-by-shard deposit extraction has always made (checked against a
verbatim copy of that code), and the file survives damage, stale
partitions, racing threads, torn writes, read-only stores and its own
disk bound.
"""

import errno
import shutil
import sys
import threading

import numpy as np
import pytest

from repro.beams.spacecharge import deposit_cic
from repro.core import atomic
from repro.core.dataset import as_dataset
from repro.core.errors import FormatError, SimulatedCrash
from repro.core.faults import FaultPlan
from repro.core.trace import capture
from repro.octree.extraction import extract
from repro.octree.partition import partition
from repro.octree.stream_partition import PartitionedStore, partition_store


def _beam(seed, n_core, n_halo):
    rng = np.random.default_rng(seed)
    return np.vstack(
        [rng.normal(0, 0.3, (n_core, 6)), rng.normal(0, 1.5, (n_halo, 6))]
    )


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """The in-core partition and the same frame as a 17-shard store."""
    particles = _beam(31, 8000, 500)
    pf = partition(as_dataset(particles), "xyz", max_level=5, capacity=32, step=4)
    pstore = partition_store(
        as_dataset(particles), tmp_path_factory.mktemp("disk") / "frame", "xyz",
        max_level=5, capacity=32, step=4, shard_rows=500,
    )
    return pf, pstore


def _fresh(pstore, path):
    """A copy of ``pstore`` without any stored volume."""
    shutil.copytree(pstore.directory, path, ignore=shutil.ignore_patterns("volume_*"))
    return PartitionedStore.open(path)


def _volume_files(ps):
    return sorted(p.name for p in ps.directory.glob("volume_*"))


def _threshold(pf, pct=60):
    return float(np.percentile(pf.nodes["density"], pct))


# ----------------------------------------------------------------------
# the reference: the shard-by-shard deposit, cell-volume division and
# f4 cast of streamed extraction, kept verbatim from before the store
# kept its volume
def _streamed_volume(frame, cutoff: int, res, volume_from: str) -> np.ndarray:
    """Shard-by-shard CIC deposition over a partitioned store."""
    grid = np.zeros(res)
    cols = list(frame.columns)
    offset = 0
    for chunk in frame.chunks():
        n_rows = len(chunk)
        if volume_from == "rest" and offset + n_rows <= cutoff:
            offset += n_rows
            continue
        rows = chunk if volume_from == "all" else chunk[max(cutoff - offset, 0):]
        if len(rows):
            deposit_cic(rows[:, cols], res, frame.lo, frame.hi, out=grid)
        offset += n_rows
    return grid


def reference_volume(frame, volume_resolution):
    res = (int(volume_resolution),) * 3
    counts = _streamed_volume(frame, 0, res, "all")
    cell_volume = float(
        np.prod((frame.hi - frame.lo) / (np.array(res) - 1))
    )
    density_volume = counts / cell_volume
    return density_volume.astype(np.float32)


def reference_halo(ps, cutoff):
    rows = ps.store.to_array()[:cutoff]
    dens = np.repeat(ps.nodes["density"], ps.nodes["count"].astype(np.int64))[:cutoff]
    return rows[:, list(ps.columns)].astype(np.float32), dens.astype(np.float32)


class TestVolumeReference:
    """Every volume byte is the one extraction deposited before."""

    @pytest.fixture(scope="class")
    def big(self, tmp_path_factory):
        # large enough that all five volumes fit the disk bound together
        return partition_store(
            _beam(5, 72_000, 8_000), tmp_path_factory.mktemp("ref") / "store",
            "xyz", max_level=5, capacity=64, shard_rows=20_000,
        )

    @pytest.mark.parametrize("res", [8, 12, 32, 48, 64])
    def test_bitwise_on_write_reread_and_reopen(self, big, res):
        assert big.store.n_shards >= 3
        expect = reference_volume(big, res)
        counts = _streamed_volume(big, 0, (res,) * 3, "all")
        thresholds = [_threshold(big, pct) for pct in (0, 40, 60, 95)]
        assert not (big.directory / f"volume_{res}.bin").exists()
        for k, ps in enumerate((big, big, PartitionedStore.open(big.directory))):
            for thr in thresholds:
                with capture(enabled=True) as tracer:
                    hf = extract(ps, thr, volume_resolution=res)
                writing = k == 0 and thr == thresholds[0]
                assert tracer.counters.get("volume_deposits", 0) == int(writing)
                assert tracer.counters.get("volume_file_hits", 0) == int(not writing)
                assert hf.volume.dtype == np.float32
                assert np.array_equal(hf.volume, expect)
                pts, dens = reference_halo(ps, ps.density_cutoff_index(thr))
                assert np.array_equal(hf.points, pts)
                assert np.array_equal(hf.point_densities, dens)
            # the f8 counts too: a different summation order can hide
            # behind the f4 cast
            assert np.array_equal(ps.volume_counts(res), counts)
        assert (big.directory / f"volume_{res}.bin").is_file()


class TestExtractFromDisk:
    def test_points_match_memory_extraction(self, saved):
        pf, pstore = saved
        thr = _threshold(pf)
        pstore.volume_counts(12)  # the volume file exists
        on_disk = extract(pstore, thr, volume_resolution=12)
        in_memory = extract(pf, thr, volume_resolution=12)
        assert on_disk.n_points == in_memory.n_points
        assert np.array_equal(on_disk.points, in_memory.points)
        assert np.array_equal(on_disk.point_densities, in_memory.point_densities)
        assert np.array_equal(on_disk.volume, reference_volume(pstore, 12))
        np.testing.assert_array_max_ulp(on_disk.volume, in_memory.volume, maxulp=1)
        assert on_disk.step == 4
        assert on_disk.plot_type == "xyz"

    def test_reads_exactly_the_prefix(self, saved, tmp_path):
        """The paper's I/O claim, counted: the first extraction at a
        resolution streams every shard once for the volume and writes
        it once; from then on extraction reads the halo prefix's bytes
        and nothing else."""
        pf, pstore = saved
        ps = _fresh(pstore, tmp_path / "fresh")
        thr = _threshold(pf)
        cutoff = ps.density_cutoff_index(thr)
        assert ps.store.n_shards >= 3
        assert ps.store.shard_rows < cutoff < ps.n_particles
        writes = []
        atomic.set_fault_hook(lambda path, data: writes.append(path.name))
        try:
            with capture(enabled=True) as tracer:
                extract(ps, thr, volume_resolution=8)
        finally:
            atomic.set_fault_hook(None)
        assert tracer.counters["store_shard_read_bytes"] == (ps.n_particles + cutoff) * 48
        assert tracer.counters["volume_deposits"] == 1
        assert writes == ["volume_8.bin"]
        for _ in range(2):
            with capture(enabled=True) as tracer:
                extract(ps, thr, volume_resolution=8)
            assert tracer.counters["store_shard_read_bytes"] == cutoff * 48
            assert tracer.counters["volume_file_hits"] == 1
            assert "volume_deposits" not in tracer.counters
            # one extraction, one volume step, whatever its source
            assert tracer.spans["volume_deposit"]["count"] == 1

    def test_never_reads_discarded_particles(self, saved, tmp_path):
        """The paper's I/O claim, enforced: overwrite every shard byte
        past the halo prefix with garbage and extraction still returns
        the same hybrid, bit for bit."""
        pf, pstore = saved
        thr = _threshold(pf)
        cutoff = pf.density_cutoff_index(thr)
        pstore.volume_counts(8)  # the volume file exists

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

        h = extract(chopped, thr, volume_resolution=8)
        assert h.n_points == cutoff
        full = extract(pstore, thr, volume_resolution=8)
        assert np.array_equal(h.points, full.points)
        assert np.array_equal(h.point_densities, full.point_densities)
        assert np.array_equal(h.volume, full.volume)

    def test_zero_threshold(self, saved):
        pf, pstore = saved
        pstore.volume_counts(8)
        with capture(enabled=True) as tracer:
            h = extract(pstore, 0.0, volume_resolution=8)
        assert h.n_points == 0
        assert h.volume.sum() > 0  # the volume still covers everything
        assert tracer.counters.get("store_shard_read_bytes", 0) == 0

    def test_nan_threshold_rejected(self, saved):
        _, pstore = saved
        with pytest.raises(ValueError, match="NaN"):
            extract(pstore, float("nan"), volume_resolution=8)


class TestStoredVolume:
    """The volume file's failure modes."""

    def test_flipped_payload_byte_raises(self, saved, tmp_path):
        pf, pstore = saved
        ps = _fresh(pstore, tmp_path / "s")
        ps.volume_counts(8)
        path = ps.directory / "volume_8.bin"
        raw = bytearray(path.read_bytes())
        raw[-5] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="CRC"):
            extract(ps, _threshold(pf), volume_resolution=8)

    @pytest.mark.parametrize("keep", [0, 10, 40, -8])
    def test_truncated_file_raises(self, saved, tmp_path, keep):
        pf, pstore = saved
        ps = _fresh(pstore, tmp_path / "s")
        ps.volume_counts(8)
        path = ps.directory / "volume_8.bin"
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(FormatError):
            extract(ps, _threshold(pf), volume_resolution=8)

    def test_earlier_partition_is_never_served(self, tmp_path):
        """Re-partitioning other particles into the same directory
        leaves the old volume file behind; it is re-deposited and
        replaced, not served."""
        first = partition_store(_beam(1, 3000, 300), tmp_path / "d", "xyz", max_level=4)
        first.volume_counts(8)
        stale = (tmp_path / "d" / "volume_8.bin").read_bytes()
        ps = partition_store(_beam(2, 3000, 300), tmp_path / "d", "xyz", max_level=4)
        with capture(enabled=True) as tracer:
            hf = extract(ps, 0.0, volume_resolution=8)
        assert tracer.counters["volume_deposits"] == 1
        assert "volume_file_hits" not in tracer.counters
        assert np.array_equal(hf.volume, reference_volume(ps, 8))
        assert (tmp_path / "d" / "volume_8.bin").read_bytes() != stale
        with capture(enabled=True) as tracer:
            again = extract(PartitionedStore.open(tmp_path / "d"), 0.0, volume_resolution=8)
        assert tracer.counters["volume_file_hits"] == 1
        assert np.array_equal(again.volume, hf.volume)

    def test_two_threads_first_extraction(self, saved, tmp_path):
        pf, pstore = saved
        ps = _fresh(pstore, tmp_path / "s")
        thr = _threshold(pf)
        barrier = threading.Barrier(2)
        out = [None, None]

        def run(k):
            barrier.wait()
            out[k] = extract(ps, thr, volume_resolution=16)

        threads = [threading.Thread(target=run, args=(k,)) for k in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert out[0].to_bytes() == out[1].to_bytes()
        assert sorted(p.name for p in ps.directory.iterdir() if "volume" in p.name) == [
            "volume_16.bin"
        ]
        fresh = PartitionedStore.open(ps.directory)
        assert np.array_equal(fresh.volume_counts(16), ps.volume_counts(16))
        assert np.array_equal(out[0].volume, reference_volume(ps, 16))

    def test_racing_writers_keep_the_bound(self, saved, tmp_path):
        """Six threads, more than the cores, race first extractions at
        three resolutions, two of which do not fit the bound together:
        every result is the reference, every file left is valid, and
        the files stay within the disk bound."""
        pf, pstore = saved
        ps = _fresh(pstore, tmp_path / "s")
        resolutions = [32, 28, 24] * 2
        barrier = threading.Barrier(len(resolutions))
        out = {}

        def run(k, res):
            barrier.wait(10)
            out[k] = extract(ps, 0.0, volume_resolution=res).volume

        threads = [threading.Thread(target=run, args=kr) for kr in enumerate(resolutions)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for k, res in enumerate(resolutions):
            assert np.array_equal(out[k], reference_volume(ps, res))
        names = sorted(p.name for p in ps.directory.iterdir() if "volume" in p.name)
        assert names == _volume_files(ps)  # no temp file left
        assert sum((ps.directory / n).stat().st_size for n in names) <= ps.n_particles * 48
        reopened = PartitionedStore.open(ps.directory)
        for name in names:
            with capture(enabled=True) as tracer:
                reopened.volume_counts(int(name[7:-4]))
            assert tracer.counters["volume_file_hits"] == 1

    def test_crash_during_write_leaves_no_file(self, saved, tmp_path):
        pf, pstore = saved
        ps = _fresh(pstore, tmp_path / "s")
        thr = _threshold(pf)
        with FaultPlan(torn_write=1.0).file_faults():
            with pytest.raises(SimulatedCrash):
                extract(ps, thr, volume_resolution=8)
        assert not [p for p in ps.directory.iterdir() if "volume" in p.name]
        hf = extract(ps, thr, volume_resolution=8)
        assert np.array_equal(hf.volume, reference_volume(ps, 8))
        assert _volume_files(ps) == ["volume_8.bin"]

    def test_write_error_returns_the_volume_unsaved(self, saved, tmp_path):
        """A read-only store still extracts; the volume is just not kept."""
        pf, pstore = saved
        ps = _fresh(pstore, tmp_path / "s")

        def read_only(path, data):
            raise OSError(errno.EROFS, "read-only file system", str(path))

        atomic.set_fault_hook(read_only)
        try:
            hf = extract(ps, _threshold(pf), volume_resolution=8)
        finally:
            atomic.set_fault_hook(None)
        assert np.array_equal(hf.volume, reference_volume(ps, 8))
        assert not [p for p in ps.directory.iterdir() if "volume" in p.name]

    def test_disk_use_bounded_by_the_store(self, saved, tmp_path):
        """All volume files together fit in the particle payload; a
        grid that does not fit is returned without being written."""
        pf, pstore = saved
        ps = _fresh(pstore, tmp_path / "s")
        bound = ps.n_particles * 48
        used = 0
        for res in (40, 32, 24, 16, 12, 8):
            size = 32 + res**3 * 8
            with capture(enabled=True) as tracer:
                hf = extract(ps, 0.0, volume_resolution=res)
            assert tracer.counters["volume_deposits"] == 1
            assert np.array_equal(hf.volume, reference_volume(ps, res))
            written = (ps.directory / f"volume_{res}.bin").is_file()
            assert written == (used + size <= bound)
            used += size if written else 0
            on_disk = sum(p.stat().st_size for p in ps.directory.glob("volume_*"))
            assert on_disk == used <= bound
        assert "volume_40.bin" not in _volume_files(ps)  # too big on its own
        assert "volume_32.bin" in _volume_files(ps)
        assert len(_volume_files(ps)) < 5  # a later grid found no room
