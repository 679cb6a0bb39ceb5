"""The LOD hierarchy: deterministic nested subsamples + density mips.

The properties the progressive stream leans on are all provable at
this layer, without a server in the loop:

- the build is deterministic (bit-identical side files on rebuild),
- per node, level l+1's sample is a prefix of level l's permutation
  (nested: refining never re-sends a particle),
- base + all deltas cover every particle exactly once,
- mip 0 is the store's own volume (no side file of its own), so
  divided by the cell volume it is *bitwise* the flat extraction
  volume at the mip base resolution,
- the manifest round-trips (v2) and v1 stores still open (lod None).
"""

import hashlib
import json

import numpy as np
import pytest

from repro.core.errors import FormatError
from repro.core.store import STORE_VERSION, attach_lod_manifest
from repro.octree.extraction import extract
from repro.octree.lod import LodHierarchy, build_lod, node_centers
from repro.octree.stream_partition import PartitionedStore, partition_store


@pytest.fixture(scope="module")
def particles():
    rng = np.random.default_rng(77)
    core = rng.normal(0.0, 0.3, (20_000, 6))
    halo = rng.normal(0.0, 2.0, (2_000, 6))
    return np.vstack([core, halo])


@pytest.fixture(scope="module")
def pstore(tmp_path_factory, particles):
    ps = partition_store(
        particles, tmp_path_factory.mktemp("lod") / "store", "xyz",
        max_level=5, capacity=64, step=3,
    )
    build_lod(ps, levels=2, ratio=4, seed=9, mip_base=32, mip_levels=3)
    return ps


def _side_file_hashes(ps):
    out = {}
    for name in sorted(ps.lod._files):
        out[name] = hashlib.md5((ps.directory / name).read_bytes()).hexdigest()
    return out


class TestBuild:
    def test_rebuild_is_bit_identical(self, tmp_path, particles, pstore):
        ps2 = partition_store(
            particles, tmp_path / "store", "xyz", max_level=5, capacity=64, step=3
        )
        build_lod(ps2, levels=2, ratio=4, seed=9, mip_base=32, mip_levels=3)
        assert _side_file_hashes(ps2) == _side_file_hashes(pstore)

    def test_samples_match_seeded_permutations(self, pstore):
        """Per node, the stored rows are exactly the documented
        ``default_rng([seed, node]).permutation`` prefix slices."""
        lod = pstore.lod
        starts = pstore.nodes["start"]
        counts = pstore.nodes["count"]
        for j in (0, 1, len(pstore.nodes) // 2, len(pstore.nodes) - 1):
            n = int(counts[j])
            perm = np.random.default_rng([9, j]).permutation(n)
            sizes = [max(1, -(-n // 4**l)) for l in range(lod.levels + 1)]
            base_rows, _ = lod.base(j + 1)
            got = base_rows[int(lod.index[lod.levels, j]):]
            expect = np.sort(perm[: sizes[lod.levels]]) + starts[j]
            assert np.array_equal(got, expect)
            for level in range(1, lod.levels):
                rows, _, _ = lod.delta(level, np.array([j]))
                expect = np.sort(perm[sizes[level + 1]: sizes[level]]) + starts[j]
                assert np.array_equal(rows, expect)

    def test_base_plus_deltas_cover_every_row_once(self, pstore):
        lod = pstore.lod
        n = len(pstore.nodes)
        all_ids = np.arange(n)
        rows = [lod.base(n)[0]]
        for level in range(lod.levels):
            rows.append(lod.delta(level, all_ids)[0])
        merged = np.sort(np.concatenate(rows))
        assert np.array_equal(merged, np.arange(pstore.n_particles))

    def test_nested_levels(self, pstore):
        """Each level's cumulative sample contains the coarser ones."""
        lod = pstore.lod
        n = len(pstore.nodes)
        acc = set(lod.base(n)[0].tolist())
        for level in range(lod.levels - 1, -1, -1):
            delta_rows = lod.delta(level, np.arange(n))[0]
            assert not acc.intersection(delta_rows.tolist())
            acc.update(delta_rows.tolist())
        assert len(acc) == pstore.n_particles

    def test_delta_points_match_flat_conversion(self, pstore):
        """Wire-ready deltas use the same elementwise f4 casts as the
        flat extraction path."""
        lod = pstore.lod
        ids = np.array([0, 3, 5])
        rows, pts, dens = lod.delta_points(1, ids)
        raw = pstore.store.to_array()[rows]
        assert np.array_equal(pts, raw[:, list(pstore.columns)].astype(np.float32))
        sizes = lod.level_sizes(1)[ids]
        expect = np.repeat(pstore.nodes["density"][ids], sizes).astype(np.float32)
        assert np.array_equal(dens, expect)

    def test_validation(self, pstore):
        with pytest.raises(ValueError):
            build_lod(pstore, levels=0)
        with pytest.raises(ValueError):
            build_lod(pstore, ratio=1)
        with pytest.raises(ValueError):
            build_lod(pstore, mip_base=48)  # not a power of two
        with pytest.raises(ValueError):
            build_lod(pstore, mip_base=4)  # below the floor


def _reference_delta(lod, level, node_ids):
    """``LodHierarchy.delta`` as it stood with a per-node loop, kept
    verbatim as the reference for the one-expression selection."""
    from repro.octree.lod import _base_file, _base_rows_file, _delta_file, _delta_rows_file

    self = lod
    level = int(level)
    node_ids = np.asarray(node_ids, dtype=np.int64)
    offs = self.index[level]
    sizes = (offs[node_ids + 1] - offs[node_ids]).astype(np.int64)
    total = int(sizes.sum())
    sel = np.empty(total, dtype=np.int64)
    pos = 0
    for j, sz in zip(node_ids, sizes):
        sel[pos : pos + sz] = np.arange(offs[j], offs[j + 1])
        pos += sz
    name = _base_rows_file() if level == self.levels else _delta_rows_file(level)
    rows = np.array(self._memmap(name, "<i8")[sel]) if total else np.empty(0, "<i8")
    if level == 0:
        data = self.pstore.store.gather_rows(rows)
    else:
        dname = _base_file() if level == self.levels else _delta_file(level)
        mm = self._memmap(dname, "<f8", (6,))
        data = np.array(mm[sel]) if total else np.empty((0, 6), "<f8")
    return rows, data, sizes


class TestDeltaReference:
    """The vectorized node selection reads the same rows as the loop."""

    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_bytes_equal_the_loop(self, pstore, level):
        lod = pstore.lod
        sizes = lod.level_sizes(level)
        empty_nodes = np.flatnonzero(sizes == 0)
        full_nodes = np.flatnonzero(sizes > 0)
        rng = np.random.default_rng(level)
        cases = [
            np.array([], dtype=np.int64),
            np.arange(lod.n_nodes),
            rng.permutation(lod.n_nodes)[: lod.n_nodes // 3],
            np.concatenate([full_nodes[:3], empty_nodes[:4], full_nodes[-2:]]),
            empty_nodes[:5],
        ]
        assert level == 2 or len(empty_nodes) > 0  # zero-size nodes occur
        for ids in cases:
            got = lod.delta(level, ids)
            want = _reference_delta(lod, level, ids)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes()


class TestMips:
    def test_mip0_is_bitwise_the_extraction_volume(self, pstore):
        thr = float(np.percentile(pstore.nodes["density"], 60))
        hf = extract(pstore.to_frame(), thr, volume_resolution=32)
        mip0 = pstore.lod.mip(0)
        assert np.array_equal(mip0, pstore.volume_counts(32))
        assert "lod_mip_0.bin" not in pstore.lod._files
        cell_volume = float(np.prod((pstore.hi - pstore.lo) / 31))
        assert np.array_equal((mip0 / cell_volume).astype(np.float32), hf.volume)
        assert np.array_equal(extract(pstore, thr, volume_resolution=32).volume, hf.volume)

    def test_pyramid_preserves_mass(self, pstore):
        lod = pstore.lod
        m0 = lod.mip(0)
        for k in range(1, lod.mip_levels):
            mk = lod.mip(k)
            assert mk.shape == (32 >> k,) * 3
            assert mk.sum() == pytest.approx(m0.sum())

    def test_coarse_volume_shape_and_dtype(self, pstore):
        v = pstore.lod.coarse_volume(48)
        assert v.shape == (48, 48, 48) and v.dtype == np.float32


class TestSchedule:
    def test_deterministic_and_complete(self, pstore):
        lod = pstore.lod
        n = len(pstore.nodes)
        eye = pstore.hi * 2.0
        a = lod.schedule(n, eye, unit_points=512)
        b = lod.schedule(n, eye, unit_points=512)
        assert len(a) == len(b)
        for (la, ia), (lb, ib) in zip(a, b):
            assert la == lb and np.array_equal(ia, ib)
        # every non-empty (level, node) appears exactly once
        seen = set()
        for level, ids in a:
            sizes = lod.level_sizes(level, n)[ids]
            assert (sizes > 0).all()
            for j in ids:
                key = (level, int(j))
                assert key not in seen
                seen.add(key)
        expect = {
            (level, j)
            for level in range(lod.levels)
            for j in np.flatnonzero(lod.level_sizes(level, n))
        }
        assert seen == expect

    def test_units_respect_point_budget(self, pstore):
        lod = pstore.lod
        n = len(pstore.nodes)
        for level, ids in lod.schedule(n, pstore.hi, unit_points=256):
            sizes = lod.level_sizes(level, n)[ids]
            assert len(ids) == 1 or sizes.sum() <= 256

    def test_coarser_levels_lead_at_equal_distance(self, pstore):
        """Priority scales with ratio**level: a node's level-1 delta is
        never scheduled after its own level-0 delta."""
        lod = pstore.lod
        n = len(pstore.nodes)
        pos = {}
        for u, (level, ids) in enumerate(lod.schedule(n, pstore.hi * 3)):
            for j in ids:
                pos[(level, int(j))] = u
        for (level, j), u in pos.items():
            finer = pos.get((level - 1, j))
            if finer is not None:
                assert u < finer

    def test_empty_prefix(self, pstore):
        assert pstore.lod.schedule(0, pstore.hi) == []

    def test_node_centers_inside_bounds(self, pstore):
        centers, diag = node_centers(pstore.nodes, pstore.lo, pstore.hi)
        assert (centers >= pstore.lo - 1e-9).all()
        assert (centers <= pstore.hi + 1e-9).all()
        assert (diag > 0).all()


class TestManifest:
    def test_manifest_is_v2_with_lod_section(self, pstore):
        manifest = json.loads((pstore.directory / "store.json").read_text())
        assert manifest["version"] == STORE_VERSION == 2
        lod = manifest["lod"]
        assert lod["seed"] == 9 and lod["ratio"] == 4 and lod["levels"] == 2
        for entry in lod["files"].values():
            assert set(entry) == {"bytes", "crc32"}

    def test_reopen_from_disk(self, pstore):
        ps2 = PartitionedStore.open(pstore.directory)
        assert ps2.lod is not None
        assert ps2.lod.nbytes() == pstore.lod.nbytes()
        n = len(ps2.nodes)
        assert np.array_equal(ps2.lod.base(n)[0], pstore.lod.base(n)[0])

    def test_v1_store_opens_without_lod(self, tmp_path, particles):
        ps = partition_store(
            particles, tmp_path / "store", "xyz", max_level=4, capacity=128, step=3
        )
        path = ps.directory / "store.json"
        manifest = json.loads(path.read_text())
        manifest["version"] = 1
        manifest.pop("lod", None)
        path.write_text(json.dumps(manifest))
        ps2 = PartitionedStore.open(ps.directory)
        assert ps2.lod is None

    def test_unsupported_version_rejected(self, tmp_path, particles):
        ps = partition_store(
            particles, tmp_path / "store", "xyz", max_level=4, capacity=128, step=3
        )
        path = ps.directory / "store.json"
        manifest = json.loads(path.read_text())
        manifest["version"] = 3
        path.write_text(json.dumps(manifest))
        with pytest.raises(FormatError):
            PartitionedStore.open(ps.directory)

    def test_detach_lod(self, tmp_path, particles):
        ps = partition_store(
            particles, tmp_path / "store", "xyz", max_level=4, capacity=128, step=3
        )
        build_lod(ps, levels=1, ratio=4, mip_base=16, mip_levels=1)
        attach_lod_manifest(ps.directory, None)
        ps2 = PartitionedStore.open(ps.directory)
        assert ps2.lod is None

    def test_corrupt_index_detected(self, tmp_path, particles):
        ps = partition_store(
            particles, tmp_path / "store", "xyz", max_level=4, capacity=128, step=3
        )
        build_lod(ps, levels=1, ratio=4, mip_base=16, mip_levels=1)
        path = ps.directory / "lod_index.bin"
        raw = bytearray(path.read_bytes())
        raw[8] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            LodHierarchy.open(PartitionedStore.open(ps.directory))


class TestGatherRows:
    def test_matches_to_array(self, pstore):
        rng = np.random.default_rng(5)
        rows = rng.integers(0, pstore.n_particles, 500)
        got = pstore.store.gather_rows(rows)
        assert np.array_equal(got, pstore.store.to_array()[rows])

    def test_preserves_caller_order_and_duplicates(self, pstore):
        rows = np.array([10, 3, 10, 0, pstore.n_particles - 1])
        got = pstore.store.gather_rows(rows)
        assert np.array_equal(got, pstore.store.to_array()[rows])

    def test_out_of_range_raises(self, pstore):
        with pytest.raises(IndexError):
            pstore.store.gather_rows(np.array([pstore.n_particles]))
        with pytest.raises(IndexError):
            pstore.store.gather_rows(np.array([-1]))

    def test_empty(self, pstore):
        assert pstore.store.gather_rows(np.empty(0, np.int64)).shape == (0, 6)
