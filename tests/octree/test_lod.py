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
- the manifest round-trips (v2) and v1 stores still open (lod None),
- every POINTS and BASE payload is byte-equal to the one the f8 layout
  built (``_V1Lod``, LOD format version 1: f8 side files above level
  0, level 0 gathered from the main store),
- a damaged level file, or a hierarchy in another format version,
  fails with ``FormatError`` wherever it is opened.
"""

import hashlib
import json
import shutil
import zlib

import numpy as np
import pytest

from repro.cli import main
from repro.core.errors import FormatError, RemoteError
from repro.core.store import STORE_VERSION, attach_lod_manifest
from repro.hybrid.representation import HybridFrame
from repro.octree.extraction import extract
from repro.octree.lod import LOD_VERSION, LodHierarchy, build_lod, node_centers
from repro.octree.stream_partition import PartitionedStore, partition_store
from repro.remote import protocol
from repro.remote.client import VisualizationClient
from repro.remote.service import VisualizationService


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
            base_rows = lod.base(j + 1)[0]
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
        rows, pts, dens = lod.delta(1, ids)
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


class _V1Lod:
    """LOD format version 1, the f8 layout the wire-ready level files
    replaced, written as its ``build_lod`` wrote it: f8 (n, 6) rows and
    i8 indices for the base and levels >= 1, i8 indices only for level
    0, whose rows were gathered from the main store at serve time.
    ``meta`` is its manifest section (version 1 had no ``version``
    key)."""

    def __init__(self, pstore, directory, *, levels=2, ratio=4, seed=9):
        self.pstore, self.directory, self.levels = pstore, directory, levels
        counts = pstore.nodes["count"].astype(np.int64)
        starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
        particles = pstore.store.to_array()
        self.index = np.zeros((levels + 1, len(counts) + 1), dtype=np.int64)
        out = {}
        for node, c in enumerate(counts):
            perm = np.random.default_rng([seed, node]).permutation(int(c))
            sizes = [max(1, -(-int(c) // ratio**lev)) for lev in range(levels + 1)]
            sizes[0] = int(c)
            for lev in range(levels, 0, -1):
                a = 0 if lev == levels else sizes[lev + 1]
                sel = np.sort(perm[a:sizes[lev]])
                name = _base_file() if lev == levels else _delta_file(lev)
                rname = _base_rows_file() if lev == levels else _delta_rows_file(lev)
                out.setdefault(name, []).append(particles[starts[node] + sel])
                out.setdefault(rname, []).append((starts[node] + sel).astype("<i8"))
                self.index[lev, node + 1] = self.index[lev, node] + len(sel)
            sel0 = np.sort(perm[sizes[1]:])
            out.setdefault(_delta_rows_file(0), []).append((starts[node] + sel0).astype("<i8"))
            self.index[0, node + 1] = self.index[0, node] + len(sel0)
        out["lod_index.bin"] = [self.index]
        self._files = {}
        for name, parts in out.items():
            raw = np.concatenate(parts).tobytes()
            (directory / name).write_bytes(raw)
            self._files[name] = {"bytes": len(raw), "crc32": zlib.crc32(raw)}
        self.meta = {
            "seed": seed, "ratio": ratio, "levels": levels, "mip_base": 32,
            "mip_levels": 1, "n_nodes": len(counts), "files": self._files,
        }

    def _memmap(self, name: str, dtype: str, row_shape=()) -> np.ndarray:
        entry = self._files.get(name)
        if entry is None:
            raise FormatError(f"{self.directory}: LOD manifest lacks {name}")
        itemsize = int(np.dtype(dtype).itemsize * max(int(np.prod(row_shape)), 1))
        n = int(entry["bytes"]) // itemsize
        if n == 0:
            return np.empty((0,) + tuple(row_shape), dtype=dtype)
        return np.memmap(
            self.directory / name, dtype=dtype, mode="r",
            shape=(n,) + tuple(row_shape),
        )

    def level_sizes(self, level, n_nodes):
        n = int(n_nodes)
        row = self.index[int(level)]
        return (row[1 : n + 1] - row[:n]).astype(np.int64)

    def base(self, n_nodes: int):
        stop = int(self.index[self.levels, int(n_nodes)])
        rows = np.array(self._memmap(_base_rows_file(), "<i8")[:stop])
        data = np.array(self._memmap(_base_file(), "<f8", (6,))[:stop])
        return rows, data


def _base_file() -> str:
    return "lod_base.bin"


def _base_rows_file() -> str:
    return "lod_base_rows.bin"


def _delta_file(level: int) -> str:
    return f"lod_delta_{int(level)}.bin"


def _delta_rows_file(level: int) -> str:
    return f"lod_delta_rows_{int(level)}.bin"


def _reference_delta(lod, level, node_ids):
    """``LodHierarchy.delta`` of the f8 layout with a per-node loop,
    kept verbatim, with ``ShardedStore.gather_rows`` inlined for the
    bulk level."""
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
        store = self.pstore.store
        data = np.empty((len(rows), 6), dtype=np.float64)
        if len(rows):
            order = np.argsort(rows, kind="stable")
            sorted_rows = rows[order]
            shard_ids = np.searchsorted(store._starts, sorted_rows, side="right") - 1
            cut = np.flatnonzero(np.diff(shard_ids)) + 1
            starts = np.concatenate([[0], cut])
            ends = np.concatenate([cut, [len(sorted_rows)]])
            for a, b in zip(starts, ends):
                i = int(shard_ids[a])
                mm = store.shard(i)
                data[order[a:b]] = mm[sorted_rows[a:b] - store.shard_start(i)]
    else:
        dname = _base_file() if level == self.levels else _delta_file(level)
        mm = self._memmap(dname, "<f8", (6,))
        data = np.array(mm[sel]) if total else np.empty((0, 6), "<f8")
    return rows, data, sizes


def _reference_delta_points(lod, level, node_ids):
    """``LodHierarchy.delta_points`` of the f8 layout, verbatim."""
    rows, data, sizes = _reference_delta(lod, level, node_ids)
    cols = list(lod.pstore.columns)
    pts = data[:, cols].astype(np.float32)
    dens = np.repeat(
        lod.pstore.nodes["density"][np.asarray(node_ids, dtype=np.int64)],
        sizes,
    ).astype(np.float32)
    return rows, pts, dens


def _reference_base_payload(frame, lod, coarse_volume, threshold, n_nodes, n_total):
    """The service's ``_build_base`` over the f8 layout, verbatim but
    for the coarse volume, which the mips give either way."""
    rows, data = lod.base(n_nodes)
    pts = data[:, list(frame.columns)].astype(np.float32)
    dens = np.repeat(
        frame.nodes["density"][:n_nodes],
        lod.level_sizes(lod.levels, n_nodes),
    ).astype(np.float32)
    base = HybridFrame(
        volume=coarse_volume,
        points=pts,
        point_densities=dens,
        lo=frame.lo,
        hi=frame.hi,
        threshold=float(threshold),
        step=frame.step,
        plot_type=frame.plot_type,
    )
    return protocol.encode_lod_base(base, rows, n_total)


@pytest.fixture(scope="module")
def v1_lod(tmp_path_factory, pstore):
    return _V1Lod(pstore, tmp_path_factory.mktemp("v1_lod"))


class TestDeltaReference:
    """Every unit read from the level files is byte-equal to the unit
    the f8 layout built: arrays and POINTS / BASE payloads."""

    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_bytes_equal_the_loop(self, pstore, v1_lod, level):
        lod = pstore.lod
        assert lod.index.tobytes() == v1_lod.index.tobytes()
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
            want = _reference_delta_points(v1_lod, level, ids)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes()
            assert protocol.encode_lod_points(*got) == protocol.encode_lod_points(*want)

    def test_base_payload_equals_the_f8_layout(self, pstore, v1_lod):
        service = VisualizationService([pstore])
        densities = pstore.nodes["density"]
        for pct in (0, 10, 60, 100):
            thr = float(np.percentile(densities, pct)) * (1.0 + 1e-9)
            n_nodes = int(np.searchsorted(densities, thr, side="left"))
            n_total = int(pstore.density_cutoff_index(thr))
            for res in (16, 32):
                got = service._build_base(0, thr, res, n_nodes, n_total)
                want = _reference_base_payload(
                    pstore, v1_lod, pstore.lod.coarse_volume(res), thr, n_nodes, n_total
                )
                assert got == want

    def test_base_units_build_the_coarse_volume_once(self, pstore, monkeypatch):
        """Two streams' BASE units at one resolution resample the
        coarsest mip once, and the frame keeps the memo uncopied."""
        import repro.octree.lod as lod_module

        builds = []
        real = lod_module.density_volume

        def spy(*args):
            builds.append(args)
            return real(*args)

        monkeypatch.setattr(lod_module, "density_volume", spy)
        service = VisualizationService([pstore])
        thr = float(np.percentile(pstore.nodes["density"], 60))
        n_nodes = int(np.searchsorted(pstore.nodes["density"], thr, side="left"))
        n_total = int(pstore.density_cutoff_index(thr))
        first = service._build_base(0, thr, 24, n_nodes, n_total)
        assert service._build_base(0, thr, 24, n_nodes, n_total) == first
        assert len(builds) == 1
        volume = pstore.lod.coarse_volume(24)
        assert not volume.flags.writeable and volume.base is None
        assert HybridFrame(volume=volume, points=np.zeros((0, 3), np.float32),
                           point_densities=np.zeros(0, np.float32),
                           lo=pstore.lo, hi=pstore.hi).volume is volume


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
        assert lod["version"] == LOD_VERSION
        assert lod["seed"] == 9 and lod["ratio"] == 4 and lod["levels"] == 2
        for entry in lod["files"].values():
            assert set(entry) == {"bytes", "crc32"}
        # 20 bytes a particle at every level: i8 row + f4 (3,) point
        level_bytes = sum(
            e["bytes"] for name, e in lod["files"].items()
            if name.startswith(("lod_rows_", "lod_points_"))
        )
        assert level_bytes == 20 * pstore.n_particles

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


def _level_files(levels=2):
    return [f"lod_{kind}_{lev}.bin" for lev in range(levels + 1) for kind in ("rows", "points")]


@pytest.fixture(scope="module")
def built_dir(tmp_path_factory, particles):
    """A small store with a built hierarchy, copied by each test that
    damages or downgrades one."""
    ps = partition_store(
        particles, tmp_path_factory.mktemp("built") / "store", "xyz",
        max_level=4, capacity=128, step=3,
    )
    build_lod(ps, levels=2, ratio=4, seed=5, mip_base=16, mip_levels=2)
    return ps.directory


def _copy_store(built_dir, tmp_path):
    shutil.copytree(built_dir, tmp_path / "store")
    return PartitionedStore.open(tmp_path / "store")


class TestDamagedLevelFiles:
    @pytest.mark.parametrize("damage", ["flip", "truncate"])
    @pytest.mark.parametrize("name", _level_files())
    def test_open_raises_naming_the_file(self, built_dir, tmp_path, name, damage):
        """A flipped byte or a truncation in any level file fails the
        hierarchy's open, so no unit of it is ever served."""
        path = tmp_path / "store" / name
        shutil.copytree(built_dir, tmp_path / "store")
        raw = bytearray(path.read_bytes())
        assert len(raw) > 4
        if damage == "flip":
            raw[len(raw) // 2] ^= 0x01
        else:
            del raw[-4:]
        path.write_bytes(bytes(raw))
        ps = PartitionedStore.open(tmp_path / "store")
        with pytest.raises(FormatError, match=name):
            LodHierarchy.open(ps)
        with pytest.raises(FormatError, match=name):
            ps.lod


def _downgrade(ps):
    """Give ``ps`` the hierarchy the f8 layout wrote: its side files
    and its manifest section, which carries no format version."""
    v1 = _V1Lod(ps, ps.directory, seed=5)
    attach_lod_manifest(ps.directory, v1.meta)
    return PartitionedStore.open(ps.directory)


class TestOldFormat:
    def test_open_names_the_store_and_the_rebuild(self, built_dir, tmp_path):
        ps = _downgrade(_copy_store(built_dir, tmp_path))
        with pytest.raises(FormatError, match="repro lod build") as exc:
            LodHierarchy.open(ps)
        assert str(ps.directory) in str(exc.value)

    def test_cli_info_exits_3_and_build_serves(self, built_dir, tmp_path, capsys):
        ps = _downgrade(_copy_store(built_dir, tmp_path))
        assert main(["lod", "info", str(ps.directory)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("repro: damaged data file:") and "repro lod build" in err
        assert len(err.strip().splitlines()) == 1
        assert main(["lod", "build", str(ps.directory), "--mip-base", "16"]) == 0
        assert not (ps.directory / "lod_base.bin").exists()  # the f8 layout is gone
        ps = PartitionedStore.open(ps.directory)
        assert main(["lod", "info", str(ps.directory)]) == 0
        thr = float(np.percentile(ps.nodes["density"], 60))
        with VisualizationService([ps], unit_points=512) as svc:
            with VisualizationClient(svc.address, timeout=5.0) as client:
                *_, last = client.iter_hybrid(0, thr, resolution=16)
                flat = client.get_hybrid(0, thr, 16)
        assert last.points.tobytes() == flat.points.tobytes()
        assert last.volume.tobytes() == flat.volume.tobytes()

    def test_refine_errors_and_the_session_still_serves(self, built_dir, tmp_path):
        ps = _downgrade(_copy_store(built_dir, tmp_path))
        thr = float(np.percentile(ps.nodes["density"], 60))
        with VisualizationService([ps]) as svc:
            with VisualizationClient(svc.address, timeout=5.0) as client:
                with pytest.raises(RemoteError, match="repro lod build"):
                    next(client.iter_hybrid(0, thr, resolution=16))
                frame = client.get_hybrid(0, thr, 16)
        want = extract(ps, thr, volume_resolution=16)
        assert frame.points.tobytes() == want.points.tobytes()
        assert frame.volume.tobytes() == want.volume.tobytes()
