"""Level-of-detail hierarchy over a partitioned particle store.

The paper's incremental density-proportional seeding has the property
that *any prefix of the work is the most accurate picture possible so
far*.  This module gives the stored representation the same property
(ROADMAP item 2, modeled on Szalay/Springel/Lemson's billion-point
cosmology viewer): every octree node of a
:class:`~repro.octree.stream_partition.PartitionedStore` gets a
deterministic, seeded, *nested* particle subsample, and the density
volume gets a mip pyramid -- so a remote client can receive a coarse
but valid hybrid frame in one round-trip, then refine it
incrementally until the result is bit-identical to the flat
:func:`~repro.octree.extraction.extract` output.

**Subsample determinism.**  Node ``j`` (index in the density-sorted
node table) draws one permutation of its ``count`` particles from
``numpy.random.default_rng([seed, j])``.  The level-``l`` sample is
the first ``max(1, ceil(count / ratio**l))`` entries of that
permutation -- so the samples are nested by construction (each level
is a prefix of the next finer one), every non-empty node contributes
at least one point to the coarsest level, and rebuilding with the
same seed reproduces the hierarchy bit for bit.

**On-disk layout** (side files inside the store directory, registered
in the ``lod`` section of a version-2 ``store.json`` manifest --
version-1 stores without the section still open).  Every level is
stored in the form the wire sends, so a refinement unit is slices of
one level's two files, with no gather from the main store and no
cast:

    lod_rows_<l>.bin       i8 global row index of each member of level
                           ``l``, all nodes concatenated in node order:
                           level ``levels`` is the base (the coarsest
                           sample), a level ``l < levels`` holds the
                           sample members of level ``l`` that level
                           ``l+1`` lacks, and level 0 is the bulk
    lod_points_<l>.bin     f4 (n, 3) plot-type columns of the same
                           rows, cast element-wise from the f8 rows as
                           the flat extraction casts them
    lod_index.bin          i8 (levels+1, n_nodes+1) per-level per-node
                           offset table into the level files
    lod_mip_<k>.bin        f8 (m, m, m) CIC count grids,
                           ``m = mip_base >> k``, for k >= 1: 2x2x2 sum
                           pools of mip 0, which is no side file but
                           the store's own volume
                           (``PartitionedStore.volume_counts`` at
                           ``mip_base``, the grid ``extract`` reads)

A particle costs 20 bytes at whatever level it lands.  The section
carries a format ``version`` (:data:`LOD_VERSION`); a hierarchy of
another version raises :class:`~repro.core.errors.FormatError` naming
``repro lod build``, which rebuilds it from its seed.  Opening a
hierarchy checks every side file's size and CRC32 against the manifest
once and keeps the level files mapped for its lifetime.

Because nodes are whole with respect to any threshold (the halo is
always the first ``n`` nodes of the density-sorted table), the halo's
slice of every level file is a contiguous prefix -- the same prefix
property the paper exploits for the particle file itself.
"""

from __future__ import annotations

import os
import zlib
from pathlib import Path

import numpy as np

from repro.core.errors import FormatError
from repro.core.store import attach_lod_manifest
from repro.core.trace import count, span
from repro.octree.extraction import density_volume
from repro.octree.octree import morton_decode

__all__ = ["build_lod", "LodHierarchy", "node_centers", "LOD_VERSION"]

# v1 stored f8 rows above level 0 and gathered level 0 from the main
# store; v2 stores every level as i8 rows + f4 points
LOD_VERSION = 2
_BATCH_ROWS = 1 << 19   # rows read per node-batch during the build
_CRC_CHUNK = 1 << 22    # bytes read per step of a side-file check
_INDEX_FILE = "lod_index.bin"


def _rows_file(level: int) -> str:
    return f"lod_rows_{int(level)}.bin"


def _points_file(level: int) -> str:
    return f"lod_points_{int(level)}.bin"


def _mip_file(k: int) -> str:
    return f"lod_mip_{int(k)}.bin"


def _sample_size(n: int, ratio: int, level: int) -> int:
    """Level-``level`` sample size of an ``n``-particle node."""
    return max(1, -(-n // ratio**level))


def node_centers(nodes, lo, hi):
    """Vectorized world-space centers + cell diagonals of leaf nodes.

    The geometric half of screen-space-error ordering: decodes each
    node's Morton prefix into its (ix, iy, iz) cell index at the node's
    own level.
    """
    nodes = np.asarray(nodes)
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    level = nodes["level"].astype(np.int64)
    idx = morton_decode(nodes["key"], int(level.max()) if len(nodes) else 0)
    size = (hi - lo)[None, :] / (1 << level)[:, None].astype(np.float64)
    centers = lo[None, :] + (idx.astype(np.float64) + 0.5) * size
    diag = np.linalg.norm(size, axis=1)
    return centers, diag


class _Writer:
    """Side-file writer tracking size and running CRC32.  The bytes go
    to a temp file renamed over the target on close, so a hierarchy
    that still maps the old file keeps reading it whole."""

    def __init__(self, path: Path):
        self.path = path
        self._tmp = path.with_name(f".{path.name}.tmp.{os.getpid()}")
        self._f = open(self._tmp, "wb")
        self.crc = 0
        self.nbytes = 0

    def write(self, arr: np.ndarray) -> None:
        raw = np.ascontiguousarray(arr).tobytes()
        self._f.write(raw)
        self.crc = zlib.crc32(raw, self.crc)
        self.nbytes += len(raw)

    def close(self) -> dict:
        self._f.close()
        os.replace(self._tmp, self.path)
        return {"bytes": int(self.nbytes), "crc32": int(self.crc & 0xFFFFFFFF)}


def build_lod(
    pstore,
    *,
    levels: int = 2,
    ratio: int = 4,
    seed: int = 0,
    mip_base: int = 64,
    mip_levels: int = 3,
) -> "LodHierarchy":
    """Build (or rebuild) the LOD hierarchy of a partitioned store.

    Parameters
    ----------
    pstore : :class:`~repro.octree.stream_partition.PartitionedStore`
    levels : number of refinement levels; the base sample keeps
        roughly ``1/ratio**levels`` of each node's particles
    ratio : per-level subsampling ratio
    seed : seed of the per-node sample permutations
    mip_base : resolution of the finest density mip (a power of two);
        mip 0 is the store's volume at this resolution
    mip_levels : pyramid depth (each level halves the resolution)

    The side files are written first; atomically re-committing the
    store manifest with their names, sizes, and CRCs is the commit
    point.  Returns the opened :class:`LodHierarchy`.
    """
    levels = int(levels)
    ratio = int(ratio)
    mip_base = int(mip_base)
    if levels < 1:
        raise ValueError("levels must be >= 1")
    if ratio < 2:
        raise ValueError("ratio must be >= 2")
    if mip_base < 8 or mip_base & (mip_base - 1):
        raise ValueError("mip_base must be a power of two >= 8")

    store = pstore.store
    nodes = pstore.nodes
    counts = nodes["count"].astype(np.int64)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    n_nodes = len(nodes)
    directory = Path(pstore.directory)

    cols = list(pstore.columns)
    index = np.zeros((levels + 1, n_nodes + 1), dtype=np.int64)
    writers = {lev: (_Writer(directory / _rows_file(lev)),
                     _Writer(directory / _points_file(lev)))
               for lev in range(levels + 1)}

    with span("lod_build", nodes=n_nodes, levels=levels):
        # batch contiguous node ranges so the particle file is read
        # once, sequentially, a few hundred thousand rows at a time;
        # each batch is cast to f4 once and written level by level
        j = 0
        while j < n_nodes:
            k = j
            batch_rows = 0
            while k < n_nodes and (batch_rows == 0 or
                                   batch_rows + counts[k] <= _BATCH_ROWS):
                batch_rows += counts[k]
                k += 1
            start = int(starts[j])
            points = store.read_rows(start, start + batch_rows)[:, cols].astype(np.float32)
            picks = {lev: [] for lev in writers}
            for node in range(j, k):
                c = int(counts[node])
                local = int(starts[node]) - start
                perm = np.random.default_rng([seed, node]).permutation(c)
                # level l holds perm[sizes[l+1]:sizes[l]]
                sizes = [c] + [_sample_size(c, ratio, lev) for lev in range(1, levels + 1)] + [0]
                for lev in writers:
                    sel = np.sort(perm[sizes[lev + 1]:sizes[lev]])
                    picks[lev].append(local + sel)
                    index[lev, node + 1] = index[lev, node] + len(sel)
            for lev, (w_rows, w_points) in writers.items():
                sel = np.concatenate(picks[lev])
                w_rows.write((start + sel).astype("<i8"))
                w_points.write(points[sel])
            j = k

        files = {}
        for lev, (w_rows, w_points) in writers.items():
            files[_rows_file(lev)] = w_rows.close()
            files[_points_file(lev)] = w_points.close()

        w = _Writer(directory / _INDEX_FILE)
        w.write(index.astype("<i8"))
        files[_INDEX_FILE] = w.close()

        # mip 0 is the store's volume (what extract reads); coarser
        # mips are 2x2x2 sum pools of it -- counts stay counts at
        # every level
        with span("lod_mips", base=mip_base):
            grid = pstore.volume_counts(mip_base)
            mips = []
            m = mip_base
            for _ in range(int(mip_levels)):
                mips.append(grid)
                if m % 2 or m // 2 < 8:
                    break
                m //= 2
                grid = grid.reshape(m, 2, m, 2, m, 2).sum(axis=(1, 3, 5))
            for k, g in enumerate(mips[1:], start=1):
                w = _Writer(directory / _mip_file(k))
                w.write(g.astype("<f8"))
                files[_mip_file(k)] = w.close()

    manifest = {
        "version": LOD_VERSION,
        "seed": int(seed),
        "ratio": ratio,
        "levels": levels,
        "mip_base": mip_base,
        "mip_levels": len(mips),
        "n_nodes": int(n_nodes),
        "files": files,
    }
    attach_lod_manifest(directory, manifest)
    for stale in directory.glob("lod_*.bin"):
        if stale.name not in files:
            stale.unlink()
    # keep the already-open store object coherent with the manifest we
    # just committed (a fresh open() would see it anyway)
    store._manifest["lod"] = manifest
    hierarchy = LodHierarchy(pstore, manifest)
    pstore._lod = hierarchy
    count("lod_builds")
    return hierarchy


class LodHierarchy:
    """A read-opened LOD hierarchy attached to a partitioned store.

    Serves the progressive-stream content as wire-ready arrays:
    :meth:`base` (the coarsest sample of the halo prefix),
    :meth:`delta` (one level's members of a set of nodes) and
    :meth:`coarse_volume` (the first frame's volume).  :meth:`schedule`
    orders the refinement work by screen-space error.  Opening checks
    every level file's size and CRC32 against the manifest and maps it
    read-only; the maps stay open for the hierarchy's lifetime.
    """

    def __init__(self, pstore, meta: dict):
        self.pstore = pstore
        self.directory = Path(pstore.directory)
        version = meta.get("version", 1)
        if version != LOD_VERSION:
            raise FormatError(
                f"{self.directory}: LOD hierarchy has format version {version}, "
                f"this release reads version {LOD_VERSION}; rebuild it with "
                f"'repro lod build {self.directory}'"
            )
        self.seed = int(meta["seed"])
        self.ratio = int(meta["ratio"])
        self.levels = int(meta["levels"])
        self.mip_base = int(meta["mip_base"])
        self.mip_levels = int(meta["mip_levels"])
        self.n_nodes = int(meta["n_nodes"])
        self._files = meta["files"]
        if self.n_nodes != len(pstore.nodes):
            raise FormatError(
                f"{self.directory}: LOD hierarchy covers {self.n_nodes} "
                f"nodes, store has {len(pstore.nodes)}"
            )
        self.index = np.frombuffer(
            self._checked(_INDEX_FILE).read_bytes(), dtype="<i8"
        ).reshape(self.levels + 1, self.n_nodes + 1)
        # per level: (global rows i8 (n,), points f4 (n, 3))
        self._level_files = [
            (self._map(_rows_file(lev), "<i8", ()), self._map(_points_file(lev), "<f4", (3,)))
            for lev in range(self.levels + 1)
        ]
        self._densities = pstore.nodes["density"].astype(np.float32)
        self._mips: dict[int, np.ndarray] = {}
        self._coarse = None

    # ------------------------------------------------------------------
    @classmethod
    def open(cls, pstore) -> "LodHierarchy | None":
        """Open the hierarchy registered in the store manifest, or
        return ``None`` when the store has none."""
        meta = pstore.store.lod_manifest
        if meta is None:
            return None
        return cls(pstore, meta)

    def _checked(self, name: str) -> Path:
        """The path of a registered side file whose size and CRC32
        match the manifest (read in chunks, so a check holds no more
        than one chunk in memory)."""
        entry = self._files.get(name)
        if entry is None:
            raise FormatError(f"{self.directory}: LOD manifest lacks {name}")
        path = self.directory / name
        crc = 0
        try:
            with open(path, "rb") as f:
                size = os.fstat(f.fileno()).st_size
                if size == int(entry["bytes"]):
                    for chunk in iter(lambda: f.read(_CRC_CHUNK), b""):
                        crc = zlib.crc32(chunk, crc)
        except OSError:
            raise FormatError(f"{path}: missing LOD side file") from None
        if size != int(entry["bytes"]):
            raise FormatError(f"{path}: {size} bytes, manifest expects {entry['bytes']}")
        if crc != int(entry["crc32"]):
            raise FormatError(f"{path}: LOD side file CRC mismatch")
        return path

    def _map(self, name: str, dtype: str, row_shape: tuple) -> np.ndarray:
        """A checked level file mapped read-only as ``(n,) + row_shape``."""
        path = self._checked(name)
        n = int(self._files[name]["bytes"]) // np.dtype((dtype, row_shape)).itemsize
        if n == 0:
            return np.empty((0,) + row_shape, dtype=dtype)
        return np.asarray(np.memmap(path, dtype=dtype, mode="r", shape=(n,) + row_shape))

    # ------------------------------------------------------------------
    def level_sizes(self, level: int, n_nodes: int | None = None) -> np.ndarray:
        """Per-node row counts of one level (halo prefix)."""
        n = self.n_nodes if n_nodes is None else int(n_nodes)
        row = self.index[int(level)]
        return (row[1 : n + 1] - row[:n]).astype(np.int64)

    def base(self, n_nodes: int):
        """The coarsest sample of the first ``n_nodes`` nodes as
        wire-ready arrays ``(global_rows i8, points f4 (n, 3),
        densities f4)``; the rows and points are read-only views of a
        contiguous prefix of the base level's files."""
        n = int(n_nodes)
        stop = int(self.index[self.levels, n])
        rows, points = self._level_files[self.levels]
        count("lod_base_reads")
        dens = np.repeat(self._densities[:n], self.level_sizes(self.levels, n))
        return rows[:stop], points[:stop], dens

    def delta(self, level: int, node_ids: np.ndarray):
        """One level's members of the given nodes as wire-ready arrays
        ``(global_rows i8, points f4 (n, 3), densities f4)``: each
        node's run of the level's two files, in the order of
        ``node_ids``.  The points are the flat extraction's
        element-wise f4 casts, so reassembled streams are bitwise
        identical to it."""
        level = int(level)
        node_ids = np.asarray(node_ids, dtype=np.int64)
        offs = self.index[level]
        starts, stops = offs[node_ids], offs[node_ids + 1]
        # each node's run offs[j]..offs[j+1], copied slice by slice: a
        # third of the cost of one gather through a row index
        runs = [slice(a, b) for a, b in zip(starts.tolist(), stops.tolist())]
        rows, points = self._level_files[level]
        count("lod_delta_reads")
        return (
            np.concatenate([rows[r] for r in runs] or [rows[:0]]),
            np.concatenate([points[r] for r in runs] or [points[:0]]),
            np.repeat(self._densities[node_ids], stops - starts),
        )

    # ------------------------------------------------------------------
    def mip(self, k: int) -> np.ndarray:
        """Mip ``k``'s f8 count grid (cached after first read); mip 0
        is the store's volume at ``mip_base``."""
        k = int(k)
        if k not in self._mips:
            m = self.mip_base >> k
            if k == 0:
                self._mips[k] = self.pstore.volume_counts(m)
            else:
                raw = self._checked(_mip_file(k)).read_bytes()
                self._mips[k] = np.frombuffer(raw, dtype="<f8").reshape(m, m, m)
        return self._mips[k]

    def coarse_volume(self, resolution: int) -> np.ndarray:
        """An approximate f4 density volume at the requested
        resolution, nearest-neighbor resampled from the coarsest mip
        -- the one-round-trip first image.

        The last resolution's volume is kept as an owning, read-only
        array (a :class:`HybridFrame` takes it without a copy), so the
        BASE unit of every stream at one resolution builds it once.
        The memo is one ``(resolution, volume)`` tuple, replaced by one
        assignment, so concurrent readers never see half of it.
        """
        r = int(resolution)
        memo = self._coarse
        if memo is not None and memo[0] == r:
            return memo[1]
        k = self.mip_levels - 1
        m = self.mip_base >> k
        density = density_volume(self.mip(k), self.pstore.lo, self.pstore.hi)
        idx = np.clip(
            np.rint(np.arange(r) * (m - 1) / max(r - 1, 1)).astype(np.int64), 0, m - 1
        )
        volume = density[np.ix_(idx, idx, idx)]
        volume.flags.writeable = False
        self._coarse = (r, volume)
        return volume

    # ------------------------------------------------------------------
    def schedule(self, n_nodes: int, eye, unit_points: int = 8192):
        """Order the refinement work by screen-space error.

        For the first ``n_nodes`` (halo) nodes, every non-empty
        (level, node) delta gets priority ``(cell_diagonal /
        distance_to_eye) * ratio**level`` -- nearer and coarser first,
        exactly the projected-size heuristic of view-dependent LOD
        renderers.  The sorted entries are greedily grouped into
        single-level units of at most ``unit_points`` rows.  Ties
        break on (level, node index), so the schedule is fully
        deterministic for a given eye.

        Returns a list of ``(level, node_index_array)`` units.
        """
        n = int(n_nodes)
        if n == 0:
            return []
        nodes = self.pstore.nodes[:n]
        centers, diag = node_centers(nodes, self.pstore.lo, self.pstore.hi)
        eye = np.asarray(eye, dtype=np.float64)
        dist = np.maximum(np.linalg.norm(centers - eye[None, :], axis=1), 1e-12)
        pris, levs, ids = [], [], []
        for level in range(self.levels - 1, -1, -1):
            sizes = self.level_sizes(level, n)
            live = np.flatnonzero(sizes)
            if not len(live):
                continue
            pris.append((diag[live] / dist[live]) * float(self.ratio) ** level)
            levs.append(np.full(len(live), level, dtype=np.int64))
            ids.append(live)
        if not pris:
            return []
        pri = np.concatenate(pris)
        lev = np.concatenate(levs)
        nid = np.concatenate(ids)
        order = np.lexsort((nid, -lev, -pri))

        units = []
        cur_level, cur_ids, cur_rows = None, [], 0
        for e in order:
            level, j = int(lev[e]), int(nid[e])
            sz = int(self.index[level, j + 1] - self.index[level, j])
            if cur_level is not None and (
                level != cur_level or (cur_rows and cur_rows + sz > unit_points)
            ):
                units.append((cur_level, np.array(cur_ids, dtype=np.int64)))
                cur_ids, cur_rows = [], 0
            cur_level = level
            cur_ids.append(j)
            cur_rows += sz
        if cur_ids:
            units.append((cur_level, np.array(cur_ids, dtype=np.int64)))
        return units

    def nbytes(self) -> int:
        """On-disk footprint of the hierarchy's side files."""
        return int(sum(int(e["bytes"]) for e in self._files.values()))

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (
            f"LodHierarchy(levels={self.levels}, ratio={self.ratio}, "
            f"mip_base={self.mip_base}, n_nodes={self.n_nodes})"
        )
