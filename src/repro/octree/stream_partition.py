"""Two-pass out-of-core octree partitioning over a sharded store.

The in-core :func:`repro.octree.partition.partition` needs the whole
frame (plus its sort permutations) in RAM -- a dead end at the paper's
10^8-10^9 particle scale.  This module produces the *same* partitioned
representation while touching only one shard of particles at a time:

1. **Pass 1 (count).**  Each shard is read once, its particles' Morton
   keys computed against the global bounds, and the per-cell
   (max-level key) histogram written to a small per-shard artifact.
2. **Plan.**  The per-shard histograms merge into the global cell
   histogram, and :func:`repro.octree.octree.partition_plan` -- the
   one leaf walk and density sort every partitioner uses -- turns it
   into the node table plus the file position of every cell's first
   particle; per-shard prefix sums then give every (cell, shard) pair
   an absolute destination range in the final particle file.
3. **Pass 2 (scatter).**  Each shard is read once more and its rows
   written straight into the pre-allocated output shards at their
   final positions, via ``numpy.memmap`` with the written pages
   dropped back to the OS -- peak RSS stays at a few shards.

**Equivalence guarantee** (tested bit-for-bit): the in-core
``partition`` is this algorithm run on one in-memory shard, so both
file each particle at its cell's destination plus its arrival rank
within the cell.  Here that rank counts the cell's particles in earlier
shards (the per-shard base) and then within-shard order -- which *is*
original-index order, because shards partition the frame contiguously.
Bounds (one padding rule), keys, the cell histogram and hence the plan
compute on identical float64 and integer inputs, so nodes and particles
match the in-core result exactly.

Each pass is one task per shard, run through
:func:`repro.core.executor.run_shards` (crash-safe) at every worker
count: ``workers=1`` runs the same task in this process that
``workers=N`` runs in worker processes, and the task reads its shard
through ``ds.chunk``, so every input shard of a store is CRC-checked
and a damaged one raises :class:`FormatError` however the pass runs.
Every pass opens a ``stream_partition_pass`` span and bumps the
counter of the same name, and a :class:`repro.core.checkpoint.Checkpoint`
(optional) records each shard as its result is collected, in shard
order, so a killed run resumes where it died.
"""

from __future__ import annotations

import hashlib
import io
import shutil
import struct
import threading
import zlib
from pathlib import Path

import numpy as np

from repro.beams.spacecharge import deposit_cic
from repro.core.atomic import atomic_write_bytes
from repro.core.checkpoint import Checkpoint
from repro.core.dataset import as_dataset
from repro.core.errors import FormatError
from repro.core.executor import run_shards
from repro.core.store import (
    DEFAULT_SHARD_ROWS,
    ShardedStore,
    _evict_pages,
    create_store,
    shard_name,
    write_manifest,
)
from repro.core.trace import count, gauge_peak_rss, span
from repro.octree.format import _check_node_table, read_nodes_file, write_nodes_file
from repro.octree.octree import (
    check_build,
    morton_keys,
    octree_bounds,
    partition_plan,
    plot_columns,
)
from repro.octree.partition import PartitionedFrame

__all__ = ["PartitionedStore", "partition_store"]

NODES_FILE = "partition.nodes"
_ROW_BYTES = 6 * 8

# stored density volume: magic, resolution, binding to the store
# commit, then a CRC32 over those fields and the f8 count payload
_VOLUME_MAGIC = b"RPRVOLUM"
_VOLUME_FIELDS = struct.Struct("<8sI16s")
_VOLUME_CRC = struct.Struct("<I")
# the check-and-write of the disk bound, one store writer at a time
_volume_write_lock = threading.Lock()


# ----------------------------------------------------------------------
# the partitioned result
class PartitionedStore:
    """An octree-partitioned frame living on disk as a sharded store.

    The out-of-core sibling of
    :class:`repro.octree.partition.PartitionedFrame`: the node table
    (sorted by increasing density) is small and lives in RAM; the
    density-sorted particle file is a :class:`ShardedStore` that
    extraction and rendering stream shard by shard.
    """

    def __init__(
        self,
        directory,
        store: ShardedStore,
        nodes: np.ndarray,
        plot_type: str,
        lo: np.ndarray,
        hi: np.ndarray,
        max_level: int,
        capacity: int,
        step: int = 0,
    ):
        self.directory = Path(directory)
        self.store = store
        self.nodes = nodes
        self.plot_type = plot_type
        self.columns = plot_columns(plot_type)
        self.lo = np.asarray(lo, dtype=np.float64)
        self.hi = np.asarray(hi, dtype=np.float64)
        self.max_level = int(max_level)
        self.capacity = int(capacity)
        self.step = int(step)

    # ------------------------------------------------------------------
    @classmethod
    def open(cls, directory) -> "PartitionedStore":
        """Open a partitioned store directory (node table + shards)."""
        directory = Path(directory)
        nodes_path = directory / NODES_FILE
        if not directory.exists():
            raise FileNotFoundError(f"{directory}: no such partitioned store")
        if not nodes_path.is_file():
            raise FormatError(f"{directory}: not a partitioned store (no {NODES_FILE})")
        nodes, n_particles, max_level, capacity, step, lo, hi, plot_type = read_nodes_file(
            nodes_path
        )
        store = ShardedStore.open(directory)
        if store.n_particles != n_particles:
            raise FormatError(
                f"{directory}: node table covers {n_particles} particles, "
                f"store holds {store.n_particles}"
            )
        return cls(
            directory, store, nodes, plot_type, lo, hi, max_level, capacity, step
        )

    @classmethod
    def from_frame(cls, frame: PartitionedFrame, directory) -> "PartitionedStore":
        """Write an in-core :class:`PartitionedFrame` as a partitioned
        store directory and open it.

        The node table lands first and the store manifest, the commit
        point, last -- the same order as :func:`partition_store`'s
        finalize.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        write_nodes_file(
            directory / NODES_FILE,
            frame.nodes, frame.n_particles, frame.max_level, frame.capacity,
            frame.step, frame.lo, frame.hi, frame.plot_type,
        )
        create_store(directory, frame.particles, step=frame.step)
        return cls.open(directory)

    # ------------------------------------------------------------------
    @property
    def lod(self):
        """The store's :class:`~repro.octree.lod.LodHierarchy`, opened
        lazily from the v2 manifest's ``lod`` section; ``None`` when no
        hierarchy has been built (``repro.octree.lod.build_lod``)."""
        if not hasattr(self, "_lod"):
            from repro.octree.lod import LodHierarchy

            self._lod = LodHierarchy.open(self)
        return self._lod

    @property
    def n_particles(self) -> int:
        return self.store.n_particles

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def nbytes(self) -> int:
        """On-disk footprint of the partitioned representation."""
        return int(self.store.nbytes() + self.nodes.nbytes)

    def density_cutoff_index(self, threshold_density: float) -> int:
        """Number of leading particles in nodes below the threshold --
        the same prefix property as the in-core frame."""
        n_below = int(
            np.searchsorted(self.nodes["density"], threshold_density, side="left")
        )
        return int(self.nodes["count"][:n_below].sum())

    def read_prefix(self, n_particles: int) -> np.ndarray:
        """Materialize the first ``n_particles`` rows of the particle
        file (the halo-extraction access pattern); reads only the
        shards the prefix touches."""
        return self.store.read_rows(0, int(n_particles))

    def chunks(self, columns=None):
        """Stream the density-sorted particle file shard by shard."""
        return self.store.chunks(columns)

    # ------------------------------------------------------------------
    def volume_counts(self, resolution: int) -> np.ndarray:
        """The all-particle CIC count grid at ``resolution`` per axis.

        The first call at a resolution deposits every particle, shard
        by shard into one f8 grid, and saves it as
        ``volume_<resolution>.bin`` in the store directory; every later
        call, in any process, reads that file instead (an in-core
        :class:`PartitionedFrame` deposits on each call).  The file is
        bound to this store's commit (shard CRCs and node table), so
        one left by an earlier partition in the same directory is
        re-deposited and replaced; a damaged one raises
        :class:`FormatError`.  All volume files
        together stay within the particle payload (``n * 48`` bytes):
        a grid that does not fit, or whose write fails with an
        ``OSError`` (a read-only store), is returned unsaved.
        """
        res = int(resolution)
        path = self.directory / f"volume_{res}.bin"
        grid = self._read_volume(path, res)
        if grid is not None:
            count("volume_file_hits")
            return grid
        grid = np.zeros((res,) * 3)
        for coords in self.chunks(self.columns):
            deposit_cic(coords, grid.shape, self.lo, self.hi, out=grid)
        count("volume_deposits")
        head = _VOLUME_FIELDS.pack(_VOLUME_MAGIC, res, self._volume_binding())
        payload = np.ascontiguousarray(grid, dtype="<f8").tobytes()
        data = head + _VOLUME_CRC.pack(zlib.crc32(payload, zlib.crc32(head))) + payload
        with _volume_write_lock:
            others = 0
            for other in self.directory.glob("volume_*.bin"):
                if other != path:
                    others += other.stat().st_size
            if others + len(data) <= self.store.nbytes():
                try:
                    atomic_write_bytes(path, data)
                except OSError:
                    pass
        return grid

    def _volume_binding(self) -> bytes:
        """Digest of the store commit a volume file belongs to."""
        shards = [(int(s["rows"]), int(s["crc32"])) for s in self.store._shards]
        h = hashlib.blake2b(np.array(shards, dtype="<i8").tobytes(), digest_size=16)
        for part in (self.nodes, self.lo, self.hi):
            h.update(np.ascontiguousarray(part).tobytes())
        h.update(self.plot_type.encode())
        return h.digest()

    def _read_volume(self, path: Path, res: int) -> np.ndarray | None:
        """The stored grid, or ``None`` when there is none for this
        commit; raises :class:`FormatError` on a damaged file."""
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            return None
        except OSError as exc:
            raise FormatError(f"{path}: unreadable density volume ({exc})") from exc
        n = _VOLUME_FIELDS.size + _VOLUME_CRC.size
        if len(raw) < n or raw[:8] != _VOLUME_MAGIC:
            raise FormatError(f"{path}: not a stored density volume")
        _, file_res, binding = _VOLUME_FIELDS.unpack_from(raw)
        (crc,) = _VOLUME_CRC.unpack_from(raw, _VOLUME_FIELDS.size)
        if file_res != res or len(raw) != n + res**3 * 8:
            raise FormatError(
                f"{path}: {len(raw)} bytes for a {file_res}^3 volume, "
                f"expected {n + res**3 * 8} for {res}^3"
            )
        payload = memoryview(raw)[n:]
        if zlib.crc32(payload, zlib.crc32(raw[: _VOLUME_FIELDS.size])) != crc:
            raise FormatError(f"{path}: density volume CRC mismatch")
        if binding != self._volume_binding():
            return None
        return np.frombuffer(payload, dtype="<f8").reshape(res, res, res)

    def to_frame(self) -> PartitionedFrame:
        """Materialize as an in-core :class:`PartitionedFrame` (defeats
        the out-of-core design; for tests, checkpoints and small
        frames).  Every shard is read CRC-checked, so a damaged payload
        raises :class:`FormatError` instead of loading."""
        particles = np.empty((self.n_particles, 6))
        offset = 0
        for chunk in self.store.chunks():
            particles[offset : offset + len(chunk)] = chunk
            offset += len(chunk)
        return PartitionedFrame(
            plot_type=self.plot_type,
            columns=self.columns,
            particles=particles,
            nodes=self.nodes.copy(),
            lo=self.lo.copy(),
            hi=self.hi.copy(),
            max_level=self.max_level,
            capacity=self.capacity,
            step=self.step,
        )

    def validate(self) -> None:
        """Structural invariants (node table tiling + density order);
        raises :class:`FormatError` on damage."""
        _check_node_table(self.nodes, self.n_particles, self.directory / NODES_FILE)

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (
            f"PartitionedStore({str(self.directory)!r}, "
            f"n_particles={self.n_particles}, n_nodes={self.n_nodes})"
        )


# ----------------------------------------------------------------------
# per-shard tasks: one module-level function per pass, run through
# run_shards at every worker count (worker processes unpickle them by
# name); each reads its chunk through ``ds.chunk``, which CRC-checks a
# store shard, so damaged input raises FormatError however it is run
def _save_npz_atomic(path: Path, **arrays) -> None:
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    atomic_write_bytes(path, buf.getvalue())


def _save_npy_atomic(path: Path, array: np.ndarray) -> None:
    buf = io.BytesIO()
    np.save(buf, array)
    atomic_write_bytes(path, buf.getvalue())


def _pass1_artifact(workdir, i: int) -> Path:
    return Path(workdir) / f"pass1_{i:06d}.npz"


def _base_artifact(workdir, i: int) -> Path:
    return Path(workdir) / f"base_{i:06d}.npy"


def _count_task(task) -> int:
    """Pass 1: the per-cell key histogram of chunk ``i``, to disk.  A
    NaN/Inf coordinate raises ``ValueError`` here, whatever the
    bounds."""
    ds, i, columns, lo, hi, max_level, workdir = task
    coords = ds.chunk(i, columns)
    if len(coords):
        keys = morton_keys(coords, lo, hi, max_level)
        cells, counts = np.unique(keys, return_counts=True)
    else:
        cells = np.empty(0, dtype=np.uint64)
        counts = np.empty(0, dtype=np.int64)
    _save_npz_atomic(
        _pass1_artifact(workdir, i),
        cells=cells.astype(np.uint64),
        counts=counts.astype(np.int64),
    )
    return i


def _scatter_task(task) -> int:
    """Pass 2: write chunk ``i``'s rows to their final positions."""
    ds, i, columns, lo, hi, max_level, workdir, out_dir = task
    rows = np.asarray(ds.chunk(i), dtype=np.float64)
    if len(rows) == 0:
        return i
    plan = np.load(Path(workdir) / "plan.npz")
    cells = plan["cells"]
    cell_dest = plan["cell_dest"]
    out_rows = int(plan["out_shard_rows"])
    n_total = int(plan["n_particles"])
    base = np.load(_base_artifact(workdir, i))

    keys = morton_keys(rows[:, list(columns)], lo, hi, max_level)
    uq, inv, cnts = np.unique(keys, return_inverse=True, return_counts=True)
    if len(uq) != len(base):
        raise FormatError(
            f"shard {i}: pass-1 artifact covers {len(base)} cells, "
            f"pass 2 sees {len(uq)} -- stale checkpoint work directory?"
        )
    # within-shard arrival rank inside each cell (original-order stable)
    order = np.argsort(inv, kind="stable")
    run_starts = np.cumsum(cnts) - cnts
    ranks = np.empty(len(keys), dtype=np.int64)
    ranks[order] = np.arange(len(keys), dtype=np.int64) - np.repeat(run_starts, cnts)

    gidx = np.searchsorted(cells, uq)
    dest = cell_dest[gidx][inv] + base[inv] + ranks

    w_order = np.argsort(dest, kind="stable")
    sorted_dest = dest[w_order]
    shard_ids = sorted_dest // out_rows
    cut = np.flatnonzero(np.diff(shard_ids)) + 1
    starts = np.concatenate([[0], cut])
    ends = np.concatenate([cut, [len(sorted_dest)]])
    src = rows[w_order]
    for a, b in zip(starts, ends):
        o = int(shard_ids[a])
        o_rows = min(out_rows, n_total - o * out_rows)
        mm = np.memmap(
            Path(out_dir) / shard_name(o), dtype="<f8", mode="r+", shape=(o_rows, 6)
        )
        mm[sorted_dest[a:b] - o * out_rows] = src[a:b]
        mm.flush()
        _evict_pages(mm._mmap)
        count("store_shard_write")
    return i


def _run_steps(fn, ids, task_of, workers, ck, stage, label) -> list:
    """Run ``fn(task_of(i))`` for every id in ``ids`` the checkpoint has
    not recorded under ``stage``, in one :func:`run_shards` call.  Each
    task returns its id, which is recorded as its result is collected
    (in id order), so a killed run keeps every collected shard.  Returns
    the ids run."""
    pending = [i for i in ids if ck is None or not ck.has_step(stage, i)]
    record = None if ck is None else (lambda _task, i: ck.record_step(stage, i))
    run_shards(
        fn, [task_of(i) for i in pending], workers=workers, label=label,
        on_result=record,
    )
    return pending


# ----------------------------------------------------------------------
# the plan: merge histograms, build the node table, assign destinations
def _merge_histograms(workdir, n_shards):
    """Stream the pass-1 artifacts into the global (cells, counts)."""
    cells = np.empty(0, dtype=np.uint64)
    counts = np.empty(0, dtype=np.int64)
    for i in range(n_shards):
        with np.load(_pass1_artifact(workdir, i)) as d:
            u_s = d["cells"].astype(np.uint64)
            c_s = d["counts"].astype(np.int64)
        if len(u_s) == 0:
            continue
        if len(cells) == 0:
            cells, counts = u_s, c_s
            continue
        merged, inv = np.unique(np.concatenate([cells, u_s]), return_inverse=True)
        acc = np.zeros(len(merged), dtype=np.int64)
        # both halves hold unique keys, so each fancy add hits distinct slots
        acc[inv[: len(cells)]] += counts
        acc[inv[len(cells) :]] += c_s
        cells, counts = merged, acc
    return cells, counts


def _build_plan(
    workdir, n_shards, lo, hi, max_level, capacity, n_particles, out_rows,
    plot_type, step, min_level=0,
):
    """Merge pass-1 histograms into the node table + scatter plan."""
    cells, counts = _merge_histograms(workdir, n_shards)
    if int(counts.sum()) != int(n_particles):
        raise FormatError(
            f"pass-1 histograms cover {int(counts.sum())} particles, "
            f"dataset holds {n_particles} -- stale work directory?"
        )
    nodes_sorted, cell_dest = partition_plan(
        cells, counts, lo, hi, max_level, capacity, min_level
    )
    _save_npz_atomic(
        Path(workdir) / "plan.npz",
        cells=cells,
        cell_dest=cell_dest,
        out_shard_rows=np.int64(out_rows),
        n_particles=np.int64(n_particles),
    )
    write_nodes_file(
        Path(workdir) / NODES_FILE,
        nodes_sorted, n_particles, max_level, capacity, step, lo, hi, plot_type,
    )

    # per-(shard, cell) bases: how many particles of each cell arrived
    # from earlier shards -- a single sequential sweep
    running = np.zeros(len(cells), dtype=np.int64)
    for i in range(n_shards):
        with np.load(_pass1_artifact(workdir, i)) as d:
            u_s = d["cells"].astype(np.uint64)
            c_s = d["counts"].astype(np.int64)
        gidx = np.searchsorted(cells, u_s)
        _save_npy_atomic(_base_artifact(workdir, i), running[gidx].copy())
        running[gidx] += c_s


# ----------------------------------------------------------------------
def _resolve_bounds(ds, columns, lo, hi, ck):
    """Global octree bounds by the in-core rule (:func:`octree_bounds`);
    the data range is read chunk-wise (bitwise equal to the global
    min/max) and kept in the checkpoint."""

    def data_range():
        if ck is not None and ck.done("bounds"):
            meta = ck.meta("bounds")
            return meta["dlo"], meta["dhi"]
        dlo, dhi = ds.bounds(columns)
        if ck is not None:
            ck.mark_done(
                "bounds", dlo=[float(v) for v in dlo], dhi=[float(v) for v in dhi]
            )
        return dlo, dhi

    return octree_bounds(lo, hi, data_range)


def _prepare_output(out_dir, n_particles, out_rows) -> int:
    """Pre-size the output shard files (sparse); returns shard count."""
    n_out = max(1, -(-n_particles // out_rows))
    for o in range(n_out):
        rows_o = min(out_rows, n_particles - o * out_rows)
        path = Path(out_dir) / shard_name(o)
        size = rows_o * _ROW_BYTES
        if not path.exists() or path.stat().st_size != size:
            with open(path, "wb") as f:
                f.truncate(size)
    return n_out


def partition_store(
    data,
    out,
    plot_type: str = "xyz",
    *,
    max_level: int = 6,
    capacity: int = 64,
    lo=None,
    hi=None,
    step=None,
    workers: int = 1,
    shard_rows: int = None,
    checkpoint_dir=None,
    min_level: int = 0,
) -> PartitionedStore:
    """Partition a dataset out-of-core into a :class:`PartitionedStore`.

    ``data`` is anything :func:`repro.core.dataset.as_dataset` accepts
    (an ``(N, 6)`` array, a :class:`ShardedStore`, any dataset); the
    result lands in directory ``out`` as a sharded store of the
    density-sorted particle file plus the node table, **bit-identical**
    to what the in-core ``partition`` would produce for the same frame
    (see the module docstring for why).

    ``workers > 1`` fans the per-shard passes out through
    :func:`repro.core.executor.run_shards` when ``data`` is itself a
    sharded store (other backends run serially -- their bytes live in
    this process anyway); either way each shard runs the same task and
    is read CRC-checked.  ``checkpoint_dir`` makes the whole two-pass
    run resumable at per-shard granularity; a re-run after a crash
    (including a torn shard-artifact write) redoes only the shards not
    recorded as finished.  ``shard_rows`` sizes the output shards
    (default: the input store's, else :data:`DEFAULT_SHARD_ROWS`).
    ``min_level`` forces subdivision of non-empty regions down to that
    level even below ``capacity`` -- the forest partition's
    octant-alignment guarantee (see :mod:`repro.octree.forest`).
    """
    ds = as_dataset(data)
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    ck = Checkpoint(checkpoint_dir) if checkpoint_dir is not None else None
    if ck is not None and ck.done("finalize"):
        count("checkpoint_stages_resumed")
        return PartitionedStore.open(out)

    n = ds.n_particles
    check_build(n, max_level, capacity)
    columns = plot_columns(plot_type)
    if step is None:
        step = ds.step
    is_store = isinstance(ds, ShardedStore)
    if shard_rows is None:
        shard_rows = ds.shard_rows if is_store else DEFAULT_SHARD_ROWS
    out_rows = int(shard_rows)
    if not is_store:
        workers = 1
    n_shards = ds.n_chunks
    workdir = ck.path("stream_work") if ck is not None else out / "_work"
    Path(workdir).mkdir(parents=True, exist_ok=True)

    with span("stream_partition_pass", which="bounds"):
        lo, hi = _resolve_bounds(ds, columns, lo, hi, ck)

    # ---- pass 1: per-shard cell histograms -----------------------------
    if ck is None or not ck.done("pass1"):
        count("stream_partition_pass")
        with span("stream_partition_pass", which="count", shards=n_shards):
            _run_steps(
                _count_task, range(n_shards),
                lambda i: (ds, i, columns, lo, hi, int(max_level), workdir),
                workers, ck, "pass1", "stream_pass1",
            )
        if ck is not None:
            ck.mark_done("pass1", n_shards=n_shards)

    # ---- plan: leaves, densities, destinations -------------------------
    if ck is None or not ck.done("plan"):
        with span("stream_partition_pass", which="plan"):
            _build_plan(
                workdir, n_shards, lo, hi, int(max_level), int(capacity),
                n, out_rows, plot_type, int(step), int(min_level),
            )
        if ck is not None:
            ck.mark_done("plan")

    # ---- pass 2: scatter into the output shards ------------------------
    if ck is None or not ck.done("pass2"):
        count("stream_partition_pass")
        with span("stream_partition_pass", which="scatter", shards=n_shards):
            _prepare_output(out, n, out_rows)
            _run_steps(
                _scatter_task, range(n_shards),
                lambda i: (ds, i, columns, lo, hi, int(max_level), workdir, out),
                workers, ck, "pass2", "stream_pass2",
            )
        if ck is not None:
            ck.mark_done("pass2")

    # ---- finalize: CRCs + node table + manifest (the commit point) -----
    with span("stream_partition_pass", which="finalize"):
        n_out = max(1, -(-n // out_rows))
        entries = []
        for o in range(n_out):
            raw = (out / shard_name(o)).read_bytes()
            entries.append({"rows": len(raw) // _ROW_BYTES, "crc32": zlib.crc32(raw)})
        nodes_sorted = read_nodes_file(Path(workdir) / NODES_FILE)[0]
        write_nodes_file(
            out / NODES_FILE,
            nodes_sorted, n, max_level, capacity, int(step), lo, hi, plot_type,
        )
        write_manifest(out, entries, out_rows, int(step))
    if ck is not None:
        ck.mark_done("finalize")
    else:
        shutil.rmtree(workdir, ignore_errors=True)

    count("particles_routed", n)
    count("octree_nodes", len(nodes_sorted))
    gauge_peak_rss()
    return PartitionedStore.open(out)
