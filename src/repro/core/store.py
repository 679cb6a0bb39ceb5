"""Sharded, memory-mapped, chunk-addressable particle store.

The paper's frames reach 5 GB per 100 M-particle step (48 GB at a
billion particles) -- far beyond a single in-RAM array.  This module
is the out-of-core substrate the streaming pipeline consumes: one
particle frame becomes a *store directory* of fixed-size shard files
plus a JSON manifest, and every downstream stage (two-pass
partitioning, extraction, rendering) iterates shards instead of
loading the monolithic array.

On-disk layout::

    store_dir/
      store.json          manifest (atomic): version, row counts, step,
                          per-shard rows + CRC32 of the payload
      shard_000000.bin    raw little-endian float64 (rows, 6) payload
      shard_000001.bin    ...

Shard payloads are header-less so :func:`numpy.memmap` can address
them directly; all integrity metadata (magic, version, sizes, CRCs)
lives in the manifest, which is written atomically
(:func:`repro.core.atomic.atomic_write_bytes`) as the commit point of
every store mutation.  A damaged manifest, a missing or short shard
file, or a payload whose CRC32 disagrees with the manifest raises a
typed :class:`repro.core.errors.FormatError` -- the same failure
vocabulary as every other on-disk format of the package.

Reads are visible in a trace: every shard read bumps the
``store_shard_read`` counter and adds the bytes it copied out (whole
shard, or the rows a prefix touched) to
``store_shard_read_bytes``; every shard written bumps ``store_shard_write``.
"""

from __future__ import annotations

import json
import mmap
import zlib
from pathlib import Path

import numpy as np

from repro.core.atomic import atomic_write_bytes
from repro.core.errors import FormatError
from repro.core.trace import count

__all__ = [
    "ShardedStore",
    "StoreWriter",
    "create_store",
    "is_store_dir",
    "attach_lod_manifest",
    "DEFAULT_SHARD_ROWS",
]

MANIFEST_NAME = "store.json"
STORE_MAGIC = "RPRSTORE"
# v1: shards only.  v2 adds an optional "lod" section registering the
# level-of-detail side files (see repro.octree.lod; the section carries
# its own format version).  v1 stores open unchanged -- the section is
# simply absent.
STORE_VERSION = 2
SUPPORTED_STORE_VERSIONS = (1, 2)
DEFAULT_SHARD_ROWS = 262_144           # 12 MB of float64 particles
_ROW_BYTES = 6 * 8


def shard_name(i: int) -> str:
    """Canonical shard file name within a store directory."""
    return f"shard_{int(i):06d}.bin"


def is_store_dir(path) -> bool:
    """Does ``path`` look like a sharded particle store directory?"""
    return Path(path).is_dir() and (Path(path) / MANIFEST_NAME).is_file()


def _evict_pages(mm) -> None:
    """Best-effort: drop a memory map's resident pages back to the OS.

    Keeps the streaming pipeline's RSS bounded when a pass touches
    every shard; harmless no-op where ``madvise`` is unavailable.
    """
    try:
        mm.madvise(mmap.MADV_DONTNEED)
    except (AttributeError, ValueError, OSError):
        pass


class ShardedStore:
    """A read-opened sharded particle store.

    Implements the :class:`repro.core.dataset.ParticleDataset`
    protocol (``n_particles`` / ``n_chunks`` / ``chunk`` / ``chunks``
    / ``bounds`` / ``to_array``), with one chunk per shard, so
    ``partition(store, ...)`` consumes it directly.
    """

    def __init__(self, directory, manifest: dict):
        self.directory = Path(directory)
        self._manifest = manifest
        self._shards = manifest["shards"]
        self._starts = np.concatenate(
            [[0], np.cumsum([int(s["rows"]) for s in self._shards])]
        ).astype(np.int64)

    # ------------------------------------------------------------------
    @classmethod
    def open(cls, directory) -> "ShardedStore":
        """Open and validate an existing store directory."""
        directory = Path(directory)
        manifest_path = directory / MANIFEST_NAME
        if not manifest_path.is_file():
            raise FormatError(f"{directory}: not a sharded store (no {MANIFEST_NAME})")
        try:
            manifest = json.loads(manifest_path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise FormatError(f"{manifest_path}: unreadable store manifest ({exc})") from exc
        if manifest.get("magic") != STORE_MAGIC:
            raise FormatError(f"{manifest_path}: not a store manifest")
        if manifest.get("version") not in SUPPORTED_STORE_VERSIONS:
            raise FormatError(
                f"{manifest_path}: unsupported store version {manifest.get('version')!r}"
            )
        store = cls(directory, manifest)
        declared = sum(int(s["rows"]) for s in manifest["shards"])
        if declared != int(manifest["n_particles"]):
            raise FormatError(
                f"{manifest_path}: shard rows sum to {declared}, manifest "
                f"declares {manifest['n_particles']} particles"
            )
        for i, entry in enumerate(manifest["shards"]):
            path = store.shard_path(i)
            expected = int(entry["rows"]) * _ROW_BYTES
            try:
                actual = path.stat().st_size
            except OSError:
                raise FormatError(f"{path}: missing shard file") from None
            if actual != expected:
                raise FormatError(
                    f"{path}: shard is {actual} bytes, manifest expects {expected}"
                )
        return store

    # ------------------------------------------------------------------
    @property
    def n_particles(self) -> int:
        return int(self._manifest["n_particles"])

    @property
    def n_shards(self) -> int:
        return len(self._shards)

    # dataset protocol: one chunk per shard
    @property
    def n_chunks(self) -> int:
        return self.n_shards

    @property
    def shard_rows(self) -> int:
        return int(self._manifest["shard_rows"])

    @property
    def step(self) -> int:
        return int(self._manifest.get("step", 0))

    def nbytes(self) -> int:
        """Total payload bytes across all shards."""
        return self.n_particles * _ROW_BYTES

    def shard_path(self, i: int) -> Path:
        return self.directory / shard_name(i)

    def shard_start(self, i: int) -> int:
        """Global row index of shard ``i``'s first particle."""
        return int(self._starts[i])

    def shard_rows_of(self, i: int) -> int:
        return int(self._shards[i]["rows"])

    # ------------------------------------------------------------------
    def shard(self, i: int) -> np.memmap:
        """Memory-map shard ``i`` read-only as a (rows, 6) array.

        The map addresses the shard without loading it; slicing reads
        only the touched pages.  CRC validation is *not* performed on
        this path (it would read the whole shard) -- use
        :meth:`read_shard` or :meth:`verify` for checked reads.
        """
        rows = self.shard_rows_of(i)
        count("store_shard_read")
        if rows == 0:
            return np.empty((0, 6), dtype=np.float64)
        return np.memmap(self.shard_path(i), dtype="<f8", mode="r", shape=(rows, 6))

    def read_shard(self, i: int, verify: bool = True) -> np.ndarray:
        """Read shard ``i`` fully into RAM, checking its CRC32.

        Raises :class:`FormatError` if the payload does not match the
        manifest (bit rot, torn copy, truncation).
        """
        entry = self._shards[i]
        rows = int(entry["rows"])
        path = self.shard_path(i)
        with open(path, "rb") as f:
            raw = f.read()
        if len(raw) != rows * _ROW_BYTES:
            raise FormatError(
                f"{path}: shard is {len(raw)} bytes, manifest expects {rows * _ROW_BYTES}"
            )
        if verify:
            crc = zlib.crc32(raw)
            if crc != int(entry["crc32"]):
                raise FormatError(
                    f"{path}: shard CRC mismatch (payload {crc:#010x}, "
                    f"manifest {int(entry['crc32']):#010x})"
                )
        count("store_shard_read")
        count("store_shard_read_bytes", len(raw))
        return np.frombuffer(raw, dtype="<f8").reshape(rows, 6)

    def verify(self) -> None:
        """Check every shard's CRC32 against the manifest."""
        for i in range(self.n_shards):
            self.read_shard(i, verify=True)

    # ------------------------------------------------------------------
    def chunk(self, i: int, columns=None) -> np.ndarray:
        """Dataset-protocol chunk ``i``: shard ``i``'s rows (optionally
        restricted to the given column indices), CRC-checked."""
        rows = self.read_shard(i)
        if columns is None:
            return rows
        return rows[:, list(columns)]

    def chunks(self, columns=None):
        """Iterate all shards in order as in-RAM arrays."""
        for i in range(self.n_shards):
            yield self.chunk(i, columns)

    def bounds(self, columns=None):
        """Streaming (min, max) over the selected columns."""
        lo = hi = None
        for chunk in self.chunks(columns):
            if len(chunk) == 0:
                continue
            clo = chunk.min(axis=0)
            chi = chunk.max(axis=0)
            lo = clo if lo is None else np.minimum(lo, clo)
            hi = chi if hi is None else np.maximum(hi, chi)
        if lo is None:
            raise ValueError("store holds no particles")
        return lo, hi

    def read_rows(self, start: int, stop: int) -> np.ndarray:
        """Read the half-open global row range [start, stop) -- the
        halo-prefix access path of streaming extraction.  Reads only
        the shards the range touches, through their memory maps."""
        start = max(0, int(start))
        stop = min(self.n_particles, int(stop))
        if stop <= start:
            return np.empty((0, 6), dtype=np.float64)
        out = np.empty((stop - start, 6), dtype=np.float64)
        filled = 0
        first = int(np.searchsorted(self._starts, start, side="right")) - 1
        for i in range(first, self.n_shards):
            s0 = self.shard_start(i)
            if s0 >= stop:
                break
            a = max(start - s0, 0)
            b = min(stop - s0, self.shard_rows_of(i))
            if b <= a:
                continue
            mm = self.shard(i)
            out[filled : filled + (b - a)] = mm[a:b]
            count("store_shard_read_bytes", (b - a) * _ROW_BYTES)
            if isinstance(mm, np.memmap):
                _evict_pages(mm._mmap)
            filled += b - a
        return out

    @property
    def lod_manifest(self) -> dict | None:
        """The manifest's ``lod`` section (None when no LOD hierarchy
        has been built for this store)."""
        return self._manifest.get("lod")

    def to_array(self) -> np.ndarray:
        """Materialize the whole store as one in-RAM (N, 6) array.

        Explicitly defeats the out-of-core design -- it exists so the
        legacy in-core code paths can consume a store when the caller
        knows it fits."""
        return self.read_rows(0, self.n_particles)

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (
            f"ShardedStore({str(self.directory)!r}, n_particles={self.n_particles}, "
            f"n_shards={self.n_shards})"
        )


class StoreWriter:
    """Streaming writer building a sharded store chunk by chunk.

    ``append`` takes arbitrarily sized (n, 6) row blocks and re-chunks
    them into fixed-size shards; each full shard is written atomically
    with its CRC32 recorded, and :meth:`finalize` writes the manifest
    as the commit point.  A process killed mid-build leaves either no
    manifest (the store does not exist yet) or the complete previous
    one -- never a half-registered store.
    """

    def __init__(self, directory, shard_rows: int = DEFAULT_SHARD_ROWS, step: int = 0):
        if shard_rows < 1:
            raise ValueError("shard_rows must be >= 1")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.shard_rows = int(shard_rows)
        self.step = int(step)
        self._entries: list[dict] = []
        self._buffer: list[np.ndarray] = []
        self._buffered = 0
        self._finalized = False

    # ------------------------------------------------------------------
    def append(self, rows: np.ndarray) -> None:
        """Buffer a block of particle rows (any length, 6 columns)."""
        rows = np.ascontiguousarray(rows, dtype="<f8")
        if rows.ndim != 2 or rows.shape[1] != 6:
            raise ValueError("rows must be (N, 6)")
        self._buffer.append(rows)
        self._buffered += len(rows)
        while self._buffered >= self.shard_rows:
            self._flush_shard(self.shard_rows)

    def _flush_shard(self, rows: int) -> None:
        take, taken = [], 0
        while taken < rows:
            head = self._buffer[0]
            need = rows - taken
            if len(head) <= need:
                take.append(head)
                taken += len(head)
                self._buffer.pop(0)
            else:
                take.append(head[:need])
                self._buffer[0] = head[need:]
                taken += need
        payload = np.concatenate(take) if len(take) > 1 else take[0]
        raw = np.ascontiguousarray(payload, dtype="<f8").tobytes()
        path = self.directory / shard_name(len(self._entries))
        atomic_write_bytes(path, raw)
        count("store_shard_write")
        self._entries.append({"rows": int(rows), "crc32": int(zlib.crc32(raw))})
        self._buffered -= rows

    def finalize(self) -> ShardedStore:
        """Flush the tail shard, commit the manifest, open the store."""
        if self._finalized:
            raise RuntimeError("store already finalized")
        if self._buffered:
            self._flush_shard(self._buffered)
        write_manifest(self.directory, self._entries, self.shard_rows, self.step)
        self._finalized = True
        return ShardedStore.open(self.directory)


def write_manifest(directory, entries: list, shard_rows: int, step: int = 0) -> Path:
    """Atomically commit a store manifest for already-written shards."""
    directory = Path(directory)
    manifest = {
        "magic": STORE_MAGIC,
        "version": STORE_VERSION,
        "n_particles": int(sum(int(e["rows"]) for e in entries)),
        "shard_rows": int(shard_rows),
        "step": int(step),
        "shards": [{"rows": int(e["rows"]), "crc32": int(e["crc32"])} for e in entries],
    }
    path = directory / MANIFEST_NAME
    atomic_write_bytes(path, json.dumps(manifest, indent=1).encode())
    return path


def attach_lod_manifest(directory, lod: dict | None) -> Path:
    """Re-commit a store manifest with an ``lod`` section (or drop it).

    The manifest write is the commit point of an LOD build: the side
    files are written first, then this atomically registers them (and
    upgrades a v1 manifest to v2).  A crash mid-build leaves stray
    ``lod_*`` files but a manifest without the section -- the store
    simply has no hierarchy.  Passing ``None`` detaches the section.
    """
    directory = Path(directory)
    path = directory / MANIFEST_NAME
    try:
        manifest = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: unreadable store manifest ({exc})") from exc
    if manifest.get("magic") != STORE_MAGIC:
        raise FormatError(f"{path}: not a store manifest")
    if lod is None:
        manifest.pop("lod", None)
    else:
        manifest["lod"] = lod
    manifest["version"] = STORE_VERSION
    atomic_write_bytes(path, json.dumps(manifest, indent=1).encode())
    return path


def create_store(
    directory,
    source,
    shard_rows: int = DEFAULT_SHARD_ROWS,
    step: int = 0,
) -> ShardedStore:
    """Build a sharded store from an array or an iterable of row blocks.

    ``source`` may be an in-RAM / memory-mapped (N, 6) array, any
    iterable yielding (n, 6) blocks (a generator keeps peak RAM at one
    block), or an object with ``chunks()`` (a
    :class:`repro.core.dataset.ParticleDataset`).
    """
    writer = StoreWriter(directory, shard_rows=shard_rows, step=step)
    if hasattr(source, "chunks") and not isinstance(source, np.ndarray):
        source = source.chunks()
    if isinstance(source, np.ndarray):
        for a in range(0, len(source), writer.shard_rows):
            writer.append(source[a : a + writer.shard_rows])
            if isinstance(source, np.memmap):
                _evict_pages(source._mmap)
    else:
        for block in source:
            writer.append(block)
    return writer.finalize()
