"""Particle frame I/O.

The simulation's on-disk unit is a *frame*: all particles of one time
step as contiguous little-endian float64, six values per particle --
the layout whose sheer size (5 GB per 100 M-particle step, 48 GB for
the billion-particle step) motivates the whole hybrid pipeline.

A tiny fixed header makes frames self-describing:

    bytes 0..7    magic  b"RPRFRAME"
    bytes 8..15   uint64 particle count
    bytes 16..23  uint64 time-step index
    bytes 24..    particle payload (n * 6 float64)
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

from repro.core.errors import FormatError

__all__ = [
    "write_frame",
    "read_frame",
    "read_frame_mmap",
    "frame_to_store",
    "frame_path",
    "frame_nbytes",
    "FrameWriter",
]

MAGIC = b"RPRFRAME"
_HEADER = struct.Struct("<8sQQ")


def frame_nbytes(n_particles: int) -> int:
    """On-disk size of a frame with ``n_particles`` particles."""
    return _HEADER.size + int(n_particles) * 6 * 8


def write_frame(path, particles: np.ndarray, step: int = 0) -> int:
    """Write one frame; returns bytes written."""
    particles = np.ascontiguousarray(particles, dtype="<f8")
    if particles.ndim != 2 or particles.shape[1] != 6:
        raise ValueError("particles must be (N, 6)")
    with open(path, "wb") as f:
        f.write(_HEADER.pack(MAGIC, particles.shape[0], int(step)))
        f.write(particles.tobytes())
    return frame_nbytes(particles.shape[0])


def _read_header(path, f):
    """(particle count, step) from an open frame file; raises
    :class:`FormatError` for a short header, a wrong magic, or a file
    shorter than the header's count."""
    head = f.read(_HEADER.size)
    if len(head) < _HEADER.size:
        raise FormatError(
            f"{path}: truncated frame header ({len(head)} of {_HEADER.size} bytes)"
        )
    magic, n, step = _HEADER.unpack(head)
    if magic != MAGIC:
        raise FormatError(f"{path}: not a particle frame file")
    size = os.fstat(f.fileno()).st_size
    if size < frame_nbytes(n):
        raise FormatError(
            f"{path}: truncated frame (expected {n} particles, "
            f"{frame_nbytes(n)} bytes; the file holds {size})"
        )
    return n, step


def read_frame(path):
    """Read one frame; returns (particles (N, 6), step)."""
    with open(path, "rb") as f:
        n, step = _read_header(path, f)
        payload = f.read(n * 6 * 8)
    particles = np.frombuffer(payload, dtype="<f8").reshape(n, 6).copy()
    return particles, step


def read_frame_mmap(path):
    """Memory-map a frame's particle payload without loading it.

    Returns (particles (N, 6) read-only memmap, step).  This is the
    right access path for the paper-scale frames (5 GB each at 100 M
    particles): the partitioning program streams the array without
    holding it in RAM, and slicing reads only the touched pages.  The
    header and the file size are checked before mapping.
    """
    with open(path, "rb") as f:
        n, step = _read_header(path, f)
    particles = np.memmap(
        path, dtype="<f8", mode="r", offset=_HEADER.size, shape=(n, 6)
    )
    return particles, step


def frame_to_store(path, out, shard_rows: int | None = None):
    """Convert one ``.frame`` file into a sharded out-of-core store.

    The frame payload is memory-mapped and re-chunked shard by shard
    (:class:`repro.core.store.StoreWriter`), so peak RSS stays at one
    shard regardless of the frame's size; the frame's step index is
    carried into the store manifest.  Returns the opened
    :class:`repro.core.store.ShardedStore`.
    """
    from repro.core.store import DEFAULT_SHARD_ROWS, create_store

    particles, step = read_frame_mmap(path)
    return create_store(
        out, particles,
        shard_rows=DEFAULT_SHARD_ROWS if shard_rows is None else int(shard_rows),
        step=step,
    )


def frame_path(directory, step: int) -> Path:
    """Canonical frame file name within a run directory."""
    return Path(directory) / f"step_{step:06d}.frame"


class FrameWriter:
    """Writes frames of a run into a directory, tracking totals.

    Mirrors how the paper's simulations stream time steps to disk; the
    accumulated ``total_bytes`` feeds the storage-accounting benches.
    """

    def __init__(self, directory):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.steps_written: list[int] = []
        self.total_bytes = 0

    def write(self, particles: np.ndarray, step: int) -> Path:
        path = frame_path(self.directory, step)
        self.total_bytes += write_frame(path, particles, step)
        self.steps_written.append(int(step))
        return path

    def read(self, step: int) -> np.ndarray:
        particles, stored = read_frame(frame_path(self.directory, step))
        if stored != step:
            raise ValueError(f"frame claims step {stored}, expected {step}")
        return particles

    def __len__(self) -> int:
        return len(self.steps_written)
