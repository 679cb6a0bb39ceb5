"""The node-table codec of a partitioned store.

"This octree is written out to disk in two parts: one part contains
all the particles of the simulation, the other contains the octree
nodes themselves."  A partitioned store directory
(:class:`repro.octree.stream_partition.PartitionedStore`) keeps that
split: the density-sorted particle file is its sharded store, and the
octree nodes are the ``partition.nodes`` file this module reads and
writes.  The node file also carries the build metadata (plot type,
bounds, levels).

The file is written atomically (temp file + ``os.replace``, see
:mod:`repro.core.atomic`): a process killed mid-save never leaves a
torn file.  Reads validate magic, version, payload size and the node
table itself, and raise :class:`repro.core.errors.FormatError` on
damage instead of numpy decode noise or a later, unrelated failure.

Node file layout (little-endian):

    bytes 0..7   magic b"RPRNODES"
    u16          format version (2)
    header       struct: n_nodes u64, n_particles u64, max_level u32,
                 capacity u32, step u64, lo 3xf8, hi 3xf8,
                 plot type 16 bytes NUL padded
    payload      NODE_DTYPE records
"""

from __future__ import annotations

import struct

import numpy as np

from repro.core.atomic import atomic_write_bytes
from repro.core.errors import FormatError
from repro.octree.octree import NODE_DTYPE

__all__ = ["write_nodes_file", "read_nodes_file", "FORMAT_VERSION"]

NODES_MAGIC = b"RPRNODES"
FORMAT_VERSION = 2
_NODES_HEADER = struct.Struct("<8sHQQIIQ3d3d16s")


def _check_node_table(nodes: np.ndarray, n_particles: int, source) -> None:
    """Raise :class:`FormatError` naming ``source`` unless the node
    table tiles an ``n_particles`` particle file in increasing density.

    Node counts must sum to ``n_particles``, each node's ``start`` must
    follow the previous node's group contiguously, and densities must
    be non-decreasing -- the properties prefix extraction relies on.
    """
    counts = nodes["count"].astype(np.int64)
    starts = nodes["start"].astype(np.int64)
    total = int(counts.sum())
    if total != int(n_particles):
        raise FormatError(
            f"{source}: node counts cover {total} particles, "
            f"expected {int(n_particles)}"
        )
    if np.any(starts != np.cumsum(counts) - counts):
        raise FormatError(f"{source}: nodes do not tile the particle file contiguously")
    if not np.all(np.diff(nodes["density"]) >= 0):
        raise FormatError(f"{source}: nodes are not sorted by increasing density")


def write_nodes_file(
    path,
    nodes: np.ndarray,
    n_particles: int,
    max_level: int,
    capacity: int,
    step: int,
    lo,
    hi,
    plot_type: str,
) -> int:
    """Atomically write one RPRNODES file; returns bytes written."""
    name = plot_type.encode("ascii")[:16].ljust(16, b"\0")
    header = _NODES_HEADER.pack(
        NODES_MAGIC,
        FORMAT_VERSION,
        len(nodes),
        int(n_particles),
        int(max_level),
        int(capacity),
        int(step),
        *(float(v) for v in lo),
        *(float(v) for v in hi),
        name,
    )
    nodes = np.ascontiguousarray(nodes, dtype=NODE_DTYPE)
    return atomic_write_bytes(path, header + nodes.tobytes())


def read_nodes_file(path):
    """Read and check one RPRNODES file.

    Returns ``(nodes, n_particles, max_level, capacity, step, lo, hi,
    plot_type)``; raises :class:`FormatError` on damage, including a
    node table that fails :func:`_check_node_table`.
    """
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < _NODES_HEADER.size:
        raise FormatError(f"{path}: truncated node-file header")
    fields = _NODES_HEADER.unpack_from(raw, 0)
    if fields[0] != NODES_MAGIC:
        raise FormatError(f"{path}: not a partition nodes file")
    if fields[1] != FORMAT_VERSION:
        raise FormatError(
            f"{path}: unsupported format version {fields[1]} "
            f"(expected {FORMAT_VERSION})"
        )
    n_nodes, n_particles, max_level, capacity, step = fields[2:7]
    expected = _NODES_HEADER.size + n_nodes * NODE_DTYPE.itemsize
    if len(raw) < expected:
        raise FormatError(
            f"{path}: truncated payload ({len(raw)} bytes, "
            f"{expected} expected for {n_nodes} nodes)"
        )
    lo = np.array(fields[7:10])
    hi = np.array(fields[10:13])
    plot_type = fields[13].rstrip(b"\0").decode("ascii")
    nodes = np.frombuffer(
        raw, dtype=NODE_DTYPE, count=n_nodes, offset=_NODES_HEADER.size
    ).copy()
    _check_node_table(nodes, n_particles, path)
    return nodes, n_particles, max_level, capacity, step, lo, hi, plot_type
