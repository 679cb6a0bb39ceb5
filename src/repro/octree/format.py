"""The node-table codec of a partitioned store.

"This octree is written out to disk in two parts: one part contains
all the particles of the simulation, the other contains the octree
nodes themselves."  A partitioned store directory
(:class:`repro.octree.stream_partition.PartitionedStore`) keeps that
split: the density-sorted particle file is its sharded store, and the
octree nodes are the ``partition.nodes`` file this module reads and
writes.  The node file also carries the build metadata (plot type,
bounds, levels).

The file is a :class:`repro.core.atomic.CheckedFile` (magic
b"RPRNODES", version 3): written atomically, and CRC-checked on read,
so a damaged, truncated or foreign file raises
:class:`repro.core.errors.FormatError` naming it.  Reads then check the
node table itself, which a CRC cannot vouch for.

Payload layout (little-endian):

    header       struct: n_particles u64, max_level u32, capacity u32,
                 step u64, lo 3xf8, hi 3xf8, plot type 16 bytes NUL
                 padded
    nodes        NODE_DTYPE records, to the end of the payload
"""

from __future__ import annotations

import struct

import numpy as np

from repro.core.atomic import CheckedFile
from repro.core.errors import FormatError
from repro.octree.octree import NODE_DTYPE

__all__ = ["write_nodes_file", "read_nodes_file"]

_NODES = CheckedFile(b"RPRNODES", 3, "partition nodes", "repro partition")
_NODES_HEADER = struct.Struct("<QIIQ3d3d16s")


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
    """Atomically write one node file; returns bytes written."""
    name = plot_type.encode("ascii")[:16].ljust(16, b"\0")
    header = _NODES_HEADER.pack(
        int(n_particles),
        int(max_level),
        int(capacity),
        int(step),
        *(float(v) for v in lo),
        *(float(v) for v in hi),
        name,
    )
    nodes = np.ascontiguousarray(nodes, dtype=NODE_DTYPE)
    return _NODES.write(path, header + nodes.tobytes())


def read_nodes_file(path):
    """Read and check one node file.

    Returns ``(nodes, n_particles, max_level, capacity, step, lo, hi,
    plot_type)``; raises :class:`FormatError` on damage, including a
    node table that fails :func:`_check_node_table`.
    """
    raw = _NODES.read(path)
    fields = _NODES_HEADER.unpack_from(raw, 0)
    n_particles, max_level, capacity, step = fields[:4]
    lo = np.array(fields[4:7])
    hi = np.array(fields[7:10])
    plot_type = fields[10].rstrip(b"\0").decode("ascii")
    nodes = np.frombuffer(raw, dtype=NODE_DTYPE, offset=_NODES_HEADER.size).copy()
    _check_node_table(nodes, n_particles, path)
    return nodes, n_particles, max_level, capacity, step, lo, hi, plot_type
