"""Morton keys, the octree leaf walk and the partition plan.

The octree is *linear* (Burstedde et al.'s forest of octrees): every
particle gets the Morton (bit-interleaved) key of its cell at the
maximal subdivision level, and the adaptive node structure is
recovered from the sorted cell histogram alone.  A node is split while
it holds more than ``capacity`` particles and is above the maximal
subdivision level -- the paper's guard that "prevents the octree from
becoming impractically large".

Every partitioner -- in-core :func:`repro.octree.partition.partition`,
streamed :func:`repro.octree.stream_partition.partition_store` and the
forest's per-brick trees -- resolves its box with
:func:`octree_bounds`, keys its particles with :func:`morton_keys` and
builds its node table with :func:`partition_plan`.

Plot types: the simulation stores six coordinates per particle, so "a
variety of 3-D plots can be generated" (paper section 2.3).  A plot
type names the three columns the octree is built over.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "PLOT_TYPES",
    "plot_columns",
    "check_build",
    "octree_bounds",
    "morton_keys",
    "morton_decode",
    "partition_plan",
    "NODE_DTYPE",
]

# the four distributions shown in the paper's Figure 2
PLOT_TYPES = {
    "xyz": (0, 1, 2),
    "xpxy": (0, 3, 1),
    "xpxz": (0, 3, 2),
    "pxpypz": (3, 4, 5),
}

NODE_DTYPE = np.dtype(
    [
        ("level", "<u1"),      # subdivision level of the node
        ("key", "<u8"),        # Morton prefix at `level`
        ("start", "<u8"),      # offset into the (ordered) particle array
        ("count", "<u8"),      # particles in this node
        ("density", "<f8"),    # count / node volume
    ]
)

MAX_LEVEL_LIMIT = 20  # 3*20 = 60 key bits fit in uint64

_NON_FINITE_COORDS = "coords contain NaN/Inf; clean the frame before partitioning"


def plot_columns(plot_type: str):
    """Resolve a plot-type name to its (3,) column index tuple."""
    try:
        return PLOT_TYPES[plot_type]
    except KeyError:
        raise KeyError(
            f"unknown plot type {plot_type!r}; available: {', '.join(sorted(PLOT_TYPES))}"
        ) from None


def _check_max_level(max_level: int) -> None:
    if not 1 <= max_level <= MAX_LEVEL_LIMIT:
        raise ValueError(f"max_level must be in [1, {MAX_LEVEL_LIMIT}]")


def check_build(n_particles: int, max_level: int, capacity: int) -> None:
    """Raise ``ValueError`` for an empty frame, ``max_level`` out of
    range or ``capacity < 1`` -- every partitioner's check before its
    first pass over the data."""
    if n_particles == 0:
        raise ValueError("octree needs at least one particle")
    _check_max_level(max_level)
    if capacity < 1:
        raise ValueError("capacity must be >= 1")


def octree_bounds(lo, hi, data_range):
    """The octree box: explicit ``lo``/``hi``, else the data's min/max
    padded a hair.

    ``data_range()`` returns the per-axis (min, max) of the plot-type
    coordinates; it is called only when ``lo`` or ``hi`` is ``None``.
    The pad is relative to both the span and the coordinate scale, so
    ``hi > lo`` even for degenerate (single-point) data.  Raises
    ``ValueError`` for a NaN/Inf data range (NaN/Inf coordinates) and
    unless the box is finite with ``hi > lo`` on every axis.
    """
    if lo is None or hi is None:
        dlo, dhi = (np.asarray(v, dtype=np.float64) for v in data_range())
        if not (np.isfinite(dlo).all() and np.isfinite(dhi).all()):
            raise ValueError(_NON_FINITE_COORDS)
        pad = (dhi - dlo) * 1e-9 + (np.abs(dlo) + np.abs(dhi) + 1.0) * 1e-9
        lo = dlo - pad if lo is None else lo
        hi = dhi + pad if hi is None else hi
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise ValueError("lo and hi must be finite (no NaN/Inf)")
    if np.any(hi <= lo):
        raise ValueError("need hi > lo in every axis")
    return lo, hi


def _spread_bits(v: np.ndarray, max_level: int) -> np.ndarray:
    """Insert two zero bits between each bit of v (vectorized)."""
    out = np.zeros_like(v)
    for b in range(max_level):
        out |= ((v >> np.uint64(b)) & np.uint64(1)) << np.uint64(3 * b)
    return out


def _compact_bits(v: np.ndarray, max_level: int) -> np.ndarray:
    """Inverse of :func:`_spread_bits`: keep every third bit of v."""
    out = np.zeros_like(v)
    for b in range(max_level):
        out |= ((v >> np.uint64(3 * b)) & np.uint64(1)) << np.uint64(b)
    return out


def morton_keys(coords: np.ndarray, lo: np.ndarray, hi: np.ndarray, max_level: int) -> np.ndarray:
    """Morton keys of (N, 3) coordinates at ``max_level`` subdivisions.

    Coordinates outside [lo, hi] are clamped to the boundary cells;
    NaN/Inf coordinates raise ``ValueError``.
    Bit layout: key = sum over levels of (octant index) << 3*(level),
    with axis 0 the lowest of each 3-bit group.
    """
    _check_max_level(max_level)
    coords = np.asarray(coords, dtype=np.float64)
    if not np.isfinite(coords).all():
        raise ValueError(_NON_FINITE_COORDS)
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    n_cells = 1 << max_level
    span = np.where(hi - lo <= 0, 1.0, hi - lo)
    rel = (coords - lo) / span
    idx = np.clip((rel * n_cells).astype(np.int64), 0, n_cells - 1).astype(np.uint64)
    key = (
        _spread_bits(idx[:, 0], max_level)
        | (_spread_bits(idx[:, 1], max_level) << np.uint64(1))
        | (_spread_bits(idx[:, 2], max_level) << np.uint64(2))
    )
    return key


def morton_decode(keys, level: int) -> np.ndarray:
    """(N, 3) integer grid indices of ``level``-deep Morton keys: the
    inverse of :func:`morton_keys`' interleave.  A node's prefix has no
    bits past ``3 * level``, so one call at the deepest level present
    decodes nodes of every shallower level too."""
    keys = np.asarray(keys, dtype=np.uint64)
    return np.stack(
        [_compact_bits(keys >> np.uint64(axis), int(level)) for axis in range(3)], axis=-1
    )


def partition_plan(cells, counts, lo, hi, max_level, capacity, min_level=0):
    """The node table and the particle-file layout of one octree.

    ``cells`` are the distinct max-level Morton keys present, ascending,
    and ``counts`` the particles in each.  Returns ``(nodes,
    cell_dest)``: the leaves (``NODE_DTYPE``) stably sorted by
    increasing density, ``start`` their offset in the particle file,
    and each cell's first file position (leaves in density order, cells
    in key order within a leaf).

    One walk finds the leaves, a level at a time: at level ``l`` the
    nodes are the runs of equal key prefix among the cells no coarser
    leaf has claimed, and a run is a leaf when it holds at most
    ``capacity`` particles and ``l >= min_level``, or at ``max_level``.
    ``min_level`` (the forest's octant alignment) forces non-empty
    nodes down to that level whatever their count.
    """
    cells = np.asarray(cells, dtype=np.uint64)
    counts = np.asarray(counts, dtype=np.int64)
    live = np.arange(len(cells))
    found = []
    for level in range(int(max_level) + 1):
        prefix = cells[live] >> np.uint64(3 * (int(max_level) - level))
        head = np.flatnonzero(np.concatenate([[True], prefix[1:] != prefix[:-1]]))
        total = np.add.reduceat(counts[live], head)
        run = np.diff(np.append(head, len(live)))
        leaf = ((total <= capacity) & (level >= min_level)) | (level == max_level)
        found.append((np.full(int(leaf.sum()), level), prefix[head[leaf]],
                      live[head[leaf]], run[leaf], total[leaf]))
        live = live[np.repeat(~leaf, run)]
        if len(live) == 0:
            break
    level, key, first, span, total = (np.concatenate(col) for col in zip(*found))

    # leaves are disjoint cell ranges, so their Morton (depth-first)
    # order is the order of their first cell
    morton = np.argsort(first)
    nodes = np.empty(len(morton), dtype=NODE_DTYPE)
    nodes["level"] = level[morton]
    nodes["key"] = key[morton]
    nodes["count"] = total[morton]
    root_volume = float(np.prod(np.asarray(hi) - np.asarray(lo)))
    vol = root_volume / (8.0 ** nodes["level"].astype(np.float64))
    nodes["density"] = nodes["count"] / vol

    density_order = np.argsort(nodes["density"], kind="stable")
    nodes = nodes[density_order]
    sorted_counts = nodes["count"].astype(np.int64)
    start = np.cumsum(sorted_counts) - sorted_counts
    nodes["start"] = start.astype(np.uint64)

    # a leaf's cells follow its start in key order; walk the leaves in
    # Morton order, which is cell order
    start_morton = np.empty(len(nodes), dtype=np.int64)
    start_morton[density_order] = start
    before = np.cumsum(counts) - counts
    first = first[morton]
    cell_dest = before + np.repeat(start_morton - before[first], span[morton])
    return nodes, cell_dest
