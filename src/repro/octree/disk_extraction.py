"""Disk-based extraction that never touches discarded particles.

Paper section 2.3: "This portion of the particle data is just copied
to the output; no computation is necessary for the particles, and
discarded particles are never read from disk."

:func:`repro.octree.extraction.extract` bins *particles* into the
density volume, which reads all of them.  This module honors the
paper's I/O claim exactly: the density volume is rasterized from the
*octree nodes* (each node is a box with a known count -- the octree is
itself a piecewise-constant density field), so an extraction reads
only a partitioned store's node table plus the halo prefix of its
particle shards.  The test suite proves it by counting the bytes read
and by overwriting every shard byte past the prefix with garbage.
"""

from __future__ import annotations

import numpy as np

from repro.hybrid.representation import HybridFrame
from repro.octree.extraction import _halo_densities

__all__ = [
    "node_bounds",
    "counts_from_nodes",
    "volume_from_nodes",
    "extract_from_disk",
]


def node_bounds(level: int, key: int, lo: np.ndarray, hi: np.ndarray):
    """World-space (lo, hi) of an octree node given its level and
    Morton prefix, standalone (no Octree instance needed)."""
    ix = iy = iz = 0
    for b in range(int(level)):
        octant = (int(key) >> (3 * (int(level) - 1 - b))) & 7
        ix = (ix << 1) | (octant & 1)
        iy = (iy << 1) | ((octant >> 1) & 1)
        iz = (iz << 1) | ((octant >> 2) & 1)
    size = (hi - lo) / (1 << int(level))
    nlo = lo + size * np.array([ix, iy, iz])
    return nlo, nlo + size


def counts_from_nodes(
    nodes: np.ndarray, lo: np.ndarray, hi: np.ndarray, resolution: int
) -> np.ndarray:
    """Rasterize octree nodes into a particle-*count* grid.

    Each node's count is distributed over the voxels its box overlaps,
    weighted by fractional overlap -- a box splat.  Mass (total count)
    is conserved.  :func:`volume_from_nodes` divides the result by the
    voxel volume; the AMR planner uses the counts directly.
    """
    res = int(resolution)
    vol = np.zeros((res, res, res))
    span = np.maximum(hi - lo, 1e-300)
    # voxel edges in normalized [0, 1] coordinates, uniform grid
    edges = np.linspace(0.0, 1.0, res + 1)
    voxel = 1.0 / res
    for node in nodes:
        count = float(node["count"])
        if count == 0.0:
            continue
        nlo, nhi = node_bounds(int(node["level"]), int(node["key"]), lo, hi)
        a = (nlo - lo) / span  # normalized box
        b = (nhi - lo) / span
        # voxel index ranges the box overlaps
        i0 = np.clip(np.floor(a / voxel).astype(int), 0, res - 1)
        i1 = np.clip(np.ceil(b / voxel).astype(int), 1, res)
        # per-axis fractional overlap of each voxel with the box
        weights = []
        for ax in range(3):
            centers_lo = edges[i0[ax] : i1[ax]]
            centers_hi = edges[i0[ax] + 1 : i1[ax] + 1]
            overlap = np.minimum(centers_hi, b[ax]) - np.maximum(centers_lo, a[ax])
            weights.append(np.maximum(overlap, 0.0))
        wx, wy, wz = weights
        cell = wx[:, None, None] * wy[None, :, None] * wz[None, None, :]
        total = cell.sum()
        if total > 0:
            vol[i0[0] : i1[0], i0[1] : i1[1], i0[2] : i1[2]] += (
                count * cell / total
            )
    return vol


def volume_from_nodes(
    nodes: np.ndarray, lo: np.ndarray, hi: np.ndarray, resolution: int
) -> np.ndarray:
    """Rasterize octree nodes into a density volume (the box splat of
    :func:`counts_from_nodes` divided by the voxel volume)."""
    res = int(resolution)
    span = np.maximum(hi - lo, 1e-300)
    vol = counts_from_nodes(nodes, lo, hi, res)
    # convert counts to density (count per unit volume)
    cell_volume = float(np.prod(span)) / res**3
    return vol / cell_volume


def extract_from_disk(
    pstore,
    threshold_density: float,
    volume_resolution: int = 64,
    *,
    adaptive: bool = False,
    amr_bricks: int = 8,
    amr_brick_cells: int = 8,
    amr_max_refine: int = 2,
    amr_refine_budget: int | None = None,
    amr_byte_budget: int | None = None,
) -> HybridFrame:
    """Extract a hybrid frame from a :class:`PartitionedStore`
    reading only its node table + the halo prefix.

    Exactly the paper's I/O pattern: the node table is small, the
    particle shards are read only up to the density cutoff, and the
    volume comes from the node metadata.  ``adaptive=True`` attaches
    an :class:`repro.octree.amr.AmrVolume` rasterized from the same
    node metadata (:func:`repro.octree.amr.amr_from_nodes`), keeping
    the discarded-particles-never-read property; the flat volume is
    unchanged.
    """
    nodes, lo, hi = pstore.nodes, pstore.lo, pstore.hi
    cutoff = pstore.density_cutoff_index(threshold_density)
    halo = pstore.read_prefix(cutoff)[:, list(pstore.columns)]
    halo_dens = _halo_densities(nodes, cutoff)

    density_volume = volume_from_nodes(nodes, lo, hi, volume_resolution)

    meta = {}
    if adaptive:
        from repro.octree.amr import amr_from_nodes

        if amr_refine_budget is None and amr_byte_budget is None:
            amr_byte_budget = int(volume_resolution) ** 3 * 4
        meta["amr"] = amr_from_nodes(
            nodes,
            lo,
            hi,
            bricks=amr_bricks,
            brick_cells=amr_brick_cells,
            max_refine=amr_max_refine,
            refine_budget=amr_refine_budget,
            byte_budget=amr_byte_budget,
        )

    return HybridFrame(
        volume=density_volume.astype(np.float32),
        points=halo.astype(np.float32),
        point_densities=halo_dens.astype(np.float32),
        lo=lo,
        hi=hi,
        threshold=float(threshold_density),
        step=pstore.step,
        plot_type=pstore.plot_type,
        meta=meta,
    )
