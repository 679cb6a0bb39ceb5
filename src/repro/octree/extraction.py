"""The extraction program (paper section 2.3).

"The extraction program converts the partitioned data into the hybrid
representation.  It is given a partitioned frame and a threshold
density.  Particles in octree nodes below the threshold density are
stored in the hybrid representation. ... Since the particle file is
sorted in order of increasing density, all particles required for any
hybrid representation are in a contiguous block at the beginning of
the file.  This portion of the particle data is just copied to the
output; no computation is necessary for the particles, and discarded
particles are never read from disk."

``extract`` honors that: the halo points are a pure prefix slice of
the partitioned particle file.  The density volume covers *all*
particles (the paper's Figure 3 shows the volume- and point-rendered
regions may overlap; the linked transfer functions decide the visible
boundary at view time).  It does not depend on the threshold, so a
partitioned store deposits it once per resolution and keeps it
(:meth:`~repro.octree.stream_partition.PartitionedStore.volume_counts`):
once that file exists, extraction reads the node table, the halo
prefix and the stored volume, and no discarded particle.
"""

from __future__ import annotations

import numpy as np

from repro.core.trace import count, span
from repro.hybrid.representation import HybridFrame
from repro.octree.partition import PartitionedFrame

__all__ = ["density_volume", "extract", "extraction_sizes", "threshold_for_point_budget"]


def _halo_densities(nodes: np.ndarray, cutoff: int) -> np.ndarray:
    """Per-particle densities of the halo prefix, touching only the
    nodes the prefix covers (O(cutoff) memory, not O(N))."""
    counts = nodes["count"].astype(np.int64)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    take = np.minimum(counts, np.maximum(cutoff - starts, 0))
    return np.repeat(nodes["density"], take)


def density_volume(counts: np.ndarray, lo, hi) -> np.ndarray:
    """The f4 density volume of a node-centered CIC count grid over the
    box ``[lo, hi]``: each count over the grid's cell volume.  The one
    counts-to-density step of extraction, the forest's shared grid,
    the LOD coarse volume and a stream's VOLUME unit."""
    cell_volume = float(np.prod((hi - lo) / (np.array(counts.shape) - 1)))
    return (counts / cell_volume).astype(np.float32)


def extract(
    frame,
    threshold_density: float,
    *,
    volume_resolution: int = 64,
    point_attributes=(),
    adaptive: bool = False,
    amr_bricks: int = 8,
    amr_brick_cells: int = 8,
    amr_max_refine: int = 2,
    amr_byte_budget: int | None = None,
) -> HybridFrame:
    """Extract a hybrid representation at a threshold density.

    Parameters
    ----------
    frame : a partitioned frame (nodes and particles density-sorted) --
        an in-core :class:`PartitionedFrame` or an out-of-core
        :class:`repro.octree.stream_partition.PartitionedStore`; both
        answer ``read_prefix`` (the halo prefix), ``chunks`` and
        ``volume_counts`` (the all-particle CIC counts, which a store
        bins shard-by-shard on first use and then keeps; peak memory
        stays at one shard plus the halo, never the full frame)
    threshold_density : nodes with density strictly below this store
        their particles explicitly; NaN raises ``ValueError``
    volume_resolution : density volume grid size per axis (paper: 64^3
        for the mixed rendering, 256^3 for the volume-only comparison);
        every particle is deposited, so the volume- and point-rendered
        regions may overlap (Figure 3)
    point_attributes : names of derived per-point quantities to carry
        (see :mod:`repro.hybrid.attributes`) -- the paper's "some
        dynamically calculated property ... such as temperature or
        emittance".  Computed from the full 6-D data of the halo
        prefix only; the discarded dense region costs nothing.
    adaptive : additionally build an octree-refined adaptive density
        volume (:class:`repro.octree.amr.AmrVolume`) and attach it as
        ``frame.meta['amr']``.  The flat ``volume`` is still produced
        by the unchanged deposit path, so flat consumers (and the
        bitwise guarantees they are tested under) are unaffected.
    amr_bricks, amr_brick_cells, amr_max_refine : AMR brick geometry
        (root bricks per axis, level-0 cells per brick axis, deepest
        refinement level)
    amr_byte_budget : the refinement budget in payload bytes (see
        :func:`repro.octree.amr.plan_amr_levels`); defaults to the flat
        volume's own footprint (``volume_resolution^3 * 4``) -- equal
        memory.

    Tuning arguments are keyword-only; passing them positionally
    raises ``TypeError`` (the one-release ``DeprecationWarning`` shim
    was removed).
    """
    if np.isnan(threshold_density):
        raise ValueError("threshold_density must not be NaN")

    with span("point_prefix"):
        cutoff = frame.density_cutoff_index(threshold_density)
        halo_particles = frame.read_prefix(cutoff)
        halo = halo_particles[:, list(frame.columns)]
        halo_dens = _halo_densities(frame.nodes, cutoff)
    attributes = {}
    if point_attributes:
        from repro.hybrid.attributes import compute_attributes

        with span("point_attributes"):
            attributes = compute_attributes(halo_particles, point_attributes)

    with span("volume_deposit", resolution=int(volume_resolution)):
        volume = density_volume(frame.volume_counts(int(volume_resolution)), frame.lo, frame.hi)
    count("points_extracted", cutoff)

    meta = {}
    if adaptive:
        from repro.octree.amr import build_amr

        if amr_byte_budget is None:
            amr_byte_budget = int(volume_resolution) ** 3 * 4
        meta["amr"] = build_amr(
            frame,
            bricks=amr_bricks,
            brick_cells=amr_brick_cells,
            max_refine=amr_max_refine,
            byte_budget=amr_byte_budget,
        )

    return HybridFrame(
        volume=volume,
        points=halo.astype(np.float32),
        point_densities=halo_dens.astype(np.float32),
        lo=frame.lo,
        hi=frame.hi,
        threshold=float(threshold_density),
        step=frame.step,
        plot_type=frame.plot_type,
        attributes=attributes,
        meta=meta,
    )


def threshold_for_point_budget(frame: PartitionedFrame, n_points: int) -> float:
    """Smallest threshold density that stores at most ``n_points``
    explicit points.  Used to pick "a conservative point density
    threshold" for a target file size (paper section 2.3: the user
    balances file size against visual accuracy)."""
    counts = frame.nodes["count"].astype(np.int64)
    cum = np.cumsum(counts)
    k = int(np.searchsorted(cum, n_points, side="right"))
    if k >= len(frame.nodes):
        return float(np.inf)
    return float(frame.nodes["density"][k])


def extraction_sizes(
    frame: PartitionedFrame,
    thresholds,
    volume_resolution: int = 64,
    *,
    adaptive: bool = False,
    amr_bricks: int = 8,
    amr_brick_cells: int = 8,
    amr_max_refine: int = 2,
    amr_byte_budget: int | None = None,
):
    """File-size / point-count table across a threshold sweep.

    Returns a list of dicts (threshold, n_points, point_bytes,
    volume_bytes, total_bytes) without materializing the volumes --
    this is the paper's size-vs-accuracy tradeoff curve.

    ``adaptive=True`` additionally prices the *planned* adaptive
    volume exactly (an ``amr_bytes`` key, folded into ``total_bytes``
    alongside the flat volume that adaptive extraction still carries):
    the brick manifest is a pure function of the root-brick particle
    histogram (threshold-independent, since the volume always covers
    all particles), so one cheap counting pass prices every threshold
    honestly for size reports and LOD scheduling.
    """
    out = []
    amr_bytes = 0
    if adaptive:
        from repro.octree.amr import amr_plan_nbytes, brick_particle_counts, plan_amr_levels

        if amr_byte_budget is None:
            amr_byte_budget = int(volume_resolution) ** 3 * 4
        counts = brick_particle_counts(
            frame.chunks(frame.columns), frame.lo, frame.hi, amr_bricks
        )
        levels = plan_amr_levels(
            counts,
            brick_cells=amr_brick_cells,
            max_refine=amr_max_refine,
            byte_budget=amr_byte_budget,
        )
        amr_bytes = amr_plan_nbytes(levels, amr_brick_cells)
    vol_bytes = int(volume_resolution**3 * 4)
    for t in thresholds:
        cutoff = frame.density_cutoff_index(float(t))
        point_bytes = cutoff * (3 + 1) * 4  # coords + density, float32
        row = {
            "threshold": float(t),
            "n_points": int(cutoff),
            "point_bytes": int(point_bytes),
            "volume_bytes": vol_bytes,
            "total_bytes": int(point_bytes + vol_bytes + amr_bytes),
        }
        if adaptive:
            row["amr_bytes"] = int(amr_bytes)
        out.append(row)
    return out
