"""The partitioning program (paper section 2.3).

"The partitioning program organizes the unstructured point data into
an octree.  It is provided a time-step number, a plot type ... and a
maximal subdivision level. ... This octree is written out to disk in
two parts: one part contains all the particles of the simulation, the
other contains the octree nodes themselves.  In the particle files,
particles in the same octree node are grouped together, and the groups
are sorted in order of increasing density.  Each node in the octree
then contains an offset into the particle file and the number of
particles in its group."

``partition`` implements exactly that transformation -- the streamed
partitioner's algorithm run on one in-memory shard: key the particles,
sort the keys once, and file every cell's particles where
:func:`repro.octree.octree.partition_plan` puts them.  The result keeps
all six phase-space coordinates of every particle, so the original
frame could be discarded and re-partitioned to a different plot type
(the possibility the paper notes).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.beams.spacecharge import deposit_cic
from repro.core.trace import count, span
from repro.octree.format import _check_node_table
from repro.octree.octree import (
    check_build,
    morton_keys,
    octree_bounds,
    partition_plan,
    plot_columns,
)

__all__ = ["PartitionedFrame", "partition"]


@dataclass
class PartitionedFrame:
    """A density-sorted, octree-partitioned particle frame.

    It answers the three calls extraction makes of any partitioned
    frame, as :class:`repro.octree.stream_partition.PartitionedStore`
    does: :meth:`read_prefix`, :meth:`chunks` and :meth:`volume_counts`.

    Attributes
    ----------
    plot_type : name of the 3-D plot the octree was built over
    columns : the three column indices of that plot type
    particles : (N, 6) all particles, grouped by leaf node with groups
        in order of *increasing density*
    nodes : NODE_DTYPE structured array, sorted by increasing density;
        each node's (start, count) indexes ``particles``
    lo, hi : octree bounds over the plot-type coordinates
    max_level, capacity : octree build parameters
    step : simulation time-step index this frame came from
    """

    plot_type: str
    columns: tuple
    particles: np.ndarray
    nodes: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    max_level: int
    capacity: int
    step: int = 0

    @property
    def n_particles(self) -> int:
        return len(self.particles)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def coords(self) -> np.ndarray:
        """The (N, 3) plot-type coordinates, in particle-file order."""
        return self.particles[:, list(self.columns)]

    def nbytes(self) -> int:
        """In-memory footprint of the partitioned representation."""
        return int(self.particles.nbytes + self.nodes.nbytes)

    def density_cutoff_index(self, threshold_density: float) -> int:
        """Number of leading *particles* living in nodes with density
        strictly below the threshold.  Because both nodes and particle
        groups are sorted by increasing density this is a prefix
        length -- the key property extraction exploits."""
        n_below = int(np.searchsorted(self.nodes["density"], threshold_density, side="left"))
        return int(self.nodes["count"][:n_below].sum())

    def read_prefix(self, n_particles: int) -> np.ndarray:
        """The first ``n_particles`` rows of the particle file, as a view."""
        return self.particles[: int(n_particles)]

    def chunks(self, columns=None):
        """The particle file (optionally only the given columns) as one
        chunk; a store yields one per shard."""
        yield self.particles if columns is None else self.particles[:, list(columns)]

    def volume_counts(self, resolution: int) -> np.ndarray:
        """The all-particle CIC count grid at ``resolution`` per axis,
        deposited on each call (a store keeps its grid on disk)."""
        return deposit_cic(self.coords, (int(resolution),) * 3, self.lo, self.hi)

    def validate(self) -> None:
        """Cheap structural invariants; raises FormatError on damage."""
        _check_node_table(self.nodes, self.n_particles, "partitioned frame")


def partition(
    particles,
    plot_type: str = "xyz",
    *,
    max_level: int = 6,
    capacity: int = 64,
    lo=None,
    hi=None,
    step=None,
) -> PartitionedFrame:
    """Partition a particle frame into the two-part representation.

    Parameters mirror the paper's program: the frame, a plot type, and
    a maximal subdivision level.  ``capacity`` is the split threshold
    (particles per node) driving adaptivity.

    ``particles`` must be a :class:`repro.core.dataset.ParticleDataset`
    (from :func:`repro.api.open_dataset` /
    :func:`repro.core.dataset.as_dataset`); its ``step`` is inherited
    unless overridden.  Raw arrays and positional tuning arguments --
    deprecated for one release -- now raise ``TypeError``.  For frames
    too large for RAM use
    :func:`repro.octree.stream_partition.partition_store`, which
    produces the same partitioning out-of-core; its ``workers=N`` and
    :func:`repro.octree.forest.partition_forest` are the multiprocess
    paths (the paper's multi-node mode).
    """
    from repro.core.dataset import ParticleDataset

    if not isinstance(particles, ParticleDataset):
        raise TypeError(
            "partition requires a ParticleDataset; wrap raw arrays with "
            "repro.api.open_dataset(...) (the one-release DeprecationWarning "
            "shim for raw arrays was removed)"
        )
    if step is None:
        step = particles.step
    particles = np.asarray(particles.to_array(), dtype=np.float64)
    if particles.ndim != 2 or particles.shape[1] != 6:
        raise ValueError("particles must be (N, 6)")
    n = len(particles)
    check_build(n, max_level, capacity)
    columns = plot_columns(plot_type)
    coords = particles[:, list(columns)]
    with span("octree_build", n=n):
        lo, hi = octree_bounds(lo, hi, lambda: (coords.min(axis=0), coords.max(axis=0)))
        keys = morton_keys(coords, lo, hi, max_level)
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        head = np.flatnonzero(np.concatenate([[True], keys[1:] != keys[:-1]]))
        counts = np.diff(np.append(head, n))
        nodes, cell_dest = partition_plan(keys[head], counts, lo, hi, max_level, capacity)

    with span("density_sort"):
        # the k-th particle of a cell lands at the cell's destination + k
        final_order = np.empty(n, dtype=np.int64)
        final_order[np.repeat(cell_dest - head, counts) + np.arange(n)] = order

    count("particles_routed", n)
    count("octree_nodes", len(nodes))
    frame = PartitionedFrame(
        plot_type=plot_type,
        columns=columns,
        particles=particles[final_order],
        nodes=nodes,
        lo=lo,
        hi=hi,
        max_level=int(max_level),
        capacity=int(capacity),
        step=int(step),
    )
    return frame
