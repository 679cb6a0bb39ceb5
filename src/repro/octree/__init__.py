"""Octree partitioning and hybrid extraction (paper section 2.3).

The preprocessing pipeline that turns an unstructured particle frame
into the paper's two-part partitioned representation:

*partitioning* (one-time, expensive, run on the supercomputer in the
paper) inserts all particles into an adaptive octree over a chosen
3-D *plot type* (any three of the six phase-space coordinates), groups
particles by leaf node, and sorts the groups by increasing density;

*extraction* (fast, repeatable) takes a threshold density and produces
a hybrid representation: every particle in a below-threshold leaf is
kept as an explicit point -- and because the particle file is sorted
by density these are one contiguous prefix, copied with no computation
-- while the dense remainder is represented by a low-resolution
density volume.

Modules
-------
octree      Morton keys, the one octree leaf walk and the partition
            plan (node table + particle-file layout) every
            partitioner builds with
partition   the in-core partitioning program (plot types)
format      the node-table codec of an on-disk partitioned store
extraction  threshold-density extraction into HybridFrame
"""

from repro.octree.octree import PLOT_TYPES, plot_columns
from repro.octree.partition import PartitionedFrame, partition
from repro.octree.extraction import extract, extraction_sizes
from repro.octree.repartition import repartition
from repro.octree.lod import LodHierarchy, build_lod
from repro.octree.amr import AmrVolume, build_amr, plan_amr_levels

__all__ = [
    "PLOT_TYPES",
    "plot_columns",
    "PartitionedFrame",
    "partition",
    "extract",
    "extraction_sizes",
    "repartition",
    "LodHierarchy",
    "build_lod",
    "AmrVolume",
    "build_amr",
    "plan_amr_levels",
]
