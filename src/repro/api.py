"""The consolidated public API facade.

One import surface for everything the project supports long-term::

    from repro.api import beam_pipeline, partition, extract, Tracer

Everything in ``__all__`` here is covered by the compatibility
expectations in ``tests/test_public_api.py``; names *not* re-exported
here are internal and may move between releases (the one-facade rule,
see DESIGN.md).  The facade only re-exports -- no logic lives here --
so importing it costs the same as importing :mod:`repro`.
"""

from __future__ import annotations

from repro.core.atomic import atomic_write_bytes
from repro.core.checkpoint import Checkpoint
from repro.core.config import BeamPipelineConfig, FieldLinePipelineConfig
from repro.core.dataset import (
    ArrayDataset,
    ParticleDataset,
    as_dataset,
    open_dataset,
)
from repro.core.errors import (
    ChecksumError,
    FormatError,
    ProtocolError,
    RemoteError,
    ReproError,
    RetryExhaustedError,
    ServiceBusyError,
    TruncatedMessageError,
)
from repro.core.executor import run_shards
from repro.core.faults import FaultPlan
from repro.core.store import ShardedStore, StoreWriter, create_store
from repro.core.pipeline import (
    BeamPipelineResult,
    FieldLinePipelineResult,
    beam_pipeline,
    fieldline_pipeline,
)
from repro.core.trace import (
    Tracer,
    capture,
    get_tracer,
    span,
)
from repro.beams.scenario import (
    ElementSpec,
    EnvelopeController,
    FeedbackController,
    LatticeSpec,
    OrbitController,
    Scenario,
    ScenarioSpec,
    SweepResult,
    controllers_from_spec,
    expand_axes,
    load_scenario,
    load_sweep,
    run_sweep,
)
from repro.beams.simulation import BeamConfig, BeamSimulation
from repro.fieldlines.seeding import OrderedFieldLines, seed_density_proportional
from repro.fieldlines.sos import build_strips, render_strips
from repro.hybrid.renderer import HybridRenderer
from repro.hybrid.representation import HybridFrame
from repro.octree.amr import AmrVolume, build_amr, plan_amr_levels
from repro.octree.extraction import extract
from repro.octree.forest import ForestStore, partition_forest, render_forest
from repro.octree.lod import LodHierarchy, build_lod
from repro.octree.partition import PartitionedFrame, partition
from repro.octree.stream_partition import PartitionedStore, partition_store
from repro.remote.client import VisualizationClient
from repro.remote.loadgen import ChaosSchedule, FleetReport, run_fleet
from repro.remote.service import VisualizationService
from repro.render.amr import AmrRgbaVolume, amr_geometry_key, build_amr_geometry
from repro.render.camera import Camera
from repro.render.frame_cache import (
    FrameGeometry,
    FrameGeometryCache,
    frame_geometry_cache,
)
from repro.render.points import gaussian_splat_fragments

__all__ = [
    # end-to-end pipelines + configuration
    "beam_pipeline",
    "fieldline_pipeline",
    "BeamPipelineConfig",
    "FieldLinePipelineConfig",
    "BeamPipelineResult",
    "FieldLinePipelineResult",
    # beam workflow stages
    "BeamConfig",
    "BeamSimulation",
    # digital-twin scenario layer (PR 10)
    "ElementSpec",
    "LatticeSpec",
    "ScenarioSpec",
    "Scenario",
    "load_scenario",
    "FeedbackController",
    "EnvelopeController",
    "OrbitController",
    "controllers_from_spec",
    "run_sweep",
    "expand_axes",
    "load_sweep",
    "SweepResult",
    "partition",
    "PartitionedFrame",
    "extract",
    "HybridFrame",
    "HybridRenderer",
    # out-of-core datasets + the sharded store (PR 5)
    "open_dataset",
    "as_dataset",
    "ParticleDataset",
    "ArrayDataset",
    "ShardedStore",
    "StoreWriter",
    "create_store",
    "partition_store",
    "PartitionedStore",
    # LOD hierarchy + progressive streaming (PR 8)
    "build_lod",
    "LodHierarchy",
    # adaptive AMR volumes + Gaussian splatting (PR 9)
    "AmrVolume",
    "build_amr",
    "plan_amr_levels",
    "AmrRgbaVolume",
    "amr_geometry_key",
    "build_amr_geometry",
    "gaussian_splat_fragments",
    # forest-of-octrees partition
    "partition_forest",
    "render_forest",
    "ForestStore",
    # field-line workflow stages
    "seed_density_proportional",
    "OrderedFieldLines",
    "build_strips",
    "render_strips",
    # shared infrastructure
    "Camera",
    "FrameGeometry",
    "FrameGeometryCache",
    "frame_geometry_cache",
    "VisualizationClient",
    # the multi-tenant asyncio service + chaos fleet (PR 7)
    "VisualizationService",
    "ChaosSchedule",
    "FleetReport",
    "run_fleet",
    "Tracer",
    "get_tracer",
    "span",
    "capture",
    # fault tolerance
    "ReproError",
    "FormatError",
    "ProtocolError",
    "ChecksumError",
    "TruncatedMessageError",
    "RemoteError",
    "ServiceBusyError",
    "RetryExhaustedError",
    "atomic_write_bytes",
    "run_shards",
    "Checkpoint",
    "FaultPlan",
]
