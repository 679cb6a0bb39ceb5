"""Public API surface: every exported name exists and is documented."""

import importlib
import inspect

import pytest

PACKAGES = [
    "repro",
    "repro.beams",
    "repro.fields",
    "repro.octree",
    "repro.hybrid",
    "repro.render",
    "repro.fieldlines",
    "repro.remote",
    "repro.core",
]

MODULES = [
    "repro.beams.distributions",
    "repro.beams.lattice",
    "repro.beams.elements",
    "repro.beams.matching",
    "repro.beams.transport",
    "repro.beams.spacecharge",
    "repro.beams.simulation",
    "repro.beams.cavity",
    "repro.beams.diagnostics",
    "repro.beams.scenario",
    "repro.beams.scenario.spec",
    "repro.beams.scenario.feedback",
    "repro.beams.scenario.sweep",
    "repro.fields.mesh",
    "repro.fields.geometry",
    "repro.fields.modes",
    "repro.fields.solver",
    "repro.fields.sampling",
    "repro.fields.eigen",
    "repro.fields.ports",
    "repro.octree.octree",
    "repro.octree.partition",
    "repro.octree.stream_partition",
    "repro.octree.format",
    "repro.octree.extraction",
    "repro.octree.forest",
    "repro.octree.repartition",
    "repro.octree.amr",
    "repro.hybrid.representation",
    "repro.hybrid.attributes",
    "repro.hybrid.transfer",
    "repro.hybrid.renderer",
    "repro.hybrid.viewer",
    "repro.hybrid.animation",
    "repro.render.camera",
    "repro.render.framebuffer",
    "repro.render.frame_cache",
    "repro.render.volume",
    "repro.render.points",
    "repro.render.amr",
    "repro.render.raster",
    "repro.render.shading",
    "repro.render.colormap",
    "repro.render.wireframe",
    "repro.render.scene",
    "repro.render.image",
    "repro.fieldlines.integrate",
    "repro.fieldlines.seeding",
    "repro.fieldlines.sos",
    "repro.fieldlines.ribbon",
    "repro.fieldlines.streamtube",
    "repro.fieldlines.illuminated",
    "repro.fieldlines.halo",
    "repro.fieldlines.transparency",
    "repro.fieldlines.incremental",
    "repro.fieldlines.resample",
    "repro.fieldlines.compact",
    "repro.fieldlines.timeseries",
    "repro.remote.protocol",
    "repro.remote.service",
    "repro.remote.client",
    "repro.remote.loadgen",
    "repro.core.pipeline",
    "repro.core.config",
    "repro.core.metrics",
    "repro.core.trace",
    "repro.core.errors",
    "repro.core.atomic",
    "repro.core.faults",
    "repro.core.executor",
    "repro.core.checkpoint",
    "repro.core.store",
    "repro.core.dataset",
    "repro.api",
    "repro.cli",
]

# Names the facade must expose forever (the one-facade rule, DESIGN.md).
FACADE_REQUIRED = [
    "beam_pipeline",
    "fieldline_pipeline",
    "BeamPipelineConfig",
    "FieldLinePipelineConfig",
    "partition",
    "extract",
    "seed_density_proportional",
    "build_strips",
    "render_strips",
    "HybridRenderer",
    "VisualizationClient",
    "Tracer",
    "span",
    "capture",
    # the hot-path caches (PR 4)
    "FrameGeometry",
    "FrameGeometryCache",
    "frame_geometry_cache",
    # the fault-tolerance vocabulary (PR 2)
    "ReproError",
    "FormatError",
    "ProtocolError",
    "RetryExhaustedError",
    "atomic_write_bytes",
    "run_shards",
    "Checkpoint",
    "FaultPlan",
    # the dataset-first entry point + sharded store (PR 5)
    "open_dataset",
    "ParticleDataset",
    "ShardedStore",
    "create_store",
    "partition_store",
    "PartitionedStore",
    # the forest-of-octrees partition
    "partition_forest",
    "render_forest",
    "ForestStore",
    # the multi-tenant asyncio service + chaos fleet (PR 7)
    "VisualizationService",
    "ChaosSchedule",
    "run_fleet",
    "ServiceBusyError",
    # the digital-twin scenario layer (PR 10)
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
    # adaptive AMR volumes + Gaussian splatting (PR 9)
    "AmrVolume",
    "build_amr",
    "plan_amr_levels",
    "AmrRgbaVolume",
    "build_amr_geometry",
    "amr_geometry_key",
    "gaussian_splat_fragments",
]

# Deliberately dropped from the facade: stale private re-exports
# (count, gauge) and the deleted duplicate paths -- the
# thread-per-connection server, the octant-pool partitioner, the
# batched-seeding alias, and the node-rasterized AMR volume.
FACADE_FORBIDDEN = [
    "count",
    "gauge",
    "VisualizationServer",
    "partition_parallel",
    "seed_density_proportional_batched",
    "amr_from_nodes",
]


@pytest.mark.parametrize("name", PACKAGES + MODULES)
def test_module_imports_and_documented(name):
    mod = importlib.import_module(name)
    assert mod.__doc__, f"{name} lacks a module docstring"


@pytest.mark.parametrize("name", PACKAGES + MODULES)
def test_all_exports_exist(name):
    mod = importlib.import_module(name)
    exported = getattr(mod, "__all__", None)
    if exported is None:
        return
    for symbol in exported:
        assert hasattr(mod, symbol), f"{name}.__all__ lists missing {symbol!r}"


@pytest.mark.parametrize("name", MODULES)
def test_public_callables_documented(name):
    """Every public function/class reachable from __all__ carries a
    docstring -- the deliverable's documentation bar."""
    mod = importlib.import_module(name)
    for symbol in getattr(mod, "__all__", []):
        obj = getattr(mod, symbol)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            assert obj.__doc__, f"{name}.{symbol} lacks a docstring"


def test_version():
    import repro

    assert repro.__version__ == "1.0.0"


class TestFacade:
    def test_facade_has_explicit_all(self):
        import repro.api

        assert isinstance(repro.api.__all__, list)
        assert len(repro.api.__all__) == len(set(repro.api.__all__))

    @pytest.mark.parametrize("symbol", FACADE_REQUIRED)
    def test_required_names_exported(self, symbol):
        import repro.api

        assert symbol in repro.api.__all__
        assert getattr(repro.api, symbol) is not None

    @pytest.mark.parametrize("symbol", FACADE_FORBIDDEN)
    def test_stale_reexports_removed(self, symbol):
        import repro.api

        assert symbol not in repro.api.__all__

    def test_every_facade_symbol_documented(self):
        """Every name the facade exports carries a docstring."""
        import repro.api

        for symbol in repro.api.__all__:
            obj = getattr(repro.api, symbol)
            if inspect.isfunction(obj) or inspect.isclass(obj):
                assert obj.__doc__, f"repro.api.{symbol} lacks a docstring"

    def test_facade_matches_source_modules(self):
        """Facade re-exports are the same objects as the originals."""
        import repro.api
        from repro.core.pipeline import beam_pipeline
        from repro.core.trace import Tracer
        from repro.octree.partition import partition

        assert repro.api.beam_pipeline is beam_pipeline
        assert repro.api.partition is partition
        assert repro.api.Tracer is Tracer
