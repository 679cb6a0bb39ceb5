"""Forest-of-octrees partition: routing, equivalence, crash safety,
worker invariance, and the two render modes."""

import numpy as np
import pytest

import repro.octree.forest as forest_mod
from repro.core.checkpoint import Checkpoint
from repro.core.dataset import as_dataset
from repro.core.errors import FormatError
from repro.core.store import create_store
from repro.hybrid.renderer import HybridRenderer
from repro.octree.extraction import extract
from repro.octree.forest import ForestStore, partition_forest, render_forest
from repro.octree.partition import partition
from repro.render.camera import Camera

MAX_LEVEL = 5
CAPACITY = 32


@pytest.fixture(scope="module")
def particles():
    rng = np.random.default_rng(17)
    core = rng.normal(0.0, 0.3, (24_000, 6))
    halo = rng.normal(0.0, 1.5, (1_500, 6))
    return np.vstack([core, halo])


@pytest.fixture(scope="module")
def global_frame(particles):
    return partition(
        as_dataset(particles), "xyz", max_level=MAX_LEVEL, capacity=CAPACITY
    )


@pytest.fixture(scope="module")
def forest(particles, tmp_path_factory):
    out = tmp_path_factory.mktemp("forest") / "store"
    return partition_forest(
        particles, out, "xyz", bricks=2, max_level=MAX_LEVEL, capacity=CAPACITY
    )


class TestPartitionForest:
    def test_validates_and_counts(self, forest, particles):
        forest.validate()
        assert forest.n_particles == len(particles)
        assert forest.bricks == 2 and forest.brick_level == 1
        assert sum(forest.brick_count(b) for b in range(forest.n_bricks)) == len(
            particles
        )

    def test_routing_respects_brick_bounds(self, forest):
        for b in forest.brick_ids:
            lo, hi = forest.brick_bounds(b)
            coords = forest.brick(b).store.to_array()[:, list(forest.columns)]
            inside = np.all(coords >= lo - 1e-12, axis=1) & np.all(
                coords <= hi + 1e-12, axis=1
            )
            assert inside.all(), f"brick {b} holds particles outside its octant"

    def test_gather_is_bitwise_global_partition(self, forest, global_frame):
        got = forest.to_partitioned_frame()
        assert np.array_equal(got.nodes, global_frame.nodes)
        assert np.array_equal(got.particles, global_frame.particles)
        assert np.array_equal(got.lo, global_frame.lo)
        assert np.array_equal(got.hi, global_frame.hi)
        got.validate()

    def test_node_densities_match_global_multiset(self, forest, global_frame):
        assert np.array_equal(
            np.sort(forest.node_densities()), np.sort(global_frame.nodes["density"])
        )

    def test_bricks_one_degenerates_to_single_tree(
        self, particles, global_frame, tmp_path
    ):
        f = partition_forest(
            particles, tmp_path / "f1", "xyz", bricks=1,
            max_level=MAX_LEVEL, capacity=CAPACITY,
        )
        assert f.brick_ids == [0]
        got = f.to_partitioned_frame()
        assert np.array_equal(got.nodes, global_frame.nodes)
        assert np.array_equal(got.particles, global_frame.particles)

    def test_empty_bricks_skipped(self, tmp_path):
        rng = np.random.default_rng(3)
        # everything in the (+,+,+) octant of [-1, 1]^3
        pts = np.column_stack(
            [rng.uniform(0.2, 0.9, (4_000, 3)), rng.normal(0.0, 1.0, (4_000, 3))]
        )
        f = partition_forest(
            pts, tmp_path / "f", "xyz", bricks=2, max_level=4, capacity=CAPACITY,
            lo=[-1.0] * 3, hi=[1.0] * 3,
        )
        assert f.brick_ids == [7]
        assert f.brick_count(0) == 0
        f.validate()
        with pytest.raises(FormatError, match="empty"):
            f.brick(0)
        fb = render_forest(f, part="volume", volume_resolution=16)
        assert fb.rgba.shape[-1] == 4

    def test_rejects_bad_brick_counts(self, particles, tmp_path):
        with pytest.raises(ValueError, match="power of two"):
            partition_forest(particles, tmp_path / "a", bricks=3)
        with pytest.raises(ValueError, match="max_level"):
            partition_forest(particles, tmp_path / "b", bricks=4, max_level=1)

    def test_open_rejects_non_forest(self, tmp_path):
        with pytest.raises(FormatError, match="not a forest"):
            ForestStore.open(tmp_path)

    def test_validate_raises_format_error_on_count_mismatch(self, particles, tmp_path):
        import json

        out = tmp_path / "forest"
        partition_forest(particles[:2000], out, "xyz", bricks=2, max_level=4, capacity=64)
        path = out / forest_mod.FOREST_MANIFEST
        manifest = json.loads(path.read_text())
        entry = next(e for e in manifest["brick_table"] if e["n_particles"] > 0)
        entry["n_particles"] += 1
        manifest["n_particles"] += 1
        path.write_text(json.dumps(manifest))
        with pytest.raises(FormatError, match=f"brick {entry['id']}: .* manifest says"):
            ForestStore.open(out).validate()


class TestDamagedInput:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("explicit_bounds", [True, False], ids=["lo_hi", "data_bounds"])
    def test_flipped_byte_raises_format_error(
        self, particles, tmp_path, workers, explicit_bounds
    ):
        """One flipped byte in one input shard fails the forest
        partition with a FormatError naming that shard at every worker
        count, whether the bounds are given or read from the data."""
        store = create_store(tmp_path / "src", particles, shard_rows=4096)
        path = store.shard_path(2)
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0x01  # lowest mantissa byte: the coordinate stays finite
        path.write_bytes(bytes(raw))
        bounds = dict(lo=[-10.0] * 3, hi=[10.0] * 3) if explicit_bounds else {}
        with pytest.raises(FormatError, match=path.name):
            partition_forest(
                store, tmp_path / "f", "xyz", bricks=2, max_level=MAX_LEVEL,
                capacity=CAPACITY, workers=workers, **bounds,
            )


class TestCrashResume:
    def test_killed_brick_stage_resumes_bitwise(
        self, particles, global_frame, tmp_path, monkeypatch
    ):
        out, ck = tmp_path / "f", tmp_path / "ck"
        real = forest_mod._brick_partition_task
        calls = {"n": 0}

        def dying(task):
            calls["n"] += 1
            if calls["n"] == 3:
                raise RuntimeError("injected crash")
            return real(task)

        monkeypatch.setattr(forest_mod, "_brick_partition_task", dying)
        with pytest.raises(RuntimeError, match="injected"):
            partition_forest(
                particles, out, "xyz", bricks=2, max_level=MAX_LEVEL,
                capacity=CAPACITY, checkpoint_dir=ck,
            )
        monkeypatch.setattr(forest_mod, "_brick_partition_task", real)

        f = partition_forest(
            particles, out, "xyz", bricks=2, max_level=MAX_LEVEL,
            capacity=CAPACITY, checkpoint_dir=ck,
        )
        f.validate()
        got = f.to_partitioned_frame()
        assert np.array_equal(got.nodes, global_frame.nodes)
        assert np.array_equal(got.particles, global_frame.particles)

    def test_finished_run_short_circuits(self, particles, tmp_path):
        out, ck = tmp_path / "f", tmp_path / "ck"
        partition_forest(
            particles, out, "xyz", bricks=2, max_level=MAX_LEVEL,
            capacity=CAPACITY, checkpoint_dir=ck,
        )
        assert Checkpoint(ck).done("finalize")
        f = partition_forest(
            particles, out, "xyz", bricks=2, max_level=MAX_LEVEL,
            capacity=CAPACITY, checkpoint_dir=ck,
        )
        assert f.n_particles == len(particles)


class TestWorkerInvariance:
    def test_partition_workers_bitwise_identical(self, particles, forest, tmp_path):
        f2 = partition_forest(
            particles, tmp_path / "w2", "xyz", bricks=2, max_level=MAX_LEVEL,
            capacity=CAPACITY, workers=2,
        )
        a = forest.to_partitioned_frame()
        b = f2.to_partitioned_frame()
        assert np.array_equal(a.nodes, b.nodes)
        assert np.array_equal(a.particles, b.particles)

    def test_render_workers_bitwise_identical(self, forest):
        cam = Camera.fit_bounds(forest.lo, forest.hi, width=48, height=48)
        kw = dict(
            camera=cam, renderer=HybridRenderer(n_slices=12),
            volume_resolution=24,
        )
        one = render_forest(forest, workers=1, **kw)
        two = render_forest(forest, workers=2, **kw)
        assert np.array_equal(one.rgba, two.rgba)
        assert np.array_equal(one.depth, two.depth)

    def test_adaptive_render_workers_bitwise_identical(self, forest):
        """The shared AMR manifest is planned globally before fan-out,
        so per-rank deposits tile it and the composite is identical for
        any worker count."""
        cam = Camera.fit_bounds(forest.lo, forest.hi, width=48, height=48)
        kw = dict(
            camera=cam, renderer=HybridRenderer(n_slices=12),
            volume_resolution=24, adaptive=True,
        )
        one = render_forest(forest, workers=1, **kw)
        two = render_forest(forest, workers=2, **kw)
        assert np.any(one.rgba[..., 3] > 0.0)
        assert np.array_equal(one.rgba, two.rgba)
        assert np.array_equal(one.depth, two.depth)

    def test_splat_render_workers_bitwise_identical(self, forest):
        """Gaussian-splat fragments are point-major and per-brick, so
        the sort-last point pass stays worker-count deterministic."""
        cam = Camera.fit_bounds(forest.lo, forest.hi, width=48, height=48)
        kw = dict(
            camera=cam,
            renderer=HybridRenderer(
                n_slices=12, point_mode="splat", splat_scale=0.5
            ),
            volume_resolution=24, part="points",
        )
        one = render_forest(forest, workers=1, **kw)
        two = render_forest(forest, workers=2, **kw)
        assert np.any(one.rgba[..., 3] > 0.0)
        assert np.array_equal(one.rgba, two.rgba)
        assert np.array_equal(one.depth, two.depth)


class TestRenderForest:
    @pytest.fixture(scope="class")
    def camera(self, forest):
        return Camera.fit_bounds(forest.lo, forest.hi, width=64, height=64)

    def test_gather_mode_bitwise_vs_single_octree(
        self, forest, global_frame, camera
    ):
        thr = float(np.percentile(global_frame.nodes["density"], 60))
        renderer = HybridRenderer(n_slices=16)
        single = renderer.render(
            extract(global_frame, thr, volume_resolution=32), camera=camera
        )
        gathered = render_forest(
            forest, camera=camera, renderer=HybridRenderer(n_slices=16),
            threshold=thr, volume_resolution=32, mode="gather",
        )
        assert np.array_equal(single.rgba, gathered.rgba)
        assert np.array_equal(single.depth, gathered.depth)

    def test_sortlast_within_pinned_tolerance(self, forest, global_frame, camera):
        """Sort-last regroups per-brick; the image matches the single
        path up to the documented brick-boundary approximation.  The
        tolerances here pin that approximation."""
        thr = float(np.percentile(global_frame.nodes["density"], 60))
        single = HybridRenderer(n_slices=16).render(
            extract(global_frame, thr, volume_resolution=32), camera=camera
        )
        composited = render_forest(
            forest, camera=camera, renderer=HybridRenderer(n_slices=16),
            threshold=thr, volume_resolution=32, mode="sortlast",
        )
        assert np.allclose(composited.rgba, single.rgba, atol=0.08)
        identical = np.all(composited.rgba == single.rgba, axis=-1).mean()
        assert identical >= 0.50, f"only {identical:.0%} of pixels bitwise-equal"

    def test_sortlast_volume_part_renders(self, forest, camera):
        fb = render_forest(
            forest, camera=camera, renderer=HybridRenderer(n_slices=12),
            volume_resolution=24, part="volume",
        )
        assert np.any(fb.rgba[..., 3] > 0.0)

    def test_sortlast_points_part_renders(self, forest, camera):
        fb = render_forest(
            forest, camera=camera, renderer=HybridRenderer(n_slices=12),
            volume_resolution=24, part="points",
        )
        assert np.any(fb.rgba[..., 3] > 0.0)

    def test_pinned_max_density_respected(self, forest, camera):
        """A caller-pinned ``max_density`` overrides the computed global
        scale in both the sort-last and the single-brick renderers."""
        a = render_forest(
            forest, camera=camera,
            renderer=HybridRenderer(n_slices=12, max_density=1e4),
            volume_resolution=24,
        )
        b = render_forest(
            forest, camera=camera,
            renderer=HybridRenderer(n_slices=12, max_density=1e4),
            volume_resolution=24,
        )
        assert np.array_equal(a.rgba, b.rgba)

    def test_adaptive_volume_part_renders(self, forest, camera):
        """adaptive=True routes the volume pass through per-rank AMR
        bricks and still produces a covered, finite image."""
        flat = render_forest(
            forest, camera=camera, renderer=HybridRenderer(n_slices=12),
            volume_resolution=24, part="volume",
        )
        amr = render_forest(
            forest, camera=camera, renderer=HybridRenderer(n_slices=12),
            volume_resolution=24, part="volume", adaptive=True,
        )
        assert np.all(np.isfinite(amr.rgba))
        assert np.any(amr.rgba[..., 3] > 0.0)
        # refinement concentrates resolution in the beam core, so the
        # adaptive image is not merely the flat one re-emitted
        assert not np.array_equal(flat.rgba, amr.rgba)

    def test_bad_amr_bricks_rejected(self, forest):
        with pytest.raises(ValueError, match="amr_bricks"):
            render_forest(forest, adaptive=True, amr_bricks=6)

    def test_bad_mode_and_part_rejected(self, forest):
        with pytest.raises(ValueError, match="mode"):
            render_forest(forest, mode="tiles")
        with pytest.raises(ValueError, match="part"):
            render_forest(forest, part="wireframe")
