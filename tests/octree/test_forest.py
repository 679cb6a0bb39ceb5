"""Forest-of-octrees partition: routing, equivalence, crash safety,
worker invariance, the forest as one partitioned frame, and its
render."""

import tracemalloc

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
from repro.octree.stream_partition import partition_store
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

    def test_nodes_equal_global_table(self, forest, global_frame):
        assert np.array_equal(forest.nodes, global_frame.nodes)
        assert forest.density_cutoff_index(np.inf) == forest.n_particles

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

    @pytest.fixture(scope="class")
    def forest_w2(self, particles, tmp_path_factory):
        out = tmp_path_factory.mktemp("forest_w2") / "store"
        return partition_forest(
            particles, out, "xyz", bricks=2, max_level=MAX_LEVEL,
            capacity=CAPACITY, workers=2,
        )

    def _renders(self, forest, forest_w2, **kw):
        cam = Camera.fit_bounds(forest.lo, forest.hi, width=48, height=48)
        one = render_forest(forest, camera=cam, volume_resolution=24, **kw)
        two = render_forest(forest_w2, camera=cam, volume_resolution=24, **kw)
        assert np.any(one.rgba[..., 3] > 0.0)
        assert np.array_equal(one.rgba, two.rgba)
        assert np.array_equal(one.depth, two.depth)

    def test_render_workers_bitwise_identical(self, forest, forest_w2):
        """Forests partitioned at workers 1 and 2 render the same bytes."""
        self._renders(forest, forest_w2, renderer=HybridRenderer(n_slices=12))

    def test_adaptive_render_workers_bitwise_identical(self, forest, forest_w2):
        self._renders(
            forest, forest_w2, renderer=HybridRenderer(n_slices=12), adaptive=True
        )

    def test_splat_render_workers_bitwise_identical(self, forest, forest_w2):
        self._renders(
            forest, forest_w2, part="points",
            renderer=HybridRenderer(n_slices=12, point_mode="splat", splat_scale=0.5),
        )


class TestRenderForest:
    @pytest.fixture(scope="class")
    def camera(self, forest):
        return Camera.fit_bounds(forest.lo, forest.hi, width=64, height=64)

    @pytest.mark.parametrize("adaptive", [False, True], ids=["flat", "adaptive"])
    def test_render_bitwise_vs_single_octree(
        self, forest, global_frame, camera, adaptive
    ):
        thr = float(np.percentile(global_frame.nodes["density"], 60))
        single = HybridRenderer(n_slices=16).render(
            extract(global_frame, thr, volume_resolution=32, adaptive=adaptive),
            camera=camera,
        )
        rendered = render_forest(
            forest, camera=camera, renderer=HybridRenderer(n_slices=16),
            threshold=thr, volume_resolution=32, adaptive=adaptive,
        )
        assert np.any(rendered.rgba[..., 3] > 0.0)
        assert np.array_equal(single.rgba, rendered.rgba)
        assert np.array_equal(single.depth, rendered.depth)

    def test_default_threshold_is_the_single_octree_percentile(
        self, forest, global_frame, camera
    ):
        thr = float(np.percentile(global_frame.nodes["density"], 35))
        a = render_forest(
            forest, camera=camera, renderer=HybridRenderer(n_slices=12),
            volume_resolution=24, threshold_percentile=35,
        )
        b = render_forest(
            forest, camera=camera, renderer=HybridRenderer(n_slices=12),
            volume_resolution=24, threshold=thr,
        )
        assert np.array_equal(a.rgba, b.rgba)

    def test_volume_part_renders(self, forest, camera):
        fb = render_forest(
            forest, camera=camera, renderer=HybridRenderer(n_slices=12),
            volume_resolution=24, part="volume",
        )
        assert np.any(fb.rgba[..., 3] > 0.0)

    def test_points_part_renders(self, forest, camera):
        fb = render_forest(
            forest, camera=camera, renderer=HybridRenderer(n_slices=12),
            volume_resolution=24, part="points",
        )
        assert np.any(fb.rgba[..., 3] > 0.0)

    def test_pinned_max_density_respected(self, forest, camera):
        """A caller-pinned ``max_density`` is the renderer's scale."""
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
        """adaptive=True routes the volume pass through AMR bricks and
        still produces a covered, finite image."""
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
        with pytest.raises(ValueError, match="power of two"):
            render_forest(forest, adaptive=True, amr_bricks=6)

    def test_bad_part_rejected(self, forest):
        with pytest.raises(ValueError, match="part"):
            render_forest(forest, part="wireframe")


def _frame_inputs():
    """name -> particles: a beam, duplicated rows (ties in every node
    density and coordinate), and a cloud in one octant of explicit
    bounds, which leaves every other brick empty."""
    rng = np.random.default_rng(29)
    beam = np.vstack([rng.normal(0.0, 0.3, (6_000, 6)), rng.normal(0.0, 1.5, (600, 6))])
    octant = np.column_stack(
        [rng.uniform(0.05, 0.95, (3_000, 3)), rng.normal(0.0, 1.0, (3_000, 3))]
    )
    return {
        "beam": beam,
        "duplicates": np.repeat(beam[:1_500], 3, axis=0),
        "octant": octant,
    }


FRAME_INPUTS = _frame_inputs()
OCTANT_BOUNDS = dict(lo=[-1.0] * 3, hi=[1.0] * 3)


def _max_ulp(a, b) -> int:
    a = np.asarray(a, dtype=np.float32).view(np.int32).astype(np.int64)
    b = np.asarray(b, dtype=np.float32).view(np.int32).astype(np.int64)
    return int(np.max(np.abs(a - b))) if a.size else 0


def _densities(forest):
    d = forest.nodes["density"]
    return [-np.inf, 0.0, *np.percentile(d, [5, 25, 50, 90]).tolist(), np.inf]


class TestForestAsPartitionedFrame:
    """The forest answers extract's calls as the single octree it
    reconstructs, whatever the brick count."""

    @pytest.fixture(
        scope="class",
        params=[(name, b) for name in sorted(FRAME_INPUTS) for b in (1, 2, 4)],
        ids=lambda p: f"{p[0]}-bricks{p[1]}",
    )
    def case(self, request, tmp_path_factory):
        name, bricks = request.param
        particles = FRAME_INPUTS[name]
        bounds = OCTANT_BOUNDS if name == "octant" else {}
        out = tmp_path_factory.mktemp(f"{name}_{bricks}") / "forest"
        forest = partition_forest(
            particles, out, "xyz", bricks=bricks, max_level=MAX_LEVEL,
            capacity=CAPACITY, shard_rows=500, **bounds,
        )
        # the single octree refined to the brick level everywhere, as
        # every brick tree is; the in-core ``partition`` when that is
        # where its capacity rule stops anyway
        single = partition_store(
            particles, out.parent / "single", "xyz", max_level=MAX_LEVEL,
            capacity=CAPACITY, min_level=forest.brick_level, **bounds,
        )
        return name, forest, single

    def test_is_the_single_octree(self, case):
        name, forest, single = case
        if name == "octant" and forest.bricks > 1:
            assert len(forest.brick_ids) < forest.n_bricks  # empty bricks
        frame = forest.to_partitioned_frame()
        frame.validate()
        assert np.array_equal(forest.nodes, single.nodes)
        assert np.array_equal(frame.particles, single.store.to_array())

    def test_read_prefix_at_every_cutoff_and_at_random(self, case):
        _, forest, _ = case
        particles = forest.to_partitioned_frame().particles
        ends = np.cumsum(forest.nodes["count"].astype(np.int64))
        rng = np.random.default_rng(4)
        cuts = [0, *ends.tolist(), *rng.integers(0, forest.n_particles + 1, 40).tolist()]
        for n in cuts:
            got = forest.read_prefix(n)
            assert got.dtype == np.float64 and got.shape == (n, 6)
            assert np.array_equal(got, particles[:n]), n
        for d in _densities(forest):
            n = forest.density_cutoff_index(d)
            assert np.array_equal(forest.read_prefix(n), particles[:n])

    @pytest.mark.parametrize("adaptive", [False, True], ids=["flat", "adaptive"])
    def test_extract_matches_the_gathered_frame(self, case, adaptive):
        _, forest, _ = case
        frame = forest.to_partitioned_frame()
        kw = dict(volume_resolution=17, adaptive=adaptive, amr_bricks=4, amr_brick_cells=4)
        for t in _densities(forest):
            ours = extract(forest, t, **kw)
            ref = extract(frame, t, **kw)
            assert np.array_equal(ours.points, ref.points)
            assert np.array_equal(ours.point_densities, ref.point_densities)
            assert _max_ulp(ours.volume, ref.volume) <= 1
            if adaptive:
                a, b = ours.meta["amr"], ref.meta["amr"]
                assert np.array_equal(a.levels, b.levels)
                assert _max_ulp(a.data, b.data) <= 1

    def test_extract_reads_the_prefix_not_the_frame(self, case):
        """With the bricks' volumes stored, a low-threshold extract
        holds the halo and one grid, far below the particle payload."""
        _, forest, _ = case
        t = float(np.percentile(forest.nodes["density"], 5))
        extract(forest, t, volume_resolution=8)  # deposits the bricks' volumes
        tracemalloc.start()
        try:
            extract(forest, t, volume_resolution=8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < forest.n_particles * 48 / 4

