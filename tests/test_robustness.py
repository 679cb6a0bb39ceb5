"""Failure injection: corrupt data, degenerate inputs, bad state.

A library adopted downstream meets dirty data; these tests pin down
that every entry point fails loudly (clear exceptions) or degrades
gracefully (documented fallbacks) instead of silently corrupting
output.
"""

import numpy as np
import pytest

from repro.core.dataset import as_dataset, open_dataset
from repro.core.errors import FormatError, SimulatedCrash
from repro.core.faults import FaultPlan
from repro.core.store import create_store
from repro.hybrid.representation import HybridFrame
from repro.octree.forest import partition_forest
from repro.octree.partition import partition
from repro.octree.stream_partition import NODES_FILE, PartitionedStore, partition_store


class TestNonFiniteInputs:
    def test_octree_rejects_nan(self, rng):
        particles = rng.random((100, 6))
        particles[5, 1] = np.nan
        with pytest.raises(ValueError, match="NaN/Inf"):
            partition(as_dataset(particles), "xyz")

    def test_octree_rejects_inf(self, rng):
        particles = rng.random((100, 6))
        particles[0, 0] = np.inf
        with pytest.raises(ValueError, match="NaN/Inf"):
            partition(as_dataset(particles), "xyz")

    def test_partition_rejects_nan(self, rng):
        particles = rng.standard_normal((100, 6))
        particles[10, 3] = np.nan
        with pytest.raises(ValueError, match="NaN/Inf"):
            partition(as_dataset(particles), "pxpypz")

    def test_partition_clean_momenta_nan_elsewhere(self, rng):
        """Only the plot-type columns must be finite: partitioning
        (x,y,z) should survive NaN in an unused momentum column?  No --
        the particle file stores all six columns, so we reject."""
        particles = rng.standard_normal((100, 6))
        particles[10, 3] = np.nan
        # xyz partitioning only inspects columns 0..2; the NaN rides
        # along in the payload, which round-trips bit-exact
        pf = partition(as_dataset(particles), "xyz", max_level=4)
        assert np.isnan(pf.particles).sum() == 1


def _bad_inputs(rng):
    """(particles, keyword overrides, expected message) the in-core
    partition rejects."""
    clean = rng.uniform(0.0, 1.0, (300, 6))
    nan, inf = clean.copy(), clean.copy()
    nan[117, 1] = np.nan
    inf[3, 2] = np.inf
    unit = {"lo": np.zeros(3), "hi": np.ones(3)}
    return [
        (nan, {}, "NaN/Inf"),
        (nan, unit, "NaN/Inf"),
        (inf, {}, "NaN/Inf"),
        (clean, {"lo": np.array([np.nan, 0.0, 0.0]), "hi": np.ones(3)}, "NaN/Inf"),
        (clean, {"lo": np.zeros(3), "hi": np.array([1.0, np.inf, 1.0])}, "NaN/Inf"),
        (clean, {"capacity": 0}, "capacity"),
        (clean, {"lo": np.ones(3), "hi": np.zeros(3)}, "hi > lo"),
        (clean, {"lo": np.zeros(3), "hi": np.array([1.0, 0.0, 1.0])}, "hi > lo"),
        (clean, {"max_level": 21}, "max_level"),
    ]


class TestPartitionerInputChecks:
    """Every partitioner rejects what the in-core one rejects, with its
    ``ValueError``, and commits no output."""

    @pytest.mark.parametrize(
        "kind", ["partition", "store_array", "store_w1", "store_w2", "forest"]
    )
    def test_rejects_like_in_core(self, kind, rng, tmp_path):
        for k, (particles, kw, message) in enumerate(_bad_inputs(rng)):
            out = tmp_path / f"out{k}"
            with pytest.raises(ValueError, match=message) as info:
                if kind == "partition":
                    partition(as_dataset(particles), "xyz", **kw)
                elif kind == "forest":
                    partition_forest(particles, out, "xyz", bricks=2, **kw)
                elif kind == "store_array":
                    partition_store(particles, out, "xyz", **kw)
                else:
                    src = create_store(tmp_path / f"src{k}", particles, shard_rows=64)
                    partition_store(
                        src, out, "xyz", workers=int(kind[-1]), shard_rows=64, **kw
                    )
            assert not isinstance(info.value, FormatError), (k, info.value)
            assert not (out / "store.json").exists()
            assert not (out / "forest.json").exists()


class TestTruncatedFiles:
    def test_truncated_hybrid_payload(self, tmp_path, rng):
        f = HybridFrame(
            volume=rng.random((4, 4, 4)).astype(np.float32),
            points=rng.random((20, 3)).astype(np.float32),
            point_densities=rng.random(20).astype(np.float32),
            lo=np.zeros(3),
            hi=np.ones(3),
        )
        path = tmp_path / "t.hybrid"
        f.save(path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(FormatError):
            HybridFrame.load(path)

    def test_truncated_partition_particles(self, tmp_path, rng):
        pf = partition(as_dataset(rng.standard_normal((500, 6))), "xyz", max_level=4)
        ps = PartitionedStore.from_frame(pf, tmp_path / "p")
        shard = ps.store.shard_path(0)
        data = shard.read_bytes()
        shard.write_bytes(data[: len(data) - 100])
        with pytest.raises(FormatError):
            PartitionedStore.open(tmp_path / "p")

    def test_zero_byte_frame_file(self, tmp_path):
        path = tmp_path / "empty.frame"
        path.write_bytes(b"")
        with pytest.raises(FormatError, match="not a sharded store directory"):
            open_dataset(path)

    def test_garbage_files_raise_typed_format_error(self, tmp_path):
        """Foreign bytes under our extensions fail with FormatError,
        not numpy/struct decode noise."""
        from repro.fieldlines.compact import read_lines

        garbage = tmp_path / "junk.hybrid"
        garbage.write_bytes(b"\x00" * 256)
        with pytest.raises(FormatError):
            HybridFrame.load(garbage)
        (tmp_path / "junk").mkdir()
        (tmp_path / "junk" / NODES_FILE).write_bytes(b"\xff" * 128)
        (tmp_path / "junk" / "store.json").write_bytes(b"\xff" * 128)
        with pytest.raises(FormatError):
            PartitionedStore.open(tmp_path / "junk")
        (tmp_path / "junk.lines").write_bytes(b"not a packed line blob at all")
        with pytest.raises(FormatError):
            read_lines(tmp_path / "junk.lines")

    def test_format_error_is_still_a_value_error(self):
        """Pre-existing ``except ValueError`` call sites keep working."""
        assert issubclass(FormatError, ValueError)


class TestAtomicSaves:
    def test_killed_hybrid_save_leaves_old_frame(self, tmp_path, rng):
        """A write killed between temp-write and rename must leave the
        previous frame fully readable (no torn file)."""
        def make(step):
            return HybridFrame(
                volume=rng.random((4, 4, 4)).astype(np.float32),
                points=rng.random((10, 3)).astype(np.float32),
                point_densities=rng.random(10).astype(np.float32),
                lo=np.zeros(3),
                hi=np.ones(3),
                step=step,
            )

        path = tmp_path / "frame.hybrid"
        old = make(step=1)
        old.save(path)
        plan = FaultPlan(seed=0, torn_write=1.0)
        with plan.file_faults():
            with pytest.raises(SimulatedCrash):
                make(step=2).save(path)
        back = HybridFrame.load(path)
        assert back.step == 1
        assert np.array_equal(back.volume, old.volume)

    def test_killed_partition_save_leaves_old_files(self, tmp_path, rng):
        particles = rng.standard_normal((300, 6))
        pf = partition(as_dataset(particles), "xyz", max_level=4, step=3)
        d = tmp_path / "p"
        PartitionedStore.from_frame(pf, d)
        newer = partition(as_dataset(particles), "xyz", max_level=4, step=4)
        plan = FaultPlan(seed=0, torn_write=1.0)
        with plan.file_faults():
            with pytest.raises(SimulatedCrash):
                PartitionedStore.from_frame(newer, d)
        back = PartitionedStore.open(d).to_frame()
        assert back.step == 3
        assert np.array_equal(back.particles, pf.particles)

    def test_killed_line_step_save_leaves_old_step(self, tmp_path):
        from repro.fieldlines.integrate import FieldLine
        from repro.fieldlines.timeseries import LineSequence

        def line(scale):
            pts = np.linspace([0, 0, 0], [scale, 0, 0], 5)
            t = np.tile([1.0, 0, 0], (5, 1))
            return FieldLine(points=pts, tangents=t, magnitudes=np.ones(5))

        seq = LineSequence(tmp_path / "seq")
        seq.save(0, [line(1.0)])
        plan = FaultPlan(seed=0, torn_write=1.0)
        with plan.file_faults():
            with pytest.raises(SimulatedCrash):
                seq.save(0, [line(2.0)])
        back = seq.load(0)
        assert np.allclose(back[0].points[-1], [1.0, 0, 0])


class TestDegenerateGeometry:
    def test_all_identical_particles(self):
        particles = np.ones((200, 6))
        pf = partition(as_dataset(particles), "xyz", max_level=5, capacity=16)
        pf.validate()
        assert pf.n_nodes >= 1

    def test_collinear_particles(self, rng):
        particles = np.zeros((300, 6))
        particles[:, 0] = rng.random(300)  # all on the x axis
        pf = partition(as_dataset(particles), "xyz", max_level=5, capacity=16)
        pf.validate()

    def test_two_point_line_strip(self):
        from repro.fieldlines.integrate import FieldLine
        from repro.fieldlines.sos import build_strips
        from repro.render.camera import Camera

        cam = Camera(eye=[0, 0, 5.0], target=[0, 0, 0], width=16, height=16)
        line = FieldLine(
            points=np.array([[0.0, 0, 0], [0.1, 0, 0]]),
            tangents=np.array([[1.0, 0, 0], [1.0, 0, 0]]),
            magnitudes=np.ones(2),
        )
        strips = build_strips([line], cam, width=0.05)
        assert strips.n_triangles == 2
        assert np.isfinite(strips.vertices).all()

    def test_camera_at_data_point(self):
        """Projecting the eye position itself must not produce NaN
        pixel coordinates that escape into buffers."""
        from repro.render.camera import Camera

        cam = Camera(eye=[0, 0, 5.0], target=[0, 0, 0], width=16, height=16)
        xy, depth, vis = cam.project(np.array([[0.0, 0.0, 5.0]]))
        assert not vis[0]
        assert np.isfinite(xy).all()


class TestRendererEdges:
    def test_render_zero_point_hybrid(self):
        from repro.hybrid.renderer import HybridRenderer
        from repro.render.camera import Camera

        frame = HybridFrame(
            volume=np.zeros((4, 4, 4), dtype=np.float32),
            points=np.empty((0, 3)),
            point_densities=np.empty(0),
            lo=np.zeros(3),
            hi=np.ones(3),
        )
        cam = Camera.fit_bounds(frame.lo, frame.hi, width=24, height=24)
        img = HybridRenderer(n_slices=4).render(frame, cam).to_rgb8()
        assert img.shape == (24, 24, 3)

    def test_render_single_voxel_volume(self):
        from repro.hybrid.renderer import HybridRenderer
        from repro.render.camera import Camera

        frame = HybridFrame(
            volume=np.ones((1, 1, 1), dtype=np.float32),
            points=np.empty((0, 3)),
            point_densities=np.empty(0),
            lo=np.zeros(3),
            hi=np.ones(3),
        )
        cam = Camera.fit_bounds(frame.lo, frame.hi, width=16, height=16)
        img = HybridRenderer(n_slices=4).render(frame, cam).to_rgb8()
        assert np.isfinite(img).all()

    def test_degenerate_bounds_volume(self):
        """A flat (zero-extent) axis in the bounds must not divide by
        zero during slicing."""
        from repro.render.volume import render_volume
        from repro.render.camera import Camera

        cam = Camera(eye=[0, 0, 5.0], target=[0, 0, 0], width=16, height=16)
        vol = np.zeros((4, 4, 4, 4))
        fb = render_volume(cam, vol, [0, 0, 0], [1, 1, 0], n_slices=4)
        assert np.isfinite(fb.rgba).all()
