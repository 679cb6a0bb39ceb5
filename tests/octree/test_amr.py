"""Adaptive AMR density volumes: manifest determinism, mass
conservation, crash-safe serialization, and the flat-path bitwise
guarantee of ``extract(adaptive=True)``."""

import numpy as np
import pytest

from repro.core.dataset import as_dataset
from repro.core.errors import FormatError
from repro.hybrid.representation import HybridFrame
from repro.octree.amr import (
    AmrVolume,
    amr_plan_nbytes,
    brick_particle_counts,
    build_amr,
    plan_amr_levels,
)
from repro.octree.extraction import extract, extraction_sizes
from repro.octree.partition import partition
from repro.render.camera import Camera


@pytest.fixture(scope="module")
def beam_frame():
    """A concentrated beam core with a compact halo -- the workload
    refinement exists for (empty corner bricks free the byte budget)."""
    rng = np.random.default_rng(99)
    core = rng.normal(0.5, 0.05, (18_000, 6))
    halo = rng.normal(0.5, 0.16, (2_000, 6))
    return partition(
        as_dataset(np.vstack([core, halo])), "xyz", max_level=5, capacity=64
    )


@pytest.fixture(scope="module")
def beam_amr(beam_frame):
    return build_amr(beam_frame, byte_budget=64**3 * 4)


class TestPlan:
    def test_refine_budget_rule(self):
        counts = np.zeros((2, 2, 2))
        counts[0, 0, 0] = 5      # below budget -> level 0
        counts[1, 1, 1] = 50     # over budget, under 8x -> level 1
        counts[0, 1, 0] = 10_000  # far over -> capped at max_refine
        levels = plan_amr_levels(counts, refine_budget=10, max_refine=2)
        assert levels[0, 0, 0] == 0
        assert levels[1, 1, 1] == 1
        assert levels[0, 1, 0] == 2
        assert levels[1, 0, 0] == -1  # empty brick

    def test_byte_budget_respected_and_greedy(self):
        counts = np.zeros((2, 2, 2))
        counts[0, 0, 0] = 1000
        counts[1, 1, 1] = 10
        bc = 4
        # room for both bricks at level 0 plus exactly one refinement
        budget = 2 * bc**3 * 4 + ((2 * bc) ** 3 - bc**3) * 4
        levels = plan_amr_levels(
            counts, brick_cells=bc, max_refine=2, byte_budget=budget
        )
        assert levels[0, 0, 0] == 1  # the densest brick won the budget
        assert levels[1, 1, 1] == 0
        assert amr_plan_nbytes(levels, bc) <= budget

    def test_deterministic_tie_break(self):
        counts = np.full((2, 2, 2), 50.0)
        bc = 4
        budget = 8 * bc**3 * 4 + ((2 * bc) ** 3 - bc**3) * 4
        levels = plan_amr_levels(
            counts, brick_cells=bc, max_refine=1, byte_budget=budget
        )
        # equal counts: the single affordable refinement goes to the
        # lowest brick id, deterministically
        assert levels.reshape(-1)[0] == 1
        assert np.count_nonzero(levels == 1) == 1

    def test_validation(self):
        counts = np.ones((2, 2, 2))
        with pytest.raises(ValueError, match="exactly one"):
            plan_amr_levels(counts)
        with pytest.raises(ValueError, match="exactly one"):
            plan_amr_levels(counts, refine_budget=1, byte_budget=1)
        with pytest.raises(ValueError, match="cubic"):
            plan_amr_levels(np.ones((2, 2, 3)), refine_budget=1)
        with pytest.raises(ValueError, match="power of two"):
            plan_amr_levels(np.ones((3, 3, 3)), refine_budget=1)

    def test_brick_histogram_counts_every_particle(self, beam_frame):
        counts = brick_particle_counts(
            [beam_frame.coords], beam_frame.lo, beam_frame.hi, 8
        )
        assert counts.sum() == beam_frame.n_particles


class TestBuild:
    def test_mass_conserved(self, beam_frame, beam_amr):
        assert beam_amr.counts().sum() == pytest.approx(
            beam_frame.n_particles, rel=1e-9
        )

    def test_equal_memory_budget(self, beam_amr):
        flat_bytes = 64**3 * 4
        assert beam_amr.nbytes <= flat_bytes
        assert beam_amr.nbytes >= 0.9 * flat_bytes  # budget actually spent
        assert beam_amr.n_refined > 0

    def test_rebuild_bitwise_identical(self, beam_frame, beam_amr):
        again = build_amr(beam_frame, byte_budget=64**3 * 4)
        assert np.array_equal(beam_amr.levels, again.levels)
        assert np.array_equal(beam_amr.offsets, again.offsets)
        assert np.array_equal(beam_amr.data, again.data)
        assert beam_amr.manifest() == again.manifest()

    def test_refinement_follows_the_beam(self, beam_amr):
        """Refined bricks sit where the core is: all of them inside the
        central half of the root grid."""
        refined = np.argwhere(beam_amr.levels >= 1)
        assert len(refined)
        assert np.all(refined >= 1) and np.all(refined <= 6)

    def test_to_dense_shape_and_support(self, beam_amr):
        dense = beam_amr.to_dense(32)
        assert dense.shape == (32, 32, 32)
        assert dense.dtype == np.float32
        assert dense.max() > 0.0
        # empty bricks resample to exactly zero
        empty = np.argwhere(beam_amr.levels < 0)
        i, j, k = empty[0]
        assert np.all(dense[4 * i : 4 * i + 4, 4 * j : 4 * j + 4, 4 * k : 4 * k + 4] == 0.0)

    def test_incommensurate_resolution_raises(self, beam_amr):
        with pytest.raises(ValueError, match="multiple of bricks"):
            beam_amr.to_dense(12)


class TestSerialization:
    def test_roundtrip_bitwise(self, beam_amr):
        raw = beam_amr.to_bytes()
        back = AmrVolume.from_bytes(raw)
        assert np.array_equal(back.levels, beam_amr.levels)
        assert np.array_equal(back.data, beam_amr.data)
        assert np.array_equal(back.lo, beam_amr.lo)
        assert np.array_equal(back.hi, beam_amr.hi)
        assert back.to_bytes() == raw  # byte-stable

    def test_save_load(self, beam_amr, tmp_path):
        path = tmp_path / "beam.amr"
        n = beam_amr.save(path)
        assert path.stat().st_size == n
        back = AmrVolume.load(path)
        assert np.array_equal(back.data, beam_amr.data)

    def test_corruption_detected(self, beam_amr):
        raw = bytearray(beam_amr.to_bytes())
        raw[len(raw) // 2] ^= 0xFF
        with pytest.raises(FormatError, match="CRC"):
            AmrVolume.from_bytes(bytes(raw))

    def test_truncation_detected(self, beam_amr):
        raw = beam_amr.to_bytes()
        with pytest.raises(FormatError, match="truncated"):
            AmrVolume.from_bytes(raw[:10])
        with pytest.raises(FormatError, match="truncated"):
            AmrVolume.from_bytes(raw[:-8])

    def test_wrong_magic_rejected(self, beam_amr):
        raw = beam_amr.to_bytes()
        with pytest.raises(FormatError, match="not an AMR volume"):
            AmrVolume.from_bytes(b"NOTMAGIC" + raw[8:])


class TestAdaptiveExtraction:
    def test_flat_volume_bitwise_unchanged(self, beam_frame):
        thr = float(np.percentile(beam_frame.nodes["density"], 60))
        flat = extract(beam_frame, thr, volume_resolution=32)
        amr = extract(
            beam_frame, thr, volume_resolution=32, adaptive=True,
            amr_brick_cells=4,
        )
        assert np.array_equal(flat.volume, amr.volume)
        assert np.array_equal(flat.points, amr.points)
        assert np.array_equal(flat.point_densities, amr.point_densities)
        assert "amr" not in flat.meta
        assert amr.meta["amr"].nbytes <= 32**3 * 4  # equal-memory default

    def test_hybrid_frame_v3_roundtrip(self, beam_frame):
        thr = float(np.percentile(beam_frame.nodes["density"], 60))
        amr = extract(beam_frame, thr, volume_resolution=32, adaptive=True)
        back = HybridFrame.from_bytes(amr.to_bytes())
        assert np.array_equal(back.meta["amr"].levels, amr.meta["amr"].levels)
        assert np.array_equal(back.meta["amr"].data, amr.meta["amr"].data)
        assert np.array_equal(back.volume, amr.volume)

    def test_flat_frame_bytes_stay_v2(self, beam_frame):
        """A frame without an adaptive volume serializes exactly as
        before this feature existed (no version bump, no trailer)."""
        thr = float(np.percentile(beam_frame.nodes["density"], 60))
        flat = extract(beam_frame, thr, volume_resolution=32)
        raw = flat.to_bytes()
        assert HybridFrame.from_bytes(raw).to_bytes() == raw
        amr = extract(beam_frame, thr, volume_resolution=32, adaptive=True)
        assert len(amr.to_bytes()) > len(raw)

    def test_extraction_sizes_accounting(self, beam_frame):
        thr = float(np.percentile(beam_frame.nodes["density"], 60))
        flat_rows = extraction_sizes(beam_frame, [thr], volume_resolution=32)
        amr_rows = extraction_sizes(
            beam_frame, [thr], volume_resolution=32, adaptive=True,
            amr_brick_cells=4,
        )
        assert "amr_bytes" not in flat_rows[0]
        row = amr_rows[0]
        assert row["volume_bytes"] == 32**3 * 4
        assert 0 < row["amr_bytes"] <= 32**3 * 4
        assert row["total_bytes"] == (
            row["point_bytes"] + row["volume_bytes"] + row["amr_bytes"]
        )
        # the priced plan is exactly what extraction builds
        built = extract(
            beam_frame, thr, volume_resolution=32, adaptive=True,
            amr_brick_cells=4,
        ).meta["amr"]
        assert row["amr_bytes"] == built.nbytes


class TestAdaptiveRendering:
    def test_amr_render_close_to_flat(self, beam_frame):
        from repro.hybrid.renderer import HybridRenderer

        thr = float(np.percentile(beam_frame.nodes["density"], 60))
        amr_frame = extract(beam_frame, thr, volume_resolution=32, adaptive=True)
        camera = Camera.fit_bounds(
            amr_frame.lo, amr_frame.hi, width=96, height=96
        )
        # pin one normalizer scale so the comparison isolates the
        # brick resampling, not the classification scale
        dmax = max(
            amr_frame.max_density(), amr_frame.meta["amr"].max_density()
        )
        flat_img = HybridRenderer(
            n_slices=24, volume_mode="flat", max_density=dmax
        ).render(amr_frame, camera)
        amr_img = HybridRenderer(n_slices=24, max_density=dmax).render(
            amr_frame, camera
        )
        assert np.all(np.isfinite(amr_img.rgba))
        assert np.any(amr_img.rgba != 0.0)
        # same scene through the adaptive bricks: close on average
        # (individual core pixels legitimately sharpen under the log
        # transfer, so the bound is on the mean, not the max)
        assert np.mean(np.abs(amr_img.rgba - flat_img.rgba)) < 0.02

    def test_volume_mode_flat_bitwise_matches_flat_frame(self, beam_frame):
        from repro.hybrid.renderer import HybridRenderer

        thr = float(np.percentile(beam_frame.nodes["density"], 60))
        flat_frame = extract(beam_frame, thr, volume_resolution=32)
        amr_frame = extract(beam_frame, thr, volume_resolution=32, adaptive=True)
        camera = Camera.fit_bounds(
            flat_frame.lo, flat_frame.hi, width=96, height=96
        )
        a = HybridRenderer(n_slices=24, cache=False).render(flat_frame, camera)
        b = HybridRenderer(n_slices=24, cache=False, volume_mode="flat").render(
            amr_frame, camera
        )
        assert np.array_equal(a.rgba, b.rgba)
