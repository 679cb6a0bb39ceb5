"""Cross-module integration: the full paper workflows at small scale."""

import numpy as np
import pytest

from repro.beams.simulation import BeamConfig, BeamSimulation
from repro.core.dataset import as_dataset, open_dataset
from repro.core.store import create_store
from repro.hybrid.renderer import HybridRenderer
from repro.hybrid.viewer import FrameViewer
from repro.octree.extraction import extract, threshold_for_point_budget
from repro.octree.partition import partition
from repro.octree.stream_partition import PartitionedStore
from repro.render.camera import Camera
from repro.render.image import structural_detail


class TestBeamWorkflow:
    """simulate -> write frame stores -> partition -> extract -> view."""

    def test_disk_based_workflow(self, tmp_path):
        sim = BeamSimulation(
            BeamConfig(n_particles=6_000, n_cells=2, seed=3, sc_grid=(16, 16, 16)).resolved()
        )
        stores = {}
        sim.run(
            on_frame=lambda s, p: stores.setdefault(
                s, create_store(tmp_path / "raw" / f"step_{s:06d}", p, step=s)
            ),
            frame_every=5,
        )
        assert len(stores) >= 2

        hybrid_dir = tmp_path / "hybrid"
        hybrid_dir.mkdir()
        threshold = None
        for step in sorted(stores):
            frame = open_dataset(tmp_path / "raw" / f"step_{step:06d}")
            assert frame.step == step
            pf = partition(frame, "xyz", max_level=5, capacity=32)
            PartitionedStore.from_frame(pf, tmp_path / f"part_{step:04d}")
            ps = PartitionedStore.open(tmp_path / f"part_{step:04d}")
            if threshold is None:
                threshold = float(np.percentile(ps.nodes["density"], 60))
            h = extract(ps, threshold, volume_resolution=16)
            h.save(hybrid_dir / f"frame_{step:04d}.hybrid")

        viewer = FrameViewer(hybrid_dir, renderer=HybridRenderer(n_slices=12))
        assert len(viewer) == len(stores)
        cam = Camera.fit_bounds(
            viewer.frame(0).lo, viewer.frame(0).hi, width=48, height=48
        )
        img = viewer.render_current(cam).to_rgb8()
        assert img.sum() > 0

        # hybrid frames are much smaller than the raw frames
        hybrid_bytes = sum(p.stat().st_size for p in hybrid_dir.glob("*.hybrid"))
        assert hybrid_bytes < sum(store.nbytes() for store in stores.values())

    def test_hybrid_size_independent_of_input_size(self):
        """Paper section 2.5: large runs reduce to the same hybrid
        size (at a fixed point budget)."""
        sizes = []
        for n in (5_000, 20_000):
            sim = BeamSimulation(
                BeamConfig(n_particles=n, n_cells=2, seed=4, sc_grid=(16, 16, 16)).resolved()
            )
            sim.run()
            pf = partition(as_dataset(sim.particles), "xyz", max_level=5, capacity=32)
            thr = threshold_for_point_budget(pf, 2_000)
            h = extract(pf, thr, volume_resolution=16)
            assert h.n_points <= 2_000
            sizes.append(h.nbytes())
        # same volume + capped points: sizes within 2x of each other
        assert max(sizes) < 2 * min(sizes)

    def test_hybrid_preserves_halo_detail(self):
        """The Figure 1 claim, quantified: at equal storage, the
        hybrid rendering shows the halo that the pure low-resolution
        volume rendering loses."""
        sim = BeamSimulation(
            BeamConfig(
                n_particles=20_000, n_cells=4, seed=5, mismatch=1.6,
                sc_grid=(16, 16, 16),
            ).resolved()
        )
        sim.run()
        pf = partition(as_dataset(sim.particles), "xyz", max_level=6, capacity=32)
        thr = float(np.percentile(pf.nodes["density"], 70))
        h = extract(pf, thr, volume_resolution=24)
        cam = Camera.fit_bounds(h.lo, h.hi, width=96, height=96)
        renderer = HybridRenderer(n_slices=16)
        hybrid_img = renderer.render(h, cam).to_rgb8()
        volume_img = renderer.render_volume_part(h, cam).to_rgb8()
        # the hybrid shows strictly more of the faint halo
        assert (hybrid_img.sum(axis=2) > 0).mean() > (
            volume_img.sum(axis=2) > 0
        ).mean()
        assert structural_detail(hybrid_img) > structural_detail(volume_img)


class TestFieldLineWorkflow:
    """solve -> seed -> pack -> unpack -> render."""

    def test_solver_to_rendering(self, tmp_path):
        from repro.fieldlines.compact import compression_report, read_lines, write_lines
        from repro.fieldlines.seeding import seed_density_proportional
        from repro.fieldlines.sos import build_strips, render_strips
        from repro.fields.geometry import make_multicell_structure
        from repro.fields.sampling import YeeSampler
        from repro.fields.solver import TimeDomainSolver

        s = make_multicell_structure(2, n_xy=4, n_z_per_unit=5)
        solver = TimeDomainSolver(s, cells_per_unit=6.0)
        solver.run(solver.steps_for(3.0))
        mesh = solver.fields_on_mesh()
        sampler = YeeSampler(solver, "E")

        ordered = seed_density_proportional(
            mesh, sampler, total_lines=12, field_name="E", max_steps=80,
            rng=np.random.default_rng(0),
        )
        assert len(ordered) >= 1

        write_lines(tmp_path / "lines.bin", ordered.lines)
        back = read_lines(tmp_path / "lines.bin")
        assert len(back) == len(ordered)

        rep = compression_report(mesh, ordered.lines)
        assert rep["compression_factor"] > 1.0

        cam = Camera.fit_bounds(*s.bounds(), width=64, height=64)
        strips = build_strips(back, cam, width=0.04)
        img = render_strips(cam, strips).to_rgb8()
        assert img.sum() > 0
