"""The one-release compatibility shims are gone: old call shapes raise.

PR 5 shipped ``DeprecationWarning`` shims for raw ndarrays and
positional tuning arguments in ``partition`` / ``extract`` /
``render_mixed``.  This release removes them; these tests pin that the
old shapes now raise ``TypeError`` and the supported keyword shapes
stay warning-free.
"""

import warnings

import numpy as np
import pytest

from repro.core.dataset import as_dataset
from repro.hybrid.renderer import HybridRenderer
from repro.octree.extraction import extract
from repro.octree.partition import partition
from repro.render.camera import Camera
from repro.render.points import point_fragments
from repro.render.volume import render_mixed


@pytest.fixture(scope="module")
def particles():
    rng = np.random.default_rng(41)
    return rng.normal(0.0, 0.5, (6_000, 6))


class TestPartitionContract:
    def test_raw_array_raises(self, particles):
        with pytest.raises(TypeError, match="open_dataset"):
            partition(particles, "xyz", max_level=4, capacity=32)

    def test_raw_list_raises(self):
        with pytest.raises(TypeError, match="ParticleDataset"):
            partition([[0.0] * 6], "xyz")

    def test_positional_tuning_raises(self, particles):
        with pytest.raises(TypeError):
            partition(as_dataset(particles), "xyz", 4, 32)

    def test_keyword_shape_is_silent(self, particles):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            partition(as_dataset(particles), "xyz", max_level=4, capacity=32)

    def test_dataset_step_inherited(self, particles):
        pf = partition(as_dataset(particles, step=13), "xyz", max_level=3)
        assert pf.step == 13

    def test_step_override_wins(self, particles):
        pf = partition(as_dataset(particles, step=13), "xyz", max_level=3, step=7)
        assert pf.step == 7


class TestExtractContract:
    @pytest.fixture(scope="class")
    def frame(self, particles):
        return partition(as_dataset(particles), "xyz", max_level=4, capacity=32)

    def test_positional_tuning_raises(self, frame):
        t = float(np.percentile(frame.nodes["density"], 50))
        with pytest.raises(TypeError):
            extract(frame, t, 16)

    def test_keyword_shape_is_silent(self, frame):
        t = float(np.percentile(frame.nodes["density"], 50))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            extract(frame, t, volume_resolution=16)

    def test_volume_from_raises(self, frame):
        """The test-only ``volume_from`` knob is gone: every extraction
        deposits all particles into its volume."""
        with pytest.raises(TypeError):
            extract(frame, 1.0, volume_resolution=16, volume_from="rest")

    def test_build_amr_cutoff_raises(self, frame):
        """``build_amr`` always covers every particle; its ``cutoff``
        and ``volume_from`` parameters are gone."""
        from repro.octree.amr import build_amr

        with pytest.raises(TypeError):
            build_amr(frame, cutoff=10)
        with pytest.raises(TypeError):
            build_amr(frame, volume_from="all")


class TestRenderMixedContract:
    def test_positional_fragments_raise(self):
        rng = np.random.default_rng(6)
        camera = Camera.fit_bounds([-1, -1, -1], [1, 1, 1], width=64, height=64)
        pos = rng.uniform(-0.8, 0.8, (500, 3))
        rgba = np.concatenate(
            [rng.uniform(0.2, 1.0, (500, 3)), np.full((500, 1), 0.6)], axis=1
        )
        frags = point_fragments(camera, pos, rgba)
        with pytest.raises(TypeError):
            render_mixed(camera, None, [-1] * 3, [1] * 3, frags)

    def test_keyword_shape_is_silent(self):
        rng = np.random.default_rng(6)
        camera = Camera.fit_bounds([-1, -1, -1], [1, 1, 1], width=64, height=64)
        pos = rng.uniform(-0.8, 0.8, (500, 3))
        rgba = np.concatenate(
            [rng.uniform(0.2, 1.0, (500, 3)), np.full((500, 1), 0.6)], axis=1
        )
        frags = point_fragments(camera, pos, rgba)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            render_mixed(camera, None, [-1] * 3, [1] * 3, point_fragments=frags)

    def test_renderer_paths_are_silent(self, hybrid_frame):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            cam = Camera.fit_bounds(
                hybrid_frame.lo, hybrid_frame.hi, width=48, height=48
            )
            HybridRenderer(n_slices=16).render(hybrid_frame, camera=cam)


class TestImplicitLatticeShim:
    """PR 10 makes the lattice explicit; the implicit FODO path warns
    for one release, then the geometry knobs stop building a channel."""

    def test_implicit_fodo_warns_on_construction(self):
        from repro.beams.simulation import BeamConfig, BeamSimulation

        cfg = BeamConfig(n_particles=100, space_charge=False)
        with pytest.warns(DeprecationWarning, match="explicit lattice"):
            sim = BeamSimulation(cfg)
        # the shim still builds the legacy channel exactly
        assert sim.n_steps_total == 5 * cfg.n_cells

    def test_explicit_lattice_is_silent(self):
        from repro.beams.scenario import LatticeSpec
        from repro.beams.simulation import BeamConfig, BeamSimulation

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            BeamSimulation(
                BeamConfig(
                    n_particles=100,
                    space_charge=False,
                    lattice=LatticeSpec.fodo(n_cells=3),
                )
            )

    def test_resolved_is_silent_and_equivalent(self):
        from repro.beams.simulation import BeamConfig, BeamSimulation

        cfg = BeamConfig(n_particles=100, space_charge=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            sim = BeamSimulation(cfg.resolved())
        assert sim.n_steps_total == 5 * cfg.n_cells

    def test_shim_keeps_stability_check(self):
        from repro.beams.simulation import BeamConfig, BeamSimulation

        cfg = BeamConfig(n_particles=100, quad_k=40.0)
        with pytest.warns(DeprecationWarning):
            with pytest.raises(ValueError, match="unstable"):
                BeamSimulation(cfg)
