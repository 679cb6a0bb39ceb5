"""Incremental loading and the density-accuracy metric."""

import numpy as np
import pytest
from scipy.spatial import cKDTree
from scipy.stats import spearmanr

from repro.fieldlines.incremental import (
    IncrementalViewer,
    density_correlation,
    element_line_counts,
)
from repro.render.camera import Camera


@pytest.fixture(scope="module")
def viewer(ordered_lines_mod, structure3_mod):
    cam = Camera.fit_bounds(*structure3_mod.bounds(), width=64, height=64)
    return IncrementalViewer(ordered_lines_mod, cam, width=0.03)


# re-export session fixtures under module scope names for clarity
@pytest.fixture(scope="module")
def structure3_mod(structure3, mode3):
    return structure3


@pytest.fixture(scope="module")
def ordered_lines_mod(ordered_lines):
    return ordered_lines


class TestElementCounts:
    def test_counts_bounded_by_lines(self, structure3_mod, ordered_lines_mod):
        counts = element_line_counts(structure3_mod.mesh, ordered_lines_mod.lines)
        assert counts.max() <= len(ordered_lines_mod)
        assert counts.sum() > 0

    def test_empty_lines(self, structure3_mod):
        counts = element_line_counts(structure3_mod.mesh, [])
        assert np.all(counts == 0)

    def test_equals_per_line_queries(self, structure3_mod, ordered_lines_mod):
        """The fused query counts exactly what one query per line did,
        so ``density_correlation`` is unchanged too."""
        mesh = structure3_mod.mesh
        tree = cKDTree(mesh.element_centers())
        intensity = mesh.element_field_intensity("E") * mesh.element_volumes()
        for n in (1, 10, len(ordered_lines_mod)):
            ref = np.zeros(mesh.n_elements)
            for line in ordered_lines_mod.prefix(n):
                _, idx = tree.query(line.points)
                ref[np.unique(idx)] += 1.0
            assert np.array_equal(
                element_line_counts(mesh, ordered_lines_mod.prefix(n)), ref
            )
            assert density_correlation(mesh, ordered_lines_mod, n) == float(
                spearmanr(ref, intensity)[0]
            )


class TestDensityCorrelation:
    def test_positive_and_grows(self, structure3_mod, ordered_lines_mod):
        """Line density correlates with field intensity, better with
        more lines -- the quantitative Figure 7/10 claim."""
        rho_small = density_correlation(structure3_mod.mesh, ordered_lines_mod, 10)
        rho_full = density_correlation(
            structure3_mod.mesh, ordered_lines_mod, len(ordered_lines_mod)
        )
        assert rho_full > 0.3
        assert rho_full >= rho_small - 0.05  # allow small-sample noise


class TestViewer:
    def test_frames_grow_with_prefix(self, viewer):
        cov = []
        for n in (5, 20, 50):
            img = viewer.frame(n).to_rgb8()
            cov.append((img.sum(axis=2) > 0).mean())
        assert cov[0] <= cov[1] <= cov[2]
        assert cov[2] > cov[0]

    def test_sweep_yields_all(self, viewer):
        ns = [n for n, _ in viewer.sweep([2, 4, 8])]
        assert ns == [2, 4, 8]

    def test_strongest_first(self, viewer):
        assert viewer.strongest_first_check()

    def test_zero_prefix_blank(self, viewer):
        img = viewer.frame(0).to_rgb8()
        assert img.sum() == 0

    def test_transparency_mode(self, ordered_lines_mod, structure3_mod):
        cam = Camera.fit_bounds(*structure3_mod.bounds(), width=48, height=48)
        v = IncrementalViewer(
            ordered_lines_mod, cam, width=0.03, alpha_by_magnitude=True
        )
        fb = v.frame(15)
        assert 0 < fb.rgba[..., 3].max() <= 1.0
