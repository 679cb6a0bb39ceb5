"""Density-proportional incremental seeding (paper section 3.2)."""

import numpy as np
import pytest

from repro.fieldlines.integrate import integrate_streamline
from repro.fieldlines.seeding import (
    OrderedFieldLines,
    desired_line_counts,
    seed_density_proportional,
)
from repro.fields.mesh import StructuredHexMesh
from repro.fields.sampling import AnalyticSampler

from .test_batched_ordering import DipoleField


class TestDesiredCounts:
    def test_sums_to_total(self, structure3, mode3):
        counts = desired_line_counts(structure3.mesh, "E", 200)
        assert counts.sum() == pytest.approx(200.0)

    def test_proportional_to_intensity_times_volume(self, structure3, mode3):
        counts = desired_line_counts(structure3.mesh, "E", 100)
        w = structure3.mesh.element_field_intensity(
            "E"
        ) * structure3.mesh.element_volumes()
        ratio = counts[w > 0] / w[w > 0]
        assert np.allclose(ratio, ratio[0])

    def test_zero_field_rejected(self, structure3):
        structure3.mesh.set_field("zero", np.zeros((structure3.mesh.n_vertices, 3)))
        with pytest.raises(ValueError, match="identically zero"):
            desired_line_counts(structure3.mesh, "zero", 10)


class TestNonFiniteField:
    """One NaN or Inf vertex value makes the desired counts meaningless;
    both commit rules must refuse it instead of seeding garbage."""

    @pytest.fixture
    def dipole4(self):
        axis = np.linspace(-1.0, 1.0, 5)  # 4^3 elements
        gx, gy, gz = np.meshgrid(axis, axis, axis, indexing="ij")
        return StructuredHexMesh(np.stack([gx, gy, gz], axis=-1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("batch_size", [None, 4])
    def test_rejected(self, dipole4, bad, batch_size):
        values = DipoleField()(dipole4.vertices)
        values[7, 1] = bad
        dipole4.set_field("E", values)
        with pytest.raises(ValueError, match="non-finite"):
            desired_line_counts(dipole4, "E", 12)
        with pytest.raises(ValueError, match="non-finite"):
            seed_density_proportional(
                dipole4, DipoleField(), total_lines=12, max_steps=40,
                batch_size=batch_size,
            )


class TestBatchedOptions:
    """The batched rule runs the same round loop, so it takes
    ``on_line`` and ``loop_tolerance`` like the default rule."""

    def test_on_line_fires_at_commit(self, structure3, e_sampler):
        seen = []
        out = seed_density_proportional(
            structure3.mesh, e_sampler, total_lines=6, batch_size=4, max_steps=60,
            on_line=lambda i, line: seen.append((i, line)),
            rng=np.random.default_rng(0),
        )
        assert [i for i, _ in seen] == list(range(6))
        assert all(line is out.lines[i] for i, line in seen)

    def test_loop_tolerance_closes_lines(self, structure3, mode3):
        b = AnalyticSampler(mode3, "B", t=np.pi / (2 * mode3.omega), structure=structure3)
        out = seed_density_proportional(
            structure3.mesh, b, total_lines=8, field_name="B", batch_size=4,
            max_steps=150, loop_tolerance=0.02, rng=np.random.default_rng(2),
        )
        loops = [line for line in out.lines if line.termination == "loop"]
        assert loops
        for line in loops:
            # a closed line keeps its forward half only, seed first,
            # exactly as the single-line tracer returns it
            assert np.linalg.norm(line.points[-1] - line.points[0]) < 0.02
            alone = integrate_streamline(
                b, line.points[0], step=out.meta["step"], max_steps=150,
                min_magnitude=out.meta["floor"], loop_tolerance=0.02,
            )
            assert np.array_equal(alone.points, line.points)


class TestSeeding:
    def test_order_assigned_sequentially(self, ordered_lines):
        assert [line.order for line in ordered_lines.lines] == list(
            range(len(ordered_lines))
        )

    def test_prefix_superset_property(self, ordered_lines):
        """Each frame's line set is a superset of the previous one."""
        p10 = ordered_lines.prefix(10)
        p25 = ordered_lines.prefix(25)
        assert p25[:10] == p10

    def test_prefix_bounds(self, ordered_lines):
        assert ordered_lines.prefix(0) == []
        assert len(ordered_lines.prefix(10**6)) == len(ordered_lines)
        assert ordered_lines.prefix(-5) == []

    def test_first_line_from_neediest_element(self, structure3, e_sampler):
        """Line 0 must start where intensity x volume peaks."""
        seeded = seed_density_proportional(
            structure3.mesh, e_sampler, total_lines=1, field_name="E",
            rng=np.random.default_rng(0),
        )
        neediest = int(np.argmax(seeded.desired))
        corners = structure3.mesh.vertices[structure3.mesh.hexes[neediest]]
        lo = corners.min(axis=0) - 1e-9
        hi = corners.max(axis=0) + 1e-9
        # the first point of the backward half is the seed's trace; at
        # least one line vertex must be inside the neediest element
        pts = seeded.lines[0].points
        inside = np.all((pts >= lo) & (pts <= hi), axis=1)
        assert inside.any()

    def test_early_lines_in_stronger_field(self, ordered_lines):
        """Greedy order loads strong-field lines first (Figure 7)."""
        mags = np.array([l.mean_magnitude() for l in ordered_lines.lines])
        k = len(mags) // 3
        assert mags[:k].mean() > mags[-k:].mean()

    def test_achieved_counts_consistent(self, ordered_lines, structure3):
        from repro.fieldlines.incremental import element_line_counts

        recount = element_line_counts(structure3.mesh, ordered_lines.lines)
        assert np.allclose(recount, ordered_lines.achieved)

    def test_reproducible_with_rng(self, structure3, e_sampler):
        a = seed_density_proportional(
            structure3.mesh, e_sampler, total_lines=5,
            rng=np.random.default_rng(11),
        )
        b = seed_density_proportional(
            structure3.mesh, e_sampler, total_lines=5,
            rng=np.random.default_rng(11),
        )
        for la, lb in zip(a.lines, b.lines):
            assert np.array_equal(la.points, lb.points)

    def test_on_line_callback(self, structure3, e_sampler):
        seen = []
        seed_density_proportional(
            structure3.mesh, e_sampler, total_lines=4,
            on_line=lambda i, l: seen.append(i),
            rng=np.random.default_rng(0),
        )
        assert seen == [0, 1, 2, 3]

    def test_total_points_accounting(self, ordered_lines):
        assert ordered_lines.total_points() == sum(
            l.n_points for l in ordered_lines.lines
        )

    def test_magnitude_range(self, ordered_lines):
        lo, hi = ordered_lines.magnitude_range()
        assert 0 <= lo <= hi


class TestOrderedContainer:
    def test_empty(self):
        o = OrderedFieldLines(
            lines=[], desired=np.zeros(3), achieved=np.zeros(3)
        )
        assert len(o) == 0
        assert o.magnitude_range() == (0.0, 0.0)
        assert o.total_points() == 0
