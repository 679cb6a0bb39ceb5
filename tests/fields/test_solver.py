"""Time-domain solver: Courant condition, stability, energy flow."""

import numpy as np
import pytest

from repro.fields.geometry import make_multicell_structure, make_pillbox
from repro.fields.solver import TimeDomainSolver, courant_dt


@pytest.fixture(scope="module")
def solver3():
    s = make_multicell_structure(3, n_xy=5, n_z_per_unit=5)
    return TimeDomainSolver(s, cells_per_unit=7.0)


class TestCourant:
    def test_formula(self):
        dt = courant_dt(0.1, 0.1, 0.1, cfl=1.0)
        assert dt == pytest.approx(0.1 / np.sqrt(3.0))

    def test_anisotropic_cells(self):
        dt = courant_dt(0.1, 0.2, 0.4, cfl=1.0)
        assert dt == pytest.approx(1.0 / np.sqrt(100 + 25 + 6.25))

    def test_validation(self):
        with pytest.raises(ValueError):
            courant_dt(0.0, 0.1, 0.1)
        with pytest.raises(ValueError):
            courant_dt(0.1, 0.1, 0.1, cfl=1.5)

    def test_finer_mesh_needs_more_steps(self):
        """The paper's core arithmetic: halving the cell doubles the
        steps for the same physical duration."""
        s = make_pillbox(n_xy=4, n_z_per_unit=3)
        coarse = TimeDomainSolver(s, cells_per_unit=5.0)
        fine = TimeDomainSolver(s, cells_per_unit=10.0)
        assert fine.steps_for(1.0) == pytest.approx(2 * coarse.steps_for(1.0), rel=0.2)

    def test_steps_for_duration(self, solver3):
        n = solver3.steps_for(10.0)
        assert n == int(np.ceil(10.0 / solver3.dt))


class TestStability:
    def test_energy_bounded_without_drive(self):
        """Free evolution of a seeded field must not blow up (the CFL
        limit holds)."""
        s = make_pillbox(n_xy=4, n_z_per_unit=4)
        solver = TimeDomainSolver(s, cells_per_unit=6.0, drive_amplitude=0.0)
        # seed a blob of Ez inside the cavity
        nz = solver.ez.shape
        solver.ez[nz[0] // 2, nz[1] // 2, nz[2] // 2] = 1.0
        solver.ez *= solver._mask["ez"]
        # let the point impulse spread before taking the reference: the
        # staggered-time energy measure settles after a few transits
        solver.run(100)
        e_ref = solver.energy()
        solver.run(900)
        assert solver.energy() <= e_ref * 2.0
        assert np.isfinite(solver.energy())

    def test_drive_injects_energy(self, solver3):
        # fresh solver; the module fixture may have been stepped
        s = make_multicell_structure(3, n_xy=5, n_z_per_unit=5)
        solver = TimeDomainSolver(s, cells_per_unit=7.0)
        assert solver.energy() == 0.0
        solver.run(60)
        assert solver.energy() > 0.0

    def test_no_field_outside_structure(self):
        s = make_multicell_structure(3, n_xy=5, n_z_per_unit=5)
        solver = TimeDomainSolver(s, cells_per_unit=7.0)
        solver.run(80)
        # every Ez sample outside the vacuum mask is exactly zero
        assert np.all(solver.ez[~solver._mask["ez"]] == 0.0)
        assert np.all(solver.ex[~solver._mask["ex"]] == 0.0)


class TestPropagation:
    def test_wave_travels_downstream(self):
        """RF driven at the first cell reaches the last cell after a
        transit time, not before -- the paper's Figure 8 story."""
        s = make_multicell_structure(3, n_xy=5, n_z_per_unit=5)
        solver = TimeDomainSolver(s, cells_per_unit=7.0)
        zlast0, zlast1 = s.profile.cell_z_range(2)
        probe = np.array([[0.0, 0.0, (zlast0 + zlast1) / 2]])
        early_steps = max(int(0.3 / solver.dt), 1)
        solver.run(early_steps)
        early = np.linalg.norm(solver.sample_e(probe))
        # transit needs at least length/c time units; run well past it
        solver.run(solver.steps_for(2.0 * s.length))
        late = np.linalg.norm(solver.sample_e(probe))
        assert late > 10.0 * max(early, 1e-12)

    def test_port_drive_region_nonempty(self, solver3):
        assert solver3._n_drive > 0


class TestSampling:
    def test_fields_on_mesh_attaches(self):
        s = make_multicell_structure(2, n_xy=4, n_z_per_unit=4)
        solver = TimeDomainSolver(s, cells_per_unit=6.0)
        solver.run(40)
        mesh = solver.fields_on_mesh()
        assert "E" in mesh.vertex_fields and "B" in mesh.vertex_fields
        assert mesh.vertex_fields["E"].shape == (mesh.n_vertices, 3)
        assert np.isfinite(mesh.vertex_fields["E"]).all()

    def test_sample_outside_grid_zero(self, solver3):
        e = solver3.sample_e(np.array([[100.0, 100.0, 100.0]]))
        assert np.allclose(e, 0.0)

    def test_sample_shapes(self, solver3, rng):
        pts = rng.uniform(0, 1, (17, 3))
        assert solver3.sample_e(pts).shape == (17, 3)
        assert solver3.sample_b(pts).shape == (17, 3)


class TestSymmetry:
    def test_portless_structure_stays_four_fold_symmetric(self):
        """Without ports, geometry and drive are symmetric under
        x -> -x and y -> -y; the solved field must match at mirrored
        probe points.  (With ports this symmetry breaks -- the paper's
        Figure 9 asymmetry, tested in the geometry suite.)"""
        s = make_multicell_structure(2, n_xy=5, n_z_per_unit=5, with_ports=False)
        solver = TimeDomainSolver(s, cells_per_unit=8.0, drive_amplitude=0.0)
        # symmetric initial condition: radial Ez blob
        pts, shape = solver._component_points("ez")
        r = np.hypot(pts[:, 0], pts[:, 1]).reshape(shape)
        solver.ez += np.exp(-((r / 0.5) ** 2)) * solver._mask["ez"]
        solver.run(120)
        z0, z1 = s.profile.cell_z_range(0)
        zmid = (z0 + z1) / 2
        probes = np.array(
            [
                [0.3, 0.2, zmid],
                [-0.3, 0.2, zmid],
                [0.3, -0.2, zmid],
                [-0.3, -0.2, zmid],
            ]
        )
        ez = solver.sample_e(probes)[:, 2]
        assert np.allclose(ez, ez[0], rtol=1e-6, atol=1e-9)


class TestTrace:
    def test_run_and_mesh_sampling_open_program_spans(self):
        from repro.core.trace import capture

        s = make_multicell_structure(1, n_xy=4, n_z_per_unit=4)
        solver = TimeDomainSolver(s, cells_per_unit=5.0)
        with capture(enabled=True) as tracer:
            solver.run(3)
            solver.fields_on_mesh()
        assert tracer.spans["solver_run"]["count"] == 1
        assert tracer.spans["solver_run"]["attrs"]["n_steps"] == 3
        assert tracer.spans["fields_on_mesh"]["count"] == 1
        assert solver.step_count == 3
