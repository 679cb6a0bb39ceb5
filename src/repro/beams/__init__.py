"""Particle beam dynamics substrate.

Stands in for the parallel particle-in-cell beam dynamics codes the
paper visualizes (IMPACT, refs [10, 11]): an intense proton/H- beam
propagating through a magnetic quadrupole channel, with space charge.
The output matches the paper's data layout exactly -- each particle is
six doubles, spatial coordinates (x, y, z) and momenta (px, py, pz) --
and develops the same structure the paper's renderings show: a dense
core carrying almost all of the mass and a tenuous halo thousands of
times less dense, evolving with four-fold symmetry under alternating
focusing/defocusing quadrupoles.

Modules
-------
distributions  initial 6-D phase-space loaders (Gaussian, KV, waterbag...)
lattice        drifts, quadrupoles, FODO channel builders
transport      vectorized symplectic linear maps
spacecharge    cloud-in-cell deposition + FFT Poisson solver (PIC)
simulation     time-stepping driver writing per-step particle frames
diagnostics    rms sizes, emittances, halo parameter, density profiles
scenario       digital-twin layer: declarative lattice/scenario specs,
               closed-loop feedback controllers, ensemble sweep driver
"""

from repro.beams.distributions import (
    gaussian_beam,
    kv_beam,
    waterbag_beam,
    semi_gaussian_beam,
    make_distribution,
)
from repro.beams.lattice import Drift, Quadrupole, fodo_cell, fodo_channel
from repro.beams.elements import Corrector, Solenoid, ThinRFGap
from repro.beams.cavity import CavityTracker, boris_push, track_through_cavity
from repro.beams.matching import matched_sigmas, matched_twiss, phase_advance
from repro.beams.transport import track_step, transfer_matrices
from repro.beams.simulation import BeamSimulation, BeamConfig
from repro.beams.diagnostics import (
    centroid,
    rms_size,
    rms_emittance,
    halo_parameter,
    density_profile,
)
from repro.beams.scenario import (
    ElementSpec,
    LatticeSpec,
    Scenario,
    ScenarioSpec,
    run_sweep,
)

__all__ = [
    "gaussian_beam",
    "kv_beam",
    "waterbag_beam",
    "semi_gaussian_beam",
    "make_distribution",
    "Drift",
    "Quadrupole",
    "fodo_cell",
    "fodo_channel",
    "Solenoid",
    "ThinRFGap",
    "Corrector",
    "CavityTracker",
    "boris_push",
    "track_through_cavity",
    "matched_sigmas",
    "matched_twiss",
    "phase_advance",
    "track_step",
    "transfer_matrices",
    "BeamSimulation",
    "BeamConfig",
    "centroid",
    "rms_size",
    "rms_emittance",
    "halo_parameter",
    "density_profile",
    "ElementSpec",
    "LatticeSpec",
    "ScenarioSpec",
    "Scenario",
    "run_sweep",
]
