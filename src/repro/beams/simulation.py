"""Beam dynamics simulation driver.

``BeamSimulation`` reproduces the data-generating side of the paper:
an intense mismatched beam in a FODO quadrupole channel, advanced one
lattice element per *step* with split-operator space-charge kicks.
Frames (full (N, 6) particle arrays) can be kept in memory or
streamed to a callback; ``repro simulate`` writes each kept frame as a
sharded store (:func:`repro.core.store.create_store`).

The default configuration develops a clear core/halo structure within
a few tens of cells: a dense elliptical core and a four-fold-symmetric
halo 10^3-10^5 times less dense, matching the morphology in the
paper's Figures 2 and 5.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from repro.beams.distributions import make_distribution
from repro.beams.lattice import fodo_channel, one_turn_matrix
from repro.beams.spacecharge import SpaceChargeSolver
from repro.beams.transport import track_step
from repro.core.trace import count, span

__all__ = ["BeamConfig", "BeamSimulation"]


@dataclass
class BeamConfig:
    """Configuration for a beam run.

    Attributes
    ----------
    n_particles : bunch size (the paper used 1e8-1e9; default is laptop
        scale, everything downstream is size-independent)
    distribution : initial loader name (see beams.distributions)
    sigmas : 6 rms sizes for the loader
    mismatch : transverse mismatch factor; != 1 pumps the halo
    lattice : the channel to track through -- a
        :class:`repro.beams.scenario.spec.LatticeSpec` (or any object
        with a ``build()`` method yielding elements) or an explicit
        element list.  ``None`` falls back to the implicit FODO channel
        built from the legacy geometry knobs below -- a deprecated
        path kept for one release (see :meth:`resolved`).
    n_cells : FODO cells in the channel (implicit-lattice path only)
    quad_k, quad_length, drift_length : channel geometry (implicit-
        lattice path only)
    space_charge : enable the PIC kick
    sc_strength : perveance-like coupling
    sc_grid : Poisson grid shape
    sc_every : apply the space-charge kick every k elements
    seed : RNG seed (runs are reproducible)
    """

    n_particles: int = 100_000
    distribution: str = "semi_gaussian"
    sigmas: tuple = (1.0, 1.0, 4.0, 0.35, 0.35, 0.08)
    mismatch: float = 1.5
    n_cells: int = 50
    quad_k: float = 6.0
    quad_length: float = 0.2
    drift_length: float = 0.8
    space_charge: bool = True
    sc_strength: float = 0.05
    sc_grid: tuple = (32, 32, 32)
    sc_every: int = 1
    seed: int = 1234
    lattice: object | None = None
    extra: dict = field(default_factory=dict)

    def resolved(self) -> "BeamConfig":
        """Copy with the implicit FODO channel made explicit.

        Turns the legacy geometry knobs (``n_cells`` / ``quad_k`` /
        ``quad_length`` / ``drift_length``) into an equivalent
        :class:`~repro.beams.scenario.spec.LatticeSpec` so the
        deprecation shim in :class:`BeamSimulation` stays silent.
        Configs that already carry a lattice are returned unchanged.
        """
        if self.lattice is not None:
            return self
        from repro.beams.scenario.spec import LatticeSpec

        return replace(
            self,
            lattice=LatticeSpec.fodo(
                n_cells=self.n_cells,
                quad_length=self.quad_length,
                drift_length=self.drift_length,
                quad_k=self.quad_k,
            ),
        )


def _resolve_lattice(cfg: BeamConfig) -> list:
    """The element list a config tracks through.

    Accepts a ``LatticeSpec`` (anything with ``build()``), an explicit
    element sequence, or -- deprecated, one more release -- ``None``,
    which rebuilds the legacy implicit FODO channel with its original
    stability check.
    """
    lattice = cfg.lattice
    if lattice is None:
        warnings.warn(
            "BeamConfig without an explicit lattice is deprecated; pass "
            "BeamConfig(lattice=LatticeSpec.fodo(...)) or an element list "
            "(or call config.resolved()).  The implicit FODO channel will "
            "stop being built next release.",
            DeprecationWarning,
            stacklevel=3,
        )
        lattice = fodo_channel(
            cfg.n_cells,
            quad_length=cfg.quad_length,
            drift_length=cfg.drift_length,
            k=cfg.quad_k,
        )
        mx, my = one_turn_matrix(lattice[:5])
        if abs(np.trace(mx)) >= 2.0 or abs(np.trace(my)) >= 2.0:
            raise ValueError(
                "FODO cell is unstable (|trace| >= 2); reduce quad_k or lengths"
            )
        return lattice
    if hasattr(lattice, "build"):
        lattice = lattice.build()
    lattice = list(lattice)
    if not lattice:
        raise ValueError("lattice is empty")
    for el in lattice:
        if not (hasattr(el, "transport") or hasattr(el, "matrices")):
            raise TypeError(
                f"lattice entry {el!r} is not an element (needs a "
                "transport() or matrices() method)"
            )
    return lattice


class BeamSimulation:
    """Time-steps a particle bunch through a lattice.

    The lattice comes from the config: the classic FODO quadrupole
    channel by default, or any declarative
    :class:`~repro.beams.scenario.spec.LatticeSpec` / element list --
    solenoid channels, RF-gap bunchers, and corrector-steered lines
    track through the same split-operator loop
    (:func:`repro.beams.transport.track_step` dispatches coupled
    elements through their ``transport`` method).
    """

    def __init__(self, config: BeamConfig | None = None):
        self.config = config or BeamConfig()
        cfg = self.config
        self.rng = np.random.default_rng(cfg.seed)
        self.particles = make_distribution(
            cfg.distribution,
            cfg.n_particles,
            sigmas=cfg.sigmas,
            rng=self.rng,
            mismatch=cfg.mismatch,
        )
        self.lattice = _resolve_lattice(cfg)
        self.solver = (
            SpaceChargeSolver(grid_shape=cfg.sc_grid, strength=cfg.sc_strength)
            if cfg.space_charge
            else None
        )
        self.step_index = 0
        self._element_cursor = 0

    @property
    def n_steps_total(self) -> int:
        """One step per lattice element."""
        return len(self.lattice)

    def step(self) -> np.ndarray:
        """Advance through the next lattice element (plus space charge)."""
        if self._element_cursor >= len(self.lattice):
            raise StopIteration("end of channel reached")
        element = self.lattice[self._element_cursor]
        with span("transport"):
            track_step(self.particles, element)
        if self.solver is not None and (
            self._element_cursor % self.config.sc_every == 0
        ):
            with span("space_charge"):
                self.solver.kick(self.particles, element.length * self.config.sc_every)
        count("particles_stepped", len(self.particles))
        self._element_cursor += 1
        self.step_index += 1
        return self.particles

    def run(self, n_steps: int | None = None, on_frame=None, frame_every: int = 1):
        """Run ``n_steps`` elements (default: the whole channel).

        ``on_frame(step_index, particles)`` is invoked every
        ``frame_every`` steps, and once for the initial state (step 0).
        Returns the final particle array.
        """
        if n_steps is None:
            n_steps = self.n_steps_total - self._element_cursor
        if on_frame is not None and self.step_index == 0:
            on_frame(0, self.particles)
        for _ in range(n_steps):
            self.step()
            if on_frame is not None and self.step_index % frame_every == 0:
                on_frame(self.step_index, self.particles)
        return self.particles

    def frames(self, n_steps: int | None = None, frame_every: int = 1):
        """Generator over (step_index, particles-view) frames.

        The yielded array is the live particle buffer; copy it if you
        need to keep it past the next step.
        """
        yield self.step_index, self.particles
        if n_steps is None:
            n_steps = self.n_steps_total - self._element_cursor
        for _ in range(n_steps):
            self.step()
            if self.step_index % frame_every == 0:
                yield self.step_index, self.particles
