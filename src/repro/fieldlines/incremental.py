"""Incremental loading and its accuracy metric (paper sections 3.2, 3.4).

"By sweeping from a minimum to a maximum number of field lines, one
gets a compelling sense of the structure and magnitude of the fields
being built up. ...  In each image, the density of field lines is
approximately proportional to the magnitude of the underlying field."

``IncrementalViewer`` plays that sweep; ``density_correlation``
quantifies the claim: the correlation between per-element line-visit
counts and per-element field intensity, at any prefix length n.
"""

from __future__ import annotations

import numpy as np
from scipy.stats import spearmanr

from repro.fieldlines.seeding import OrderedFieldLines, _ElementVisitCounter
from repro.fieldlines.sos import build_strips, render_strips
from repro.fields.mesh import HexMesh
from repro.render.camera import Camera

__all__ = ["IncrementalViewer", "density_correlation", "element_line_counts"]


def element_line_counts(mesh: HexMesh, lines) -> np.ndarray:
    """Per-element count of distinct lines passing through (nearest-
    element-center assignment, matching the seeder's bookkeeping)."""
    counts = np.zeros(mesh.n_elements)
    for visited in _ElementVisitCounter(mesh).visits_batch([ln.points for ln in lines]):
        counts[visited] += 1.0
    return counts


def density_correlation(
    mesh: HexMesh, ordered: OrderedFieldLines, n: int, field_name: str | None = None
) -> float:
    """Spearman correlation between line density and field intensity
    over elements, for the first ``n`` lines.

    Rank correlation is the right test: the claim is monotone
    proportionality ("densities ... proportional to the corresponding
    field strength"), and ranks are insensitive to the arbitrary
    field-units scale.
    """
    field_name = field_name or ordered.field_name
    counts = element_line_counts(mesh, ordered.prefix(n))
    intensity = mesh.element_field_intensity(field_name) * mesh.element_volumes()
    rho, _ = spearmanr(counts, intensity)
    return float(rho)


class IncrementalViewer:
    """Renders the incremental-loading sweep of an ordered line set.

    "The set of field lines in each image in the sequence is a
    superset of those field lines in the preceding image" holds by
    construction: frames are prefixes.
    """

    def __init__(
        self,
        ordered: OrderedFieldLines,
        camera: Camera,
        width: float = 0.02,
        colormap: str = "electric",
        alpha_by_magnitude: bool = False,
    ):
        self.ordered = ordered
        self.camera = camera
        self.width = float(width)
        self.colormap = colormap
        self.alpha_by_magnitude = bool(alpha_by_magnitude)
        mags = [line.mean_magnitude() for line in ordered.lines] or [0.0, 1.0]
        self._mrange = (float(min(mags)), float(max(mags) or 1.0))

    def frame(self, n: int):
        """Render the first ``n`` lines; returns the framebuffer."""
        lines = self.ordered.prefix(n)
        strips = build_strips(lines, self.camera, self.width)
        all_m = (
            np.concatenate([l.magnitudes for l in lines]) if lines else np.zeros(1)
        )
        return render_strips(
            self.camera,
            strips,
            colormap=self.colormap,
            alpha_by_magnitude=self.alpha_by_magnitude,
            magnitude_range=(float(all_m.min()), float(all_m.max()) or 1.0),
        )

    def sweep(self, frame_counts):
        """Yield (n, framebuffer) over a sequence of prefix sizes --
        the animation of the paper's Figures 7 and 10."""
        for n in frame_counts:
            yield n, self.frame(int(n))

    def strongest_first_check(self) -> bool:
        """The first-loaded lines should come from the strongest-field
        regions: mean |F| of the first tenth exceeds that of the last
        tenth."""
        lines = self.ordered.lines
        if len(lines) < 10:
            return True
        tenth = max(len(lines) // 10, 1)
        first = np.mean([l.mean_magnitude() for l in lines[:tenth]])
        last = np.mean([l.mean_magnitude() for l in lines[-tenth:]])
        return bool(first >= last)
