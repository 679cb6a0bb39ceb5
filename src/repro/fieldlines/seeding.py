"""Density-proportional incremental seeding (paper section 3.2).

"Our approach is to select seeds so that the local density anywhere in
the final distribution of field lines is approximately proportional to
the local magnitude of the underlying field. ...  The implementation
... consists in computing a desired average number of field lines to
pass through each element of the mesh.  This is the average field
intensity at the element's vertices multiplied by the volume of the
element.  These numbers are then scaled so that the sum over all
elements is equal to the total maximum number of field lines to
pre-integrate.  The algorithm consists of selecting the element which
most needs an additional field line, picking a random seed point
within that element, and integrating the field line from there.
During integration, as each new element is visited, that element's
desired number of field lines is decremented. ... By always choosing
the element that most needs an additional field line, the images that
result from rendering the first n field lines are always nearly
correct."

The result is an :class:`OrderedFieldLines` whose ``prefix(n)`` slices
are supersets of each other by construction -- "the set of field lines
in each image in the sequence is a superset of those field lines in
the preceding image".
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from repro.core.trace import count, span
from repro.fieldlines.integrate import FieldLine, integrate_streamline
from repro.fields.mesh import HexMesh

__all__ = ["OrderedFieldLines", "desired_line_counts", "seed_density_proportional"]


def desired_line_counts(mesh: HexMesh, field_name: str, total_lines: int) -> np.ndarray:
    """Per-element desired line counts: intensity x volume, scaled to
    sum to ``total_lines``."""
    intensity = mesh.element_field_intensity(field_name)
    weight = intensity * mesh.element_volumes()
    total_weight = weight.sum()
    if total_weight <= 0:
        raise ValueError("field is identically zero; nothing to seed")
    return weight * (total_lines / total_weight)


@dataclass
class OrderedFieldLines:
    """Field lines in incremental-loading order.

    ``lines[i].order == i``; ``prefix(n)`` is the first-n view whose
    density everywhere approximates the field magnitude as well as n
    lines can.
    """

    lines: list
    desired: np.ndarray            # per-element target counts
    achieved: np.ndarray           # per-element line-visit counts
    field_name: str = "E"
    meta: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.lines)

    def prefix(self, n: int) -> list:
        """First ``n`` lines (the incremental-loading frames)."""
        return self.lines[: max(0, min(n, len(self.lines)))]

    def total_points(self) -> int:
        return int(sum(line.n_points for line in self.lines))

    def magnitude_range(self):
        mags = [line.mean_magnitude() for line in self.lines]
        return (min(mags), max(mags)) if mags else (0.0, 0.0)


class _ElementVisitCounter:
    """Maps line points to mesh elements via a nearest-center lookup.

    Exact point-in-hex location for every integration vertex would
    dominate runtime; nearest element center is an excellent proxy on
    the mapped meshes we trace through (elements are convex and
    near-uniform locally) and only feeds the seeding bookkeeping.
    """

    def __init__(self, mesh: HexMesh):
        self.tree = cKDTree(mesh.element_centers())
        self.n_elements = mesh.n_elements

    def visits(self, points: np.ndarray) -> np.ndarray:
        """Unique element ids visited by a polyline."""
        _, idx = self.tree.query(points)
        return np.unique(idx)

    def visits_batch(self, polylines) -> list:
        """Per-polyline unique element ids, via one fused tree query."""
        if not polylines:
            return []
        _, idx = self.tree.query(np.concatenate(polylines))
        splits = np.cumsum([len(p) for p in polylines])[:-1]
        return [np.unique(part) for part in np.split(idx, splits)]


def _random_point_in_element(mesh: HexMesh, element: int, rng) -> np.ndarray:
    """Uniform-in-reference-cube sample mapped through the trilinear
    element map (not exactly uniform in space for distorted elements,
    which matches 'picking a random seed point within that element')."""
    return _random_points_in_elements(mesh, np.array([element]), rng)[0]


def _random_points_in_elements(mesh: HexMesh, elements: np.ndarray, rng) -> np.ndarray:
    """One random interior point per element, vectorized.

    Draws ``rng.random((K, 3))``, which consumes the generator stream
    exactly as K successive ``rng.random(3)`` calls would -- so batched
    and one-at-a-time seeding produce identical seed points for the
    same element sequence.
    """
    elements = np.asarray(elements, dtype=np.int64)
    corners = mesh.vertices[mesh.hexes[elements]]        # (K, 8, 3)
    r = rng.random((len(elements), 3))
    # trilinear blend of the 8 corners
    from repro.fields.mesh import _shape_functions_batch

    w = _shape_functions_batch(r)                        # (K, 8)
    return np.matmul(w[:, None, :], corners)[:, 0, :]


def seed_density_proportional(
    mesh: HexMesh,
    field_fn,
    total_lines: int = 200,
    field_name: str = "E",
    step: float | None = None,
    max_steps: int = 300,
    min_magnitude_fraction: float = 1e-3,
    loop_tolerance: float | None = None,
    rng=None,
    on_line=None,
    workers: int = 1,
    batch_size: int | None = None,
) -> OrderedFieldLines:
    """The greedy incremental seeding loop of paper section 3.2.

    Parameters
    ----------
    mesh : hex mesh carrying the per-vertex field ``field_name``
    field_fn : point sampler for integration (see
        :mod:`repro.fields.sampling`)
    total_lines : the "total maximum number of field lines to
        pre-integrate"
    step : integration step; defaults to ~half the mean element edge
    min_magnitude_fraction : termination floor as a fraction of the
        mesh's peak field intensity
    on_line : optional callback(i, line) fired as each line lands
    workers / batch_size : > 1 selects the round-based batched seeder
        (:mod:`repro.fieldlines.parallel_seeding`), integrating
        ``batch_size or workers`` lines simultaneously per round;
        ``workers > 1`` additionally farms each round out to worker
        *processes* (crash-safe: dead workers are retried, persistent
        pool breakage falls back in-process -- see
        :mod:`repro.core.executor`).  The greedy path (the default)
        supports ``loop_tolerance`` and ``on_line``, the batched path
        does not.
    """
    if batch_size is not None and batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    n_batch = int(batch_size or workers)
    if n_batch > 1:
        if loop_tolerance is not None or on_line is not None:
            raise ValueError(
                "batched seeding (workers/batch_size > 1) supports neither "
                "loop_tolerance nor on_line; use the default greedy path"
            )
        from repro.fieldlines.parallel_seeding import _seed_batched

        return _seed_batched(
            mesh, field_fn, total_lines=total_lines, field_name=field_name,
            batch_size=n_batch, step=step, max_steps=max_steps,
            min_magnitude_fraction=min_magnitude_fraction, rng=rng,
            workers=int(workers),
        )
    rng = rng or np.random.default_rng(0)
    desired = desired_line_counts(mesh, field_name, total_lines)
    remaining = desired.copy()
    achieved = np.zeros_like(desired)
    counter = _ElementVisitCounter(mesh)

    if step is None:
        vols = mesh.element_volumes()
        step = 0.5 * float(np.cbrt(vols.mean()))
    peak = float(mesh.element_field_intensity(field_name).max())
    floor = peak * min_magnitude_fraction

    lines: list[FieldLine] = []
    for i in range(int(total_lines)):
        element = int(np.argmax(remaining))
        if remaining[element] <= 0:
            break  # every element's need is satisfied
        seed = _random_point_in_element(mesh, element, rng)
        line = integrate_streamline(
            field_fn,
            seed,
            step=step,
            max_steps=max_steps,
            min_magnitude=floor,
            loop_tolerance=loop_tolerance,
        )
        line.order = i
        with span("visit_accounting"):
            visited = counter.visits(line.points)
        remaining[visited] -= 1.0
        achieved[visited] += 1.0
        lines.append(line)
        count("lines_seeded")
        if on_line is not None:
            on_line(i, line)

    return OrderedFieldLines(
        lines=lines,
        desired=desired,
        achieved=achieved,
        field_name=field_name,
        meta={"step": step, "floor": floor, "total_requested": int(total_lines)},
    )
