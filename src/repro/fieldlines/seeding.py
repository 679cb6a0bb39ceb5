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

One round loop runs the algorithm.  Each round seeds the most-needy
elements at once and traces all their lines as one lockstep fleet
(both halves of every line, one :func:`~repro.fieldlines.integrate._trace`
call), so candidates share every RK4 field evaluation.  Two rules
decide which candidates the round commits:

- **Exact (the default).**  A round speculates on the top
  ``_SPECULATION`` elements by need and commits candidates in order
  while each is still the element greedy would pick next
  (``argmax(remaining)``, with positive need).  Candidate i takes the
  i-th ``rng.random(3)`` draw, and a round's uncommitted draws carry
  over, so the committed lines are the strict greedy ordering bit for
  bit.
- **Batched** (``batch_size`` or ``workers`` > 1, the "parallelizing
  the field line calculations" of section 3.4).  A round commits all
  of its ``batch_size`` candidates, so needs are up to ``batch_size -
  1`` line-visits stale within a round.  Every prefix is still a
  superset of every shorter one, a line appears at most ``batch_size -
  1`` positions from where greedy would place a line for the same
  element, and ``batch_size=1`` is the exact rule.  With ``workers >
  1`` each round's half-lines are farmed out to worker *processes*
  through :func:`repro.core.executor.run_shards`: a dead worker's shard
  is retried in a fresh pool and persistent pool breakage falls back
  in-process, with identical lines.  The field sampler must be
  picklable for this path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from repro.core.executor import run_shards
from repro.core.trace import count, span
from repro.fieldlines.integrate import FieldLine, _finalize_batch, _join, _trace
from repro.fields.mesh import HexMesh, _shape_functions_batch

__all__ = ["OrderedFieldLines", "desired_line_counts", "seed_density_proportional"]

# candidates the exact rule traces per round.  The lines do not depend
# on it; it trades lines kept per round (about 3 on the field_sos
# snapshots, EXPERIMENTS.md LEDGER-FIELD) against candidates traced in vain
_SPECULATION = 8


def desired_line_counts(mesh: HexMesh, field_name: str, total_lines: int) -> np.ndarray:
    """Per-element desired line counts: intensity x volume, scaled to
    sum to ``total_lines``."""
    intensity = mesh.element_field_intensity(field_name)
    if not np.isfinite(intensity).all():
        raise ValueError(f"field {field_name!r} has non-finite intensity; cannot seed")
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

    def visits_batch(self, polylines) -> list:
        """Per-polyline unique element ids, via one fused tree query."""
        if not polylines:
            return []
        _, idx = self.tree.query(np.concatenate(polylines))
        splits = np.cumsum([len(p) for p in polylines])[:-1]
        return [np.unique(part) for part in np.split(idx, splits)]


def _random_points_in_elements(mesh: HexMesh, elements: np.ndarray, rng) -> np.ndarray:
    """One random interior point per element, vectorized.

    A uniform-in-reference-cube sample mapped through the trilinear
    element map (not exactly uniform in space for distorted elements,
    which matches 'picking a random seed point within that element').
    Draws ``rng.random((K, 3))``, which consumes the generator stream
    exactly as K successive ``rng.random(3)`` calls would -- so the
    i-th seed of any round takes the i-th draw.
    """
    elements = np.asarray(elements, dtype=np.int64)
    corners = mesh.vertices[mesh.hexes[elements]]        # (K, 8, 3)
    w = _shape_functions_batch(rng.random((len(elements), 3)))  # (K, 8)
    return np.matmul(w[:, None, :], corners)[:, 0, :]


def _integrate_shard(args):
    """Trace one shard of a round's half-lines (runs in a worker)."""
    field_fn, seeds, direction, step, max_steps, floor, loop_tolerance = args
    return _trace(field_fn, seeds, direction, step, max_steps, floor, loop_tolerance)


def _integrate_round(
    field_fn, seeds, step, max_steps, floor, loop_tolerance, workers, shard_fn
) -> list[FieldLine]:
    """Trace a round's candidate lines, both halves, and join them.

    ``workers > 1`` splits each direction into per-worker shards run
    through :func:`run_shards` (crash-safe); otherwise both halves of
    every candidate run as one lockstep fleet.
    """
    k = len(seeds)
    if workers <= 1:
        trails, terms = _trace(
            field_fn, np.vstack([seeds, seeds]),
            np.concatenate([np.ones(k), -np.ones(k)]),
            step, max_steps, floor, loop_tolerance,
        )
    else:
        chunks = np.array_split(np.arange(k), min(workers, k))
        tasks = [
            (field_fn, seeds[c], direction, step, max_steps, floor, loop_tolerance)
            for direction in (+1.0, -1.0)
            for c in chunks
        ]
        results = run_shards(shard_fn, tasks, workers=workers, label="seed_rounds")
        trails = [t for shard, _ in results for t in shard]
        terms = [t for _, shard in results for t in shard]
    joined = [
        _join([trails[j], trails[k + j]], [terms[j], terms[k + j]]) for j in range(k)
    ]
    return _finalize_batch(field_fn, [p for p, _ in joined], [t for _, t in joined])


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
    loop_tolerance : stop a line that returns this close to its seed
        (closed B lines; see
        :func:`repro.fieldlines.integrate.integrate_streamline`)
    rng : numpy ``Generator`` for the seed points (default
        ``default_rng(0)``)
    on_line : optional callback(i, line) fired as each line is
        committed
    workers / batch_size : > 1 selects the batched rule (see the module
        docstring), committing ``batch_size or workers`` lines per
        round; ``workers > 1`` additionally traces each round on worker
        *processes* (crash-safe, see :mod:`repro.core.executor`).  The
        default exact rule gives the strict greedy ordering.
    """
    if batch_size is not None and batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    return _seed_rounds(
        mesh, field_fn, total_lines, field_name, step, max_steps,
        min_magnitude_fraction, loop_tolerance, rng, on_line, int(workers),
        int(batch_size or workers),
    )


def _seed_rounds(
    mesh, field_fn, total_lines, field_name, step, max_steps,
    min_magnitude_fraction, loop_tolerance, rng, on_line, workers, batch_size,
    _shard_fn=_integrate_shard,
) -> OrderedFieldLines:
    """The round loop under :func:`seed_density_proportional`.

    ``batch_size > 1`` commits whole rounds (the batched rule);
    otherwise rounds speculate on ``_SPECULATION`` candidates and commit
    the prefix greedy would have picked.  ``_shard_fn`` is the
    fault-injection seam of the worker path.
    """
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

    exact = batch_size <= 1
    lines: list[FieldLine] = []
    while len(lines) < total_lines:
        want = min(_SPECULATION if exact else batch_size, total_lines - len(lines))
        # the `want` most-needy distinct elements, by descending need
        order = np.argsort(-remaining, kind="stable")[:want]
        order = order[remaining[order] > 0]
        if order.size == 0:
            break  # every element's need is satisfied
        rewind = rng.bit_generator.state
        seeds = _random_points_in_elements(mesh, order, rng)
        count("seed_candidates", len(order))
        candidates = _integrate_round(
            field_fn, seeds, step, max_steps, floor, loop_tolerance, workers, _shard_fn
        )
        with span("visit_accounting"):
            visits = counter.visits_batch([c.points for c in candidates])
        for i, (element, line, visited) in enumerate(zip(order, candidates, visits)):
            if exact and (np.argmax(remaining) != element or remaining[element] <= 0):
                # greedy picks another element next: give the unused
                # draws back so the next round's seeds take them
                rng.bit_generator.state = rewind
                rng.random((i, 3))
                break
            line.order = len(lines)
            remaining[visited] -= 1.0
            achieved[visited] += 1.0
            lines.append(line)
            count("lines_seeded")
            if on_line is not None:
                on_line(line.order, line)

    meta = {"step": step, "floor": floor, "total_requested": int(total_lines)}
    if not exact:
        meta.update(batch_size=batch_size, workers=workers)
    return OrderedFieldLines(
        lines=lines, desired=desired, achieved=achieved, field_name=field_name, meta=meta
    )
