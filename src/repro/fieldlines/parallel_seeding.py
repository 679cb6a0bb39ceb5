"""Batched field-line seeding (paper section 3.4's parallelization).

"We are presently parallelizing the field line calculations on PC
clusters to speed up this preprocessing task."

The greedy seeder of :mod:`repro.fieldlines.seeding` integrates one
line at a time because each line's element visits update the needs
that pick the next seed.  This module relaxes that by one round: each
round selects the ``batch_size`` *distinct* most-needy elements, seeds
one line in each, and integrates all of them simultaneously through
the vectorized batch tracer (the software analogue of farming lines
out to cluster nodes).  Needs update between rounds.  The entry point
is :func:`repro.fieldlines.seeding.seed_density_proportional` with
``batch_size`` (or ``workers``) greater than one.

The approximation is mild: within a round, lines come from different
elements, so they would rarely have affected each other's selection.
The ordering still loads strong-field regions first and keeps the
prefix-superset property; the ablation bench quantifies the
density-accuracy gap against the strict greedy order.

Ordering guarantee and tolerance
--------------------------------
Every prefix of the batched ordering is a superset of every shorter
prefix (exactly, by construction -- lines are appended in selection
order and never reordered).  Relative to the strict greedy ordering,
the deviation is bounded by the round size: the elements seeded in a
round are the K most-needy under needs that are up to K-1 line-visits
stale, so a line can appear at most K-1 positions away from where
greedy would have placed a line for the same element, and any prefix
of n lines differs from some greedy-achievable prefix only within its
last partial round.  ``batch_size=1`` reduces exactly to greedy.  The
per-element achieved/desired densities agree with greedy within the
tolerance asserted in
``tests/fieldlines/test_parallel_seeding.py`` (mean absolute
deviation well under one line per element on the reference dipole
field).

Both halves of every line in a round integrate as one lockstep fleet
(one :func:`integrate_batch` call with per-seed directions), so K
candidate lines share each RK4 field evaluation -- the source of the
batched mode's throughput win.

With ``workers > 1`` each round's half-traces are farmed out to worker
*processes* through :func:`repro.core.executor.run_shards` -- the
actual "PC cluster" of the quote, with its failure semantics: a dead
worker's shard is retried in a fresh pool, and persistent pool
breakage falls back to in-process integration (identical results,
tracked by the executor's tracer counters).  The field sampler must be
picklable for this path.
"""

from __future__ import annotations

import numpy as np

from repro.core.executor import run_shards
from repro.core.trace import count
from repro.fieldlines.integrate import FieldLine, integrate_batch
from repro.fieldlines.seeding import (
    OrderedFieldLines,
    _ElementVisitCounter,
    _random_points_in_elements,
    desired_line_counts,
)
from repro.fields.mesh import HexMesh

__all__ = []


def _integrate_shard(args):
    """Integrate one chunk of a round's seeds (runs in a worker)."""
    field_fn, seeds, step, max_steps, floor, direction = args
    return integrate_batch(
        field_fn, seeds, step=step, max_steps=max_steps,
        min_magnitude=floor, direction=direction,
    )


def _integrate_round(field_fn, seeds, step, max_steps, floor, workers, _shard_fn=None):
    """Forward+backward half-traces for a round's seeds.

    ``workers > 1`` splits each direction into per-worker shards run
    through :func:`run_shards` (crash-safe); otherwise both directions
    integrate in-process.  ``_shard_fn`` is the fault-injection seam.
    """
    if workers <= 1:
        # fuse both directions into one lockstep fleet: 2K lines share
        # every RK4 field evaluation instead of 2 sequential passes
        k = len(seeds)
        both = integrate_batch(
            field_fn,
            np.vstack([seeds, seeds]),
            step=step,
            max_steps=max_steps,
            min_magnitude=floor,
            direction=np.concatenate([np.ones(k), -np.ones(k)]),
        )
        return both[:k], both[k:]
    chunks = np.array_split(np.arange(len(seeds)), min(workers, len(seeds)))
    chunks = [c for c in chunks if len(c)]
    tasks = [
        (field_fn, seeds[c], step, max_steps, floor, direction)
        for direction in (+1.0, -1.0)
        for c in chunks
    ]
    shard_fn = _shard_fn if _shard_fn is not None else _integrate_shard
    results = run_shards(shard_fn, tasks, workers=workers, label="seed_rounds")
    half = len(chunks)
    fwd = [line for shard in results[:half] for line in shard]
    bwd = [line for shard in results[half:] for line in shard]
    return fwd, bwd


def _stitch(forward: FieldLine, backward: FieldLine, field_fn, floor: float) -> FieldLine:
    """Join a backward and forward half-trace into one line."""
    pts = np.vstack([backward.points[::-1], forward.points[1:]])
    if len(pts) < 2:
        pts = np.vstack([pts, pts])
    v = field_fn(pts)
    mags = np.linalg.norm(v, axis=1)
    tangents = np.gradient(pts, axis=0)
    norms = np.linalg.norm(tangents, axis=1, keepdims=True)
    tangents = tangents / np.where(norms < 1e-12, 1.0, norms)
    term = forward.termination if forward.termination != "cap" else backward.termination
    return FieldLine(points=pts, tangents=tangents, magnitudes=mags, termination=term)


def _seed_batched(
    mesh: HexMesh,
    field_fn,
    total_lines: int = 200,
    field_name: str = "E",
    batch_size: int = 8,
    step: float | None = None,
    max_steps: int = 300,
    min_magnitude_fraction: float = 1e-3,
    rng=None,
    workers: int = 1,
    _shard_fn=None,
) -> OrderedFieldLines:
    """Round-based batched version of the density-proportional seeder.

    ``batch_size`` lines integrate simultaneously per round; with
    ``batch_size=1`` this reduces exactly to the greedy algorithm.
    ``workers > 1`` integrates each round on worker processes (see the
    module docstring for the failure semantics); the line ordering and
    geometry are identical to the in-process batched path.
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

    lines: list[FieldLine] = []
    while len(lines) < total_lines:
        want = min(batch_size, total_lines - len(lines))
        # the `want` most-needy distinct elements, by descending need
        order = np.argsort(-remaining, kind="stable")[:want]
        order = order[remaining[order] > 0]
        if order.size == 0:
            break
        seeds = _random_points_in_elements(mesh, order, rng)
        fwd, bwd = _integrate_round(
            field_fn, seeds, step, max_steps, floor, workers,
            _shard_fn=_shard_fn,
        )
        batch_lines = [
            _stitch(f_half, b_half, field_fn, floor)
            for f_half, b_half in zip(fwd, bwd)
        ]
        # one fused KD-tree query for the whole round's visit accounting
        all_visits = counter.visits_batch([ln.points for ln in batch_lines])
        for line, visited in zip(batch_lines, all_visits):
            line.order = len(lines)
            remaining[visited] -= 1.0
            achieved[visited] += 1.0
            lines.append(line)
            count("lines_seeded")

    return OrderedFieldLines(
        lines=lines,
        desired=desired,
        achieved=achieved,
        field_name=field_name,
        meta={
            "step": step,
            "floor": floor,
            "total_requested": int(total_lines),
            "batch_size": int(batch_size),
            "workers": int(workers),
        },
    )
