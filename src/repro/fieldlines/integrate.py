"""Streamline integration through vector fields.

Classic fixed-step RK4 along the *direction field* F/|F| (so the step
size is arc length and lines never stall in weak regions).  A line
terminates when it leaves the domain, enters a region below the
magnitude floor, closes on itself (magnetic field lines), or reaches
the step cap.

One lockstep kernel, :func:`_trace`, steps every line; both public
tracers call it.  ``integrate_streamline`` traces one seed (both
directions by default, matching how E lines run wall-to-wall) as a
two-line fleet and joins the halves; ``integrate_batch`` traces many
seeds at once with an active mask, fully vectorized.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.trace import span

__all__ = ["FieldLine", "integrate_streamline", "integrate_batch"]


@dataclass
class FieldLine:
    """One traced field line.

    Attributes
    ----------
    points : (k, 3) polyline vertices
    tangents : (k, 3) unit tangent at each vertex
    magnitudes : (k,) |F| at each vertex
    termination : why tracing stopped ('domain', 'weak', 'loop', 'cap')
    order : creation index assigned by the seeder (-1 before seeding)
    """

    points: np.ndarray
    tangents: np.ndarray
    magnitudes: np.ndarray
    termination: str = "cap"
    order: int = -1
    meta: dict = field(default_factory=dict)

    @property
    def n_points(self) -> int:
        return len(self.points)

    def arc_lengths(self) -> np.ndarray:
        """Cumulative arc length at each vertex (starts at 0)."""
        if self.n_points < 2:
            return np.zeros(self.n_points)
        seg = np.linalg.norm(np.diff(self.points, axis=0), axis=1)
        return np.concatenate([[0.0], np.cumsum(seg)])

    @property
    def length(self) -> float:
        return float(self.arc_lengths()[-1]) if self.n_points > 1 else 0.0

    def mean_magnitude(self) -> float:
        return float(self.magnitudes.mean()) if self.n_points else 0.0


def _unit_direction(field_fn, pts: np.ndarray, floor: float):
    v = field_fn(pts)
    mag = np.linalg.norm(v, axis=1)
    safe = np.where(mag < floor, 1.0, mag)
    return v / safe[:, None], mag


def _rk4_direction(
    field_fn, pts: np.ndarray, h: float, floor: float, k1: np.ndarray
) -> np.ndarray:
    """The RK4 direction from ``pts``, given ``k1``, the unit direction
    there."""
    k2, _ = _unit_direction(field_fn, pts + 0.5 * h * k1, floor)
    k3, _ = _unit_direction(field_fn, pts + 0.5 * h * k2, floor)
    k4, _ = _unit_direction(field_fn, pts + h * k3, floor)
    return (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0


def integrate_streamline(
    field_fn,
    seed,
    step: float = 0.02,
    max_steps: int = 400,
    min_magnitude: float = 1e-6,
    bidirectional: bool = True,
    loop_tolerance: float | None = None,
) -> FieldLine:
    """Trace a single field line from a seed point.

    Parameters
    ----------
    field_fn : callable(points (N, 3)) -> (N, 3); must also expose
        ``inside(points) -> bool mask`` (all samplers in
        :mod:`repro.fields.sampling` do)
    step : arc-length step size
    max_steps : per-direction step cap
    min_magnitude : termination floor on |F|
    bidirectional : trace against the field too and join the halves
    loop_tolerance : if set, stop when the line returns within this
        distance of the seed (after 10 steps) -- closed B lines
    """
    seed = np.asarray(seed, dtype=np.float64).reshape(1, 3)
    signs = np.array([+1.0, -1.0] if bidirectional else [+1.0])
    trails, terms = _trace(
        field_fn, np.repeat(seed, len(signs), axis=0), signs, step, max_steps,
        min_magnitude, loop_tolerance,
    )
    points, term = _join(trails, terms)
    return _finalize_batch(field_fn, [points], [term])[0]


def _trace(field_fn, seeds, direction, step, max_steps, floor, loop_tolerance=None):
    """The one RK4 stepping loop: advance every seed in lockstep.

    All active lines share each RK4 field evaluation; finished lines
    drop out.  A step makes 4 field evaluations: k2, k3, k4 and the
    one at the new vertex, whose unit direction serves both the
    magnitude test and, for a kept line, the next step's k1 (the seeds
    take one evaluation up front).  Every seed starts active, so a seed
    outside ``field_fn.inside`` still takes its first step.
    ``direction`` is a scalar sign or a per-seed (N,) array of signs.
    Returns the raw trails (seed first, one vertex per accepted step)
    and their terminations.
    """
    seeds = np.atleast_2d(np.asarray(seeds, dtype=np.float64))
    n = len(seeds)
    signs = np.broadcast_to(
        np.asarray(direction, dtype=np.float64), (n,)
    ).reshape(n, 1)
    # preallocated trail buffer: vertex v of line i lives at buf[v, i]
    buf = np.empty((max_steps + 1, n, 3))
    buf[0] = seeds
    n_pts = np.ones(n, dtype=np.int64)
    active = np.ones(n, dtype=bool)
    terms = np.array(["cap"] * n, dtype=object)
    p = seeds.copy()
    with span("integrate", n=n):
        for istep in range(max_steps):
            if not active.any():
                break
            if istep == 0:
                # unit direction at each line's last vertex: its next k1
                k1 = _unit_direction(field_fn, p, floor)[0]
            idx = np.flatnonzero(active)
            h = signs[idx] * step
            d = _rk4_direction(field_fn, p[idx], h, floor, k1[idx])
            p_new = p[idx] + h * d
            ins = field_fn.inside(p_new)
            unit, mag = _unit_direction(field_fn, p_new, floor)
            keep = ins & (mag >= floor)
            kept = idx[keep]
            buf[n_pts[kept], kept] = p_new[keep]
            n_pts[kept] += 1
            died = idx[~keep]
            if died.size:
                terms[died] = np.where(ins[~keep], "weak", "domain")
                active[died] = False
            p[kept] = p_new[keep]
            k1[kept] = unit[keep]
            if loop_tolerance is not None and istep > 10:
                # each row's norm as a 1-D vector (a BLAS dot): a
                # row-wise norm rounds differently and can close a line
                # a step early or late
                closed = [
                    i for i in kept if np.linalg.norm(p[i] - seeds[i]) < loop_tolerance
                ]
                terms[closed] = "loop"
                active[closed] = False
    return [np.ascontiguousarray(buf[: n_pts[i], i]) for i in range(n)], terms


def _join(halves, terms):
    """One line's points and termination from its raw half-trails.

    ``halves`` is the forward trail, optionally followed by the
    backward one.  The backward half's non-``cap`` termination wins,
    and a forward ``loop`` drops the backward half (a closed line
    needs none).  A single vertex becomes a 2-point degenerate stub,
    safe downstream.
    """
    points, term = halves[0], terms[0]
    if len(halves) == 2 and term != "loop":
        points = np.vstack([halves[1][::-1], points[1:]])
        if terms[1] != "cap":
            term = terms[1]
    if len(points) == 1:
        points = np.vstack([points, points])
    return points, term


def _finalize_batch(field_fn, trails, terms) -> list[FieldLine]:
    """Lines from their polylines, with one fused field evaluation
    over the concatenated vertices for the magnitudes."""
    if not trails:
        return []
    all_pts = np.concatenate(trails)
    mags = np.linalg.norm(field_fn(all_pts), axis=1)
    out = []
    offset = 0
    for pts, term in zip(trails, terms):
        k = len(pts)
        tangents = np.gradient(pts, axis=0)
        norms = np.linalg.norm(tangents, axis=1, keepdims=True)
        tangents = tangents / np.where(norms < 1e-12, 1.0, norms)
        out.append(
            FieldLine(
                points=pts,
                tangents=tangents,
                magnitudes=mags[offset : offset + k],
                termination=term,
            )
        )
        offset += k
    return out


def integrate_batch(
    field_fn,
    seeds: np.ndarray,
    step: float = 0.02,
    max_steps: int = 400,
    min_magnitude: float = 1e-6,
    direction=+1.0,
) -> list[FieldLine]:
    """Trace many seeds at once, vectorized and allocation-free per step.

    All active lines advance together in lockstep through shared RK4
    field evaluations; finished lines drop out.  ``direction`` may be a
    scalar sign or a per-seed (N,) array of signs, so a forward and a
    backward half-trace fleet can share one lockstep loop.  A line
    that never takes a step comes back as a 2-point stub.
    """
    trails, terms = _trace(field_fn, seeds, direction, step, max_steps, min_magnitude)
    return _finalize_batch(
        field_fn, [_join([t], [term])[0] for t, term in zip(trails, terms)], terms
    )
