"""Vectorized field evaluation at arbitrary points.

Field-line integration evaluates the field at thousands of points per
Runge-Kutta stage; these samplers keep that fully vectorized.  Both
expose the small protocol the tracer consumes:

    sampler(points) -> (N, 3) field vectors
    sampler.inside(points) -> (N,) bool domain mask
"""

from __future__ import annotations

import numpy as np

__all__ = ["sample_staggered", "YeeSampler", "AnalyticSampler"]


# points per gather: bounds the (8, B, C) index and value arrays
_BLOCK = 4096


class _Components:
    """C staggered scalar components stored back to back in one flat
    array, sampled trilinearly in one gather per block of points.

    Component c has ``shapes[c]`` samples, its sample (0, 0, 0) at world
    position ``origins[c]``, and samples spaced by ``cell``.  Every
    value takes the per-element arithmetic of the one-component
    trilinear sample, in its order, so a component reads the same bits
    however many components share the call.
    """

    def __init__(self, flat, shapes, origins, cell):
        dims = np.array(shapes, dtype=np.int64)            # (C, 3)
        self.flat = flat
        self.last = dims - 1
        self.top = np.maximum(dims - 2, 0)
        ny, nz = dims[:, 1], dims[:, 2]
        self.strides = np.stack([ny * nz, nz, np.ones_like(nz)], axis=1)
        self.starts = np.concatenate([[0], np.cumsum(dims.prod(axis=1))[:-1]])
        self.origins = np.asarray(origins, dtype=np.float64).reshape(len(dims), 3)
        self.cell = cell

    def __call__(self, points) -> np.ndarray:
        """(N, C) samples; a point outside a component's samples reads 0."""
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        out = np.empty((len(pts), len(self.origins)))
        for b in range(0, len(pts), _BLOCK):
            out[b : b + _BLOCK] = self._sample(pts[b : b + _BLOCK])
        return out

    def _sample(self, pts) -> np.ndarray:
        rel = (pts[:, None, :] - self.origins) / self.cell       # (B, C, 3)
        inside = np.all((rel >= 0.0) & (rel <= self.last), axis=2)
        i0 = np.clip(np.floor(rel).astype(np.int64), 0, self.top)
        f = np.clip(rel - i0, 0.0, 1.0)
        # per axis: the lower and upper sample's flat offset, and weight
        at = np.stack([i0, np.minimum(i0 + 1, self.last)]) * self.strides
        w = np.stack([1 - f, f])                                 # (2, B, C, 3)
        # corner a + 2b + 4c takes x sample a, y sample b, z sample c
        idx = (
            at[:, None, None, ..., 2] + at[None, :, None, ..., 1] + at[None, None, :, ..., 0]
            + self.starts
        )
        terms = self.flat[idx] * w[None, None, :, ..., 0]
        terms *= w[None, :, None, ..., 1]
        terms *= w[:, None, None, ..., 2]
        terms = terms.reshape(8, *inside.shape)
        out = terms[0] + terms[1]
        for term in terms[2:]:
            out += term
        out[~inside] = 0.0
        return out


def sample_staggered(
    arr: np.ndarray, origin: np.ndarray, cell: np.ndarray, points: np.ndarray
) -> np.ndarray:
    """Trilinear sampling of one staggered-grid scalar component.

    ``origin`` is the world position of sample (0, 0, 0); samples are
    spaced by ``cell``.  Points outside return 0.
    """
    return _Components(np.ravel(arr), [arr.shape], [origin], cell)(points)[:, 0]


class YeeSampler:
    """Samples E or B from a :class:`TimeDomainSolver` snapshot.

    The sampler holds *copies* of the component arrays, so it stays
    valid (a frozen snapshot) while the solver keeps stepping -- this
    is what "storing the precomputed field lines rather than the raw
    data" operates on.  The three copies are one flat array, and a
    call samples all three components in one gather.
    """

    def __init__(self, solver, field: str = "E"):
        if field not in ("E", "B"):
            raise ValueError("field must be 'E' or 'B'")
        self.field = field
        self.structure = solver.structure
        names = ("ex", "ey", "ez") if field == "E" else ("hx", "hy", "hz")
        comps = [getattr(solver, n) for n in names]
        self._components = _Components(
            np.concatenate([c.ravel() for c in comps]),
            [c.shape for c in comps],
            [solver.component_origin(n) for n in names],
            solver.d.copy(),
        )

    def __call__(self, points: np.ndarray) -> np.ndarray:
        return self._components(points)

    def inside(self, points: np.ndarray) -> np.ndarray:
        return self.structure.inside(points)

    def magnitude(self, points: np.ndarray) -> np.ndarray:
        return np.linalg.norm(self(points), axis=1)


class AnalyticSampler:
    """Wraps an analytic mode (or any f(points, t) pair) at fixed t."""

    def __init__(self, mode, field: str = "E", t: float = 0.0, structure=None):
        if field not in ("E", "B"):
            raise ValueError("field must be 'E' or 'B'")
        self._fn = mode.e_field if field == "E" else mode.b_field
        self.t = float(t)
        self.structure = structure or getattr(mode, "structure", None)
        self.field = field

    def __call__(self, points: np.ndarray) -> np.ndarray:
        return self._fn(points, self.t)

    def inside(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if self.structure is None:
            return np.ones(len(pts), dtype=bool)
        return self.structure.inside(pts)

    def magnitude(self, points: np.ndarray) -> np.ndarray:
        return np.linalg.norm(self(points), axis=1)
