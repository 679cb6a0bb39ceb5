"""Particle-in-cell space-charge solver.

The halo in the paper's data is driven by space charge: the beam's own
Coulomb field.  This module implements the standard PIC cycle the
IMPACT code (ref [11]) uses:

1. *deposit*: cloud-in-cell (trilinear) deposition of particle charge
   onto a regular grid;
2. *solve*: open-boundary Poisson solve via Hockney's method -- the
   grid is zero-padded to twice its size and convolved with the
   free-space Green's function using FFTs;
3. *gather*: trilinear interpolation of the grid electric field back
   to the particles, applied as a momentum kick.

Everything is dimensionless: the ``strength`` parameter plays the role
of the generalized beam perveance.

Two caches keep multi-step runs off the FFT floor:

* the padded Green's-function spectrum depends only on grid shape and
  cell size, so it is computed once per (shape, cell) and reused
  (``green_cache_hit`` / ``green_cache_miss`` trace counters);
* :class:`SpaceChargeSolver` holds its grid bounds steady while the
  beam stays inside them and the grid is not oversized
  (``bounds_tolerance``), so consecutive steps of a quiet beam keep
  the same cell size and therefore keep hitting the Green's cache.

FFTs go through ``scipy.fft`` with multi-threaded ``workers=`` when
scipy is importable, falling back to ``numpy.fft``.
"""

from __future__ import annotations

import os
from collections import OrderedDict

import numpy as np

from repro.beams.distributions import PX, PY, PZ
from repro.core.trace import count, span

try:  # scipy's pocketfft supports multi-threaded transforms
    import scipy.fft as _sfft
except ImportError:  # pragma: no cover - scipy is a hard dep elsewhere
    _sfft = None

__all__ = [
    "deposit_cic",
    "gather_cic",
    "solve_poisson_open",
    "electric_field",
    "green_function_rfft",
    "clear_green_cache",
    "green_cache_stats",
    "SpaceChargeSolver",
]

_FFT_WORKERS = max(1, min(8, os.cpu_count() or 1))


def _rfftn(a: np.ndarray) -> np.ndarray:
    if _sfft is not None:
        return _sfft.rfftn(a, workers=_FFT_WORKERS)
    return np.fft.rfftn(a)


def _fft1(a, n, axis):
    if _sfft is not None:
        return _sfft.fft(a, n=n, axis=axis, workers=_FFT_WORKERS)
    return np.fft.fft(a, n=n, axis=axis)


def _ifft1(a, n, axis):
    if _sfft is not None:
        return _sfft.ifft(a, n=n, axis=axis, workers=_FFT_WORKERS)
    return np.fft.ifft(a, n=n, axis=axis)


def _rfft1(a, n, axis):
    if _sfft is not None:
        return _sfft.rfft(a, n=n, axis=axis, workers=_FFT_WORKERS)
    return np.fft.rfft(a, n=n, axis=axis)


def _irfft1(a, n, axis):
    if _sfft is not None:
        return _sfft.irfft(a, n=n, axis=axis, workers=_FFT_WORKERS)
    return np.fft.irfft(a, n=n, axis=axis)


def _rfftn_padded(a: np.ndarray, padded_shape) -> np.ndarray:
    """rFFT of ``a`` zero-padded to ``padded_shape``, staged per axis.

    The doubled Hockney grid is seven-eighths zeros; transforming axis
    by axis and letting each 1-D FFT do the zero-padding (``n=``)
    never touches the empty octants, cutting the forward transform to
    roughly half the naive padded-array cost.
    """
    px, py, pz = padded_shape
    f = _rfft1(a, pz, 2)
    f = _fft1(f, py, 1)
    return _fft1(f, px, 0)


def _irfftn_truncated(spec: np.ndarray, padded_shape, out_shape) -> np.ndarray:
    """Inverse of the padded rFFT, keeping only the leading octant.

    Hockney's method discards everything outside ``out_shape``; axis
    transforms are independent across the other axes, so each stage
    can slice to the needed range before the next one runs.
    """
    px, py, pz = padded_shape
    nx, ny, nz = out_shape
    g = _ifft1(spec, px, 0)[:nx]
    g = _ifft1(g, py, 1)[:, :ny]
    return _irfft1(g, pz, 2)[:, :, :nz]


def _cic_inputs(positions, shape, lo, hi):
    """Validated float64 ``(positions, shape, lo, hi)`` for the CIC kernels."""
    positions = np.asarray(positions, dtype=np.float64)
    if positions.ndim != 2 or positions.shape[1] != 3:
        raise ValueError(f"positions must be (N, 3), got shape {positions.shape}")
    if not np.isfinite(positions).all():
        raise ValueError("positions contain NaN/Inf; clean the particles before the CIC pass")
    shape = tuple(int(s) for s in shape)
    if len(shape) != 3 or any(s < 2 for s in shape):
        raise ValueError("grid must be 3-D with at least 2 nodes in each dimension")
    lo = np.broadcast_to(np.asarray(lo, dtype=np.float64), (3,))
    hi = np.broadcast_to(np.asarray(hi, dtype=np.float64), (3,))
    if not (np.isfinite(lo).all() and np.isfinite(hi).all() and np.all(hi > lo)):
        raise ValueError("need finite hi > lo in every axis")
    return positions, shape, lo, hi


def _cic_corners(positions, shape, lo, hi, weights=None):
    """Yield ``(flat node index, weight)`` for each of the 8 CIC corners.

    The index math runs one 1-D axis column at a time: a broadcast over
    an ``(N, 3)`` array has an innermost loop 3 elements long, a column
    pass has one N long.  Every value is the one the ``(N, 3)`` form
    computes -- ``(p - lo) / cell`` per axis, then weight x x-factor x
    y-factor x z-factor in that order -- so results are bit-identical.
    """
    nx, ny, nz = shape
    cell = (hi - lo) / (np.array(shape) - 1)
    i0, f = [], []
    for a in range(3):
        # node-centered: rel = (p - lo)/cell, node i at coordinate i
        rel = (positions[:, a] - lo[a]) / cell[a]
        ia = np.clip(np.floor(rel).astype(np.int64), 0, shape[a] - 2)
        i0.append(ia)
        f.append(np.clip(rel - ia, 0.0, 1.0))
    base = (i0[0] * ny + i0[1]) * nz + i0[2]
    for dx in (0, 1):
        wx = f[0] if dx else 1.0 - f[0]
        if weights is not None:
            wx = weights * wx
        for dy in (0, 1):
            wy = wx * (f[1] if dy else 1.0 - f[1])
            for dz in (0, 1):
                yield base + ((dx * ny + dy) * nz + dz), wy * (f[2] if dz else 1.0 - f[2])


def _deposit_corners(grid: np.ndarray, corners) -> None:
    # flat-index bincount: far faster than np.add.at's buffered scatter
    flat = grid.reshape(-1)
    for idx, w in corners:
        flat += np.bincount(idx, weights=w, minlength=flat.size)


def _gather_corners(comps: np.ndarray, corners, n: int) -> np.ndarray:
    # one 1-D take per component and corner; a 2-D fancy take
    # ``flat[:, idx]`` reads the same values far more slowly
    flat = comps.reshape(comps.shape[0], -1)
    out = np.zeros((comps.shape[0], n))
    for idx, w in corners:
        for c in range(flat.shape[0]):
            out[c] += flat[c].take(idx) * w
    return out


def deposit_cic(
    positions: np.ndarray,
    shape,
    lo,
    hi,
    weights: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Cloud-in-cell deposition of particles onto a node-centered grid.

    Returns an array of the given shape whose sum equals the total
    particle weight (charge conservation).  ``out`` accumulates *into*
    an existing float64 grid instead of allocating a fresh one -- the
    seam the out-of-core extraction uses to bin a density volume shard
    by shard without holding the particle frame in RAM.

    ``positions`` must be finite and ``(N, 3)``, and ``hi > lo`` in
    every axis (``ValueError`` otherwise); finite points outside the
    box are clamped onto its edge cells.
    """
    positions, shape, lo, hi = _cic_inputs(positions, shape, lo, hi)
    if out is None:
        grid = np.zeros(shape)
    else:
        if out.shape != shape:
            raise ValueError(f"out has shape {out.shape}, expected {shape}")
        if out.dtype != np.float64 or not out.flags.c_contiguous:
            raise ValueError("out must be a C-contiguous float64 grid")
        grid = out
    if len(positions) == 0:
        return grid
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
    _deposit_corners(grid, _cic_corners(positions, shape, lo, hi, weights))
    return grid


def gather_cic(field: np.ndarray, positions: np.ndarray, lo, hi) -> np.ndarray:
    """Trilinear interpolation of a node-centered grid field to points.

    ``field`` is (nx, ny, nz), or (C, nx, ny, nz) with a leading
    component axis; the result has shape (N,) or (C, N) correspondingly.
    Inputs are validated as in :func:`deposit_cic`.
    """
    field = np.asarray(field, dtype=np.float64)
    if field.ndim not in (3, 4):
        raise ValueError(f"field must be (nx, ny, nz) or (C, nx, ny, nz), got {field.shape}")
    vector = field.ndim == 4
    comps = field if vector else field[None]
    positions, shape, lo, hi = _cic_inputs(positions, comps.shape[1:], lo, hi)
    out = _gather_corners(comps, _cic_corners(positions, shape, lo, hi), len(positions))
    return out if vector else out[0]


def _green_rfft_fresh(shape, cell: np.ndarray) -> np.ndarray:
    """Spectrum of the free-space Green's function on the doubled grid."""
    nx, ny, nz = shape
    gx = np.arange(2 * nx, dtype=np.float64)
    gy = np.arange(2 * ny, dtype=np.float64)
    gz = np.arange(2 * nz, dtype=np.float64)
    # mirror offsets so the padded grid is circularly symmetric
    gx = np.minimum(gx, 2 * nx - gx) * cell[0]
    gy = np.minimum(gy, 2 * ny - gy) * cell[1]
    gz = np.minimum(gz, 2 * nz - gz) * cell[2]
    r = np.sqrt(
        gx[:, None, None] ** 2 + gy[None, :, None] ** 2 + gz[None, None, :] ** 2
    )
    with np.errstate(divide="ignore"):
        green = 1.0 / (4.0 * np.pi * r)
    # self-cell: average of 1/(4 pi r) over one cell ~ 1/(4 pi r_eff)
    r_eff = 0.5 * float(np.mean(cell))
    green[0, 0, 0] = 1.0 / (4.0 * np.pi * r_eff)
    return _rfftn(green)


class _GreenCache:
    """LRU of padded Green's-function spectra keyed on (shape, cell)."""

    def __init__(self, max_entries: int = 8):
        self.max_entries = int(max_entries)
        self._entries: OrderedDict[tuple, np.ndarray] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, shape, cell: np.ndarray) -> np.ndarray:
        key = (tuple(int(s) for s in shape), tuple(float(c) for c in cell))
        spec = self._entries.get(key)
        if spec is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            count("green_cache_hit")
            return spec
        self.misses += 1
        count("green_cache_miss")
        with span("green_function_build", shape=tuple(int(s) for s in shape)):
            spec = _green_rfft_fresh(shape, cell)
        self._entries[key] = spec
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
        return spec

    def clear(self) -> None:
        self._entries.clear()

    def stats(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": len(self._entries),
            "bytes": sum(s.nbytes for s in self._entries.values()),
        }


_green_cache = _GreenCache()


def green_function_rfft(shape, cell) -> np.ndarray:
    """Cached rFFT of the doubled-grid Green's function.

    Keyed on (grid shape, cell size); repeated Poisson solves on the
    same grid skip both the real-space sampling and its forward FFT.
    """
    cell = np.asarray(cell, dtype=np.float64)
    return _green_cache.get(shape, cell)


def clear_green_cache() -> None:
    """Drop every cached Green's-function spectrum."""
    _green_cache.clear()


def green_cache_stats() -> dict:
    """Hit/miss/size statistics of the Green's-function cache."""
    return _green_cache.stats()


def solve_poisson_open(rho: np.ndarray, cell, cached: bool = True) -> np.ndarray:
    """Open-boundary Poisson solve (Hockney's doubled-grid method).

    Solves  lap(phi) = -rho  for an isolated charge distribution.
    The free-space Green's function 1/(4 pi r) is sampled on a grid of
    twice the size, the density is zero-padded, and the convolution is
    done with FFTs.  Returns phi on the original grid.

    ``cached=True`` (default) reuses the Green's-function spectrum for
    repeated solves on the same (shape, cell); ``cached=False``
    recomputes it, bit-identically, for benchmarking the cold path.
    """
    rho = np.asarray(rho, dtype=np.float64)
    nx, ny, nz = rho.shape
    cell = np.asarray(cell, dtype=np.float64)
    if cached:
        green_spec = green_function_rfft(rho.shape, cell)
    else:
        green_spec = _green_rfft_fresh(rho.shape, cell)

    padded = (2 * nx, 2 * ny, 2 * nz)
    spec = _rfftn_padded(rho, padded)
    spec *= green_spec
    phi = _irfftn_truncated(spec, padded, rho.shape)
    cell_volume = float(np.prod(cell))
    return phi * cell_volume


def electric_field(phi: np.ndarray, cell) -> np.ndarray:
    """E = -grad(phi) by central differences; returns (3, nx, ny, nz)."""
    cell = np.asarray(cell, dtype=np.float64)
    ex = -np.gradient(phi, cell[0], axis=0)
    ey = -np.gradient(phi, cell[1], axis=1)
    ez = -np.gradient(phi, cell[2], axis=2)
    return np.stack([ex, ey, ez])


def _abs_max(pos: np.ndarray, center: np.ndarray) -> np.ndarray:
    """``np.abs(pos - center).max(axis=0)``, one column at a time
    (``max`` is exact in any order, so the result is bit-identical)."""
    return np.array([np.abs(pos[:, a] - center[a]).max() for a in range(pos.shape[1])])


class SpaceChargeSolver:
    """One-stop PIC space-charge kick.

    Parameters
    ----------
    grid_shape : Poisson grid resolution, e.g. (32, 32, 32)
    strength : dimensionless perveance-like coupling; the momentum kick
        is ``dp = strength * E * dl`` per unit path length.
    padding : the grid bounds hug the beam's instantaneous extent times
        this factor when (re-)fit.
    bounds_tolerance : grid-bounds hysteresis.  The fitted bounds are
        kept across solves while the beam still fits inside them and
        they are no more than ``(1 + bounds_tolerance)`` times the
        fresh fit -- so consecutive steps of a quiet beam share one
        cell size and keep hitting the Green's-function cache.  Set to
        0 to re-fit every solve (the pre-cache behaviour).
    """

    def __init__(
        self,
        grid_shape=(32, 32, 32),
        strength: float = 1e-2,
        padding: float = 1.3,
        bounds_tolerance: float = 0.05,
    ):
        self.grid_shape = tuple(int(s) for s in grid_shape)
        self.strength = float(strength)
        self.padding = float(padding)
        self.bounds_tolerance = float(bounds_tolerance)
        self._center: np.ndarray | None = None
        self._half: np.ndarray | None = None

    def _fit_bounds(self, pos: np.ndarray):
        """Grid bounds for this solve, with hysteresis (see class doc)."""
        tol = self.bounds_tolerance
        if tol > 0.0 and self._center is not None:
            ext = np.maximum(_abs_max(pos, self._center), 1e-9)
            want = ext * self.padding
            contained = np.all(want <= self._half)
            oversized = np.any(self._half > (1.0 + tol) * want)
            if contained and not oversized:
                count("sc_bounds_reuse")
                return self._center, self._half
        # a per-column mean would round differently: keep the (N, 3) one
        center = pos.mean(axis=0)
        ext = np.maximum(_abs_max(pos, center), 1e-9)
        # sit mid-band so small breathing oscillations stay inside
        self._center = center
        self._half = ext * self.padding * (1.0 + 0.5 * tol)
        count("sc_bounds_refit")
        return self._center, self._half

    def field_at(self, particles: np.ndarray):
        """Return (E(3, N), lo, hi) for the particle set's own field."""
        pos = particles[:, :3]
        center, half = self._fit_bounds(pos)
        lo = center - half
        hi = center + half
        cell = (hi - lo) / (np.array(self.grid_shape) - 1)
        pos, shape, _, _ = _cic_inputs(pos, self.grid_shape, lo, hi)
        # deposit and gather see the same positions, grid and bounds:
        # derive the 8 corners once and use them for both
        corners = list(_cic_corners(pos, shape, lo, hi))
        rho = np.zeros(shape)
        _deposit_corners(rho, corners)
        rho /= len(particles) * float(np.prod(cell))  # normalized density
        phi = solve_poisson_open(rho, cell)
        e_grid = electric_field(phi, cell)
        e_particles = _gather_corners(e_grid, corners, len(pos))
        return e_particles, lo, hi

    def kick(self, particles: np.ndarray, dl: float) -> None:
        """Apply the space-charge momentum kick over path length dl."""
        e_particles, _, _ = self.field_at(particles)
        particles[:, PX] += self.strength * e_particles[0] * dl
        particles[:, PY] += self.strength * e_particles[1] * dl
        particles[:, PZ] += self.strength * e_particles[2] * dl
