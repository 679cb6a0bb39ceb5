"""Octree-refined adaptive (AMR) density volumes (ROADMAP item 4).

The flat extraction bins every particle into one uniform ``64^3``
grid, so the dense beam core is starved of resolution while empty halo
space burns the byte budget.  This module spends the *same* bytes
adaptively (Labadens et al., "Volume Rendering of AMR Simulations"):
the plot bounds are tiled by a ``bricks^3`` root grid of bricks, each
occupied brick deposits its particles at a per-brick refinement level
chosen from its local particle count, and empty bricks cost nothing.

Layout
------
A brick at level ``l`` holds ``(brick_cells << l)^3`` density cells
over its world box.  All brick payloads are concatenated into one flat
``data`` array in ascending root-brick order (C order over the root
grid), so the structure is fully described by the ``levels`` map
(int8, ``-1`` = empty) plus the derived per-brick offsets -- the
*brick manifest*.  The manifest is a pure function of the per-brick
particle counts and the refinement parameters, so two builds over the
same input produce bitwise-identical volumes (tested), and the
streamed build needs no mutable on-disk state: pass 1 histograms the
chunks into root-brick counts, the plan is decided once, pass 2
deposits chunk by chunk into the preallocated flat array.  On-disk
blobs are written atomically with a trailing CRC32, so a crash leaves
either the old volume or none.

Refinement criteria
-------------------
``refine_budget=n``: a brick gains one level for every factor-of-8
its count exceeds ``n`` (capped at ``max_refine``) -- the classic
count-per-cell rule.  ``byte_budget=n``: occupied bricks start at
level 0 and the planner greedily refines the brick with the highest
count-per-cell until the next refinement would overflow the budget --
"resolution where the beam is, at equal memory".  Ties break on brick
index, so the plan is deterministic.

Deposit
-------
Per-brick cloud-in-cell on a *cell-centered* local grid (texel
centers, matching ``trilinear_sample``); a particle's CIC cloud is
clamped inside its own brick, so every particle lands entirely in the
brick that contains it -- mass is conserved and bricks never overlap.
The kernel is a single ``np.bincount`` scatter over the concatenated
flat array per corner, with per-particle brick resolution -- no
per-brick Python loop.
"""

from __future__ import annotations

import heapq
import struct
import zlib

import numpy as np

from repro.core.atomic import atomic_write_bytes
from repro.core.errors import FormatError
from repro.core.trace import count, gauge, span

__all__ = [
    "AmrVolume",
    "plan_amr_levels",
    "amr_plan_nbytes",
    "brick_particle_counts",
    "build_amr",
]

_MAGIC = b"RPRAMRVL"
_FORMAT_VERSION = 1
_HEADER = struct.Struct("<8sHHII Q 3d 3d")


def _validate_geometry(bricks: int, brick_cells: int) -> tuple[int, int]:
    bricks = int(bricks)
    brick_cells = int(brick_cells)
    if bricks < 1 or bricks & (bricks - 1):
        raise ValueError("bricks must be a power of two >= 1")
    if brick_cells < 2 or brick_cells & (brick_cells - 1):
        raise ValueError("brick_cells must be a power of two >= 2")
    return bricks, brick_cells


def _level_map(levels, bricks: int) -> np.ndarray:
    """A contiguous int8 ``(bricks, bricks, bricks)`` level map;
    ``ValueError`` for any other shape."""
    levels = np.ascontiguousarray(levels, dtype=np.int8)
    if levels.shape != (bricks,) * 3:
        raise ValueError("levels must be (bricks, bricks, bricks)")
    return levels


def _offsets_from_levels(levels: np.ndarray, brick_cells: int):
    """Derive the flat data offset of each root brick (``-1`` = empty).

    Offsets ascend in C order over the root grid -- the deterministic
    brick manifest every build and load reconstructs identically.
    """
    lvl = levels.reshape(-1).astype(np.int64)
    cells = np.where(lvl >= 0, (np.int64(brick_cells) << np.maximum(lvl, 0)) ** 3, 0)
    ends = np.cumsum(cells)
    offsets = np.where(lvl >= 0, ends - cells, -1)
    return offsets, int(ends[-1]) if len(ends) else 0


def plan_amr_levels(
    counts: np.ndarray,
    *,
    brick_cells: int = 8,
    max_refine: int = 2,
    refine_budget: int | None = None,
    byte_budget: int | None = None,
) -> np.ndarray:
    """Choose a refinement level per root brick from its particle count.

    Returns an int8 ``(B, B, B)`` level map: ``-1`` for empty bricks,
    otherwise ``0..max_refine``.  Exactly one of ``refine_budget`` /
    ``byte_budget`` selects the criterion (see module docstring); the
    plan is a deterministic pure function of (counts, parameters).
    """
    counts = np.asarray(counts)
    if counts.ndim != 3 or len(set(counts.shape)) != 1:
        raise ValueError("counts must be a cubic (B, B, B) grid")
    _, brick_cells = _validate_geometry(counts.shape[0], brick_cells)
    max_refine = int(max_refine)
    if max_refine < 0:
        raise ValueError("max_refine must be >= 0")
    if (refine_budget is None) == (byte_budget is None):
        raise ValueError("exactly one of refine_budget / byte_budget required")

    flat = counts.reshape(-1).astype(np.float64)
    levels = np.full(flat.shape, -1, dtype=np.int8)
    occupied = flat > 0
    levels[occupied] = 0

    if refine_budget is not None:
        budget = float(refine_budget)
        if budget <= 0:
            raise ValueError("refine_budget must be > 0")
        for lev in range(max_refine):
            levels[occupied & (flat > budget * 8.0**lev)] = lev + 1
        return levels.reshape(counts.shape)

    budget = int(byte_budget)

    def brick_bytes(lev: int) -> int:
        return (brick_cells << lev) ** 3 * 4

    total = int(np.count_nonzero(occupied)) * brick_bytes(0)
    # greedy: always refine the brick with the most particles per cell
    # next; ties break on brick index so the plan is deterministic
    heap = [
        (-flat[b], int(b)) for b in np.flatnonzero(occupied) if max_refine > 0
    ]
    heapq.heapify(heap)
    while heap:
        pri, b = heapq.heappop(heap)
        lev = int(levels[b])
        if -pri != flat[b] / 8.0**lev:
            continue  # stale entry from before this brick's last refinement
        if lev >= max_refine:
            continue
        delta = brick_bytes(lev + 1) - brick_bytes(lev)
        if total + delta > budget:
            continue  # drop; smaller refinements may still fit
        total += delta
        levels[b] = lev + 1
        if lev + 1 < max_refine:
            heapq.heappush(heap, (-(flat[b] / 8.0 ** (lev + 1)), b))
    return levels.reshape(counts.shape)


def amr_plan_nbytes(levels: np.ndarray, brick_cells: int) -> int:
    """Payload bytes (float32 cells) of a level map, without building it."""
    _, total_cells = _offsets_from_levels(np.asarray(levels), int(brick_cells))
    return total_cells * 4


def brick_particle_counts(chunks, lo, hi, bricks: int) -> np.ndarray:
    """Histogram (N, 3) coordinate chunks into the ``bricks^3`` root grid."""
    bricks, _ = _validate_geometry(bricks, 2)
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    span = np.maximum(hi - lo, 1e-300)
    out = np.zeros(bricks**3, dtype=np.int64)
    for coords in chunks:
        if len(coords) == 0:
            continue
        rel = (np.asarray(coords, dtype=np.float64) - lo) / span * bricks
        idx = np.clip(np.floor(rel).astype(np.int64), 0, bricks - 1)
        bid = (idx[:, 0] * bricks + idx[:, 1]) * bricks + idx[:, 2]
        out += np.bincount(bid, minlength=bricks**3)
    return out.reshape((bricks,) * 3)


def _deposit_chunk(coords, lo, hi, bricks, brick_cells, levels_flat, offsets, acc):
    """Per-brick cell-centered CIC of one coordinate chunk into ``acc``."""
    coords = np.asarray(coords, dtype=np.float64)
    if len(coords) == 0:
        return
    span = np.maximum(hi - lo, 1e-300)
    rel = (coords - lo) / span * bricks
    idx = np.clip(np.floor(rel).astype(np.int64), 0, bricks - 1)
    bid = (idx[:, 0] * bricks + idx[:, 1]) * bricks + idx[:, 2]
    lvl = levels_flat[bid].astype(np.int64)
    live = lvl >= 0
    if not live.all():
        rel, idx, bid, lvl = rel[live], idx[live], bid[live], lvl[live]
        if len(rel) == 0:
            return
    m = np.int64(brick_cells) << lvl
    # brick-local cell-centered coordinates: texel k's center at k + 0.5
    local = (rel - idx) * m[:, None] - 0.5
    i0 = np.floor(local).astype(np.int64)
    np.clip(i0, 0, (m - 2)[:, None], out=i0)
    f = np.clip(local - i0, 0.0, 1.0)
    base = offsets[bid] + (i0[:, 0] * m + i0[:, 1]) * m + i0[:, 2]
    for dx in (0, 1):
        wx = f[:, 0] if dx else 1.0 - f[:, 0]
        for dy in (0, 1):
            wy = wx * (f[:, 1] if dy else 1.0 - f[:, 1])
            for dz in (0, 1):
                wz = wy * (f[:, 2] if dz else 1.0 - f[:, 2])
                flat_idx = base + (dx * m + dy) * m + dz
                acc += np.bincount(flat_idx, weights=wz, minlength=acc.size)


class AmrVolume:
    """An octree-refined adaptive density volume.

    Attributes
    ----------
    lo, hi : (3,) world bounds
    bricks : root bricks per axis (``B``)
    brick_cells : cells per axis of a level-0 brick
    levels : (B, B, B) int8 refinement level per brick, ``-1`` = empty
    offsets : (B^3,) int64 flat offset of each brick's payload in
        ``data`` (``-1`` for empty) -- the deterministic brick manifest
    data : flat float32 density cells, ascending-brick C order
    """

    def __init__(self, lo, hi, bricks, brick_cells, levels, data):
        self.lo = np.asarray(lo, dtype=np.float64)
        self.hi = np.asarray(hi, dtype=np.float64)
        self.bricks, self.brick_cells = _validate_geometry(bricks, brick_cells)
        self.levels = _level_map(levels, self.bricks)
        self.offsets, self.total_cells = _offsets_from_levels(
            self.levels, self.brick_cells
        )
        data = np.ascontiguousarray(data, dtype=np.float32)
        # a flat array is kept itself, not a view of it (a frame copies views)
        self.data = data if data.ndim == 1 else data.reshape(-1)
        if len(self.data) != self.total_cells:
            raise ValueError(
                f"data has {len(self.data)} cells, manifest expects "
                f"{self.total_cells}"
            )

    # ------------------------------------------------------------------
    @property
    def nbytes(self) -> int:
        """Payload bytes -- the number the equal-memory claim is about."""
        return int(self.data.nbytes)

    @property
    def n_occupied(self) -> int:
        return int(np.count_nonzero(self.levels >= 0))

    @property
    def n_refined(self) -> int:
        return int(np.count_nonzero(self.levels >= 1))

    @property
    def max_level_used(self) -> int:
        return int(self.levels.max()) if self.n_occupied else -1

    @property
    def level_hash(self) -> int:
        """CRC32 of the level map -- the brick-manifest component of the
        extended frame-cache key (two AMR volumes share slice geometry
        exactly when their manifests match)."""
        return zlib.crc32(self.levels.tobytes()) & 0xFFFFFFFF

    def signature(self) -> tuple:
        """Hashable identity of the brick structure (not the contents)."""
        return (
            int(self.bricks), int(self.brick_cells),
            int(self.total_cells), int(self.level_hash),
        )

    def max_density(self) -> float:
        return float(self.data.max()) if self.data.size else 0.0

    def _brick_m(self, flat_id: int) -> int:
        return self.brick_cells << int(self.levels.reshape(-1)[flat_id])

    def brick_density(self, i: int, j: int, k: int) -> np.ndarray | None:
        """The (m, m, m) density payload of one brick, or ``None``."""
        flat_id = (i * self.bricks + j) * self.bricks + k
        off = int(self.offsets[flat_id])
        if off < 0:
            return None
        m = self._brick_m(flat_id)
        return self.data[off : off + m**3].reshape(m, m, m)

    def cell_volumes(self) -> np.ndarray:
        """World volume of one cell of each occupied brick (ascending)."""
        occ = np.flatnonzero(self.levels.reshape(-1) >= 0)
        m = (np.int64(self.brick_cells) << self.levels.reshape(-1)[occ].astype(np.int64))
        span = np.maximum(self.hi - self.lo, 1e-300)
        return float(np.prod(span / self.bricks)) / m.astype(np.float64) ** 3

    def manifest(self) -> dict:
        """The deterministic brick manifest as a plain dict."""
        return {
            "bricks": int(self.bricks),
            "brick_cells": int(self.brick_cells),
            "occupied": self.n_occupied,
            "refined": self.n_refined,
            "max_level": self.max_level_used,
            "cells": int(self.total_cells),
            "bytes": self.nbytes,
            "levels_crc32": int(self.level_hash),
            "data_crc32": int(zlib.crc32(self.data.tobytes()) & 0xFFFFFFFF),
        }

    # ------------------------------------------------------------------
    def counts(self) -> np.ndarray:
        """Per-cell particle counts (density times cell volume)."""
        lvl = self.levels.reshape(-1)
        occ = np.flatnonzero(lvl >= 0)
        m = np.int64(self.brick_cells) << lvl[occ].astype(np.int64)
        scale = np.repeat(self.cell_volumes(), m**3)
        return self.data.astype(np.float64) * scale

    def to_dense(self, resolution: int) -> np.ndarray:
        """Nearest-neighbor density resample to a uniform float32 grid
        (a flat fallback view; rendering samples the bricks directly)."""
        res = int(resolution)
        if res % self.bricks:
            raise ValueError("resolution must be a multiple of bricks")
        res_b = res // self.bricks
        out = np.zeros((res,) * 3, dtype=np.float32)
        lvl3 = self.levels
        for i in range(self.bricks):
            for j in range(self.bricks):
                for k in range(self.bricks):
                    if lvl3[i, j, k] < 0:
                        continue
                    g = self.brick_density(i, j, k)
                    m = g.shape[0]
                    sel = np.minimum(
                        ((np.arange(res_b) + 0.5) * m // res_b).astype(np.int64),
                        m - 1,
                    )
                    out[
                        i * res_b : (i + 1) * res_b,
                        j * res_b : (j + 1) * res_b,
                        k * res_b : (k + 1) * res_b,
                    ] = g[np.ix_(sel, sel, sel)]
        return out

    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Serialize (magic, header, levels, data, CRC32 trailer)."""
        header = _HEADER.pack(
            _MAGIC, _FORMAT_VERSION, 0,
            int(self.bricks), int(self.brick_cells),
            int(self.total_cells),
            *(float(v) for v in self.lo),
            *(float(v) for v in self.hi),
        )
        body = self.levels.tobytes() + self.data.tobytes()
        crc = struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)
        return header + body + crc

    def save(self, path) -> int:
        """Write the volume atomically; returns bytes written."""
        return atomic_write_bytes(path, self.to_bytes())

    @classmethod
    def from_bytes(cls, raw: bytes, source: str = "<bytes>") -> "AmrVolume":
        if len(raw) < _HEADER.size:
            raise FormatError(f"{source}: truncated AMR volume header")
        fields = _HEADER.unpack_from(raw, 0)
        magic, version = fields[0], fields[1]
        if magic != _MAGIC:
            raise FormatError(f"{source}: not an AMR volume blob")
        if version != _FORMAT_VERSION:
            raise FormatError(
                f"{source}: unsupported AMR format version {version} "
                f"(expected {_FORMAT_VERSION})"
            )
        bricks, brick_cells, total_cells = fields[3], fields[4], fields[5]
        lo = np.array(fields[6:9])
        hi = np.array(fields[9:12])
        off = _HEADER.size
        body_bytes = bricks**3 + total_cells * 4
        if len(raw) < off + body_bytes + 4:
            raise FormatError(f"{source}: truncated AMR volume payload")
        body = raw[off : off + body_bytes]
        (crc,) = struct.unpack_from("<I", raw, off + body_bytes)
        if zlib.crc32(body) & 0xFFFFFFFF != crc:
            raise FormatError(f"{source}: AMR volume CRC mismatch")
        levels = np.frombuffer(body, dtype=np.int8, count=bricks**3).reshape(
            (bricks,) * 3
        )
        data = np.frombuffer(
            body, dtype="<f4", count=total_cells, offset=bricks**3
        )
        vol = cls(lo, hi, bricks, brick_cells, levels.copy(), data.copy())
        if vol.total_cells != total_cells:
            raise FormatError(f"{source}: AMR manifest/payload cell mismatch")
        return vol

    @classmethod
    def load(cls, path) -> "AmrVolume":
        with open(path, "rb") as f:
            raw = f.read()
        return cls.from_bytes(raw, source=str(path))

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (
            f"AmrVolume(bricks={self.bricks}, brick_cells={self.brick_cells}, "
            f"occupied={self.n_occupied}, refined={self.n_refined}, "
            f"bytes={self.nbytes})"
        )


# ----------------------------------------------------------------------
def build_amr(
    frame,
    *,
    bricks: int = 8,
    brick_cells: int = 8,
    max_refine: int = 2,
    refine_budget: int | None = None,
    byte_budget: int | None = None,
) -> AmrVolume:
    """Build an adaptive volume over every particle of a partitioned
    frame or store.

    Read through ``frame.chunks`` (one chunk in core, one per shard
    for a store): pass 1 histograms the chunks into root-brick counts
    and fixes the brick manifest, pass 2 deposits each chunk into the
    preallocated flat array -- peak memory is one shard plus the
    (byte-budgeted) volume.  When neither budget is given,
    ``byte_budget`` defaults to the flat ``64^3`` float32 footprint --
    equal memory by default.
    """
    bricks, brick_cells = _validate_geometry(bricks, brick_cells)
    lo = np.asarray(frame.lo, dtype=np.float64)
    hi = np.asarray(frame.hi, dtype=np.float64)

    if refine_budget is None and byte_budget is None:
        byte_budget = 64**3 * 4
    with span("amr_plan", bricks=bricks):
        counts = brick_particle_counts(frame.chunks(frame.columns), lo, hi, bricks)
        levels = plan_amr_levels(
            counts,
            brick_cells=brick_cells,
            max_refine=max_refine,
            refine_budget=refine_budget,
            byte_budget=byte_budget,
        )

    levels_flat = levels.reshape(-1)
    offsets, total_cells = _offsets_from_levels(levels, brick_cells)
    acc = np.zeros(total_cells, dtype=np.float64)
    with span("amr_deposit", bricks=bricks, cells=total_cells):
        for coords in frame.chunks(frame.columns):
            _deposit_chunk(
                coords, lo, hi, bricks, brick_cells, levels_flat, offsets, acc
            )
    occ = np.flatnonzero(levels_flat >= 0)
    m = np.int64(brick_cells) << levels_flat[occ].astype(np.int64)
    span_w = np.maximum(hi - lo, 1e-300)
    cell_vol = float(np.prod(span_w / bricks)) / m.astype(np.float64) ** 3
    scale = np.repeat(cell_vol, m**3)
    data = (acc / scale).astype(np.float32) if total_cells else acc.astype(np.float32)

    vol = AmrVolume(lo, hi, bricks, brick_cells, levels, data)
    count("amr_deposit_brick", vol.n_occupied)
    count("amr_bricks_refined", vol.n_refined)
    gauge("amr_volume_bytes", vol.nbytes)
    gauge("amr_max_level", vol.max_level_used)
    return vol
