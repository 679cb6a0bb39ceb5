"""Every partitioned frame takes one volume path, byte for byte.

In-core frames answer the store's three calls (``read_prefix``,
``chunks``, ``volume_counts``), and one ``density_volume`` turns count
grids into the f4 volume for ``extract``, the LOD coarse volume and a
stream's VOLUME unit.  This module keeps the code that did that before
verbatim -- ``_streamed_volume``, ``_density_volume``,
``_coord_chunks``, ``build_amr``, ``extract``, ``extraction_sizes``
and the LOD's normalization (docstrings shortened, in-function imports
resolved to the copies here) -- and asserts type, dtype, shape and
bytes equal on both backends, on beams and on adversarial inputs: one
particle, every particle in one cell, and duplicated rows.

The old code runs under :func:`old_code`: an in-core frame had none of
the three calls, and a store's ``volume_counts`` deposited through
``_streamed_volume`` (its file hit returns the bytes that deposit
wrote, which ``tests/octree/test_disk_extraction.py`` pins).
"""

import contextlib

import numpy as np
import pytest

import repro.octree.amr as amr_mod
from repro.beams.spacecharge import deposit_cic
from repro.core.dataset import as_dataset
from repro.core.trace import capture, count, gauge, span
from repro.hybrid.representation import HybridFrame
from repro.octree.amr import (
    AmrVolume,
    _deposit_chunk,
    _offsets_from_levels,
    _validate_geometry,
    amr_plan_nbytes,
    brick_particle_counts,
    plan_amr_levels,
)
from repro.octree.extraction import _halo_densities, extract, extraction_sizes
from repro.octree.lod import build_lod
from repro.octree.partition import PartitionedFrame, partition
from repro.octree.stream_partition import PartitionedStore, partition_store
from repro.remote.client import VisualizationClient
from repro.remote.service import VisualizationService

MAX_LEVEL = 4
CAPACITY = 16
RESOLUTIONS = (2, 8, 33)


# ----------------------------------------------------------------------
# the replaced code, verbatim
def _streamed_volume(frame, cutoff: int, res, volume_from: str) -> np.ndarray:
    """Shard-by-shard CIC deposition over a partitioned store."""
    grid = np.zeros(res)
    cols = list(frame.columns)
    offset = 0
    for chunk in frame.chunks():
        n_rows = len(chunk)
        if volume_from == "rest" and offset + n_rows <= cutoff:
            offset += n_rows
            continue
        rows = chunk if volume_from == "all" else chunk[max(cutoff - offset, 0):]
        if len(rows):
            deposit_cic(rows[:, cols], res, frame.lo, frame.hi, out=grid)
        offset += n_rows
    return grid


def _density_volume(frame, cutoff: int, resolution: int, volume_from: str) -> np.ndarray:
    """The extraction's f4 density volume."""
    res = (int(resolution),) * 3
    if isinstance(frame, PartitionedFrame):
        coords = frame.coords
        vol_src = coords if volume_from == "all" else coords[cutoff:]
        counts = deposit_cic(vol_src, res, frame.lo, frame.hi) if len(vol_src) else np.zeros(res)
    elif volume_from == "all":
        counts = frame.volume_counts(res[0])
    else:
        counts = _streamed_volume(frame, cutoff, res, "rest")
    cell_volume = float(np.prod((frame.hi - frame.lo) / (np.array(res) - 1)))
    return (counts / cell_volume).astype(np.float32)


def _coord_chunks(frame, cutoff: int, volume_from: str):
    """Yield (n, 3) coordinate blocks."""
    cols = list(frame.columns)
    if hasattr(frame, "chunks"):
        offset = 0
        for chunk in frame.chunks():
            n_rows = len(chunk)
            if volume_from == "rest" and offset + n_rows <= cutoff:
                offset += n_rows
                continue
            rows = chunk if volume_from == "all" else chunk[max(cutoff - offset, 0):]
            if len(rows):
                yield rows[:, cols]
            offset += n_rows
    else:
        coords = frame.coords
        src = coords if volume_from == "all" else coords[cutoff:]
        if len(src):
            yield src


def old_build_amr(
    frame,
    *,
    cutoff: int = 0,
    volume_from: str = "all",
    bricks: int = 8,
    brick_cells: int = 8,
    max_refine: int = 2,
    refine_budget: int | None = None,
    byte_budget: int | None = None,
    levels: np.ndarray | None = None,
) -> AmrVolume:
    """Build an adaptive volume over a partitioned frame or store."""
    if volume_from not in ("all", "rest"):
        raise ValueError("volume_from must be 'all' or 'rest'")
    bricks, brick_cells = _validate_geometry(bricks, brick_cells)
    lo = np.asarray(frame.lo, dtype=np.float64)
    hi = np.asarray(frame.hi, dtype=np.float64)

    if levels is None:
        if refine_budget is None and byte_budget is None:
            byte_budget = 64**3 * 4
        with span("amr_plan", bricks=bricks):
            counts = brick_particle_counts(
                _coord_chunks(frame, cutoff, volume_from), lo, hi, bricks
            )
            levels = plan_amr_levels(
                counts,
                brick_cells=brick_cells,
                max_refine=max_refine,
                refine_budget=refine_budget,
                byte_budget=byte_budget,
            )
    else:
        levels = np.asarray(levels, dtype=np.int8)

    levels_flat = levels.reshape(-1)
    offsets, total_cells = _offsets_from_levels(levels, brick_cells)
    acc = np.zeros(total_cells, dtype=np.float64)
    with span("amr_deposit", bricks=bricks, cells=total_cells):
        for coords in _coord_chunks(frame, cutoff, volume_from):
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


def old_extract(
    frame,
    threshold_density: float,
    *,
    volume_resolution: int = 64,
    volume_from: str = "all",
    point_attributes=(),
    adaptive: bool = False,
    amr_bricks: int = 8,
    amr_brick_cells: int = 8,
    amr_max_refine: int = 2,
    amr_refine_budget: int | None = None,
    amr_byte_budget: int | None = None,
) -> HybridFrame:
    """Extract a hybrid representation at a threshold density."""
    if volume_from not in ("all", "rest"):
        raise ValueError("volume_from must be 'all' or 'rest'")
    if np.isnan(threshold_density):
        raise ValueError("threshold_density must not be NaN")
    streaming = not isinstance(frame, PartitionedFrame)

    with span("point_prefix", streaming=streaming):
        cutoff = frame.density_cutoff_index(threshold_density)
        if streaming:
            halo_particles = frame.read_prefix(cutoff)
        else:
            halo_particles = frame.particles[:cutoff]
        halo = halo_particles[:, list(frame.columns)]
        halo_dens = _halo_densities(frame.nodes, cutoff)
    attributes = {}
    if point_attributes:
        from repro.hybrid.attributes import compute_attributes

        with span("point_attributes"):
            attributes = compute_attributes(halo_particles, point_attributes)

    with span("volume_deposit", resolution=int(volume_resolution), streaming=streaming):
        volume = _density_volume(frame, cutoff, volume_resolution, volume_from)
    count("points_extracted", cutoff)

    meta = {}
    if adaptive:
        if amr_refine_budget is None and amr_byte_budget is None:
            amr_byte_budget = int(volume_resolution) ** 3 * 4
        meta["amr"] = old_build_amr(
            frame,
            cutoff=cutoff,
            volume_from=volume_from,
            bricks=amr_bricks,
            brick_cells=amr_brick_cells,
            max_refine=amr_max_refine,
            refine_budget=amr_refine_budget,
            byte_budget=amr_byte_budget,
        )

    return HybridFrame(
        volume=volume,
        points=halo.astype(np.float32),
        point_densities=halo_dens.astype(np.float32),
        lo=frame.lo,
        hi=frame.hi,
        threshold=float(threshold_density),
        step=frame.step,
        plot_type=frame.plot_type,
        attributes=attributes,
        meta=meta,
    )


def old_extraction_sizes(
    frame: PartitionedFrame,
    thresholds,
    volume_resolution: int = 64,
    *,
    adaptive: bool = False,
    amr_bricks: int = 8,
    amr_brick_cells: int = 8,
    amr_max_refine: int = 2,
    amr_refine_budget: int | None = None,
    amr_byte_budget: int | None = None,
):
    """File-size / point-count table across a threshold sweep."""
    out = []
    amr_bytes = 0
    if adaptive:
        if amr_refine_budget is None and amr_byte_budget is None:
            amr_byte_budget = int(volume_resolution) ** 3 * 4
        counts = brick_particle_counts(
            _coord_chunks(frame, 0, "all"), frame.lo, frame.hi, amr_bricks
        )
        levels = plan_amr_levels(
            counts,
            brick_cells=amr_brick_cells,
            max_refine=amr_max_refine,
            refine_budget=amr_refine_budget,
            byte_budget=amr_byte_budget,
        )
        amr_bytes = amr_plan_nbytes(levels, amr_brick_cells)
    vol_bytes = int(volume_resolution**3 * 4)
    for t in thresholds:
        cutoff = frame.density_cutoff_index(float(t))
        point_bytes = cutoff * (3 + 1) * 4  # coords + density, float32
        row = {
            "threshold": float(t),
            "n_points": int(cutoff),
            "point_bytes": int(point_bytes),
            "volume_bytes": vol_bytes,
            "total_bytes": int(point_bytes + vol_bytes + amr_bytes),
        }
        if adaptive:
            row["amr_bytes"] = int(amr_bytes)
        out.append(row)
    return out


def _old_cell_volume(lod, res: int) -> float:
    lo, hi = lod.pstore.lo, lod.pstore.hi
    return float(np.prod((hi - lo) / (np.array((res,) * 3) - 1)))


def old_coarse_volume(lod, resolution: int) -> np.ndarray:
    """``LodHierarchy.coarse_volume`` with its ``_cell_volume``."""
    k = lod.mip_levels - 1
    m = lod.mip_base >> k
    density = lod.mip(k) / _old_cell_volume(lod, m)
    r = int(resolution)
    idx = np.clip(
        np.rint(np.arange(r) * (m - 1) / max(r - 1, 1)).astype(np.int64), 0, m - 1
    )
    return density[np.ix_(idx, idx, idx)].astype(np.float32)


def _old_store_counts(self, resolution):
    return _streamed_volume(self, 0, (int(resolution),) * 3, "all")


@contextlib.contextmanager
def old_code():
    """Install the replaced volume path: in-core frames lose the three
    calls, a store deposits through ``_streamed_volume``, and
    ``build_amr`` is the copy above."""
    with pytest.MonkeyPatch.context() as mp:
        for name in ("read_prefix", "chunks", "volume_counts"):
            mp.delattr(PartitionedFrame, name)
        mp.setattr(PartitionedStore, "volume_counts", _old_store_counts)
        mp.setattr(amr_mod, "build_amr", old_build_amr)
        yield


# ----------------------------------------------------------------------
def assert_same(a, b):
    """Type, dtype, shape and bytes equal."""
    assert type(a) is type(b)
    if isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    else:
        assert a == b


def assert_amr_same(a: AmrVolume, b: AmrVolume):
    assert (a.bricks, a.brick_cells) == (b.bricks, b.brick_cells)
    for name in ("lo", "hi", "levels", "offsets", "data"):
        assert_same(getattr(a, name), getattr(b, name))


def assert_hybrid_same(a: HybridFrame, b: HybridFrame):
    for name in ("volume", "points", "point_densities", "lo", "hi"):
        assert_same(getattr(a, name), getattr(b, name))
    for name in ("threshold", "step", "plot_type"):
        assert_same(getattr(a, name), getattr(b, name))
    assert sorted(a.attributes) == sorted(b.attributes)
    for name in a.attributes:
        assert_same(a.attributes[name], b.attributes[name])
    assert sorted(a.meta) == sorted(b.meta)
    if "amr" in a.meta:
        assert_amr_same(a.meta["amr"], b.meta["amr"])


def _beam(rng, n):
    return np.vstack([rng.normal(0.0, 0.3, (n, 6)), rng.normal(0.0, 1.5, (n // 10, 6))])


def _inputs():
    """name -> (particles, explicit bounds or None)."""
    rng = np.random.default_rng(24)
    one_cell = np.full((300, 6), 0.3) + rng.uniform(0.0, 1e-3, (300, 6))
    return {
        "beam": (_beam(rng, 11_000), None),
        "one_particle": (rng.normal(0.0, 1.0, (1, 6)), None),
        # bounds fixed so the cluster sits inside one max-level cell
        "one_cell": (one_cell, ((-1.0,) * 3, (1.0,) * 3)),
        "duplicates": (np.repeat(_beam(rng, 1_500), 3, axis=0), None),
    }


INPUTS = _inputs()


@pytest.fixture(scope="module", params=sorted(INPUTS))
def backends(request, tmp_path_factory):
    """The same partition in core and as a multi-shard store."""
    particles, bounds = INPUTS[request.param]
    lo, hi = bounds if bounds else (None, None)
    kw = dict(max_level=MAX_LEVEL, capacity=CAPACITY, lo=lo, hi=hi, step=3)
    pf = partition(as_dataset(particles), "xyz", **kw)
    ps = partition_store(
        particles, tmp_path_factory.mktemp(request.param) / "store", "xyz",
        shard_rows=1_000, **kw,
    )
    assert np.array_equal(pf.nodes, ps.nodes)
    if request.param == "one_cell":
        assert pf.n_nodes == 1 and pf.nodes["level"][0] == MAX_LEVEL
    return request.param, pf, ps


def _thresholds(frame):
    d = frame.nodes["density"]
    return [-np.inf, 0.0, *np.percentile(d, [25, 50, 90]).tolist(), np.inf]


# ----------------------------------------------------------------------
class TestThreeCalls:
    """Both backends answer the three calls with the replaced code's
    float64 bytes, before any cast to float32 can hide a difference."""

    def test_incore(self, backends):
        _, pf, _ = backends
        n = min(7, pf.n_particles)
        prefix = pf.read_prefix(n)
        assert np.shares_memory(prefix, pf.particles)
        assert_same(prefix, pf.particles[:n])
        (chunk,) = pf.chunks(pf.columns)
        assert_same(chunk, pf.coords)
        (whole,) = pf.chunks()
        assert whole is pf.particles
        for res in RESOLUTIONS:
            old = deposit_cic(pf.coords, (res,) * 3, pf.lo, pf.hi)
            assert_same(pf.volume_counts(res), old)

    def test_store(self, backends):
        _, pf, ps = backends
        ps = PartitionedStore.open(ps.directory)
        assert_same(ps.read_prefix(pf.n_particles), pf.particles)
        assert len(list(ps.chunks())) == ps.store.n_shards
        for res in RESOLUTIONS:
            old = _streamed_volume(ps, 0, (res,) * 3, "all")
            assert_same(ps.volume_counts(res), old)  # deposited or read
            assert_same(ps.volume_counts(res), old)  # read when it fits


class TestExtract:
    def test_incore(self, backends):
        _, pf, _ = backends
        for res in RESOLUTIONS:
            for t in _thresholds(pf):
                new = extract(pf, t, volume_resolution=res, point_attributes=("pmag",))
                with old_code():
                    old = old_extract(pf, t, volume_resolution=res, point_attributes=("pmag",))
                assert_hybrid_same(new, old)

    def test_store_before_and_after_the_volume_file(self, backends, tmp_path):
        name, pf, ps = backends
        ps = PartitionedStore.open(ps.directory)
        for f in ps.directory.glob("volume_*.bin"):
            f.unlink()
        for res in RESOLUTIONS:
            path = ps.directory / f"volume_{res}.bin"
            for i, t in enumerate(_thresholds(pf)):
                with capture(enabled=True) as tr:
                    new = extract(ps, t, volume_resolution=res, point_attributes=("pmag",))
                hits = tr.counters.get("volume_file_hits", 0)
                deposits = tr.counters.get("volume_deposits", 0)
                if i == 0 or not path.exists():
                    assert (hits, deposits) == (0, 1)
                else:
                    assert (hits, deposits) == (1, 0)
                with old_code():
                    old = old_extract(ps, t, volume_resolution=res, point_attributes=("pmag",))
                assert_hybrid_same(new, old)
        if name == "beam":  # a file fits the store's byte bound
            assert all(
                (ps.directory / f"volume_{r}.bin").exists() for r in RESOLUTIONS
            )

    def test_adaptive(self, backends):
        _, pf, ps = backends
        t = _thresholds(pf)[3]
        kw = dict(volume_resolution=8, adaptive=True, amr_bricks=4, amr_brick_cells=4)
        for frame in (pf, ps):
            for extra in ({}, {"amr_byte_budget": 3 * 4**3 * 4}, {"amr_max_refine": 0}):
                new = extract(frame, t, **kw, **extra)
                with old_code():
                    old = old_extract(frame, t, **kw, **extra)
                assert_hybrid_same(new, old)


class TestBuildAmr:
    @pytest.mark.parametrize(
        "budget", [{}, {"byte_budget": 2 * 4**3 * 4}, {"refine_budget": 20}]
    )
    def test_planned(self, backends, budget):
        _, pf, ps = backends
        for frame in (pf, ps):
            new = amr_mod.build_amr(frame, bricks=4, brick_cells=4, **budget)
            with old_code():
                old = old_build_amr(frame, bricks=4, brick_cells=4, **budget)
            assert_amr_same(new, old)


class TestExtractionSizes:
    def test_adaptive(self, backends):
        _, pf, ps = backends
        for frame in (pf, ps):
            for res in (8, 33):
                kw = dict(adaptive=True, amr_bricks=4, amr_brick_cells=4)
                new = extraction_sizes(frame, _thresholds(pf), res, **kw)
                with old_code():
                    old = old_extraction_sizes(frame, _thresholds(pf), res, **kw)
                assert new == old


class TestLod:
    @pytest.mark.parametrize("mip_levels", [1, 2])
    def test_coarse_volume(self, backends, mip_levels):
        _, _, ps = backends
        lod = build_lod(ps, levels=2, ratio=4, seed=1, mip_base=16, mip_levels=mip_levels)
        for r in RESOLUTIONS:
            assert_same(lod.coarse_volume(r), old_coarse_volume(lod, r))
        with old_code():
            assert_same(lod.mip(0), ps.volume_counts(16))


class TestStreamVolumeUnit:
    def test_base_and_volume_units(self, tmp_path):
        particles, _ = INPUTS["beam"]
        ps = partition_store(
            particles, tmp_path / "store", "xyz", max_level=MAX_LEVEL,
            capacity=CAPACITY, shard_rows=2_000,
        )
        lod = build_lod(ps, levels=2, ratio=4, seed=2, mip_base=16, mip_levels=2)
        thr = float(np.percentile(ps.nodes["density"], 60))
        with VisualizationService([ps], unit_points=4096) as svc:
            with VisualizationClient(svc.address, timeout=5.0, retries=20) as client:
                for res in (8, 33):
                    frames = list(client.iter_hybrid(0, thr, resolution=res))
                    assert_same(frames[0].volume, old_coarse_volume(lod, res))
                    with old_code():
                        exact = _density_volume(ps, 0, res, "all")
                        old = old_extract(ps, thr, volume_resolution=res)
                    assert_same(frames[1].volume, exact)
                    assert_hybrid_same(frames[-1], old)
