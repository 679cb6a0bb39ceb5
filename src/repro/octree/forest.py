"""Forest-of-octrees partition with per-brick sort-last rendering.

One global octree caps the pipeline at what a single partition pass
can address.  Following the distributed forest-of-octrees design
(Burstedde et al.) this module splits the global bounds into a regular
grid of ``bricks``:sup:`3` axis-aligned *bricks* (``bricks`` a power
of two, so each brick is an octant subtree root), routes every
particle to its brick by Morton-key prefix, and builds one streamed
:func:`repro.octree.stream_partition.partition_store` octree per
brick.  Each brick then renders independently and the partial images
merge through the deterministic sort-last compositor
(:class:`repro.render.compositor.SortLastCompositor`).

**Equivalence to the single-octree path.**  Every brick octree is
built against the *global* bounds, so Morton keys, leaf splits, and
node densities are bitwise-identical to the global tree's; routing
uses the same keys (a prefix shift), so a brick holds exactly the
particles of its octant.  ``min_level=brick_level`` forces each brick
tree to refine down to its own octant before applying the capacity
rule, so brick leaves never spill across brick boundaries.  Whenever
the global tree itself refines to ``brick_level`` everywhere non-empty
(always true once every coarse region holds more than ``capacity``
particles -- and trivially for ``bricks=1``), the forest's leaf set
*is* the global leaf set, and :meth:`ForestStore.to_partitioned_frame`
reconstructs a :class:`repro.octree.partition.PartitionedFrame` whose
nodes and particle file are bitwise equal to the in-core
``partition``'s.  ``render_forest(mode="gather")`` is therefore
bit-identical to the single-octree image; ``mode="sortlast"`` regroups
the same compositing arithmetic per brick (exact for disjoint point
sets up to float rounding, approximate for the volume near brick
boundaries -- see DESIGN.md).

Crash safety mirrors the rest of the package: routing is one task per
input shard and partitioning one task per brick, both run through
:func:`repro.core.executor.run_shards` at every worker count, so the
route task reads every input shard through ``ds.chunk`` (CRC-checked
for a store) whether it runs in this process or a worker.  A
``checkpoint_dir`` records each routed shard and each partitioned
brick as its result is collected, in task order, so a killed run
resumes where it died, and a failing task cancels the ones not yet
started.  Trace vocabulary: ``forest_partition_stage`` spans per
stage, ``forest_brick_partition`` / ``forest_brick_render`` per brick,
and ``composite_merge`` in the compositor.
"""

from __future__ import annotations

import json
import shutil
import zlib
from pathlib import Path

import numpy as np

from repro.core.atomic import atomic_write_bytes
from repro.core.checkpoint import Checkpoint
from repro.core.dataset import as_dataset
from repro.core.errors import FormatError
from repro.core.executor import run_shards
from repro.core.store import DEFAULT_SHARD_ROWS, ShardedStore, shard_name, write_manifest
from repro.core.trace import count, gauge_peak_rss, span
from repro.octree.extraction import _halo_densities, density_volume, extract
from repro.octree.octree import check_build, morton_keys, plot_columns
from repro.octree.partition import PartitionedFrame
from repro.octree.stream_partition import (
    PartitionedStore,
    _resolve_bounds,
    _run_steps,
    partition_store,
)
from repro.render.compositor import SortLastCompositor

__all__ = ["ForestStore", "partition_forest", "render_forest"]

FOREST_MANIFEST = "forest.json"
FOREST_MAGIC = "RPRFORST"
FOREST_VERSION = 1


def _brick_dir_name(brick_id: int) -> str:
    """Canonical per-brick partitioned-store directory name."""
    return f"brick_{int(brick_id):06d}"


def _source_dir_name(brick_id: int) -> str:
    return f"b{int(brick_id):06d}"


def _route_artifact(route_dir, i: int) -> Path:
    return Path(route_dir) / f"route_{i:06d}.json"


def _check_bricks(bricks: int, max_level: int) -> int:
    b = int(bricks)
    if b < 1 or (b & (b - 1)) != 0:
        raise ValueError("bricks must be a positive power of two")
    brick_level = b.bit_length() - 1
    if brick_level > int(max_level):
        raise ValueError(
            f"bricks={b} needs brick_level={brick_level} <= max_level={max_level}"
        )
    return brick_level


def _route_keys(coords, lo, hi, max_level: int, brick_level: int) -> np.ndarray:
    """Destination brick of each particle: the ``brick_level``-deep
    prefix of its full-depth Morton key.  Using the *same* keys the
    brick octrees subdivide on makes routing and tree structure agree
    exactly -- no floating-point boundary ambiguity."""
    if brick_level == 0:
        return np.zeros(len(coords), dtype=np.uint64)
    keys = morton_keys(coords, np.asarray(lo), np.asarray(hi), max_level)
    return keys >> np.uint64(3 * (int(max_level) - int(brick_level)))


# ----------------------------------------------------------------------
# stage: route (per input shard)
def _route_task(task) -> int:
    """Split input chunk ``i`` across the brick source stores.

    Writes shard ``i`` of *every* brick source (empty payloads
    included, so each source keeps canonical contiguous shard names)
    plus a JSON artifact recording per-brick rows and CRCs -- the
    route-finalize stage assembles those into store manifests, so a
    crash between the two stages loses nothing.  The chunk is read
    through ``ds.chunk`` (CRC-checked for a store) at every worker
    count.
    """
    ds, i, columns, lo, hi, max_level, brick_level, route_dir = task
    rows = np.ascontiguousarray(ds.chunk(i), dtype=np.float64)
    n_bricks = 8 ** int(brick_level)
    if len(rows):
        rk = _route_keys(rows[:, list(columns)], lo, hi, max_level, brick_level)
        order = np.argsort(rk, kind="stable")  # keeps original order per brick
        rows_sorted = rows[order]
        rk_sorted = rk[order]
        bounds = np.searchsorted(rk_sorted, np.arange(n_bricks + 1, dtype=np.uint64))
    else:
        rows_sorted = rows
        bounds = np.zeros(n_bricks + 1, dtype=np.int64)
    meta = {}
    for b in range(n_bricks):
        a, c = int(bounds[b]), int(bounds[b + 1])
        raw = np.ascontiguousarray(rows_sorted[a:c], dtype="<f8").tobytes()
        atomic_write_bytes(
            Path(route_dir) / _source_dir_name(b) / shard_name(i), raw
        )
        if c > a:
            meta[str(b)] = {"rows": c - a, "crc32": int(zlib.crc32(raw))}
    atomic_write_bytes(_route_artifact(route_dir, i), json.dumps(meta).encode())
    return i


# ----------------------------------------------------------------------
# stage: per-brick partition
def _brick_partition_task(task) -> int:
    """Picklable per-brick partition: stream the brick's source store
    through ``partition_store`` against the *global* bounds, then drop
    the routed source (the partitioned store supersedes it)."""
    (src_dir, brick_out, brick_id, plot_type, lo, hi, max_level, capacity,
     step, shard_rows, brick_level, brick_ck) = task
    with span("forest_brick_partition", brick=int(brick_id)):
        src = ShardedStore.open(src_dir)
        partition_store(
            src,
            brick_out,
            plot_type,
            max_level=int(max_level),
            capacity=int(capacity),
            lo=lo,
            hi=hi,
            step=int(step),
            workers=1,
            shard_rows=int(shard_rows),
            checkpoint_dir=brick_ck,
            min_level=int(brick_level),
        )
    shutil.rmtree(src_dir, ignore_errors=True)
    return int(brick_id)


def _finalize_route(route_dir, n_shards, n_bricks, shard_rows, step) -> dict:
    """Assemble per-brick source-store manifests from the routing
    artifacts; returns per-brick particle totals."""
    per_brick = [[] for _ in range(n_bricks)]
    for i in range(n_shards):
        artifact = _route_artifact(route_dir, i)
        try:
            meta = json.loads(artifact.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise FormatError(f"{artifact}: unreadable route artifact ({exc})") from exc
        for b in range(n_bricks):
            entry = meta.get(str(b), {"rows": 0, "crc32": 0})
            per_brick[b].append({"rows": int(entry["rows"]), "crc32": int(entry["crc32"])})
    totals = {}
    for b in range(n_bricks):
        totals[b] = int(sum(e["rows"] for e in per_brick[b]))
        write_manifest(
            Path(route_dir) / _source_dir_name(b), per_brick[b], shard_rows, step
        )
    return totals


def partition_forest(
    data,
    out,
    plot_type: str = "xyz",
    *,
    bricks: int = 2,
    max_level: int = 6,
    capacity: int = 64,
    lo=None,
    hi=None,
    step=None,
    workers: int = 1,
    shard_rows: int = None,
    checkpoint_dir=None,
) -> "ForestStore":
    """Partition a dataset into a forest of per-brick octrees.

    Parameters
    ----------
    data : anything :func:`repro.core.dataset.as_dataset` accepts (an
        ``(N, 6)`` array, a :class:`ShardedStore`, any dataset)
    out : destination directory -- becomes a forest store: a
        ``forest.json`` manifest plus one
        :class:`repro.octree.stream_partition.PartitionedStore`
        directory per non-empty brick
    bricks : bricks per axis (power of two); the grid is ``bricks**3``
        octant-aligned cells over the global bounds
    max_level, capacity, lo, hi, step, shard_rows : as in
        :func:`repro.octree.stream_partition.partition_store`; bounds
        are global, shared by every brick tree
    workers : fan input shards (routing, store inputs only) and bricks
        (partitioning) across processes through
        :func:`repro.core.executor.run_shards`; every worker count runs
        the same tasks
    checkpoint_dir : makes the run resumable at per-shard routing and
        per-brick partitioning granularity

    Returns the opened :class:`ForestStore`.  Every brick octree uses
    the global bounds and ``min_level = log2(bricks)``, which is what
    makes the forest's node tables and particle files bitwise
    reconstructable into the single-octree partition (module
    docstring).
    """
    ds = as_dataset(data)
    check_build(ds.n_particles, max_level, capacity)
    brick_level = _check_bricks(bricks, max_level)
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    n_bricks = 8 ** brick_level
    ck = Checkpoint(checkpoint_dir) if checkpoint_dir is not None else None
    if ck is not None and ck.done("finalize"):
        count("checkpoint_stages_resumed")
        return ForestStore.open(out)

    n = ds.n_particles
    columns = plot_columns(plot_type)
    if step is None:
        step = ds.step
    is_store = isinstance(ds, ShardedStore)
    if shard_rows is None:
        shard_rows = ds.shard_rows if is_store else DEFAULT_SHARD_ROWS
    n_shards = ds.n_chunks
    route_dir = ck.path("route_work") if ck is not None else out / "_route"
    Path(route_dir).mkdir(parents=True, exist_ok=True)
    for b in range(n_bricks):
        (Path(route_dir) / _source_dir_name(b)).mkdir(exist_ok=True)

    with span("forest_partition_stage", which="bounds"):
        lo, hi = _resolve_bounds(ds, columns, lo, hi, ck)

    # ---- route: split every input shard across the brick sources ------
    if ck is None or not ck.done("route"):
        with span("forest_partition_stage", which="route", shards=n_shards):
            _run_steps(
                _route_task, range(n_shards),
                lambda i: (ds, i, columns, lo, hi, int(max_level), brick_level, route_dir),
                workers if is_store else 1, ck, "route", "forest_route",
            )
        if ck is not None:
            ck.mark_done("route", n_shards=n_shards)

    # ---- route finalize: commit the brick source-store manifests -------
    if ck is not None and ck.done("route_finalize"):
        totals = {int(k): int(v) for k, v in ck.meta("route_finalize")["totals"].items()}
    else:
        with span("forest_partition_stage", which="route_finalize"):
            totals = _finalize_route(route_dir, n_shards, n_bricks, shard_rows, int(step))
        if int(sum(totals.values())) != int(n):
            raise FormatError(
                f"routing covered {sum(totals.values())} particles, "
                f"dataset holds {n} -- stale work directory?"
            )
        if ck is not None:
            ck.mark_done(
                "route_finalize", totals={str(b): int(v) for b, v in totals.items()}
            )

    # ---- bricks: one streamed octree per non-empty brick ----------------
    nonempty = [b for b in range(n_bricks) if totals[b] > 0]
    if ck is None or not ck.done("bricks"):
        with span("forest_partition_stage", which="bricks", bricks=len(nonempty)):
            def brick_task_of(b):
                brick_ck = (
                    str(ck.path(f"brick_ck_{b:06d}")) if ck is not None else None
                )
                return (
                    str(Path(route_dir) / _source_dir_name(b)),
                    str(out / _brick_dir_name(b)),
                    b, plot_type, lo, hi, int(max_level), int(capacity),
                    int(step), int(shard_rows), brick_level, brick_ck,
                )

            pending = _run_steps(
                _brick_partition_task, nonempty, brick_task_of, workers, ck,
                "bricks", "forest_bricks",
            )
            count("forest_brick_partition", len(pending))
        if ck is not None:
            ck.mark_done("bricks")

    # ---- finalize: the forest manifest is the commit point --------------
    with span("forest_partition_stage", which="finalize"):
        manifest = {
            "magic": FOREST_MAGIC,
            "version": FOREST_VERSION,
            "bricks": int(bricks),
            "brick_level": brick_level,
            "max_level": int(max_level),
            "capacity": int(capacity),
            "plot_type": plot_type,
            "step": int(step),
            "shard_rows": int(shard_rows),
            "n_particles": int(n),
            "lo": [float(v) for v in lo],
            "hi": [float(v) for v in hi],
            "brick_table": [
                {"id": b, "n_particles": int(totals[b])} for b in range(n_bricks)
            ],
        }
        atomic_write_bytes(
            out / FOREST_MANIFEST, json.dumps(manifest, indent=1).encode()
        )
    if ck is not None:
        ck.mark_done("finalize")
    else:
        shutil.rmtree(route_dir, ignore_errors=True)
    gauge_peak_rss()
    return ForestStore.open(out)


# ----------------------------------------------------------------------
class ForestStore:
    """An opened forest of per-brick partitioned octrees.

    The rank-oriented face of the partition: each non-empty brick is an
    independent :class:`PartitionedStore` a worker (or rank) can open,
    extract, and render on its own; the manifest pins the shared global
    bounds, tree parameters, and per-brick particle counts.
    """

    def __init__(self, directory, manifest: dict):
        self.directory = Path(directory)
        self._manifest = manifest
        self.bricks = int(manifest["bricks"])
        self.brick_level = int(manifest["brick_level"])
        self.max_level = int(manifest["max_level"])
        self.capacity = int(manifest["capacity"])
        self.plot_type = manifest["plot_type"]
        self.columns = plot_columns(self.plot_type)
        self.step = int(manifest["step"])
        self.lo = np.array(manifest["lo"], dtype=np.float64)
        self.hi = np.array(manifest["hi"], dtype=np.float64)
        self._counts = {
            int(e["id"]): int(e["n_particles"]) for e in manifest["brick_table"]
        }
        self._open: dict[int, PartitionedStore] = {}

    # ------------------------------------------------------------------
    @classmethod
    def open(cls, directory) -> "ForestStore":
        """Open and validate a forest directory."""
        directory = Path(directory)
        path = directory / FOREST_MANIFEST
        if not path.is_file():
            raise FormatError(f"{directory}: not a forest store (no {FOREST_MANIFEST})")
        try:
            manifest = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise FormatError(f"{path}: unreadable forest manifest ({exc})") from exc
        if manifest.get("magic") != FOREST_MAGIC:
            raise FormatError(f"{path}: not a forest manifest")
        if manifest.get("version") != FOREST_VERSION:
            raise FormatError(
                f"{path}: unsupported forest version {manifest.get('version')!r}"
            )
        forest = cls(directory, manifest)
        for b in forest.brick_ids:
            if not (directory / _brick_dir_name(b)).is_dir():
                raise FormatError(
                    f"{directory}: manifest lists non-empty brick {b} but "
                    f"{_brick_dir_name(b)} is missing"
                )
        return forest

    # ------------------------------------------------------------------
    @property
    def n_particles(self) -> int:
        return int(self._manifest["n_particles"])

    @property
    def n_bricks(self) -> int:
        """Total grid cells (``bricks**3``), including empty ones."""
        return 8 ** self.brick_level

    @property
    def brick_ids(self) -> list[int]:
        """Morton prefixes of the non-empty bricks, ascending -- the
        deterministic traversal order every forest operation uses."""
        return sorted(b for b, c in self._counts.items() if c > 0)

    def brick_count(self, brick_id: int) -> int:
        """Particles routed to a brick (0 for empty bricks)."""
        return self._counts.get(int(brick_id), 0)

    def brick(self, brick_id: int) -> PartitionedStore:
        """Open (and cache) one brick's partitioned store."""
        b = int(brick_id)
        if self.brick_count(b) == 0:
            raise FormatError(f"brick {b} is empty (no partitioned store)")
        if b not in self._open:
            self._open[b] = PartitionedStore.open(self.directory / _brick_dir_name(b))
        return self._open[b]

    def brick_bounds(self, brick_id: int):
        """Axis-aligned world bounds of one brick's octant."""
        from repro.render.compositor import brick_ijk

        ijk = np.array(brick_ijk(int(brick_id), self.brick_level), dtype=np.float64)
        size = (self.hi - self.lo) / self.bricks
        return self.lo + ijk * size, self.lo + (ijk + 1.0) * size

    def node_densities(self) -> np.ndarray:
        """Concatenated node densities across all bricks (the global
        leaf-density multiset; threshold percentiles match the
        single-octree partition's)."""
        parts = [self.brick(b).nodes["density"] for b in self.brick_ids]
        return np.concatenate(parts) if parts else np.empty(0)

    def nbytes(self) -> int:
        """On-disk footprint across all brick stores."""
        return int(sum(self.brick(b).nbytes() for b in self.brick_ids))

    def validate(self) -> None:
        """Structural invariants across the forest; raises
        :class:`FormatError` naming the first one broken."""
        total = 0
        for b in self.brick_ids:
            ps = self.brick(b)
            ps.validate()
            if ps.n_particles != self.brick_count(b):
                raise FormatError(
                    f"brick {b}: store holds {ps.n_particles} particles, "
                    f"manifest says {self.brick_count(b)}"
                )
            levels = ps.nodes["level"].astype(np.int64)
            if not np.all(levels >= self.brick_level):
                raise FormatError(f"brick {b}: a node is coarser than the brick octant")
            # each node's key is its Morton prefix at the node's own
            # level; shifting down to brick_level must recover the id
            shift = (3 * (levels - self.brick_level)).astype(np.uint64)
            prefixes = ps.nodes["key"].astype(np.uint64) >> shift
            if not np.all(prefixes == np.uint64(b)):
                raise FormatError(f"brick {b}: a node's key lies outside the brick octant")
            total += ps.n_particles
        if total != self.n_particles:
            raise FormatError(
                f"brick stores hold {total} particles, manifest says {self.n_particles}"
            )

    # ------------------------------------------------------------------
    def to_partitioned_frame(self) -> PartitionedFrame:
        """Gather the forest back into one in-core partitioned frame.

        Bricks are walked in ascending Morton-prefix order and each
        brick's (density-sorted) node table is unsorted back to leaf
        (depth-first Morton) order; the concatenation is exactly the
        global tree's leaf order, so the stable density re-sort and the
        per-leaf particle copies reproduce the single-octree
        ``partition`` result **bitwise** whenever the forest and global
        leaf sets coincide (module docstring).  Materializes the whole
        frame in RAM -- the verification/gather path, not the scaling
        path.
        """
        leaf_tables = []
        store_of = []
        for idx, b in enumerate(self.brick_ids):
            ps = self.brick(b)
            nodes = ps.nodes
            shift = (3 * (self.max_level - nodes["level"].astype(np.int64))).astype(
                np.uint64
            )
            first_key = nodes["key"].astype(np.uint64) << shift
            order = np.argsort(first_key, kind="stable")
            leaf_tables.append(nodes[order])
            store_of.append(np.full(len(nodes), idx, dtype=np.int64))
        if not leaf_tables:
            raise FormatError("forest holds no particles")
        leaves = np.concatenate(leaf_tables)
        store_of = np.concatenate(store_of)

        dens_order = np.argsort(leaves["density"], kind="stable")
        nodes_sorted = leaves[dens_order].copy()
        counts = nodes_sorted["count"].astype(np.int64)
        nodes_sorted["start"] = np.concatenate(
            [[0], np.cumsum(counts)[:-1]]
        ).astype(np.uint64)

        brick_arrays = [self.brick(b).store.to_array() for b in self.brick_ids]
        src_store = store_of[dens_order]
        src_start = leaves["start"].astype(np.int64)[dens_order]
        blocks = [
            brick_arrays[src_store[k]][src_start[k] : src_start[k] + counts[k]]
            for k in range(len(nodes_sorted))
        ]
        particles = (
            np.concatenate(blocks) if blocks else np.empty((0, 6), dtype=np.float64)
        )
        return PartitionedFrame(
            plot_type=self.plot_type,
            columns=self.columns,
            particles=particles,
            nodes=nodes_sorted,
            lo=self.lo.copy(),
            hi=self.hi.copy(),
            max_level=self.max_level,
            capacity=self.capacity,
            step=self.step,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (
            f"ForestStore({str(self.directory)!r}, bricks={self.bricks}, "
            f"n_particles={self.n_particles}, "
            f"non_empty={len(self.brick_ids)}/{self.n_bricks})"
        )


# ----------------------------------------------------------------------
# rendering
def _grid_ownership(res: int, bricks: int) -> np.ndarray:
    """Brick index (per axis) owning each of ``res`` grid vertices.

    Vertex ``j`` sits at ``lo + j * (hi - lo) / (res - 1)``; it belongs
    to the brick whose half-open world interval contains it, with the
    global upper face assigned to the last brick.  Ownership is
    disjoint, so the per-brick masked volumes tile the global grid.
    """
    j = np.arange(int(res), dtype=np.int64)
    return np.minimum((j * int(bricks)) // max(int(res) - 1, 1), int(bricks) - 1)


def _brick_extract_task(task):
    """Phase A (picklable): extract one brick's halo and its float64
    CIC counts on the *global* grid (the brick store's own volume,
    :meth:`PartitionedStore.volume_counts`); halo goes to disk, the
    counts' non-zero sub-box comes back for the parent's deterministic
    sum.  With ``amr_bricks`` set, the brick's particles are also
    histogrammed into the global AMR root grid so the parent can plan
    one shared brick manifest."""
    brick_dir, brick_id, threshold, res, work_dir, amr_bricks = task
    with span("forest_brick_render", which="extract", brick=int(brick_id)):
        ps = PartitionedStore.open(brick_dir)
        cutoff = ps.density_cutoff_index(float(threshold))
        halo = ps.read_prefix(cutoff)[:, list(ps.columns)]
        dens = _halo_densities(ps.nodes, cutoff)
        counts = ps.volume_counts(int(res))
        amr_hist = None
        if amr_bricks:
            from repro.octree.amr import brick_particle_counts

            amr_hist = brick_particle_counts(
                ps.chunks(ps.columns), ps.lo, ps.hi, int(amr_bricks)
            )
        nz = np.nonzero(counts)
        if nz[0].size:
            bbox = [(int(ax.min()), int(ax.max()) + 1) for ax in nz]
            sub = counts[
                bbox[0][0] : bbox[0][1],
                bbox[1][0] : bbox[1][1],
                bbox[2][0] : bbox[2][1],
            ].copy()
        else:
            bbox, sub = None, None
        pos32 = halo.astype(np.float32)
        dens32 = dens.astype(np.float32)
        np.savez(
            Path(work_dir) / f"halo_{int(brick_id):06d}.npz", pos=pos32, dens=dens32
        )
        pmax = float(dens32.max()) if len(dens32) else None
    return (int(brick_id), bbox, sub, pmax, int(cutoff), amr_hist)


def _brick_render_task(task):
    """Phase B (picklable): render one brick's hybrid content against
    the shared global density scale; returns the partial image.
    ``amr_spec``, when set, is (brick_dir, masked level map, brick
    geometry): the task re-opens its store and deposits only the AMR
    bricks this rank owns, so the per-rank adaptive volumes tile the
    global one exactly."""
    (brick_id, halo_path, vol_sub, vol_off, res, lo_t, hi_t, threshold, step,
     plot_type, renderer, camera, part, amr_spec) = task
    from repro.hybrid.representation import HybridFrame

    with span("forest_brick_render", which="render", brick=int(brick_id)):
        data = np.load(halo_path)
        volume = np.zeros((int(res),) * 3, dtype=np.float32)
        if vol_sub is not None:
            ox, oy, oz = vol_off
            volume[
                ox : ox + vol_sub.shape[0],
                oy : oy + vol_sub.shape[1],
                oz : oz + vol_sub.shape[2],
            ] = vol_sub
        meta = {}
        if amr_spec is not None and part != "points":
            from repro.octree.amr import build_amr

            amr_dir, masked_levels, amr_bricks, amr_brick_cells = amr_spec
            ps = PartitionedStore.open(amr_dir)
            meta["amr"] = build_amr(
                ps,
                bricks=int(amr_bricks),
                brick_cells=int(amr_brick_cells),
                levels=masked_levels,
            )
        frame = HybridFrame(
            volume=volume,
            points=data["pos"],
            point_densities=data["dens"],
            lo=np.asarray(lo_t),
            hi=np.asarray(hi_t),
            threshold=float(threshold),
            step=int(step),
            plot_type=plot_type,
            meta=meta,
        )
        if part == "volume":
            fb = renderer.render_volume_part(frame, camera=camera)
        elif part == "points":
            fb = renderer.render_point_part(frame, camera=camera)
        else:
            fb = renderer.render(frame, camera=camera)
    return (int(brick_id), fb.rgba, fb.depth)


def render_forest(
    forest: ForestStore,
    *,
    camera=None,
    renderer=None,
    threshold: float = None,
    threshold_percentile: float = 60.0,
    volume_resolution: int = 64,
    part: str = "hybrid",
    mode: str = "sortlast",
    workers: int = 1,
    adaptive: bool = False,
    amr_bricks: int | None = None,
    amr_brick_cells: int = 8,
    amr_max_refine: int = 2,
    amr_byte_budget: int | None = None,
):
    """Render a forest store to one composited image.

    Parameters
    ----------
    forest : an opened :class:`ForestStore`
    camera : defaults to fitting the global bounds
    renderer : a :class:`repro.hybrid.renderer.HybridRenderer` carrying
        the transfer functions and tuning; its ``max_density`` (when
        set) pins the shared normalization scale, otherwise the global
        maximum density is computed and pinned automatically so every
        brick classifies on the same scale
    threshold : halo extraction threshold; defaults to the
        ``threshold_percentile``-th percentile of the forest's node
        densities (same value the single-octree path would pick)
    part : ``"hybrid"`` (default), ``"volume"``, or ``"points"``
    mode : ``"sortlast"`` (default) renders each brick independently
        and merges through :class:`SortLastCompositor` -- the scaling
        path, exact for the point pass and approximate for the volume
        pass near brick boundaries; ``"gather"`` reconstructs the
        single-octree frame and renders it directly -- bit-identical to
        the non-forest pipeline, for verification and small forests
    workers : fan per-brick extraction and rendering across processes
        (``sortlast`` only); the composited image is identical for any
        worker count
    adaptive : render through octree-refined AMR volumes
        (:mod:`repro.octree.amr`): phase A additionally histograms
        each forest brick's particles into a global AMR root grid, one
        shared brick manifest is planned from the summed histogram,
        and each phase-B rank deposits only the AMR bricks inside its
        own forest brick (ownership masking) -- the per-rank adaptive
        volumes tile the global one, so the composited image stays
        worker-count deterministic.  The flat phase-A grid is still
        built and still pins the shared density scale.
    amr_bricks : AMR root bricks per axis; defaults to
        ``max(8, forest.bricks)`` and must be a power-of-two multiple
        of ``forest.bricks`` so AMR bricks nest in forest bricks
    amr_brick_cells, amr_max_refine, amr_byte_budget : forwarded to
        the planner (byte budget defaults to the flat volume's
        ``volume_resolution^3 * 4`` -- equal memory)

    Returns the composited :class:`repro.render.framebuffer.Framebuffer`.
    """
    from repro.hybrid.renderer import HybridRenderer
    from repro.render.camera import Camera

    if part not in ("hybrid", "volume", "points"):
        raise ValueError("part must be 'hybrid', 'volume', or 'points'")
    if mode not in ("sortlast", "gather"):
        raise ValueError("mode must be 'sortlast' or 'gather'")
    renderer = renderer or HybridRenderer()
    camera = camera or Camera.fit_bounds(forest.lo, forest.hi, width=256, height=256)
    if threshold is None:
        threshold = float(
            np.percentile(forest.node_densities(), float(threshold_percentile))
        )

    if adaptive:
        if amr_bricks is None:
            amr_bricks = max(8, int(forest.bricks))
        amr_bricks = int(amr_bricks)
        if amr_bricks % int(forest.bricks) or amr_bricks & (amr_bricks - 1):
            raise ValueError(
                "amr_bricks must be a power-of-two multiple of forest.bricks"
            )
        if amr_byte_budget is None:
            amr_byte_budget = int(volume_resolution) ** 3 * 4

    if mode == "gather":
        frame = forest.to_partitioned_frame()
        hybrid = extract(
            frame,
            threshold,
            volume_resolution=int(volume_resolution),
            adaptive=adaptive,
            amr_bricks=amr_bricks if adaptive else 8,
            amr_brick_cells=amr_brick_cells,
            amr_max_refine=amr_max_refine,
            amr_byte_budget=amr_byte_budget,
        )
        if part == "volume":
            return renderer.render_volume_part(hybrid, camera=camera)
        if part == "points":
            return renderer.render_point_part(hybrid, camera=camera)
        return renderer.render(hybrid, camera=camera)

    # ---- sort-last -----------------------------------------------------
    res = int(volume_resolution)
    brick_ids = forest.brick_ids
    work_dir = forest.directory / "_render_work"
    work_dir.mkdir(exist_ok=True)
    try:
        # Phase A: per-brick halo extraction + global-grid CIC counts
        tasks = [
            (str(forest.directory / _brick_dir_name(b)), b, float(threshold),
             res, str(work_dir), int(amr_bricks) if adaptive else 0)
            for b in brick_ids
        ]
        results = run_shards(
            _brick_extract_task, tasks, workers=int(workers), label="forest_extract"
        )

        # deterministic sum in ascending brick order recovers the global
        # float64 counts grid (same addends as the single-path deposit,
        # regrouped), then the single float32 cast fixes the scale
        counts = np.zeros((res,) * 3, dtype=np.float64)
        point_maxes = []
        amr_hist = None
        for brick_id, bbox, sub, pmax, _cutoff, hist in results:
            if sub is not None:
                counts[
                    bbox[0][0] : bbox[0][1],
                    bbox[1][0] : bbox[1][1],
                    bbox[2][0] : bbox[2][1],
                ] += sub
            if pmax is not None:
                point_maxes.append(pmax)
            if hist is not None:
                amr_hist = hist if amr_hist is None else amr_hist + hist
        volume32 = density_volume(counts, forest.lo, forest.hi)
        candidates = [float(volume32.max())] if volume32.size else []
        candidates += point_maxes
        dmax = renderer.max_density
        if dmax is None:
            dmax = max(candidates) if candidates else None

        brick_renderer = HybridRenderer(
            transfer=renderer.transfer,
            point_colormap=renderer.point_colormap,
            point_alpha=renderer.point_alpha,
            point_size=renderer.point_size,
            n_slices=renderer.n_slices,
            normalizer_mode=renderer.normalizer_mode,
            point_color_by=renderer.point_color_by,
            cache=renderer.cache,
            point_batch_size=renderer.point_batch_size,
            max_density=dmax,
            point_mode=renderer.point_mode,
            splat_sigma=renderer.splat_sigma,
            splat_scale=renderer.splat_scale,
            volume_mode=renderer.volume_mode,
        )

        # one shared AMR brick manifest, planned from the global
        # histogram -- every rank refines against the same level map
        global_levels = None
        if adaptive:
            from repro.octree.amr import plan_amr_levels

            if amr_hist is None:
                amr_hist = np.zeros((int(amr_bricks),) * 3, dtype=np.int64)
            global_levels = plan_amr_levels(
                amr_hist,
                brick_cells=int(amr_brick_cells),
                max_refine=int(amr_max_refine),
                byte_budget=int(amr_byte_budget),
            )

        # Phase B: independent brick renders on the shared scale
        own = _grid_ownership(res, forest.bricks)
        from repro.render.compositor import brick_ijk

        tasks = []
        for b in brick_ids:
            if part != "points":
                i, j, k = brick_ijk(b, forest.brick_level)
                sx = np.flatnonzero(own == i)
                sy = np.flatnonzero(own == j)
                sz = np.flatnonzero(own == k)
                vol_off = (int(sx[0]), int(sy[0]), int(sz[0]))
                vol_sub = volume32[
                    sx[0] : sx[-1] + 1, sy[0] : sy[-1] + 1, sz[0] : sz[-1] + 1
                ].copy()
            else:
                vol_off, vol_sub = None, None
            amr_spec = None
            if adaptive and part != "points":
                # ownership mask: an AMR brick belongs to the forest
                # brick its box nests in (amr_bricks is a multiple of
                # forest.bricks, so the tiling is exact)
                i, j, k = brick_ijk(b, forest.brick_level)
                g = int(amr_bricks) // int(forest.bricks)
                masked = np.full(global_levels.shape, -1, dtype=np.int8)
                masked[
                    i * g : (i + 1) * g, j * g : (j + 1) * g, k * g : (k + 1) * g
                ] = global_levels[
                    i * g : (i + 1) * g, j * g : (j + 1) * g, k * g : (k + 1) * g
                ]
                amr_spec = (
                    str(forest.directory / _brick_dir_name(b)), masked,
                    int(amr_bricks), int(amr_brick_cells),
                )
            tasks.append(
                (b, str(work_dir / f"halo_{b:06d}.npz"), vol_sub, vol_off, res,
                 tuple(forest.lo), tuple(forest.hi), float(threshold),
                 forest.step, forest.plot_type, brick_renderer, camera, part,
                 amr_spec)
            )
        rendered = run_shards(
            _brick_render_task, tasks, workers=int(workers), label="forest_render"
        )
        count("forest_brick_render", len(rendered))

        from repro.render.framebuffer import Framebuffer

        images = {}
        for brick_id, rgba, depth in rendered:
            fb = Framebuffer(camera.width, camera.height)
            fb.rgba[...] = rgba
            fb.depth[...] = depth
            images[brick_id] = fb
        compositor = SortLastCompositor(forest.lo, forest.hi, forest.bricks)
        return compositor.composite(camera, images)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
