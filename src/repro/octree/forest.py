"""Forest-of-octrees partition, extracted and rendered as one frame.

One global octree caps the pipeline at what a single partition pass
can address.  Following the distributed forest-of-octrees design
(Burstedde et al.) this module splits the global bounds into a regular
grid of ``bricks``:sup:`3` axis-aligned *bricks* (``bricks`` a power
of two, so each brick is an octant subtree root), routes every
particle to its brick by Morton-key prefix, and builds one streamed
:func:`repro.octree.stream_partition.partition_store` octree per
brick.

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
*is* the global leaf set, and :attr:`ForestStore.nodes` is the in-core
``partition``'s node table, bitwise.

**One frame.**  A :class:`ForestStore` answers the calls extraction
makes of any partitioned frame (``nodes``, ``density_cutoff_index``,
``read_prefix``, ``chunks``, ``volume_counts``), so
:func:`repro.octree.extraction.extract` and
:func:`repro.octree.amr.build_amr` run on it out of core: the halo is
merged from the bricks' own file prefixes (the paper's contiguous
low-density prefix, a small fraction of the particles), and the volume
is the bricks' stored count grids summed.  :func:`render_forest`
extracts once and renders the result once, so the forest image is the
single octree's -- no per-brick partial images and no seams.

Crash safety mirrors the rest of the package: routing is one task per
input shard and partitioning one task per brick, both run through
:func:`repro.core.executor.run_shards` at every worker count, so the
route task reads every input shard through ``ds.chunk`` (CRC-checked
for a store) whether it runs in this process or a worker.  A
``checkpoint_dir`` records each routed shard and each partitioned
brick as its result is collected, in task order, so a killed run
resumes where it died, and a failing task cancels the ones not yet
started.  Trace vocabulary: ``forest_partition_stage`` spans per
stage and ``forest_brick_partition`` per brick; a render traces as
extraction (``point_prefix``, ``volume_deposit``) and the renderer.
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
from repro.core.store import DEFAULT_SHARD_ROWS, ShardedStore, shard_name, write_manifest
from repro.core.trace import count, gauge_peak_rss, span
from repro.octree.extraction import extract
from repro.octree.octree import check_build, morton_decode, morton_keys, plot_columns
from repro.octree.partition import PartitionedFrame
from repro.octree.stream_partition import (
    PartitionedStore,
    _resolve_bounds,
    _run_steps,
    partition_store,
)

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

    Each non-empty brick is an independent :class:`PartitionedStore`;
    the manifest pins the shared global bounds, tree parameters, and
    per-brick particle counts.  The forest as a whole answers the calls
    extraction makes of a partitioned frame, as the single octree it
    reconstructs (module docstring).
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
        self._table = None

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
        ijk = morton_decode([int(brick_id)], self.brick_level)[0].astype(np.float64)
        size = (self.hi - self.lo) / self.bricks
        return self.lo + ijk * size, self.lo + (ijk + 1.0) * size

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
    # the calls extract makes of any partitioned frame
    def _global_table(self):
        """The global density-sorted node table, with each node's
        brick (index into :attr:`brick_ids`) and its start in that
        brick's file; built once.

        Bricks are walked in ascending Morton-prefix order and each
        brick's node table is unsorted back to leaf (depth-first
        Morton) order, so the concatenation is the global tree's leaf
        order and the stable density sort gives the single octree's
        table (module docstring).  A brick's own table is that same
        sort over its own leaves, so the global nodes of one brick
        keep its file order.
        """
        if self._table is None:
            leaf_tables, brick_of = [], []
            for idx, b in enumerate(self.brick_ids):
                nodes = self.brick(b).nodes
                shift = (3 * (self.max_level - nodes["level"].astype(np.int64))).astype(
                    np.uint64
                )
                order = np.argsort(nodes["key"].astype(np.uint64) << shift, kind="stable")
                leaf_tables.append(nodes[order])
                brick_of.append(np.full(len(nodes), idx, dtype=np.int64))
            if not leaf_tables:
                raise FormatError("forest holds no particles")
            leaves = np.concatenate(leaf_tables)
            order = np.argsort(leaves["density"], kind="stable")
            nodes = leaves[order]
            local_start = nodes["start"].astype(np.int64)
            counts = nodes["count"].astype(np.int64)
            nodes["start"] = (np.cumsum(counts) - counts).astype(np.uint64)
            self._table = (nodes, np.concatenate(brick_of)[order], local_start)
        return self._table

    @property
    def nodes(self) -> np.ndarray:
        """The single octree's node table, sorted by increasing density
        (``start`` indexes the global particle order)."""
        return self._global_table()[0]

    # the frame's rule reads only ``nodes``, here the global table
    density_cutoff_index = PartitionedFrame.density_cutoff_index

    def read_prefix(self, n_particles: int) -> np.ndarray:
        """The first ``n_particles`` rows of the single octree's
        particle file, read from each brick's own file prefix.

        The prefix's global nodes that fall in one brick are a prefix
        of that brick's node table, so each brick reads rows
        ``[0, m)`` and one ``np.repeat`` index puts the rows in global
        node order.  Reads nothing past the prefix.
        """
        nodes, brick_of, local_start = self._global_table()
        n = min(max(int(n_particles), 0), self.n_particles)
        counts = nodes["count"].astype(np.int64)
        ends = np.cumsum(counts)
        k = int(np.searchsorted(ends, n)) + 1 if n else 0  # nodes the prefix touches
        counts = counts[:k]
        if k:
            counts[-1] -= int(ends[k - 1]) - n  # the last one may be cut
        per_brick = np.bincount(
            brick_of[:k], weights=counts, minlength=len(self.brick_ids)
        ).astype(np.int64)
        block = np.concatenate(
            [self.brick(b).read_prefix(m) for b, m in zip(self.brick_ids, per_brick)]
        )
        # node j's rows sit at its brick's offset in ``block`` plus its
        # brick-local start, and land at its global start
        offset = np.cumsum(per_brick) - per_brick
        shift = offset[brick_of[:k]] + local_start[:k] - nodes["start"][:k].astype(np.int64)
        return block[np.repeat(shift, counts) + np.arange(n)]

    def chunks(self, columns=None):
        """Stream every brick's particle file shard by shard, bricks in
        ascending order."""
        for b in self.brick_ids:
            yield from self.brick(b).chunks(columns)

    def volume_counts(self, resolution: int) -> np.ndarray:
        """The all-particle CIC count grid: the bricks' stored grids
        (:meth:`PartitionedStore.volume_counts`) summed in ascending
        brick order."""
        res = int(resolution)
        grid = np.zeros((res,) * 3)
        for b in self.brick_ids:
            grid += self.brick(b).volume_counts(res)
        return grid

    def to_partitioned_frame(self) -> PartitionedFrame:
        """Gather the forest into one in-core partitioned frame: the
        global node table and every particle in its order, bitwise the
        single-octree ``partition`` result whenever the forest and
        global leaf sets coincide (module docstring).  Materializes the
        whole frame in RAM -- a verification path."""
        return PartitionedFrame(
            plot_type=self.plot_type,
            columns=self.columns,
            particles=self.read_prefix(self.n_particles),
            nodes=self.nodes.copy(),
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
def render_forest(
    forest: ForestStore,
    *,
    camera=None,
    renderer=None,
    threshold: float = None,
    threshold_percentile: float = 60.0,
    volume_resolution: int = 64,
    part: str = "hybrid",
    adaptive: bool = False,
    amr_bricks: int = 8,
    amr_brick_cells: int = 8,
    amr_max_refine: int = 2,
    amr_byte_budget: int | None = None,
):
    """Render a forest store: extract it out of core, then render once.

    Parameters
    ----------
    forest : an opened :class:`ForestStore`
    camera : defaults to fitting the global bounds
    renderer : a :class:`repro.hybrid.renderer.HybridRenderer` carrying
        the transfer functions and tuning
    threshold : halo extraction threshold; defaults to the
        ``threshold_percentile``-th percentile of the forest's node
        densities (the value the single-octree path picks)
    part : ``"hybrid"`` (default), ``"volume"``, or ``"points"``
    volume_resolution, adaptive, amr_bricks, amr_brick_cells,
    amr_max_refine, amr_byte_budget : as in
        :func:`repro.octree.extraction.extract`

    The forest answers extract's calls, so the hybrid frame is the
    single octree's (points bitwise, volume within one float32 ULP of
    the one-chunk deposit) and so is the returned
    :class:`repro.render.framebuffer.Framebuffer`.
    """
    from repro.hybrid.renderer import HybridRenderer
    from repro.render.camera import Camera

    if part not in ("hybrid", "volume", "points"):
        raise ValueError("part must be 'hybrid', 'volume', or 'points'")
    renderer = renderer or HybridRenderer()
    camera = camera or Camera.fit_bounds(forest.lo, forest.hi, width=256, height=256)
    if threshold is None:
        threshold = float(
            np.percentile(forest.nodes["density"], float(threshold_percentile))
        )
    hybrid = extract(
        forest,
        threshold,
        volume_resolution=int(volume_resolution),
        adaptive=adaptive,
        amr_bricks=amr_bricks,
        amr_brick_cells=amr_brick_cells,
        amr_max_refine=amr_max_refine,
        amr_byte_budget=amr_byte_budget,
    )
    if part == "volume":
        return renderer.render_volume_part(hybrid, camera=camera)
    if part == "points":
        return renderer.render_point_part(hybrid, camera=camera)
    return renderer.render(hybrid, camera=camera)
