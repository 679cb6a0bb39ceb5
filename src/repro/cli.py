"""Command-line interface.

The paper describes its pipeline as separate *programs*: the
simulation writes frames, "the partitioning program organizes the
unstructured point data into an octree", "the extraction program
converts the partitioned data into the hybrid representation", and "a
separate view program ... is used on a desktop PC".  This CLI exposes
the same program boundaries over the library:

    repro simulate  --out run/ --particles 100000 --cells 10
    repro partition run/step_000050 --plot-type xyz --out run/p50
    repro extract   run/p50 --percentile 60 --out run/p50.hybrid
    repro render    run/p50.hybrid --out p50.ppm --size 512
    repro forest    partition run/store --bricks 2 --out run/forest
    repro forest    render run/forest --out forest.ppm
    repro fieldlines --cells 3 --lines 150 --out lines.bin --image lines.ppm
    repro scenario  run spec.json --out run/final --set lattice.qf=5.5
    repro scenario  sweep spec.json --out run/sweep --axis lattice.qf=5,6 \\
                    --axis mismatch=1.0,1.3 --workers 4 --checkpoint run/ck
    repro scenario  info run/sweep
    repro info      run/p50.hybrid
    repro service   serve run/p50 --port 9000 --duration 60
    repro service   stats 127.0.0.1:9000

Every subcommand accepts ``--trace out.json`` to record a structured
trace of the run (see :mod:`repro.core.trace`); ``repro trace-report
out.json`` renders the per-stage breakdown.  Argparse defaults are
derived from the pipeline config dataclasses in
:mod:`repro.core.config` -- the single source of defaults.

Typed failures map to distinct exit codes with a one-line stderr
message (no traceback): a damaged data file
(:class:`~repro.core.errors.FormatError`) exits 3, a damaged wire
stream (:class:`~repro.core.errors.ProtocolError`) exits 4, and a
remote request that failed after retries
(:class:`~repro.core.errors.RemoteError` /
:class:`~repro.core.errors.RetryExhaustedError`) exits 5.  A missing
input file exits 2, matching argparse's usage-error code.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from repro.core.config import (
    BeamPipelineConfig,
    FieldLinePipelineConfig,
    config_defaults,
)
from repro.core.errors import (
    FormatError,
    ProtocolError,
    RemoteError,
    RetryExhaustedError,
)
from repro.core.trace import capture, format_report, load_trace, span

__all__ = ["main", "build_parser"]

EXIT_USAGE = 2          # argparse's own code, reused for missing inputs
EXIT_FORMAT_ERROR = 3   # a damaged / truncated / foreign data file
EXIT_PROTOCOL_ERROR = 4  # a damaged remote stream
EXIT_REMOTE_ERROR = 5   # the remote link failed after retries


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse tree for all subcommands."""
    from repro.beams.simulation import BeamConfig

    beam_d = config_defaults(BeamConfig)
    bpipe_d = config_defaults(BeamPipelineConfig)
    fpipe_d = config_defaults(FieldLinePipelineConfig)

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Hybrid particle/volume and field-line visualization "
        "(Ma et al., SC 2002 reproduction)",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--trace", metavar="OUT.json", default=None,
                        help="record a structured trace of this run to a "
                             "JSON file (view with `repro trace-report`)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", parents=[common],
                       help="run a beam simulation, write each kept frame "
                            "as a sharded store")
    p.add_argument("--out", required=True,
                   help="run directory; the frame of step N lands in "
                        "OUT/step_NNNNNN")
    p.add_argument("--particles", type=int, default=beam_d["n_particles"])
    p.add_argument("--cells", type=int, default=beam_d["n_cells"])
    p.add_argument("--mismatch", type=float, default=beam_d["mismatch"])
    p.add_argument("--frame-every", type=int, default=bpipe_d["frame_every"])
    p.add_argument("--seed", type=int, default=beam_d["seed"])
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("partition", parents=[common],
                       help="partition a particle frame")
    p.add_argument("frame", help="a frame store directory from `repro "
                                 "simulate` (run/step_NNNNNN), partitioned "
                                 "out-of-core")
    p.add_argument("--out", required=True,
                   help="output partitioned store directory")
    p.add_argument("--plot-type", default=bpipe_d["plot_type"],
                   choices=["xyz", "xpxy", "xpxz", "pxpypz"])
    p.add_argument("--max-level", type=int, default=bpipe_d["max_level"])
    p.add_argument("--capacity", type=int, default=bpipe_d["capacity"])
    p.add_argument("--workers", type=int, default=1,
                   help="multiprocess partitioning with this many workers")
    p.add_argument("--checkpoint", default=None, metavar="DIR",
                   help="make the out-of-core partition resumable at "
                        "per-shard granularity")
    p.set_defaults(func=_cmd_partition)

    p = sub.add_parser("store", parents=[common],
                       help="manage sharded out-of-core particle stores")
    p.add_argument("action", choices=["info", "verify"],
                   help="info: describe a store; verify: check every "
                        "shard's CRC against the manifest")
    p.add_argument("path", help="a store directory")
    p.set_defaults(func=_cmd_store)

    p = sub.add_parser("lod", parents=[common],
                       help="build or inspect a partitioned store's LOD "
                            "hierarchy for progressive streaming")
    p.add_argument("action", choices=["build", "info"],
                   help="build: write per-node subsample shards and "
                        "density mips (atomic manifest re-commit); "
                        "info: describe an existing hierarchy")
    p.add_argument("path", help="partitioned store directory")
    p.add_argument("--levels", type=int, default=2,
                   help="refinement levels (base keeps ~1/ratio^levels)")
    p.add_argument("--ratio", type=int, default=4,
                   help="per-level subsampling ratio")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the per-node sample permutations")
    p.add_argument("--mip-base", type=int, default=64,
                   help="finest density-mip resolution (power of two); "
                        "mip 0 is the store's stored volume at it")
    p.add_argument("--mip-levels", type=int, default=3,
                   help="mip pyramid depth (each level halves)")
    p.set_defaults(func=_cmd_lod)

    p = sub.add_parser("forest", parents=[common],
                       help="forest-of-octrees partition + render")
    p.add_argument("action", choices=["partition", "render", "info"],
                   help="partition: build a forest of per-brick octrees "
                        "from a sharded store; render: "
                        "extract and render a forest to a PPM image; info: "
                        "describe a forest store")
    p.add_argument("path", help="input store directory (partition) or a "
                                "forest directory")
    p.add_argument("--out", default=None,
                   help="forest output directory (partition) or .ppm "
                        "image (render)")
    p.add_argument("--bricks", type=int, default=2,
                   help="bricks per axis (power of two; the forest has "
                        "bricks^3 cells)")
    p.add_argument("--plot-type", default=bpipe_d["plot_type"],
                   choices=["xyz", "xpxy", "xpxz", "pxpypz"])
    p.add_argument("--max-level", type=int, default=bpipe_d["max_level"])
    p.add_argument("--capacity", type=int, default=bpipe_d["capacity"])
    p.add_argument("--workers", type=int, default=1,
                   help="fan routing and per-brick partitioning "
                        "across processes (partition)")
    p.add_argument("--checkpoint", default=None, metavar="DIR",
                   help="make the forest partition resumable at "
                        "per-shard / per-brick granularity")
    p.add_argument("--percentile", type=float,
                   default=bpipe_d["threshold_percentile"],
                   help="extraction threshold percentile (render)")
    p.add_argument("--resolution", type=int,
                   default=bpipe_d["volume_resolution"],
                   help="density volume resolution (render)")
    p.add_argument("--size", type=int, default=512,
                   help="output image size (render)")
    p.add_argument("--slices", type=int, default=bpipe_d["n_slices"],
                   help="volume slices (render)")
    p.add_argument("--part", default="hybrid",
                   choices=["hybrid", "volume", "points"])
    p.add_argument("--adaptive", action="store_true",
                   help="render through octree-refined AMR volumes "
                        "(render)")
    p.set_defaults(func=_cmd_forest)

    p = sub.add_parser("service", parents=[common],
                       help="multi-tenant visualization service")
    p.add_argument("action", choices=["serve", "stats"],
                   help="serve: run the asyncio service over partitioned "
                        "stores until interrupted (or --duration); "
                        "stats: query a running server's live counters")
    p.add_argument("target", nargs="*",
                   help="partitioned store dirs (serve) or a single "
                        "HOST:PORT (stats)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="bind port (serve); 0 picks a free port")
    p.add_argument("--max-sessions", type=int, default=1024,
                   help="admission-control session ceiling")
    p.add_argument("--queue-depth", type=int, default=8,
                   help="bounded per-session request queue")
    p.add_argument("--extract-workers", type=int, default=2,
                   help="global concurrent-extraction limit")
    p.add_argument("--cache-mb", type=float, default=64.0,
                   help="shared result-cache byte bound")
    p.add_argument("--duration", type=float, default=None,
                   help="serve for this many seconds then drain and "
                        "exit (default: until interrupted)")
    p.set_defaults(func=_cmd_service)

    p = sub.add_parser("extract", parents=[common],
                       help="extract a hybrid representation")
    p.add_argument("stem", help="partitioned store directory from `repro "
                                "partition` (extracted shard-by-shard)")
    p.add_argument("--out", required=True, help="output .hybrid file")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--threshold", type=float,
                       help="absolute threshold density")
    group.add_argument("--percentile", type=float,
                       default=bpipe_d["threshold_percentile"],
                       help="threshold as a node-density percentile")
    p.add_argument("--resolution", type=int, default=bpipe_d["volume_resolution"])
    p.add_argument("--attributes", default="",
                   help="comma-separated derived point attributes "
                        "(pmag, pt, energy_t, radius, emittance)")
    p.add_argument("--adaptive", action="store_true",
                   help="also build an octree-refined adaptive (AMR) "
                        "density volume at equal memory: resolution "
                        "where the beam is")
    p.add_argument("--amr-bricks", type=int, default=8,
                   help="AMR root bricks per axis (power of two)")
    p.add_argument("--amr-cells", type=int, default=8,
                   help="cells per axis of a level-0 AMR brick")
    p.add_argument("--amr-refine", type=int, default=2,
                   help="deepest AMR refinement level")
    p.add_argument("--amr-bytes", type=int, default=None,
                   help="AMR volume byte budget (default: the flat "
                        "volume's own footprint, resolution^3 * 4)")
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("render", parents=[common],
                       help="render a hybrid frame to PPM")
    p.add_argument("hybrid", help="a .hybrid file")
    p.add_argument("--out", required=True, help="output .ppm image")
    p.add_argument("--size", type=int, default=512)
    p.add_argument("--slices", type=int, default=bpipe_d["n_slices"])
    p.add_argument("--boundary", type=float, default=0.35,
                   help="linked transfer-function boundary (0..1)")
    p.add_argument("--color-by", default=None,
                   help="color points by a carried attribute")
    p.add_argument("--part", default="hybrid",
                   choices=["hybrid", "volume", "points"],
                   help="render the combined image or one region")
    p.add_argument("--point-mode", default="sprite",
                   choices=["sprite", "splat"],
                   help="point tier: square sprites or Gaussian splats")
    p.add_argument("--splat-sigma", type=float, default=1.5,
                   help="base splat radius in pixels (--point-mode splat)")
    p.add_argument("--volume-mode", default="auto",
                   choices=["auto", "flat"],
                   help="auto: composite the AMR volume when the frame "
                        "carries one; flat: always the uniform grid")
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("fieldlines", parents=[common],
                       help="trace field lines in an accelerator structure")
    p.add_argument("--cells", type=int, default=fpipe_d["n_cells"])
    p.add_argument("--lines", type=int, default=fpipe_d["total_lines"])
    p.add_argument("--field", default=fpipe_d["field"], choices=["E", "B"])
    p.add_argument("--solve", action="store_true",
                   help="run the time-domain solver (default: analytic mode)")
    p.add_argument("--out", default=None, help="packed line output file")
    p.add_argument("--image", default=None, help="rendered .ppm output")
    p.add_argument("--size", type=int, default=512)
    p.set_defaults(func=_cmd_fieldlines)

    p = sub.add_parser("scenario", parents=[common],
                       help="declarative digital-twin scenarios: run one, "
                            "sweep a parameter grid, or describe a spec / "
                            "sweep directory")
    p.add_argument("action", choices=["run", "sweep", "info"],
                   help="run: track one scenario (feedback loops closed) "
                        "and optionally land the final beam as a sharded "
                        "store; sweep: fan a parameter grid through the "
                        "crash-safe executor, one store per member; info: "
                        "describe a scenario spec file or a sweep directory")
    p.add_argument("path", help="a scenario spec JSON file (run/sweep/info) "
                                "or a sweep directory (info)")
    p.add_argument("--out", default=None,
                   help="output store directory (run) or sweep directory "
                        "(sweep)")
    p.add_argument("--set", dest="overrides", action="append", default=[],
                   metavar="PATH=VALUE",
                   help="override a spec field or lattice knob, e.g. "
                        "mismatch=1.3 or lattice.qf=5.5 (repeatable)")
    p.add_argument("--axis", dest="axes", action="append", default=[],
                   metavar="PATH=V1,V2,...",
                   help="sweep axis: comma-separated values for one "
                        "override path (repeatable; the grid is the "
                        "cartesian product)")
    p.add_argument("--steps", type=int, default=None,
                   help="step budget (default: the spec's own, else the "
                        "whole channel)")
    p.add_argument("--open-loop", action="store_true",
                   help="drop the spec's feedback controllers (run)")
    p.add_argument("--workers", type=int, default=1,
                   help="sweep member processes")
    p.add_argument("--shard-rows", type=int, default=50_000,
                   help="particles per store shard")
    p.add_argument("--checkpoint", default=None, metavar="DIR",
                   help="record per-member completion so a killed sweep "
                        "resumes instead of recomputing")
    p.set_defaults(func=_cmd_scenario)

    p = sub.add_parser("eigen", parents=[common],
                       help="find cavity eigenfrequencies")
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--length", type=float, default=1.2)
    p.add_argument("--resolution", type=float, default=14.0,
                   help="FDTD cells per unit length")
    p.add_argument("--duration", type=float, default=120.0,
                   help="ring-down duration in time units")
    p.add_argument("--peaks", type=int, default=3)
    p.set_defaults(func=_cmd_eigen)

    p = sub.add_parser("info", parents=[common],
                       help="describe any repro data file")
    p.add_argument("path", help=".hybrid / packed lines file, or a store "
                                "directory")
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("trace-report",
                       help="render a --trace JSON file as a per-stage table")
    p.add_argument("trace_file", help="a JSON file written by --trace")
    p.set_defaults(func=_cmd_trace_report)

    return parser


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------
def _cmd_simulate(args) -> int:
    from repro.beams.simulation import BeamConfig, BeamSimulation
    from repro.core.store import create_store

    sim = BeamSimulation(
        BeamConfig(
            n_particles=args.particles,
            n_cells=args.cells,
            mismatch=args.mismatch,
            seed=args.seed,
        ).resolved()
    )
    stores = []

    def write(step, particles):
        path = Path(args.out) / f"step_{step:06d}"
        stores.append(create_store(path, particles, step=step))

    with span("simulate", n_particles=args.particles):
        sim.run(on_frame=write, frame_every=args.frame_every)
    nbytes = sum(store.nbytes() for store in stores)
    print(f"wrote {len(stores)} frames ({nbytes / 1e6:.1f} MB) to {args.out}")
    return 0


def _cmd_partition(args) -> int:
    from repro.core.dataset import open_dataset
    from repro.octree.stream_partition import partition_store

    with span("partition", workers=args.workers):
        ps = partition_store(
            open_dataset(args.frame), args.out, args.plot_type,
            max_level=args.max_level, capacity=args.capacity,
            workers=args.workers, checkpoint_dir=args.checkpoint,
        )
    print(
        f"partitioned {ps.n_particles} particles into {ps.n_nodes} nodes "
        f"out-of-core ({ps.nbytes() / 1e6:.1f} MB, "
        f"{ps.store.n_shards} shards) at {args.out}"
    )
    return 0


def _cmd_store(args) -> int:
    from repro.core.store import ShardedStore

    store = ShardedStore.open(args.path)
    if args.action == "verify":
        with span("store_verify", n_shards=store.n_shards):
            store.verify()
        print(f"{args.path}: {store.n_shards} shards OK "
              f"({store.n_particles} particles, CRC32 verified)")
        return 0
    print(
        f"sharded store: step {store.step}, {store.n_particles} particles, "
        f"{store.n_shards} shards of {store.shard_rows} rows "
        f"({store.nbytes() / 1e6:.2f} MB payload)"
    )
    return 0


def _cmd_lod(args) -> int:
    from repro.octree.lod import build_lod
    from repro.octree.stream_partition import PartitionedStore

    pstore = PartitionedStore.open(args.path)
    if args.action == "build":
        with span("lod_build_cli", levels=args.levels, ratio=args.ratio):
            lod = build_lod(
                pstore, levels=args.levels, ratio=args.ratio, seed=args.seed,
                mip_base=args.mip_base, mip_levels=args.mip_levels,
            )
        print(
            f"built LOD hierarchy: {lod.levels} levels (ratio {lod.ratio}), "
            f"mips {lod.mip_base}^3..{(lod.mip_base >> (lod.mip_levels - 1))}^3, "
            f"{lod.nbytes() / 1e6:.2f} MB side files at {args.path}"
        )
        return 0
    lod = pstore.lod
    if lod is None:
        print(f"{args.path}: no LOD hierarchy (run 'repro lod build')")
        return 1
    base = int(lod.index[lod.levels, -1])
    print(
        f"LOD hierarchy: seed {lod.seed}, ratio {lod.ratio}, "
        f"{lod.levels} levels over {lod.n_nodes} nodes; "
        f"base sample {base}/{pstore.n_particles} points; "
        f"mips {lod.mip_base}^3 x{lod.mip_levels}; "
        f"{lod.nbytes() / 1e6:.2f} MB side files"
    )
    return 0


def _cmd_forest(args) -> int:
    from repro.octree.forest import ForestStore, partition_forest, render_forest

    if args.action == "partition":
        from repro.core.dataset import open_dataset

        if args.out is None:
            raise SystemExit("forest partition needs --out DIR")
        with span("forest_partition_cli", bricks=args.bricks,
                  workers=args.workers):
            forest = partition_forest(
                open_dataset(args.path), args.out, args.plot_type,
                bricks=args.bricks, max_level=args.max_level,
                capacity=args.capacity, workers=args.workers,
                checkpoint_dir=args.checkpoint,
            )
        print(
            f"partitioned {forest.n_particles} particles into "
            f"{len(forest.brick_ids)}/{forest.n_bricks} non-empty bricks "
            f"({forest.nbytes() / 1e6:.1f} MB) at {args.out}"
        )
        return 0
    forest = ForestStore.open(args.path)
    if args.action == "render":
        from repro.hybrid.renderer import HybridRenderer
        from repro.render.camera import Camera
        from repro.render.image import write_ppm

        if args.out is None:
            raise SystemExit("forest render needs --out IMAGE.ppm")
        camera = Camera.fit_bounds(
            forest.lo, forest.hi, width=args.size, height=args.size
        )
        with span("forest_render_cli"):
            fb = render_forest(
                forest, camera=camera,
                renderer=HybridRenderer(n_slices=args.slices),
                threshold_percentile=args.percentile,
                volume_resolution=args.resolution, part=args.part,
                adaptive=args.adaptive,
            )
        write_ppm(args.out, fb.to_rgb8())
        print(
            f"rendered {len(forest.brick_ids)} bricks ({args.part}) -> {args.out}"
        )
        return 0
    counts = [forest.brick_count(b) for b in forest.brick_ids]
    print(
        f"forest store: step {forest.step}, plot type {forest.plot_type}, "
        f"{forest.n_particles} particles, {forest.bricks}^3 bricks "
        f"({len(forest.brick_ids)} non-empty), max_level {forest.max_level}, "
        f"capacity {forest.capacity}"
    )
    if counts:
        print(
            f"  particles per brick: min {min(counts)}, max {max(counts)}, "
            f"mean {sum(counts) / len(counts):.0f}"
        )
    return 0


def _cmd_service(args) -> int:
    if args.action == "stats":
        from repro.remote.client import VisualizationClient

        if len(args.target) != 1 or ":" not in args.target[0]:
            raise SystemExit("service stats needs a single HOST:PORT target")
        host, _, port = args.target[0].rpartition(":")
        with VisualizationClient((host, int(port))) as client:
            stats = client.get_stats()
        for key in sorted(stats):
            value = stats[key]
            if isinstance(value, float):
                print(f"{key}: {value:.4g}")
            else:
                print(f"{key}: {value}")
        return 0

    import time

    from repro.octree.stream_partition import PartitionedStore
    from repro.remote.service import VisualizationService

    if not args.target:
        raise SystemExit("service serve needs at least one partitioned store")
    frames = [PartitionedStore.open(target) for target in args.target]
    service = VisualizationService(
        frames,
        host=args.host,
        port=args.port,
        max_sessions=args.max_sessions,
        queue_depth=args.queue_depth,
        max_concurrent_extractions=args.extract_workers,
        cache_bytes=int(args.cache_mb * (1 << 20)),
    )
    with service:
        host, port = service.address
        print(f"serving {len(frames)} frame(s) on {host}:{port} "
              f"(max {args.max_sessions} sessions, "
              f"{args.extract_workers} extraction workers, "
              f"{args.cache_mb:g} MB cache)")
        try:
            if args.duration is not None:
                time.sleep(args.duration)
            else:
                while True:
                    time.sleep(3600.0)
        except KeyboardInterrupt:
            print("interrupted, draining...", file=sys.stderr)
    stats = service.stats_snapshot()
    print(f"served {stats['served']} request(s) over "
          f"{stats['sessions_total']} session(s), "
          f"cache hit rate {stats['cache_hit_rate']:.2f}")
    return 0


def _cmd_extract(args) -> int:
    from repro.octree.extraction import extract
    from repro.octree.stream_partition import PartitionedStore

    attrs = tuple(a for a in args.attributes.split(",") if a)
    ps = PartitionedStore.open(args.stem)
    if args.threshold is not None:
        threshold = args.threshold
    else:
        threshold = float(np.percentile(ps.nodes["density"], args.percentile))
    with span("extract"):
        hybrid = extract(
            ps, threshold, volume_resolution=args.resolution,
            point_attributes=attrs,
            adaptive=args.adaptive,
            amr_bricks=args.amr_bricks,
            amr_brick_cells=args.amr_cells,
            amr_max_refine=args.amr_refine,
            amr_byte_budget=args.amr_bytes,
        )
    nbytes = hybrid.save(args.out)
    print(
        f"extracted (shard-streamed) {hybrid.n_points} points + "
        f"{args.resolution}^3 volume{_amr_note(hybrid)} at threshold "
        f"{threshold:.4g} -> {args.out} ({nbytes / 1e6:.2f} MB)"
    )
    return 0


def _amr_note(hybrid) -> str:
    amr = hybrid.meta.get("amr")
    if amr is None:
        return ""
    return (
        f" + AMR ({amr.n_occupied} bricks, {amr.n_refined} refined, "
        f"{amr.nbytes / 1e6:.2f} MB)"
    )


def _cmd_render(args) -> int:
    from repro.hybrid.renderer import HybridRenderer
    from repro.hybrid.representation import HybridFrame
    from repro.hybrid.transfer import LinkedTransferFunctions
    from repro.render.camera import Camera
    from repro.render.image import write_ppm

    frame = HybridFrame.load(args.hybrid)
    camera = Camera.fit_bounds(
        frame.lo, frame.hi, width=args.size, height=args.size
    )
    renderer = HybridRenderer(
        transfer=LinkedTransferFunctions(boundary=args.boundary),
        n_slices=args.slices,
        point_color_by=args.color_by,
        point_mode=args.point_mode,
        splat_sigma=args.splat_sigma,
        volume_mode=args.volume_mode,
    )
    with span("render", part=args.part):
        if args.part == "volume":
            fb = renderer.render_volume_part(frame, camera)
        elif args.part == "points":
            fb = renderer.render_point_part(frame, camera)
        else:
            fb = renderer.render(frame, camera)
    write_ppm(args.out, fb.to_rgb8())
    print(f"rendered {args.part} view of step {frame.step} -> {args.out}")
    return 0


def _cmd_fieldlines(args) -> int:
    from repro.core.config import FieldLinePipelineConfig
    from repro.core.pipeline import fieldline_pipeline
    from repro.fieldlines.compact import write_lines
    from repro.render.image import write_ppm

    result = fieldline_pipeline(
        FieldLinePipelineConfig(
            n_cells=args.cells,
            total_lines=args.lines,
            field=args.field,
            use_solver=args.solve,
            image_size=args.size,
        ),
        render=args.image is not None,
    )
    print(f"traced {len(result.ordered)} {args.field} lines in a "
          f"{args.cells}-cell structure")
    if args.out:
        nbytes = write_lines(args.out, result.ordered.lines)
        print(f"packed lines -> {args.out} ({nbytes / 1e3:.1f} KB)")
    if args.image:
        write_ppm(args.image, result.image)
        print(f"rendered -> {args.image}")
    return 0


def _parse_override_value(text: str):
    """``--set`` / ``--axis`` value: int if it looks like one, else float."""
    try:
        return int(text)
    except ValueError:
        try:
            return float(text)
        except ValueError:
            raise SystemExit(
                f"override value {text!r} is not a number"
            ) from None


def _parse_overrides(pairs) -> dict:
    out = {}
    for pair in pairs:
        path, sep, value = pair.partition("=")
        if not sep or not path:
            raise SystemExit(f"--set expects PATH=VALUE, got {pair!r}")
        out[path] = _parse_override_value(value)
    return out


def _parse_axes(pairs) -> dict:
    axes = {}
    for pair in pairs:
        path, sep, values = pair.partition("=")
        if not sep or not path or not values:
            raise SystemExit(f"--axis expects PATH=V1,V2,..., got {pair!r}")
        axes[path] = [_parse_override_value(v) for v in values.split(",")]
    return axes


def _controller_report(controllers) -> None:
    for c in controllers:
        if c.unstable:
            state = "UNSTABLE (tripped off)"
        elif c.converged:
            state = f"converged at step {c.converged_step}"
        else:
            state = "not converged"
        last = f", last error {c.errors[-1]:.4g}" if c.errors else ""
        print(f"  {type(c).__name__}[{c.knob}]: {state} "
              f"({c.actuations} actuation(s){last})")


def _cmd_scenario(args) -> int:
    from repro.beams.diagnostics import rms_size
    from repro.beams.distributions import X, Y
    from repro.beams.scenario import load_scenario, load_sweep, run_sweep
    from repro.core.store import create_store

    if args.action == "info":
        path = Path(args.path)
        if path.is_dir():
            sweep = load_sweep(path)
            print(
                f"sweep: {sweep.n_members} member(s) over axes "
                f"{', '.join(sweep.axes) or '(none)'}; "
                f"{sweep.n_converged} converged"
            )
            for m in sweep.members:
                knobs = ", ".join(
                    f"{k}={v:.4g}" for k, v in sorted(m["overrides"].items())
                )
                print(
                    f"  {m['dir']}: {knobs or '(baseline)'} -> "
                    f"sigma_x {m['sigma_x']:.4g}, sigma_y {m['sigma_y']:.4g}"
                    f"{', converged' if m['converged'] else ''}"
                    f"{', UNSTABLE' if m.get('unstable') else ''}"
                )
            return 0
        spec = load_scenario(path)
        lat = spec.lattice
        print(
            f"scenario {spec.name!r}: {spec.n_particles} particles "
            f"({spec.distribution}), lattice {lat.name!r} with "
            f"{lat.n_elements} elements over {lat.length:g} m, "
            f"{len(spec.controllers)} controller(s), "
            f"steps {spec.steps if spec.steps is not None else 'all'}"
        )
        strengths = lat.strengths()
        if strengths:
            print("  knobs: " + ", ".join(
                f"{k}={v:g}" for k, v in strengths.items()
            ))
        print(f"  stable cell: {lat.is_stable()}")
        return 0

    spec = load_scenario(args.path)
    overrides = _parse_overrides(args.overrides)
    if overrides:
        spec = spec.with_overrides(overrides)
    if args.steps is not None:
        from dataclasses import replace as _replace

        spec = _replace(spec, steps=args.steps)

    if args.action == "run":
        scenario = spec.build(controllers=() if args.open_loop else None)
        with span("scenario_run", steps=spec.steps or 0):
            scenario.run()
        p = scenario.particles
        print(
            f"ran scenario {spec.name!r} for {scenario.step_index} step(s): "
            f"sigma_x {rms_size(p, X):.4g}, sigma_y {rms_size(p, Y):.4g}"
        )
        _controller_report(scenario.controllers)
        if args.out is not None:
            store = create_store(
                args.out, p, shard_rows=args.shard_rows,
                step=scenario.step_index,
            )
            print(
                f"stored final beam: {store.n_particles} particles in "
                f"{store.n_shards} shard(s) at {args.out}"
            )
        return 0

    # sweep
    if args.out is None:
        raise SystemExit("scenario sweep needs --out DIR")
    axes = _parse_axes(args.axes)
    result = run_sweep(
        spec, axes, args.out,
        workers=args.workers, shard_rows=args.shard_rows,
        checkpoint_dir=args.checkpoint,
    )
    print(
        f"swept {result.n_members} member(s) over "
        f"{', '.join(axes) or '(no axes)'} "
        f"({result.resumed} resumed from disk, "
        f"{result.n_converged} converged) -> {args.out}"
    )
    return 0


def _cmd_eigen(args) -> int:
    from scipy.special import jn_zeros

    from repro.fields.eigen import ResonanceFinder
    from repro.fields.geometry import make_pillbox
    from repro.fields.solver import TimeDomainSolver

    cavity = make_pillbox(radius=args.radius, length=args.length, n_xy=6,
                          n_z_per_unit=6)
    solver = TimeDomainSolver(cavity, cells_per_unit=args.resolution)
    finder = ResonanceFinder(solver)
    finder.kick()
    steps = solver.steps_for(args.duration)
    print(f"ringing a pillbox (R={args.radius}, L={args.length}) for "
          f"{steps} Courant-limited steps...")
    finder.ring(args.duration)
    peaks = np.sort(finder.resonances(args.peaks))
    analytic = jn_zeros(0, args.peaks) / (2.0 * np.pi * args.radius)
    print("mode    measured   analytic(TM0n0)  error")
    for i, f_m in enumerate(peaks, start=1):
        if i <= len(analytic):
            f_a = analytic[i - 1]
            print(f"  #{i}    {f_m:.4f}     {f_a:.4f}        "
                  f"{100 * abs(f_m - f_a) / f_a:.1f}%")
        else:
            print(f"  #{i}    {f_m:.4f}")
    return 0


def _cmd_info(args) -> int:
    path = Path(args.path)
    if path.is_dir():
        from repro.core.store import ShardedStore, is_store_dir
        from repro.octree.stream_partition import NODES_FILE, PartitionedStore

        if not is_store_dir(path):
            print(f"{path}: directory without a store manifest", file=sys.stderr)
            return 1
        if (path / NODES_FILE).is_file():
            ps = PartitionedStore.open(path)
            dens = ps.nodes["density"]
            print(
                f"partitioned store: step {ps.step}, plot type {ps.plot_type}, "
                f"{ps.n_particles} particles, {ps.n_nodes} nodes, "
                f"{ps.store.n_shards} shards, "
                f"density {dens.min():.3g}..{dens.max():.3g}"
            )
        else:
            store = ShardedStore.open(path)
            print(
                f"sharded store: step {store.step}, {store.n_particles} "
                f"particles, {store.n_shards} shards of {store.shard_rows} "
                f"rows ({store.nbytes() / 1e6:.2f} MB payload)"
            )
        return 0
    with open(path, "rb") as f:
        magic = f.read(8)
    if magic == b"RPRHYBRD":
        from repro.hybrid.representation import HybridFrame

        h = HybridFrame.load(path)
        attrs = ", ".join(sorted(h.attributes)) or "none"
        print(
            f"hybrid frame: step {h.step}, plot type {h.plot_type}, "
            f"{h.n_points} points + {h.resolution} volume"
            f"{_amr_note(h)}, "
            f"threshold {h.threshold:.4g}, attributes: {attrs}"
        )
    elif magic == b"RPRLINES":
        from repro.fieldlines.compact import read_lines

        lines = read_lines(path)
        total = sum(l.n_points for l in lines)
        print(f"packed field lines: {len(lines)} lines, {total} points, "
              f"{path.stat().st_size / 1e3:.1f} KB")
    else:
        print(f"{path}: unrecognized magic {magic!r}", file=sys.stderr)
        return 1
    return 0


def _cmd_trace_report(args) -> int:
    try:
        data = load_trace(args.trace_file)
    except FileNotFoundError:
        print(f"{args.trace_file}: no such file", file=sys.stderr)
        return 1
    except ValueError as exc:  # not JSON, or JSON without a span table
        print(f"{args.trace_file}: not a trace JSON file ({exc})",
              file=sys.stderr)
        return 1
    print(format_report(data), end="")
    return 0


def _dispatch(args) -> int:
    """Run a subcommand, mapping typed failures to exit codes."""
    try:
        return args.func(args)
    except FormatError as exc:
        print(f"repro: damaged data file: {exc}", file=sys.stderr)
        return EXIT_FORMAT_ERROR
    except (RemoteError, RetryExhaustedError) as exc:
        print(f"repro: remote request failed: {exc}", file=sys.stderr)
        return EXIT_REMOTE_ERROR
    except ProtocolError as exc:
        print(f"repro: protocol error: {exc}", file=sys.stderr)
        return EXIT_PROTOCOL_ERROR
    except FileNotFoundError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code.

    ``--trace out.json`` (any subcommand) enables the global tracer
    for the command's duration and writes the collected spans,
    counters, and gauges as JSON on the way out.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    trace_out = getattr(args, "trace", None)
    if not trace_out:
        return _dispatch(args)
    # run inside a fresh, enabled tracer so each --trace run writes an
    # isolated document (and a library user's tracer is left alone)
    with capture(enabled=True) as tracer:
        try:
            return _dispatch(args)
        finally:
            tracer.save(trace_out)
            print(f"trace written to {trace_out}")


if __name__ == "__main__":
    raise SystemExit(main())
