"""The four pipeline workloads and the harness that measures one of them.

Each workload drives the package only through public functions
(``repro.api``, ``repro.fields.geometry/solver/sampling``; peak RSS
comes from ``repro.core.trace.gauge_peak_rss``) and is written as four
steps:

- ``setup`` builds the inputs from the seed (timed, repeated, median
  reported as ``setup_s``);
- ``window`` runs whole rounds until ``seconds`` have passed -- a round
  is a frame (beam_sc), an orbit cycle (store_orbit), a field snapshot
  (field_sos) or one request (remote_explore) -- and
  records per-image or per-request latencies;
- ``check`` verifies the outputs after the window;
- ``teardown`` releases what setup made.

Rounds always finish, so every round in the window has the same
composition and the throughput does not depend on where the deadline
fell.  Sizes are passed in (``SIZES`` holds the benchmark's), never
read from the environment, so two commits run identical inputs.
"""

from __future__ import annotations

import hashlib
import shutil
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.api import (
    BeamConfig,
    BeamSimulation,
    Camera,
    FrameGeometryCache,
    HybridRenderer,
    ReproError,
    VisualizationClient,
    VisualizationService,
    build_lod,
    build_strips,
    capture,
    create_store,
    extract,
    open_dataset,
    partition,
    partition_store,
    render_strips,
    seed_density_proportional,
)
from repro.core.trace import gauge_peak_rss
from repro.fields.geometry import make_multicell_structure
from repro.fields.sampling import YeeSampler
from repro.fields.solver import TimeDomainSolver

from ledger import Ledger, layer_metrics

SIZES = {
    "beam_sc": {
        "n_particles": 100_000,
        "n_cells": 60,          # frames run out after n_cells; long enough for the window
        "frame_every": 5,       # one FODO cell (5 elements) per frame
        "max_level": 6,
        "capacity": 64,
        "threshold_pct": 60,
        "resolution": 64,
        "image": 192,
        "slices": 48,
    },
    "store_orbit": {
        "n_particles": 1_000_000,
        "shard_rows": 131_072,
        "workers": 2,
        "max_level": 6,
        "capacity": 4096,
        "percentiles": [50, 60, 70, 80],
        "views": 4,
        "resolution": 64,
        "image": 256,
        "slices": 64,
    },
    "field_sos": {
        "n_cells": 12,
        "n_xy": 5,
        "n_z_per_unit": 5,
        "cells_per_unit": 8,
        "snapshot_time": 4.0,
        "lines": 60,
        "max_steps": 150,
        "line_width": 0.03,
        "views": 4,
        "image": 256,
    },
    "remote_explore": {
        "n_particles": 1_000_000,
        "max_level": 6,
        "capacity": 4096,
        "lod_levels": 2,
        "lod_ratio": 4,
        "mip_base": 64,
        "hot_percentiles": [50, 60, 70, 80],
        "hot_resolutions": [32, 64],
        "fresh_percentiles": [40, 85],
        "fresh_resolution": 32,
        # hot, fresh, stream requests per shuffled block: 8 hot views twice
        # and 1 fresh get in 9 put the get median mid-way through the 5th
        # of the 8 hot views by reply time (not in a gap between two) and
        # the 90th percentile among the fresh misses
        "block": [16, 2, 2],
        "check_every": 50,       # every n-th get_hybrid reply is checked
        "stream_check_every": 4,
    },
}

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0

# set-up runs at least this often and until this much time has passed
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 1.0
SETUP_MAX_REPEATS = 25


@dataclass
class Window:
    """What one timed window produced."""

    wall: float = 0.0
    ops: int = 0
    failed: int = 0
    latency_ms: list = field(default_factory=list)
    first_image_ms: list = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    errors: list = field(default_factory=list)
    keep: dict = field(default_factory=dict)   # data the checks need


@dataclass
class Ctx:
    seed: int
    sizes: dict
    seconds: float
    ledger: Ledger
    workdir: Path
    max_rounds: int | None = None
    deadline: float = 0.0

    def more(self, rounds: int) -> bool:
        """Whether another round fits the window."""
        if self.max_rounds is not None and rounds >= self.max_rounds:
            return False
        return time.perf_counter() < self.deadline


class _Chain:
    """Image clock of a serial chain: each image's latency is the time
    since the previous image (the frame time a viewer sees)."""

    def __init__(self, win: Window):
        self.win = win
        self.t0 = self.last = time.perf_counter()

    def image(self, fb) -> float:
        t = time.perf_counter()
        self.win.latency_ms.append((t - self.last) * 1e3)
        self.last = t
        self.win.ops += 1
        rgba = fb.rgba
        if not (np.isfinite(rgba).all() and rgba[..., 3].max() > 0.0):
            self.win.failed += 1
            self.win.errors.append(f"image {self.win.ops - 1} is blank or not finite")
        return t

    def close(self) -> None:
        self.win.wall = time.perf_counter() - self.t0


def core_halo_beam(n: int, rng) -> np.ndarray:
    """A seeded 6-D core+halo beam: 90 % narrow core, 10 % wide halo."""
    n_core = int(n * 0.9)
    p = np.empty((n, 6))
    p[:n_core] = rng.normal(0.0, 0.3, (n_core, 6))
    p[n_core:] = rng.normal(0.0, 1.8, (n - n_core, 6))
    return p


def frame_digest(frame) -> str:
    """Digest of a hybrid frame's points, densities and volume bytes."""
    h = hashlib.blake2b(digest_size=16)
    for a in (frame.points, frame.point_densities, frame.volume):
        h.update(str(a.shape).encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# ----------------------------------------------------------------------
class BeamSc:
    """The paper's beam chain in core: simulate with space charge ->
    partition -> extract -> render, one frame per FODO cell."""

    def setup(self, seed, sizes, workdir):
        cfg = BeamConfig(
            n_particles=sizes["n_particles"], n_cells=sizes["n_cells"], seed=seed
        ).resolved()
        sim = BeamSimulation(cfg)
        return {"sim": sim, "frames": sim.frames(frame_every=sizes["frame_every"])}

    def window(self, state, ctx: Ctx) -> Window:
        s, led = ctx.sizes, ctx.ledger
        win = Window()
        renderer = HybridRenderer(n_slices=s["slices"])
        thr = h = step = None
        chain = _Chain(win)
        while ctx.more(win.ops):
            with led.span("beam_sc.frame", rid=win.ops):
                with led.span("beams.simulation"):
                    try:
                        step, p = next(state["frames"])
                    except StopIteration:
                        break
                with led.span("octree.partition"):
                    pf = partition(
                        open_dataset(p, step=step), "xyz",
                        max_level=s["max_level"], capacity=s["capacity"],
                    )
                if thr is None:
                    thr = float(np.percentile(pf.nodes["density"], s["threshold_pct"]))
                with led.span("octree.extraction"):
                    h = extract(pf, thr, volume_resolution=s["resolution"])
                camera = Camera.fit_bounds(h.lo, h.hi, width=s["image"], height=s["image"])
                with led.span("hybrid.renderer"):
                    fb = renderer.render(h, camera)
            chain.image(fb)
            win.first_image_ms.append(win.latency_ms[-1])
            win.counts["nodes"] += pf.n_nodes
            win.counts["points"] += h.n_points
        chain.close()
        win.keep.update(threshold=thr, last=h, step=step)
        return win

    def check(self, state, win: Window, ctx: Ctx) -> None:
        """The last frame's extraction is bitwise the same in core, out
        of core, and as rendered in the window."""
        s, last = ctx.sizes, win.keep["last"]
        if last is None:
            return
        p = state["sim"].particles  # the live buffer still holds the last frame
        thr, res = win.keep["threshold"], s["resolution"]
        ref = extract(
            partition(open_dataset(p, step=win.keep["step"]), "xyz",
                      max_level=s["max_level"], capacity=s["capacity"]),
            thr, volume_resolution=res,
        )
        ps = partition_store(
            p, ctx.workdir / "check_part", "xyz",
            max_level=s["max_level"], capacity=s["capacity"], step=win.keep["step"],
        )
        streamed = extract(ps, thr, volume_resolution=res)
        if not frame_digest(ref) == frame_digest(streamed) == frame_digest(last):
            win.failed += 1
            win.errors.append("last frame: in-core and out-of-core extraction differ")

    def teardown(self, state) -> None:
        state["frames"].close()


# ----------------------------------------------------------------------
class StoreOrbit:
    """The out-of-core chain: a sharded store is partitioned into a new
    store, extracted at four thresholds and orbited twice per
    threshold.  Each cycle starts a fresh viewer (frame-geometry cache),
    so every cycle has the same hit/miss mix."""

    def setup(self, seed, sizes, workdir):
        p = core_halo_beam(sizes["n_particles"], np.random.default_rng(seed))
        store = create_store(workdir / "store", p, shard_rows=sizes["shard_rows"])
        return {"store": store, "dir": workdir}

    def window(self, state, ctx: Ctx) -> Window:
        s, led = ctx.sizes, ctx.ledger
        win = Window()
        digests, masses = [], []
        cycle = 0
        chain = _Chain(win)
        while ctx.more(cycle):
            c0 = time.perf_counter()
            cycle_digests = {}
            with led.span("store_orbit.cycle", rid=cycle):
                out = ctx.workdir / f"part{cycle % 2}"
                shutil.rmtree(out, ignore_errors=True)
                with led.span("octree.stream_partition"):
                    ps = partition_store(
                        state["store"], out, "xyz", max_level=s["max_level"],
                        capacity=s["capacity"], workers=s["workers"],
                    )
                renderer = HybridRenderer(n_slices=s["slices"], cache=FrameGeometryCache())
                cameras = [
                    Camera.fit_bounds(
                        ps.lo, ps.hi,
                        direction=(np.cos(a), 0.35, np.sin(a)),
                        width=s["image"], height=s["image"],
                    )
                    for a in 2 * np.pi * np.arange(s["views"]) / s["views"]
                ]
                for pct in s["percentiles"]:
                    thr = float(np.percentile(ps.nodes["density"], pct))
                    with led.span("octree.extraction"):
                        h = extract(ps, thr, volume_resolution=s["resolution"])
                    cell = np.prod((h.hi - h.lo) / (np.array(h.volume.shape) - 1))
                    masses.append(float(h.volume.sum(dtype=np.float64) * cell))
                    win.counts["points"] += h.n_points
                    for orbit in range(2):
                        for v, camera in enumerate(cameras):
                            with led.span("hybrid.renderer"):
                                fb = renderer.render(h, camera)
                            t = chain.image(fb)
                            if not cycle_digests:  # the cycle's cold open
                                win.first_image_ms.append((t - c0) * 1e3)
                            cycle_digests[(pct, orbit, v)] = hashlib.blake2b(
                                fb.rgba.tobytes(), digest_size=16
                            ).hexdigest()
            win.counts["nodes"] += ps.n_nodes
            digests.append(cycle_digests)
            cycle += 1
        chain.close()
        win.keep.update(digests=digests, masses=masses)
        return win

    def check(self, state, win: Window, ctx: Ctx) -> None:
        """Each volume holds every particle; the second orbit (frame-
        cache hits) and every later cycle repeat the first images."""
        n = ctx.sizes["n_particles"]
        for m in win.keep["masses"]:
            if abs(m - n) > 1e-4 * n:
                win.failed += 1
                win.errors.append(f"volume mass {m} != {n} particles")
        digests = win.keep["digests"]
        for cycle in digests:
            for (pct, orbit, v), d in cycle.items():
                if d != digests[0][(pct, 0, v)]:
                    win.failed += 1
                    win.errors.append(f"image ({pct}, orbit {orbit}, view {v}) differs")

    def teardown(self, state) -> None:
        shutil.rmtree(state["dir"], ignore_errors=True)


# ----------------------------------------------------------------------
class FieldSos:
    """The paper's field chain on its 12-cell structure: advance the
    FDTD solver -> sample onto the mesh -> seed density-proportional
    lines -> view the precomputed lines as self-orienting strips from a
    small side-on orbit (the strips re-orient to every camera)."""

    def setup(self, seed, sizes, workdir):
        structure = make_multicell_structure(
            sizes["n_cells"], n_xy=sizes["n_xy"], n_z_per_unit=sizes["n_z_per_unit"]
        )
        solver = TimeDomainSolver(structure, cells_per_unit=sizes["cells_per_unit"])
        cameras = [
            Camera.fit_bounds(
                *structure.bounds(), direction=(np.cos(a), 0.2, np.sin(a)),
                width=sizes["image"], height=sizes["image"],
            )
            for a in np.linspace(-0.5, 0.5, sizes["views"])
        ]
        return {"structure": structure, "solver": solver, "cameras": cameras}

    def window(self, state, ctx: Ctx) -> Window:
        s, led = ctx.sizes, ctx.ledger
        solver, mesh = state["solver"], state["structure"].mesh
        steps = solver.steps_for(s["snapshot_time"])
        win = Window()
        bad = []
        k = 0
        chain = _Chain(win)
        while ctx.more(k):
            k0 = time.perf_counter()
            with led.span("field_sos.snapshot", rid=k):
                with led.span("fields.solver"):
                    solver.run(steps)
                    solver.fields_on_mesh()
                    sampler = YeeSampler(solver, "E")
                with led.span("fieldlines.seeding"):
                    ordered = seed_density_proportional(
                        mesh, sampler, total_lines=s["lines"], max_steps=s["max_steps"],
                        rng=np.random.default_rng([ctx.seed, k]),
                    )
                for v, camera in enumerate(state["cameras"]):
                    with led.span("fieldlines.sos"):
                        strips = build_strips(ordered.lines, camera, width=s["line_width"])
                        fb = render_strips(camera, strips)
                    t = chain.image(fb)
                    if v == 0:  # the snapshot's cold open
                        win.first_image_ms.append((t - k0) * 1e3)
                    win.counts["triangles"] += strips.n_triangles
            if len(ordered.lines) != s["lines"] or not np.isclose(
                ordered.desired.sum(), s["lines"]
            ):
                bad.append(k)
            win.counts["solver_steps"] += steps
            win.counts["lines"] += len(ordered.lines)
            k += 1
        chain.close()
        win.keep["bad"] = bad
        return win

    def check(self, state, win: Window, ctx: Ctx) -> None:
        """Every snapshot seeds exactly the requested lines."""
        for k in win.keep["bad"]:
            win.failed += 1
            win.errors.append(f"snapshot {k}: wrong line count")

    def teardown(self, state) -> None:
        pass


# ----------------------------------------------------------------------
class RemoteExplore:
    """Remote exploration through the service: a closed loop of one
    client that waits for each reply.  Hot requests repeat a few views
    (the service's result cache); fresh thresholds are misses that pay
    a full extraction; streams open a fresh threshold progressively
    (LOD base first, then refinements to completion), which is what
    the LOD path is for.  The client draws a fixed mix per shuffled
    block, so the miss share does not move with the seed.

    One request is in flight at a time, so the process needs one CPU:
    ``cpus`` asks the runner to keep it on one, so the hand-offs
    between the client, the event loop and the extraction thread do
    not wait for the other CPU to wake."""

    cpus = 1

    def setup(self, seed, sizes, workdir):
        p = core_halo_beam(sizes["n_particles"], np.random.default_rng(seed))
        ps = partition_store(
            p, workdir / "part", "xyz",
            max_level=sizes["max_level"], capacity=sizes["capacity"],
        )
        del p
        build_lod(
            ps, levels=sizes["lod_levels"], ratio=sizes["lod_ratio"], seed=seed,
            mip_base=sizes["mip_base"],
        )
        dens = ps.nodes["density"]
        hot = [
            (float(np.percentile(dens, pct)), int(res))
            for pct in sizes["hot_percentiles"]
            for res in sizes["hot_resolutions"]
        ]
        service = VisualizationService([ps]).start()
        client = None
        try:
            # the hot views are what the analyst keeps coming back to
            with VisualizationClient(service.address) as warm:
                for thr, res in hot:
                    warm.get_hybrid(0, thr, res)
            client = VisualizationClient(service.address)
        except BaseException:
            self.teardown({"service": service, "client": client, "dir": workdir})
            raise
        return {"ps": ps, "service": service, "client": client, "hot": hot, "dir": workdir}

    def _schedule(self, rng, block):
        """Endless request kinds, a fixed mix per shuffled block."""
        kinds = np.array(["hot"] * block[0] + ["fresh"] * block[1] + ["stream"] * block[2])
        while True:
            yield from rng.permutation(kinds)

    def _hot(self, rng, hot):
        """Endless hot views, each view once per shuffled pass, so every
        run asks for each view equally often (their reply times differ
        by 2x with the payload size)."""
        while True:
            for k in rng.permutation(len(hot)):
                yield hot[k]

    def _fresh(self, rng, dens, percentiles):
        """Endless never-repeating thresholds, spread evenly over the
        percentile range by a golden-ratio sequence from a seeded
        start, so every run sees the same spread of miss costs.  The
        percentile is interpolated on densities sorted once, which is
        what ``np.percentile`` computes, without its partition per call
        inside the timed window."""
        lo, hi = percentiles
        ranked = np.sort(dens)
        at = np.linspace(0.0, 100.0, len(ranked))
        u = rng.random()
        while True:
            u = (u + GOLDEN) % 1.0
            yield float(np.interp(lo + (hi - lo) * u, at, ranked))

    def window(self, state, ctx: Ctx) -> Window:
        s, led = ctx.sizes, ctx.ledger
        client, service = state["client"], state["service"]
        hot, dens = state["hot"], state["ps"].nodes["density"]
        rng = np.random.default_rng([ctx.seed, 1])
        schedule = self._schedule(rng, s["block"])
        hot_views = self._hot(rng, hot)
        fresh = self._fresh(rng, dens, s["fresh_percentiles"])
        stream_thr = self._fresh(rng, dens, s["fresh_percentiles"])
        before = dict(service.stats)
        win = Window()
        samples, streams, gets, n_streams = [], [], 0, 0
        t_start = time.perf_counter()
        while ctx.more(win.ops):
            kind = next(schedule)
            rid = win.ops
            t0 = time.perf_counter()
            try:
                if kind == "stream":
                    thr, res = next(stream_thr), s["mip_base"]
                    with led.span("remote.client.stream", rid=rid):
                        frames = client.iter_hybrid(0, thr, res)
                        last = next(frames)
                        win.first_image_ms.append((time.perf_counter() - t0) * 1e3)
                        for last in frames:
                            pass
                    if n_streams % s["stream_check_every"] == 0:
                        streams.append((thr, res, frame_digest(last)))
                    n_streams += 1
                else:
                    if kind == "hot":
                        thr, res = next(hot_views)
                    else:
                        thr, res = next(fresh), s["fresh_resolution"]
                    with led.span("remote.client.get", rid=rid):
                        frame = client.get_hybrid(0, thr, res)
                    win.latency_ms.append((time.perf_counter() - t0) * 1e3)
                    if gets % s["check_every"] == 0:
                        samples.append((thr, res, frame_digest(frame)))
                    gets += 1
            except (ReproError, OSError) as exc:
                win.failed += 1
                win.errors.append(f"request {rid} ({kind}): {exc!r}")
            win.ops += 1
        win.wall = time.perf_counter() - t_start
        after = service.stats
        win.counts = Counter({
            key: after[key] - before[key]
            for key in ("cache_hits", "cache_misses", "extractions", "coalesced",
                        "shed_requests", "timeouts")
        })
        win.keep.update(samples=samples, streams=streams)
        return win

    def check(self, state, win: Window, ctx: Ctx) -> None:
        """Sampled replies equal a local extraction; sampled streams'
        final frames equal the flat reply for their key."""
        ps = state["ps"]
        for thr, res, digest in win.keep["samples"]:
            if frame_digest(extract(ps, thr, volume_resolution=res)) != digest:
                win.failed += 1
                win.errors.append(f"reply at threshold {thr} res {res} differs from local")
        for thr, res, digest in win.keep["streams"]:
            if frame_digest(state["client"].get_hybrid(0, thr, res)) != digest:
                win.failed += 1
                win.errors.append(f"stream at threshold {thr} res {res} differs from flat")

    def teardown(self, state) -> None:
        if state["client"] is not None:
            state["client"].close()
        state["service"].stop()
        shutil.rmtree(state["dir"], ignore_errors=True)


WORKLOADS = {
    "beam_sc": BeamSc(),
    "store_orbit": StoreOrbit(),
    "field_sos": FieldSos(),
    "remote_explore": RemoteExplore(),
}


# ----------------------------------------------------------------------
def run(name: str, *, seed: int, seconds: float, workdir, sizes: dict | None = None,
        trace: bool = False, max_rounds: int | None = None) -> dict:
    """Set up, measure and check one workload in this process.

    ``sizes`` overrides entries of ``SIZES[name]``; ``max_rounds`` ends
    the window early after that many rounds (tests use it to compare
    exact counts).  Returns the end-to-end metrics, sample counts, work
    counts, check outcome and, when ``trace`` is set, the per-layer
    metrics, the benchmark's spans and the program trace.
    """
    wl = WORKLOADS[name]
    sizes = {**SIZES[name], **(sizes or {})}
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    setup_s, state = [], None
    try:
        while True:
            if state is not None:
                wl.teardown(state)
                state = None
            t0 = time.perf_counter()
            state = wl.setup(seed, sizes, workdir / f"setup{len(setup_s)}")
            setup_s.append(time.perf_counter() - t0)
            if len(setup_s) >= SETUP_MAX_REPEATS or (
                len(setup_s) >= SETUP_MIN_REPEATS and sum(setup_s) >= SETUP_MIN_SECONDS
            ):
                break
        ledger = Ledger(enabled=trace)
        ctx = Ctx(seed=seed, sizes=sizes, seconds=seconds, ledger=ledger,
                  workdir=workdir, max_rounds=max_rounds)
        ctx.deadline = time.perf_counter() + seconds
        with capture(enabled=trace) as tracer:
            win = wl.window(state, ctx)
        peak = gauge_peak_rss()
        wl.check(state, win, ctx)
    finally:
        if state is not None:
            wl.teardown(state)
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "workload": name,
        "sizes": sizes,
        "attempted": win.ops,
        "failed": min(win.failed, win.ops),
        "errors": win.errors[:20],
        "metrics": {
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": peak / 1e6,
            "ops_per_s": win.ops / win.wall if win.wall > 0 else 0.0,
            "op_ms_p50": _percentile(win.latency_ms, 50),
            "op_ms_p90": _percentile(win.latency_ms, 90),
            "first_image_ms": _percentile(win.first_image_ms, 50),
        },
        "samples": {
            "setup": len(setup_s),
            "ops": win.ops,
            "latency": len(win.latency_ms),
            "first_image": len(win.first_image_ms),
        },
        "counts": win.counts,
        "wall_s": win.wall,
    }
    if trace:
        snapshot = tracer.snapshot()
        result["layers"] = layer_metrics(ledger, snapshot, win.wall, win.counts)
        result["spans"] = ledger.spans
        result["program"] = snapshot
    return result


def _percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0
