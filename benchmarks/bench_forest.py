"""PERF -- forest-of-octrees partition + sort-last compositing.

Two measurements for the distributed forest pipeline
(``repro.octree.forest`` / ``repro.render.compositor``):

* *throughput*: a 10^8-particle synthetic beam (4.8 GB of raw float64,
  scaled by ``REPRO_SCALE``) is written as a sharded store and
  forest-partitioned (bricks=2) at workers = 1, 2, and 4; the recorded
  particles/s quantify the near-linear worker speedup the brick fan-out
  enables.  The machine's ``cpu_count`` is recorded alongside -- the
  speedup floor is only meaningful with >= 4 cores, and the gate
  (``scripts/check.sh --gate forest``) skips it otherwise.  The last
  forest then renders through the sort-last path; the compositor's
  ``composite_merge`` span is the composite time.
* *equivalence*: at 10^6 particles the forest gather mode must
  reproduce the single-octree image **bitwise**, and the sort-last
  composite must stay within the pinned brick-boundary tolerance.

Writes ``BENCH_forest.json``; ``scripts/check.sh --gate forest`` gates
on the recorded flags.
"""

import os
import shutil
import time

import numpy as np

from common import record, record_bench, scaled, traced_run

from repro.core.dataset import as_dataset
from repro.core.store import create_store
from repro.hybrid.renderer import HybridRenderer
from repro.octree.extraction import extract
from repro.octree.forest import partition_forest, render_forest
from repro.octree.partition import partition
from repro.render.camera import Camera

N_PARTICLES_RSS = scaled(100_000_000)
N_PARTICLES_EQ = scaled(1_000_000)
SHARD_ROWS = 1_048_576
GEN_BLOCK = 1_000_000
WORKER_SWEEP = (1, 2, 4)


def _beam_blocks(n, seed=12, block=GEN_BLOCK):
    """Yield a dense-core + sparse-halo beam frame block by block, so
    the parent never holds the 10^8-row array."""
    rng = np.random.default_rng(seed)
    remaining = n
    while remaining > 0:
        m = min(block, remaining)
        rows = rng.normal(0.0, 0.3, (m, 6))
        n_halo = m // 16
        rows[:n_halo] = rng.normal(0.0, 2.0, (n_halo, 6))
        yield rows
        remaining -= m


def _throughput_sweep(tmp, store) -> dict:
    """Forest-partition the full store at each worker count; keep the
    last forest on disk for the render measurement."""
    rows = {}
    forest = None
    for w in WORKER_SWEEP:
        out = tmp / f"forest_w{w}"
        t0 = time.perf_counter()
        forest = partition_forest(
            store, out, "xyz", bricks=2, max_level=6, capacity=4096, workers=w
        )
        dt = time.perf_counter() - t0
        rows[w] = {
            "t_partition_s": dt,
            "particles_per_second": N_PARTICLES_RSS / max(dt, 1e-12),
        }
        if w != WORKER_SWEEP[-1]:
            shutil.rmtree(out, ignore_errors=True)
    return rows, forest


def _equivalence(tmp) -> dict:
    """Forest gather must be bitwise; sort-last within pinned tolerance."""
    particles = np.concatenate(list(_beam_blocks(N_PARTICLES_EQ, seed=3)))
    pf = partition(as_dataset(particles), "xyz", max_level=6, capacity=64)
    forest = partition_forest(
        particles, tmp / "eq_forest", "xyz", bricks=2, max_level=6, capacity=64
    )
    frame = forest.to_partitioned_frame()
    nodes_bitwise = bool(np.array_equal(frame.nodes, pf.nodes))
    particles_bitwise = bool(np.array_equal(frame.particles, pf.particles))

    threshold = float(np.percentile(pf.nodes["density"], 60))
    camera = Camera.fit_bounds(pf.lo, pf.hi, width=128, height=128)
    single = HybridRenderer(n_slices=24).render(
        extract(pf, threshold, volume_resolution=48), camera=camera
    )
    gathered = render_forest(
        forest, camera=camera, renderer=HybridRenderer(n_slices=24),
        threshold=threshold, volume_resolution=48, mode="gather",
    )
    composited = render_forest(
        forest, camera=camera, renderer=HybridRenderer(n_slices=24),
        threshold=threshold, volume_resolution=48, mode="sortlast",
    )
    return {
        "n_particles": int(N_PARTICLES_EQ),
        "nodes_bitwise": nodes_bitwise,
        "particles_bitwise": particles_bitwise,
        "gather_image_bitwise": bool(np.array_equal(single.rgba, gathered.rgba)),
        "sortlast_max_abs_diff": float(
            np.max(np.abs(composited.rgba - single.rgba))
        ),
        "sortlast_identical_pixel_frac": float(
            np.all(composited.rgba == single.rgba, axis=-1).mean()
        ),
    }


def test_forest_report(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("forest_bench")
    results = {"cpu_count": int(os.cpu_count() or 1)}

    def measure():
        # -- throughput: 10^8 particles through the forest ---------------
        raw_bytes = N_PARTICLES_RSS * 48
        t0 = time.perf_counter()
        store = create_store(
            tmp / "store", _beam_blocks(N_PARTICLES_RSS), shard_rows=SHARD_ROWS
        )
        t_store = time.perf_counter() - t0
        sweep, forest = _throughput_sweep(tmp, store)
        results["partition"] = {
            "n_particles": int(N_PARTICLES_RSS),
            "raw_mb": raw_bytes / 1e6,
            "t_store_s": t_store,
            "workers": {str(w): row for w, row in sweep.items()},
            "speedup_2": sweep[2]["particles_per_second"]
            / sweep[1]["particles_per_second"],
            "speedup_4": sweep[4]["particles_per_second"]
            / sweep[1]["particles_per_second"],
        }

        # -- composited render of the full forest -------------------------
        t0 = time.perf_counter()
        fb = render_forest(
            forest,
            camera=Camera.fit_bounds(forest.lo, forest.hi, width=160, height=160),
            renderer=HybridRenderer(n_slices=24, point_batch_size=500_000),
            threshold_percentile=20.0, volume_resolution=64,
            workers=WORKER_SWEEP[-1],
        )
        results["render"] = {
            "t_render_s": time.perf_counter() - t0,
            "n_bricks": len(forest.brick_ids),
            "image_sum": float(fb.rgba.sum()),
        }

        # -- equivalence: forest == single octree --------------------------
        results["equivalence"] = _equivalence(tmp)

    tracer = traced_run(measure)
    snap = tracer.snapshot()
    results["render"]["t_composite_s"] = float(
        snap["spans"].get("composite_merge", {}).get("wall", 0.0)
    )
    record_bench("forest", tracer, extra=results)

    p, r, e = results["partition"], results["render"], results["equivalence"]
    record(
        "PERF-FOREST",
        [
            f"throughput: {p['n_particles']} particles ({p['raw_mb']:.0f} MB "
            f"raw) into 8 bricks, {results['cpu_count']} cpu(s):",
        ]
        + [
            f"  workers={w}: {p['workers'][str(w)]['t_partition_s']:.1f} s, "
            f"{p['workers'][str(w)]['particles_per_second'] / 1e6:.2f} M "
            "particles/s"
            for w in WORKER_SWEEP
        ]
        + [
            f"  speedup x{p['speedup_2']:.2f} (2 workers), "
            f"x{p['speedup_4']:.2f} (4 workers)",
            f"render: {r['t_render_s']:.1f} s over {r['n_bricks']} bricks, "
            f"composite {r['t_composite_s'] * 1e3:.0f} ms",
            f"equivalence at {e['n_particles']} particles: nodes bitwise "
            f"{e['nodes_bitwise']}, particles bitwise {e['particles_bitwise']}, "
            f"gather image bitwise {e['gather_image_bitwise']}",
            f"  sortlast max |diff| {e['sortlast_max_abs_diff']:.3g}, "
            f"{e['sortlast_identical_pixel_frac']:.0%} of pixels bitwise",
        ],
    )
