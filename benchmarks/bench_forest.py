"""PERF -- forest-of-octrees partition, extracted and rendered as one frame.

Two measurements for the distributed forest pipeline
(``repro.octree.forest``):

* *throughput*: a 10^8-particle synthetic beam (4.8 GB of raw float64,
  scaled by ``REPRO_SCALE``) is written as a sharded store and
  forest-partitioned (bricks=2) at workers = 1, 2, and 4; the recorded
  particles/s quantify the near-linear worker speedup the brick fan-out
  enables.  The machine's ``cpu_count`` is recorded alongside -- the
  speedup floor is only meaningful with >= 4 cores, and the gate
  (``scripts/check.sh --gate forest``) skips it otherwise.  The last
  forest is then rendered out of core (``render_forest``: one extract
  of the forest, one render) in a **subprocess**, whose ``VmHWM`` is the
  render's own peak RSS.
* *equivalence*: at 10^6 particles ``render_forest`` must reproduce
  the in-core single octree: the forest's nodes and particle file
  bitwise, its halo points bitwise, and its volume and image within one
  float32 ULP, flat and adaptive (the ULP rows are the larger of the
  two), as ``bench_sharded_store.py`` checks the streamed store.

Writes ``BENCH_forest.json``; ``scripts/check.sh --gate forest`` gates
on the recorded flags.
"""

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

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


# Runs in a fresh interpreter: open the forest, render it at the 20th
# percentile, and report the time and the interpreter's own peak RSS
# (VmHWM, reset at exec) as JSON on stdout.
_CHILD = r"""
import json, sys, time
import numpy as np
from repro.core.trace import gauge_peak_rss
from repro.hybrid.renderer import HybridRenderer
from repro.octree.forest import ForestStore, render_forest
from repro.render.camera import Camera

forest = ForestStore.open(sys.argv[1])
t0 = time.perf_counter()
fb = render_forest(
    forest,
    camera=Camera.fit_bounds(forest.lo, forest.hi, width=160, height=160),
    renderer=HybridRenderer(n_slices=24, point_batch_size=500_000),
    threshold_percentile=20.0, volume_resolution=64,
)
t_render = time.perf_counter() - t0
threshold = float(np.percentile(forest.nodes["density"], 20.0))
print(json.dumps({
    "t_render_s": t_render,
    "peak_rss_bytes": int(gauge_peak_rss()),
    "n_points": int(forest.density_cutoff_index(threshold)),
    "image_sum": float(fb.rgba.sum()),
    "image_nonzero": bool(np.any(fb.rgba[..., 3] > 0.0)),
}))
"""


def _render_child(forest_dir) -> dict:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    old = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, str(forest_dir)],
        capture_output=True, text=True, env=env, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"render child failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _max_ulp(a, b) -> int:
    """Largest distance in float32 units in the last place."""
    a = np.asarray(a, dtype=np.float32).view(np.int32).astype(np.int64)
    b = np.asarray(b, dtype=np.float32).view(np.int32).astype(np.int64)
    return int(np.max(np.abs(a - b))) if a.size else 0


def _equivalence(tmp) -> dict:
    """The forest against the in-core single octree: bitwise partition
    and halo, volume and image within one ULP, flat and adaptive."""
    particles = np.concatenate(list(_beam_blocks(N_PARTICLES_EQ, seed=3)))
    pf = partition(as_dataset(particles), "xyz", max_level=6, capacity=64)
    forest = partition_forest(
        particles, tmp / "eq_forest", "xyz", bricks=2, max_level=6, capacity=64
    )
    frame = forest.to_partitioned_frame()
    threshold = float(np.percentile(pf.nodes["density"], 60))
    camera = Camera.fit_bounds(pf.lo, pf.hi, width=128, height=128)
    points_bitwise, volume_ulp, image_ulp = True, 0, 0
    for adaptive in (False, True):
        single = extract(pf, threshold, volume_resolution=48, adaptive=adaptive)
        ours = extract(forest, threshold, volume_resolution=48, adaptive=adaptive)
        points_bitwise &= bool(
            np.array_equal(single.points, ours.points)
            and np.array_equal(single.point_densities, ours.point_densities)
        )
        volume_ulp = max(volume_ulp, _max_ulp(single.volume, ours.volume))
        if adaptive:
            volume_ulp = max(
                volume_ulp, _max_ulp(single.meta["amr"].data, ours.meta["amr"].data)
            )
        image = render_forest(
            forest, camera=camera, renderer=HybridRenderer(n_slices=24),
            threshold=threshold, volume_resolution=48, adaptive=adaptive,
        )
        reference = HybridRenderer(n_slices=24).render(single, camera=camera)
        image_ulp = max(image_ulp, _max_ulp(reference.rgba, image.rgba))
    return {
        "n_particles": int(N_PARTICLES_EQ),
        "nodes_bitwise": bool(np.array_equal(frame.nodes, pf.nodes)),
        "particles_bitwise": bool(np.array_equal(frame.particles, pf.particles)),
        "points_bitwise": points_bitwise,
        "volume_max_ulp": volume_ulp,
        "image_max_ulp": image_ulp,
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

        # -- out-of-core render of the full forest, in a subprocess -------
        child = _render_child(forest.directory)
        results["render"] = {
            "t_render_s": child["t_render_s"],
            "peak_rss_mb": child["peak_rss_bytes"] / 1e6,
            "n_bricks": len(forest.brick_ids),
            "n_points": child["n_points"],
            "image_sum": child["image_sum"],
            "image_nonzero": child["image_nonzero"],
        }

        # -- equivalence: forest == single octree --------------------------
        results["equivalence"] = _equivalence(tmp)

    tracer = traced_run(measure)
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
            f"peak RSS {r['peak_rss_mb']:.0f} MB",
            f"equivalence at {e['n_particles']} particles: nodes bitwise "
            f"{e['nodes_bitwise']}, particles bitwise {e['particles_bitwise']}, "
            f"points bitwise {e['points_bitwise']}",
            f"  volume max ULP {e['volume_max_ulp']}, "
            f"image max ULP {e['image_max_ulp']}",
        ],
    )
