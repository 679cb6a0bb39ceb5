"""PERF -- the out-of-core sharded store vs the in-core pipeline.

Two measurements for the streaming hybrid pipeline introduced with
``repro.core.store`` / ``repro.octree.stream_partition``:

* *rss*: a 10^7-particle synthetic beam (480 MB of raw float64, scaled
  by ``REPRO_SCALE``) is written as a sharded store and pushed through
  the full hybrid pipeline -- two-pass streamed partition, shard-wise
  extraction, batched point rendering -- in a **subprocess**, whose
  ``VmHWM`` (reset at exec, unlike ``ru_maxrss`` which inherits the
  parent's fork-time pages) is the honest peak-RSS of the whole run.  The
  acceptance floor is peak RSS below *half* the raw dataset size; the
  in-core path needs several multiples of it.
* *equivalence*: at 10^5 particles the same frame runs both pipelines
  end to end; halo points and node tables must match bit for bit and
  the rendered images within 1 ULP per float32 channel.

Writes ``BENCH_sharded_store.json``; ``scripts/check.sh --gate store``
gates on the recorded fraction and flags.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from common import record, record_bench, scaled, traced_run

from repro.core.store import create_store
from repro.hybrid.renderer import HybridRenderer
from repro.octree.extraction import extract
from repro.octree.partition import partition
from repro.octree.stream_partition import partition_store
from repro.render.camera import Camera

N_PARTICLES_RSS = scaled(10_000_000)
N_PARTICLES_EQ = scaled(100_000)
SHARD_ROWS = 262_144
GEN_BLOCK = 1_000_000


def _beam_blocks(n, seed=12, block=GEN_BLOCK):
    """Yield a dense-core + sparse-halo beam frame block by block, so
    the parent never holds the 10^7-row array."""
    rng = np.random.default_rng(seed)
    remaining = n
    while remaining > 0:
        m = min(block, remaining)
        rows = rng.normal(0.0, 0.3, (m, 6))
        n_halo = m // 16
        rows[:n_halo] = rng.normal(0.0, 2.0, (n_halo, 6))
        yield rows
        remaining -= m


# Runs in a fresh interpreter: store -> streamed partition -> extract ->
# batched render, then reports its own peak RSS as JSON on stdout.
_CHILD = r"""
import json, sys
import numpy as np
from repro.core.dataset import open_dataset
from repro.core.trace import capture, gauge_peak_rss
from repro.hybrid.renderer import HybridRenderer
from repro.octree.extraction import extract
from repro.octree.stream_partition import partition_store
from repro.render.camera import Camera

store_dir, out_dir, res = sys.argv[1], sys.argv[2], int(sys.argv[3])
with capture(enabled=True) as tracer:
    ps = partition_store(
        open_dataset(store_dir), out_dir, "xyz", max_level=6, capacity=4096
    )
    threshold = float(np.percentile(ps.nodes["density"], 20))
    hybrid = extract(ps, threshold, volume_resolution=res)
    camera = Camera.fit_bounds(hybrid.lo, hybrid.hi, width=160, height=160)
    fb = HybridRenderer(n_slices=24, point_batch_size=500_000).render(
        hybrid, camera=camera
    )
# VmHWM via gauge_peak_rss: ru_maxrss would carry the fat parent's
# copy-on-write pages across fork() and overstate this child's peak.
print(json.dumps({
    "peak_rss_bytes": int(gauge_peak_rss()),
    "n_points": int(hybrid.n_points),
    "n_nodes": int(ps.n_nodes),
    "image_sum": float(fb.rgba.sum()),
}))
"""


def _run_child(store_dir, out_dir, res=64) -> dict:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    old = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, str(store_dir), str(out_dir), str(res)],
        capture_output=True, text=True, env=env, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"pipeline child failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _equivalence(tmp, n) -> dict:
    """Both pipelines end to end on one frame; bitwise/1-ULP checks."""
    particles = np.concatenate(list(_beam_blocks(n, seed=3)))
    from repro.core.dataset import as_dataset

    pf = partition(as_dataset(particles), "xyz", max_level=6, capacity=64)
    store = create_store(tmp / "eq_store", particles, shard_rows=16_384)
    ps = partition_store(store, tmp / "eq_part", "xyz", max_level=6, capacity=64)

    threshold = float(np.percentile(pf.nodes["density"], 60))
    a = extract(pf, threshold, volume_resolution=48)
    b = extract(ps, threshold, volume_resolution=48)
    camera = Camera.fit_bounds(a.lo, a.hi, width=192, height=192)
    img_a = HybridRenderer(n_slices=48).render(a, camera=camera)
    img_b = HybridRenderer(n_slices=48, point_batch_size=10_000).render(
        b, camera=camera
    )
    vol_ulp = int(
        np.max(
            np.abs(
                a.volume.view(np.int32).astype(np.int64)
                - b.volume.view(np.int32).astype(np.int64)
            )
        )
    )
    img_ulp = int(
        np.max(
            np.abs(
                img_a.rgba.astype(np.float32).view(np.int32).astype(np.int64)
                - img_b.rgba.astype(np.float32).view(np.int32).astype(np.int64)
            )
        )
    )
    return {
        "n_particles": int(n),
        "nodes_bitwise": bool(np.array_equal(pf.nodes, ps.nodes)),
        "particles_bitwise": bool(
            np.array_equal(pf.particles, ps.store.to_array())
        ),
        "points_bitwise": bool(np.array_equal(a.points, b.points)),
        "volume_max_ulp": vol_ulp,
        "image_max_ulp": img_ulp,
    }


def test_sharded_store_report(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("sharded_store")
    results = {}

    def measure():
        # -- rss: the full pipeline in a measured subprocess ------------
        raw_bytes = N_PARTICLES_RSS * 48
        t0 = time.perf_counter()
        store = create_store(
            tmp / "store", _beam_blocks(N_PARTICLES_RSS), shard_rows=SHARD_ROWS
        )
        t_store = time.perf_counter() - t0
        t0 = time.perf_counter()
        child = _run_child(tmp / "store", tmp / "part")
        t_pipeline = time.perf_counter() - t0
        results["store"] = {
            "n_particles": int(N_PARTICLES_RSS),
            "raw_mb": raw_bytes / 1e6,
            "n_shards": int(store.n_shards),
            "t_store_s": t_store,
            "t_pipeline_s": t_pipeline,
            "peak_rss_mb": child["peak_rss_bytes"] / 1e6,
            "rss_fraction": child["peak_rss_bytes"] / raw_bytes,
            "n_points": child["n_points"],
            "n_nodes": child["n_nodes"],
        }

        # -- equivalence: streamed == in-core ---------------------------
        results["equivalence"] = _equivalence(tmp, N_PARTICLES_EQ)

    tracer = traced_run(measure)
    record_bench("sharded_store", tracer, extra=results)

    s, e = results["store"], results["equivalence"]
    record(
        "PERF-SHARDED-STORE",
        [
            f"rss: {s['n_particles']} particles ({s['raw_mb']:.0f} MB raw), "
            f"{s['n_shards']} shards:",
            f"  store build {s['t_store_s']:.1f} s, full streamed pipeline "
            f"{s['t_pipeline_s']:.1f} s",
            f"  peak RSS {s['peak_rss_mb']:.0f} MB = {s['rss_fraction']:.2f} of raw",
            f"equivalence at {e['n_particles']} particles: nodes bitwise "
            f"{e['nodes_bitwise']}, particles bitwise {e['particles_bitwise']}, "
            f"points bitwise {e['points_bitwise']}",
            f"  volume max ULP {e['volume_max_ulp']}, "
            f"image max ULP {e['image_max_ulp']}",
        ],
    )
