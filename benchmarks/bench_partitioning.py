"""TXT-PART -- partitioning cost and scaling.

Paper, section 2.3: "The partitioning program takes about 7 minutes
per time step for the 100 million particle simulation.  Since it is
primarily I/O bound, processing time scales linearly as the number of
points increases."  It can also run on multiple nodes.

Measured: partition time across a size sweep (fit the scaling
exponent; the paper says linear) and the extrapolation of our
per-particle rate to 100 M particles next to the paper's 7 minutes.
The multi-node mode is benchmarked by ``bench_forest.py`` and
``bench_sharded_store.py``.
"""

import time

import numpy as np
import pytest

from common import record, record_bench, scaled, traced_run

from repro.core.dataset import as_dataset
from repro.octree.partition import partition


def _bunch(n, seed=0):
    rng = np.random.default_rng(seed)
    core = rng.normal(0.0, 0.3, (int(n * 0.95), 6))
    halo = rng.normal(0.0, 2.0, (n - len(core), 6))
    return as_dataset(np.vstack([core, halo]))


@pytest.mark.parametrize("n", [scaled(20_000), scaled(40_000), scaled(80_000)])
def test_partition_scaling(benchmark, n):
    particles = _bunch(n)
    benchmark(lambda: partition(particles, "xyz", max_level=6, capacity=48))
    benchmark.extra_info["n_particles"] = n


def test_partition_report(benchmark):
    def measure():
        sizes = [scaled(20_000), scaled(40_000), scaled(80_000), scaled(160_000)]
        times = []
        for n in sizes:
            particles = _bunch(n)
            t0 = time.perf_counter()
            partition(particles, "xyz", max_level=6, capacity=48)
            times.append(time.perf_counter() - t0)
        slope = np.polyfit(np.log(sizes), np.log(times), 1)[0]
        per_particle = times[-1] / sizes[-1]
        return sizes, times, slope, per_particle

    sizes, times, slope, per_particle = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )
    extrap_100m = per_particle * 100e6
    record(
        "TXT-PART",
        [
            "paper: ~7 min / 100 M particles, linear scaling, multi-node option",
            "measured sweep: "
            + ", ".join(f"{n}: {t * 1e3:.0f} ms" for n, t in zip(sizes, times)),
            f"  log-log slope {slope:.2f} (paper: 1.0 = linear)",
            f"  extrapolated 100 M particles: {extrap_100m / 60:.1f} min "
            "(paper: ~7 min incl. disk I/O on a 2002 IBM SP)",
        ],
    )
    assert 0.7 < slope < 1.4, "partitioning must scale ~linearly"


def test_partition_traced_bench():
    """Stage-level partitioning trace persisted as BENCH_partitioning.json."""
    n = scaled(120_000)
    particles = _bunch(n)
    tracer = traced_run(
        lambda: partition(particles, "xyz", max_level=6, capacity=48)
    )
    snap = tracer.snapshot()
    record_bench(
        "partitioning",
        tracer,
        extra={
            "n_particles": n,
            "particles_per_second": n / max(snap["wall_seconds"], 1e-12),
        },
    )
    assert "octree_build" in snap["spans"]
    assert snap["counters"]["particles_routed"] == n
