"""service -- the multi-tenant service under a 1000-client chaos load.

The acceptance run for the asyncio rebuild of the remote server: a
seeded fleet of ``REPRO_SERVICE_CLIENTS`` (default 1000) concurrent
clients, 5% of them misbehaving (slowloris / mid-reply disconnect /
corrupt stream / request flood), hammering a 10-frame hot set.  The
contract: the service survives, every well-behaved client is served or
explicitly shed with BUSY, queues stay bounded, and the coalescing
cache turns the hot set into a >0.5 hit rate.  The structured result
lands in ``BENCH_service.json`` and is enforced by
``scripts/check.sh --gate service``.
"""

import os

import numpy as np
import pytest

from common import record, record_bench, traced_run

from repro.core.dataset import as_dataset
from repro.octree.partition import partition
from repro.remote.client import VisualizationClient
from repro.remote.loadgen import ChaosSchedule, run_fleet
from repro.remote.service import VisualizationService

N_CLIENTS = int(os.environ.get("REPRO_SERVICE_CLIENTS", "1000"))
FAULT_FRACTION = 0.05
HOT_FRAMES = 10
REQUESTS_PER_CLIENT = 3
RESOLUTION = 8


@pytest.fixture(scope="module")
def hot_frames():
    """The 10-frame hot set every client draws from."""
    rng = np.random.default_rng(42)
    out = []
    for step in range(HOT_FRAMES):
        p = rng.normal(0, 0.5, (2000, 6))
        out.append(
            partition(as_dataset(p), "xyz", max_level=4, capacity=64, step=step)
        )
    return out


def test_service_chaos_load(benchmark, hot_frames):
    thr = float(np.percentile(hot_frames[0].nodes["density"], 60))
    schedule = ChaosSchedule(
        threshold=thr,
        seed=2002,
        n_clients=N_CLIENTS,
        fault_fraction=FAULT_FRACTION,
        requests_per_client=REQUESTS_PER_CLIENT,
        hot_frames=HOT_FRAMES,
        resolution=RESOLUTION,
        ramp_s=min(2.0, N_CLIENTS / 500),
        slowloris_bytes=3,
        slowloris_gap_s=0.1,
    )
    result = {}

    def run():
        with VisualizationService(
            hot_frames,
            max_sessions=2048,
            queue_depth=8,
            session_timeout=5.0,
            request_timeout=30.0,
        ) as service:
            report = run_fleet(service.address, schedule)
            # the service must still answer a fresh session afterwards
            with VisualizationClient(service.address) as probe:
                alive = probe.list_frames() == list(range(HOT_FRAMES))
            result["report"] = report
            result["snapshot"] = service.stats_snapshot()
            result["alive"] = alive

    tracer = traced_run(lambda: benchmark.pedantic(run, rounds=1, iterations=1))

    report = result["report"]
    snap = result["snapshot"]
    summary = report.summary()
    lines = [
        "paper: one data-side server, many remote analysts; production",
        "needs multi-tenancy -- admission control, shedding, coalescing",
        f"workload: {N_CLIENTS} concurrent clients ({FAULT_FRACTION:.0%} chaos),"
        f" {REQUESTS_PER_CLIENT} requests each over a {HOT_FRAMES}-frame hot set",
        f"well-behaved {report.well_behaved}: served {report.served}, "
        f"shed {report.shed}, failed {report.failed}",
        f"requests {snap['requests']}: extractions {snap['extractions']}, "
        f"cache hits {snap['cache_hits']}, coalesced {snap['coalesced']}",
        f"cache hit rate {snap['cache_hit_rate']:.3f} on the hot set",
        f"served-request latency p50 {summary['p50_s'] * 1e3:.1f} ms, "
        f"p99 {summary['p99_s'] * 1e3:.1f} ms",
        f"defenses tripped: timeouts {snap['timeouts']}, protocol errors "
        f"{snap['protocol_errors']}, shed requests {snap['shed_requests']}, "
        f"sessions shed {snap['sessions_shed']}",
        f"server alive after the fleet: {result['alive']}",
    ]
    record("TXT-SERVICE", lines)
    record_bench(
        "service",
        tracer,
        extra={
            "n_clients": N_CLIENTS,
            "fault_fraction": FAULT_FRACTION,
            "hot_frames": HOT_FRAMES,
            "requests_per_client": REQUESTS_PER_CLIENT,
            "fleet": summary,
            "service": {
                k: snap[k]
                for k in (
                    "sessions_total", "sessions_shed", "requests", "served",
                    "shed_requests", "extractions", "extraction_errors",
                    "cache_hits", "cache_misses", "coalesced",
                    "cache_hit_rate", "quarantined", "timeouts",
                    "protocol_errors", "handler_errors", "queue_depth",
                    "bytes_sent", "p50_ms", "p99_ms",
                )
            },
            "alive": result["alive"],
        },
    )
