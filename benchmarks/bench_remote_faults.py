"""remote_faults -- remote fetch throughput under injected faults.

The paper's remote scenario assumes a long unreliable link; this bench
quantifies what the resilience layer costs: hybrid-frame fetch
throughput with 0% / 5% / 20% of received chunks corrupted by a seeded
:class:`repro.core.faults.FaultPlan`, including the retries and
reconnects the damage triggers.  The service caches encoded replies,
so only the first fetch pays an extraction and every repeat is a cache
hit: the rates compare wire-level resilience cost, not extraction.
The structured result (trace counters plus per-rate throughput) lands
in ``BENCH_remote_faults.json``; ``scripts/check.sh --gate faults``
holds every rate delivering, the clean path free of retries and the
damaged one retrying.
"""

import numpy as np
import pytest

from common import record, record_bench, traced_run

from repro.core.faults import FaultPlan
from repro.remote.client import VisualizationClient
from repro.remote.service import VisualizationService

FAULT_RATES = [0.0, 0.05, 0.20]
FETCHES_PER_RATE = 6
RESOLUTION = 16


def test_fetch_throughput_under_faults(benchmark, beam_partitioned):
    thr = float(np.percentile(beam_partitioned.nodes["density"], 60))
    rows = []

    def run():
        rows.clear()
        with VisualizationService([beam_partitioned]) as server:
            for rate in FAULT_RATES:
                plan = FaultPlan(seed=17, corrupt=rate)
                with VisualizationClient(
                    server.address, fault_plan=plan,
                    timeout=2.0, retries=20, backoff=0.001, backoff_max=0.02,
                ) as client:
                    for _ in range(FETCHES_PER_RATE):
                        client.get_hybrid(0, thr, resolution=RESOLUTION)
                    rows.append(
                        {
                            "rate": rate,
                            "bps": client.throughput_bps(),
                            "bytes": client.stats["bytes_received"],
                            "seconds": client.stats["seconds"],
                            "retries": client.stats["retries"],
                            "reconnects": client.stats["reconnects"],
                            "injected": dict(plan.injected),
                        }
                    )

    tracer = traced_run(lambda: benchmark.pedantic(run, rounds=1, iterations=1))

    clean = rows[0]
    lines = [
        "paper: remote links are long and unreliable; resilience must not",
        "cost the clean path and must keep the damaged path delivering",
        f"workload: {FETCHES_PER_RATE} fetches of a {RESOLUTION}^3 hybrid per rate",
        "corrupt rate -> throughput, retries, reconnects:",
    ]
    for r in rows:
        lines.append(
            f"  {r['rate']:4.0%}: {r['bps'] / 1e6:7.2f} MB/s, "
            f"{r['retries']:3d} retries, {r['reconnects']:3d} reconnects "
            f"(x{clean['bps'] / max(r['bps'], 1e-9):.1f} slower than clean)"
        )
    record("TXT-REMOTE-FAULTS", lines)
    record_bench("remote_faults", tracer, extra={"rates": rows})
