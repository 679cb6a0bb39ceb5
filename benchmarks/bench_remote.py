"""TXT-REMOTE -- remote visualization over a constrained link.

Paper, sections 1/2.1/2.3: the hybrid representation exists partly so
data can be "efficiently transferred from the computer where it was
generated to a remote computer on a scientist's desk thousands of
miles away"; low thresholds give sizes "appropriate for ... quickly
transferring over a network".

Measured: bytes per frame and transfer time across extraction
thresholds over a throttled localhost link, versus shipping the raw
frame.
"""

import numpy as np
import pytest

from common import record

from repro.remote.client import VisualizationClient
from repro.remote.service import VisualizationService

BANDWIDTH = 20e6  # 20 MB/s "wide-area" link
PERCENTILES = [30, 60, 90]


@pytest.fixture(scope="module")
def server(beam_partitioned):
    with VisualizationService([beam_partitioned], bandwidth_bps=BANDWIDTH) as srv:
        yield srv


def test_remote_fetch(benchmark, server, beam_partitioned):
    thr = float(np.percentile(beam_partitioned.nodes["density"], 60))

    def fetch():
        with VisualizationClient(server.address) as client:
            return client.get_hybrid(0, thr, resolution=24)

    h = benchmark.pedantic(fetch, rounds=3, iterations=1)
    assert h.n_points > 0


def test_remote_report(benchmark, server, beam_partitioned):
    def measure():
        raw_bytes = beam_partitioned.n_particles * 48
        rows = []
        with VisualizationClient(server.address) as client:
            for p in PERCENTILES:
                thr = float(np.percentile(beam_partitioned.nodes["density"], p))
                before_b = client.stats["bytes_received"]
                before_s = client.stats["seconds"]
                h = client.get_hybrid(0, thr, resolution=24)
                rows.append(
                    (
                        p,
                        h.n_points,
                        client.stats["bytes_received"] - before_b,
                        client.stats["seconds"] - before_s,
                    )
                )
        return raw_bytes, rows

    raw_bytes, rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    raw_seconds = raw_bytes / BANDWIDTH
    lines = [
        "paper: compact hybrids make remote exploration practical",
        f"link: {BANDWIDTH / 1e6:.0f} MB/s; raw frame {raw_bytes / 1e6:.1f} MB "
        f"would take {raw_seconds:.1f} s",
        "threshold percentile -> points, wire bytes, transfer time:",
    ]
    for p, n_pts, nbytes, secs in rows:
        lines.append(
            f"  p{p:02d}: {n_pts:7d} pts, {nbytes / 1e6:6.2f} MB, {secs:6.2f} s "
            f"(x{raw_seconds / max(secs, 1e-9):.1f} faster than raw)"
        )
    record("TXT-REMOTE", lines)
    # every hybrid transfer beats shipping the raw frame
    for _, _, nbytes, secs in rows:
        assert nbytes < raw_bytes
    sizes = [r[2] for r in rows]
    assert sizes == sorted(sizes), "higher threshold, more bytes"
