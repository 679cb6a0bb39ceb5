"""Small-size runs of the four pipeline workloads.

Each workload runs twice with the same seed and a fixed number of
rounds, once untraced and once traced.  Both runs must pass their
output checks, do exactly the same work (octree nodes, points
extracted, lines seeded, service cache hits and misses), emit every
metric ``BENCHMARK.json`` lists with its unit, and the traced run's
layer spans must cover at least 95 % of its timed window.

Run with ``PYTHONPATH=src python -m pytest benchmarks/pipeline -q``.
"""

import json

import pytest

import run
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

SMALL = {
    "beam_sc": {
        "n_particles": 3000, "n_cells": 4, "max_level": 5, "capacity": 32,
        "resolution": 16, "image": 48, "slices": 8,
    },
    "store_orbit": {
        "n_particles": 20_000, "shard_rows": 4096, "capacity": 256,
        "percentiles": [50, 80], "views": 2, "resolution": 16, "image": 48, "slices": 8,
    },
    "field_sos": {
        "n_cells": 3, "n_xy": 4, "n_z_per_unit": 4, "cells_per_unit": 6,
        "lines": 8, "max_steps": 60, "views": 2, "image": 48,
    },
    "remote_explore": {
        "n_particles": 20_000, "capacity": 256, "mip_base": 16,
        "hot_percentiles": [50, 70], "hot_resolutions": [8, 16], "fresh_resolution": 8,
        "check_every": 10, "stream_check_every": 2,
    },
}
ROUNDS = {"beam_sc": 3, "store_orbit": 1, "field_sos": 2, "remote_explore": 20}


def test_sizes_cover_every_workload():
    assert sorted(SMALL) == sorted(w["name"] for w in SPEC["workloads"])
    assert sorted(workloads.WORKLOADS) == sorted(SMALL)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_workload(name, tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "SETUP_MIN_SECONDS", 0.0)
    runs = [
        workloads.run(
            name, seed=5, seconds=120.0, workdir=tmp_path / f"w{trace}",
            sizes=SMALL[name], trace=trace, max_rounds=ROUNDS[name],
        )
        for trace in (False, True)
    ]
    untraced, traced = runs
    for res in runs:
        assert res["failed"] == 0, res["errors"]
        assert res["attempted"] >= ROUNDS[name]
    assert untraced["counts"] == traced["counts"]
    assert any(untraced["counts"].values())

    run.add_trace_overhead(traced, untraced["metrics"]["ops_per_s"])
    for res, is_traced, group in ((untraced, False, "end_to_end"), (traced, True, "per_layer")):
        line = run.summary(res, SPEC, is_traced)
        assert line["correct"] and line["failed"] == 0
        assert [(k, v["unit"]) for k, v in line["metrics"].items()] == [
            (m["name"], m["unit"]) for m in SPEC[group]
        ]
    assert all(untraced["metrics"][m["name"]] > 0 for m in SPEC["end_to_end"])
    assert traced["layers"]["ledger.coverage"] >= 0.95
