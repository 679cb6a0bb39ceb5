"""Bench gates: one table of rows over the ``BENCH_*.json`` files, one loop.

``python scripts/perf_gate.py NAME`` (what ``scripts/check.sh --gate NAME``
runs) runs gate NAME: its pytest suites, then its bench, which rewrites
its ``BENCH_*.json``, then every row of its table entry against that
file, with the version committed at HEAD as the baseline.  Each row is
printed as ``ok``, ``FAIL`` or ``skip``; the exit status is 1 if any
row failed.  An unknown NAME lists the gates and exits 2.

A row reads the value at a dotted path into the file's ``extra`` block
(a number indexes a list; ``field=value`` picks the list element whose
field matches) and checks it one way:

- ``flag``: the value is true;
- ``<``, ``<=``, ``>``, ``>=``, ``==`` a constant, or ``in`` a closed range;
- ``drift``: at least ``1 - TOLERANCE`` times the baseline's value
  (``drift-``, for a value where lower is better: at most ``1 + TOLERANCE``
  times it);
- ``digest``: equal to the baseline's value;
- any other string is a predicate over the fields of the block at the
  path, for a row that compares fields with each other.

The drift rows gate ratios, not absolute times, so they hold across
machines of different speed.  A guard turns a row into a printed skip:
``same`` names a field that must equal the baseline's (a drift across
workload sizes or core counts means nothing), ``cpus`` the least
``cpu_count`` the bench must have run on (a 4-worker speedup floor is
unreachable on fewer cores), and drift and digest rows skip when HEAD
holds no baseline.
"""

from __future__ import annotations

import json
import operator
import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TOLERANCE = 0.20
OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge, "==": operator.eq}


class Row(NamedTuple):
    path: str
    check: str = "flag"
    limit: object = None
    same: str | None = None
    cpus: int = 0


class Gate(NamedTuple):
    about: str
    suites: str  # pytest targets, space-separated
    bench: str
    file: str
    rows: list
    env: dict | None = None  # bench environment defaults; the caller's values win


GATES = {
    "faults": Gate(
        "resilience: fault harness, crash-safe executors, checkpoint resume, damaged remote links",
        "tests/core/test_faults.py tests/core/test_checkpoint.py tests/core/test_checked_files.py "
        "tests/remote/test_faults_remote.py tests/remote/test_protocol.py tests/test_robustness.py",
        "benchmarks/bench_remote_faults.py",
        "BENCH_remote_faults.json",
        [
            Row("", "all(r['bytes'] > 0 for r in rates)"),  # every rate delivered every frame
            Row("rates.0.retries", "==", 0),  # the clean path pays nothing
            Row("rates.0.reconnects", "==", 0),
            # a damaged link is slower, not broken
            Row("", "rates[-1]['retries'] >= 1 or rates[-1]['injected'] == {}"),
        ],
    ),
    "perf": Gate(
        "hot paths: frame-cache, batched-seeding and space-charge speedups, cached frame bitwise",
        # the seeding reference and the lockstep tracer, and the compositor,
        # point-fold and slice-geometry references: the bench renders through
        # the one-pass fold and builds geometry over the occupied box
        "tests/fieldlines/ tests/render/test_composite_reference.py "
        "tests/render/test_point_fold.py tests/beams/test_cic_reference.py",
        "benchmarks/bench_frame_cache.py",
        "BENCH_frame_cache.json",
        [
            Row("frame.bit_identical"),
            Row("frame.warm_speedup", ">=", 3.0),
            Row("spacecharge.run_speedup", ">=", 2.0),
            Row("seeding.batched.batch_size=8.speedup", ">", 1.2),
            Row("frame.warm_speedup", "drift"),
            Row("spacecharge.run_speedup", "drift"),
            Row("spacecharge.solve_speedup", "drift"),
            Row("seeding.batched.batch_size=8.speedup", "drift"),
        ],
    ),
    "store": Gate(
        "out of core: a 10^7-particle streamed pipeline in under half its raw size, == in-core",
        # the partition reference: the bench partitions through the same plan;
        # the LOD and stream suites read the stored density volume
        "tests/core/test_store.py tests/core/test_dataset.py tests/core/test_checkpoint.py "
        "tests/core/test_checked_files.py "
        "tests/octree/test_format.py tests/octree/test_disk_extraction.py "
        "tests/octree/test_stream_partition.py tests/octree/test_partition_reference.py "
        "tests/octree/test_lod.py tests/remote/test_progressive.py "
        "tests/render/test_fragment_batches.py tests/test_deprecations.py",
        "benchmarks/bench_sharded_store.py",
        "BENCH_sharded_store.json",
        [
            Row("store.rss_fraction", "<", 0.5),
            Row("equivalence.nodes_bitwise"),
            Row("equivalence.particles_bitwise"),
            Row("equivalence.points_bitwise"),
            Row("equivalence.volume_max_ulp", "<=", 1),
            Row("equivalence.image_max_ulp", "<=", 1),
            Row("store.rss_fraction", "drift-"),
        ],
    ),
    "forest": Gate(
        "forest: 10^8-particle 4-worker partition speedup, forest render == single octree",
        # the forest renders through the same compositor, memos and slice
        # geometry, and every brick tree is built by the same plan as the
        # partition reference
        "tests/octree/test_forest.py tests/octree/test_partition_reference.py "
        "tests/render/test_composite_reference.py tests/beams/test_cic_reference.py "
        "tests/render/test_point_fold.py tests/render/test_render_memos.py "
        "tests/test_public_api.py",
        "benchmarks/bench_forest.py",
        "BENCH_forest.json",
        [
            Row("equivalence.nodes_bitwise"),
            Row("equivalence.particles_bitwise"),
            Row("equivalence.points_bitwise"),
            Row("equivalence.volume_max_ulp", "<=", 1),
            Row("equivalence.image_max_ulp", "<=", 1),
            Row("partition.speedup_4", ">=", 2.5, cpus=4),
            Row("partition.speedup_4", "drift", same="cpu_count", cpus=4),
            Row("render.image_nonzero"),
        ],
    ),
    "service": Gate(
        "multi-tenant service: a 150-client chaos fleet served or shed, hot-set hit rate, no leaks",
        "tests/remote/test_protocol.py tests/remote/test_service.py "
        "tests/remote/test_service_load.py tests/remote/test_server_edges.py "
        "tests/test_public_api.py",
        "benchmarks/bench_service.py",
        "BENCH_service.json",
        [
            Row("alive"),
            Row("fleet.failed", "==", 0),
            Row("fleet", "served + shed == well_behaved"),
            Row("service.cache_hit_rate", ">", 0.5),
            Row("service.queue_depth", "==", 0),
            Row("service.extraction_errors", "==", 0),
            Row("fleet.p99_s", "<=", 10.0),  # seconds; generous for slow machines
            Row("service.cache_hit_rate", "drift"),
        ],
        # the committed baseline is the full 1000-client run
        {"REPRO_SERVICE_CLIENTS": "150"},
    ),
    "lod": Gate(
        "progressive streaming: time to first image vs a flat fetch, valid prefixes, exact end",
        "tests/octree/test_lod.py tests/remote/test_progressive.py "
        "tests/remote/test_stream_assembly_reference.py "
        "tests/remote/test_control_loops.py tests/remote/test_protocol.py tests/test_public_api.py",
        "benchmarks/bench_lod.py",
        "BENCH_lod.json",
        [
            Row("ttfi_speedup", ">=", 4.0),
            Row("prefix_valid"),
            Row("final_bitwise"),
            Row("converged_s", ">", 0.0),
            Row("ttfi_speedup", "drift", same="n_particles"),
        ],
        # the committed baseline is the full 10^7 run
        {"REPRO_LOD_PARTICLES": "2000000"},
    ),
    "amr": Gate(
        "adaptive volume: deposit speed, beam-core detail at equal bytes, flat pins, splat batches",
        "tests/octree/test_amr.py tests/render/test_splat.py tests/render/test_frame_cache.py "
        "tests/render/test_fragment_batches.py tests/render/test_composite_reference.py "
        "tests/render/test_point_fold.py tests/render/test_render_memos.py "
        "tests/test_public_api.py",
        "benchmarks/bench_amr.py",
        "BENCH_amr.json",
        [
            Row("deposit.speedup", ">=", 1.5),
            Row("detail.bytes_ratio", "in", (0.95, 1.05)),
            Row("detail", "amr_core_nonzero > flat_core_nonzero"),
            Row("flat_bitwise.alongside_bitwise"),
            Row("splat.batched_bitwise"),
            Row("splat.render_batched_bitwise"),
            Row("flat_bitwise.volume_sha256", "digest", same="n_particles"),
            Row("flat_bitwise.image_sha256", "digest", same="n_particles"),
            Row("deposit.speedup", "drift", same="n_particles"),
        ],
    ),
    "scenarios": Gate(
        "digital twin: feedback in budget, a 16-member sweep surviving a worker kill, resume",
        "tests/beams/test_scenario.py tests/beams/test_feedback.py tests/beams/test_sweep.py "
        "tests/test_deprecations.py tests/test_public_api.py",
        "benchmarks/bench_scenarios.py",
        "BENCH_scenarios.json",
        [
            Row("feedback.within_budget"),
            Row("feedback", "final_error <= 2.0 * deadband"),
            Row("sweep", "members_ok == n_members == 16"),
            Row("sweep", "crash_injected and pool_breaks >= 1"),
            Row("sweep", "resumed == n_members == 16"),
            Row("render.renderable"),
            Row("render.deterministic"),
            Row("sweep.members_per_s", "drift", same="cpu_count"),
        ],
    ),
}


def lookup(doc, path: str):
    """The value at a dotted ``path`` into ``doc`` (``""`` is ``doc``)."""
    for step in path.split(".") if path else ():
        if "=" in step:
            field, want = step.split("=")
            doc = next(item for item in doc if str(item[field]) == want)
        else:
            doc = doc[int(step)] if isinstance(doc, list) else doc[step]
    return doc


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return value[:12] + "..." if isinstance(value, str) and len(value) > 15 else str(value)


def verdict(row: Row, fresh: dict, base: dict | None) -> tuple[str, str]:
    """``("ok" | "FAIL" | "skip", what was compared)`` for one row."""
    now, check, limit, note = lookup(fresh, row.path), row.check, row.limit, ""
    what = f"{row.path} {check}" + ("" if limit is None else f" {limit}")
    cpus = int(fresh.get("cpu_count", 1))
    if cpus < row.cpus:
        return "skip", f"{what}: bench ran on {cpus} cpu(s), needs {row.cpus}"
    if check in ("drift", "drift-", "digest"):
        if base is None:
            return "skip", f"{what}: no committed baseline"
        if row.same and fresh.get(row.same) != base.get(row.same):
            return "skip", f"{what}: {row.same} {fresh.get(row.same)} vs {base.get(row.same)}"
        was = lookup(base, row.path)
        if check == "digest":
            check, limit, note = "==", was, " (baseline)"
        else:
            factor = 1.0 - TOLERANCE if check == "drift" else 1.0 + TOLERANCE
            check, limit = (">=" if check == "drift" else "<="), factor * was
            note = f" ({factor:g} x baseline {_fmt(was)})"
    if check == "flag":
        ok, shown = bool(now), row.path
    elif check == "in":
        ok, shown = limit[0] <= now <= limit[1], f"{row.path} {_fmt(now)} in {list(limit)}"
    elif check in OPS:
        ok, shown = OPS[check](now, limit), f"{row.path} {_fmt(now)} {check} {_fmt(limit)}{note}"
    else:  # a predicate written in the table above, over the fields of the block
        ok, shown = eval(check, dict(now)), f"{row.path}: {check}" if row.path else check
    return ("ok" if ok else "FAIL"), shown


def evaluate(name: str, fresh: dict, base: dict | None) -> int:
    """Print every row of gate ``name``; 1 if any failed, else 0."""
    failed = 0
    for row in GATES[name].rows:
        status, text = verdict(row, fresh, base)
        print(f"  {status:<4} {text}")
        failed += status == "FAIL"
    print(f"perf gate {name}: {failed} of {len(GATES[name].rows)} rows failed")
    return 1 if failed else 0


def run(name: str) -> int:
    """Gate ``name`` end to end: suites, bench, then its rows."""
    gate = GATES[name]
    env = dict(os.environ, PYTHONPATH="src")
    steps = [
        ("suites", ["-x", "-q", *gate.suites.split()], env),
        ("bench", ["-q", gate.bench], {**(gate.env or {}), **env}),
    ]
    for what, args, step_env in steps:
        print(f"== {name} {what} ==", flush=True)
        code = subprocess.call([sys.executable, "-m", "pytest", *args], cwd=ROOT, env=step_env)
        if code:
            return code
    print(f"== {name} gate: {gate.file} ==", flush=True)
    fresh = json.loads((ROOT / gate.file).read_text())["extra"]
    head = subprocess.run(
        ["git", "show", f"HEAD:{gate.file}"], cwd=ROOT, capture_output=True, text=True
    )
    base = json.loads(head.stdout)["extra"] if head.returncode == 0 else None
    return evaluate(name, fresh, base)


def main(argv: list[str]) -> int:
    name = argv[0] if argv else ""
    if name not in GATES:
        print(f"perf gate: unknown gate {name!r}; the gates are:", file=sys.stderr)
        for key, gate in GATES.items():
            print(f"  {key:<10} {gate.about}", file=sys.stderr)
        return 2
    return run(name)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
