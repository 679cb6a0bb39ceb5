#!/usr/bin/env bash
# Lint + tier-1 tests, the pre-merge gate.
#
#   scripts/check.sh            # everything
#   scripts/check.sh --no-lint  # tests only
#   scripts/check.sh --faults   # the fault-injection pass only
#   scripts/check.sh --perf     # the field-line suite + perf bench + gate
#   scripts/check.sh --store    # the out-of-core store suite + RAM-cap gate
#   scripts/check.sh --forest   # the forest/compositor suite + forest gate
#   scripts/check.sh --service  # the multi-tenant service suite + chaos gate
#   scripts/check.sh --lod      # the LOD / progressive-streaming suite + gate
#   scripts/check.sh --amr      # the adaptive-AMR / splat suite + AMR gate
#   scripts/check.sh --scenarios # the digital-twin scenario suite + gate
#
# --faults runs the resilience suites (fault harness, crash-safe
# executors, checkpoint/resume, remote link under injected damage)
# plus the fault-rate bench that refreshes BENCH_remote_faults.json.
#
# --perf runs the field-line suites (with the seeding reference: the
# round loop's exact rule against the one-line greedy seeder and the
# lockstep tracer against the scalar one, bit for bit) and the slice
# compositor and point-fold references (the bench renders hybrid frames
# through the one-pass fold), then refreshes BENCH_frame_cache.json
# (frame cache, batched seeding, space-charge kernels) and fails if any
# recorded speedup ratio regressed more than 20% against the baseline
# committed at HEAD (scripts/perf_gate.py).
#
# --store runs the sharded-store / streaming-pipeline suites (with the
# partitioned-store format, the stored density volume and prefix-only
# extraction, checkpoint resume, the LOD and progressive-stream
# suites, whose mip pyramid and stream volume read the stored volume,
# and the partition reference: every partitioner's node table and
# particle file against the recursive octree, byte for byte, since the
# bench partitions through the same plan),
# then the RAM-capped bench (the full 10^7-particle pipeline in a
# measured subprocess) that refreshes BENCH_sharded_store.json, and
# gates on peak RSS < 0.5 of raw plus the streamed-vs-in-core
# equivalence flags (scripts/perf_gate.py --store).
#
# --forest runs the forest-of-octrees + sort-last compositor suites
# (with the slice-compositor and point-fold references and the memo
# suites, since sort-last bricks render through the same compositor,
# and the partition reference, since every brick tree is built by the
# same plan),
# then the 10^8-particle
# forest bench that refreshes BENCH_forest.json, and gates on the
# gather-bitwise / sort-last tolerance flags plus the 4-worker speedup
# floor on machines with >= 4 CPUs (scripts/perf_gate.py --forest).
#
# --service runs the multi-tenant asyncio service suites (byte parity
# with the protocol codecs, coalescing cache, shedding, circuit breaker,
# authenticated shutdown, seeded chaos fleet), then the chaos load
# bench in a reduced smoke configuration (REPRO_SERVICE_CLIENTS=150;
# the committed BENCH_service.json baseline is the full 1000-client
# run) and gates on survival / shedding / cache-hit-rate floors
# (scripts/perf_gate.py --service).
#
# --lod runs the LOD-hierarchy and progressive-streaming suites (the
# store/octree subsample layer, the REFINE/LOD_FRAME wire path, the
# repaired degradation/cache/breaker control loops), then the TTFI
# bench in a reduced smoke configuration (REPRO_LOD_PARTICLES=2000000;
# the committed BENCH_lod.json baseline is the full 10^7 run) and
# gates on the 4x TTFI speedup floor plus the prefix-validity and
# final-bitwise flags (scripts/perf_gate.py --lod).
#
# --amr runs the adaptive-AMR volume and Gaussian-splat suites (brick
# manifest determinism, crash-safe serialization, extended frame-cache
# keys, fragment-batch regressions, the empty-space-skipping compositor
# against its full-sampling reference, the one-pass point fold against
# the per-range folds, the render memos), then the AMR
# bench that refreshes BENCH_amr.json, and gates on the 1.5x
# deposit-speedup floor, the equal-bytes beam-core detail win, the
# flat-path bitwise pins, and batched == serial splatting
# (scripts/perf_gate.py --amr).
#
# --scenarios runs the digital-twin scenario suites (declarative
# specs, closed-loop feedback, ensemble sweeps, the scenario CLI, the
# implicit-lattice deprecation pins), then the acceptance bench (a
# 16-member sweep at workers=4 surviving an injected worker kill, the
# envelope feedback convergence budget, forest/LOD renderability of
# the landed members) that refreshes BENCH_scenarios.json, and gates
# on those flags (scripts/perf_gate.py --scenarios).
#
# ruff is optional: environments without it (the pinned CI image bakes
# only the runtime deps) skip the lint step with a notice instead of
# failing.
set -euo pipefail

cd "$(dirname "$0")/.."

run_lint=1
run_faults=0
run_perf=0
run_store=0
run_forest=0
run_service=0
run_lod=0
run_amr=0
run_scenarios=0
if [[ "${1:-}" == "--no-lint" ]]; then
    run_lint=0
elif [[ "${1:-}" == "--faults" ]]; then
    run_lint=0
    run_faults=1
elif [[ "${1:-}" == "--perf" ]]; then
    run_lint=0
    run_perf=1
elif [[ "${1:-}" == "--store" ]]; then
    run_lint=0
    run_store=1
elif [[ "${1:-}" == "--forest" ]]; then
    run_lint=0
    run_forest=1
elif [[ "${1:-}" == "--service" ]]; then
    run_lint=0
    run_service=1
elif [[ "${1:-}" == "--lod" ]]; then
    run_lint=0
    run_lod=1
elif [[ "${1:-}" == "--amr" ]]; then
    run_lint=0
    run_amr=1
elif [[ "${1:-}" == "--scenarios" ]]; then
    run_lint=0
    run_scenarios=1
fi

if [[ $run_scenarios -eq 1 ]]; then
    echo "== digital-twin scenario suite =="
    PYTHONPATH=src python -m pytest -x -q \
        tests/beams/test_scenario.py \
        tests/beams/test_feedback.py \
        tests/beams/test_sweep.py \
        tests/test_deprecations.py \
        tests/test_public_api.py
    echo "== scenario acceptance bench =="
    PYTHONPATH=src python -m pytest -q benchmarks/bench_scenarios.py
    echo "== scenario gate =="
    python scripts/perf_gate.py --scenarios
    exit 0
fi

if [[ $run_amr -eq 1 ]]; then
    echo "== adaptive-AMR / splat suite =="
    PYTHONPATH=src python -m pytest -x -q \
        tests/octree/test_amr.py \
        tests/render/test_splat.py \
        tests/render/test_frame_cache.py \
        tests/render/test_fragment_batches.py \
        tests/render/test_composite_reference.py \
        tests/render/test_point_fold.py \
        tests/render/test_render_memos.py \
        tests/test_public_api.py
    echo "== AMR bench =="
    PYTHONPATH=src python -m pytest -q benchmarks/bench_amr.py
    echo "== AMR gate =="
    python scripts/perf_gate.py --amr
    exit 0
fi

if [[ $run_lod -eq 1 ]]; then
    echo "== LOD / progressive-streaming suite =="
    PYTHONPATH=src python -m pytest -x -q \
        tests/octree/test_lod.py \
        tests/remote/test_progressive.py \
        tests/remote/test_control_loops.py \
        tests/remote/test_protocol.py \
        tests/test_public_api.py
    echo "== progressive TTFI bench (smoke scale) =="
    REPRO_LOD_PARTICLES="${REPRO_LOD_PARTICLES:-2000000}" \
        PYTHONPATH=src python -m pytest -q benchmarks/bench_lod.py
    echo "== LOD gate =="
    python scripts/perf_gate.py --lod
    exit 0
fi

if [[ $run_service -eq 1 ]]; then
    echo "== multi-tenant service suite =="
    PYTHONPATH=src python -m pytest -x -q \
        tests/remote/test_protocol.py \
        tests/remote/test_service.py \
        tests/remote/test_service_load.py \
        tests/remote/test_server_edges.py \
        tests/test_public_api.py
    echo "== chaos load bench (smoke scale) =="
    REPRO_SERVICE_CLIENTS="${REPRO_SERVICE_CLIENTS:-150}" \
        PYTHONPATH=src python -m pytest -q benchmarks/bench_service.py
    echo "== service gate =="
    python scripts/perf_gate.py --service
    exit 0
fi

if [[ $run_forest -eq 1 ]]; then
    echo "== forest / compositor suite =="
    PYTHONPATH=src python -m pytest -x -q \
        tests/octree/test_forest.py \
        tests/octree/test_partition_reference.py \
        tests/render/test_compositor.py \
        tests/render/test_composite_reference.py \
        tests/render/test_point_fold.py \
        tests/render/test_render_memos.py \
        tests/test_public_api.py
    echo "== forest bench =="
    PYTHONPATH=src python -m pytest -q benchmarks/bench_forest.py
    echo "== forest gate =="
    python scripts/perf_gate.py --forest
    exit 0
fi

if [[ $run_store -eq 1 ]]; then
    echo "== out-of-core store suite =="
    PYTHONPATH=src python -m pytest -x -q \
        tests/core/test_store.py \
        tests/core/test_dataset.py \
        tests/core/test_checkpoint.py \
        tests/octree/test_format.py \
        tests/octree/test_disk_extraction.py \
        tests/octree/test_stream_partition.py \
        tests/octree/test_partition_reference.py \
        tests/octree/test_lod.py \
        tests/remote/test_progressive.py \
        tests/render/test_fragment_batches.py \
        tests/test_deprecations.py
    echo "== RAM-capped store bench =="
    PYTHONPATH=src python -m pytest -q benchmarks/bench_sharded_store.py
    echo "== store gate =="
    python scripts/perf_gate.py --store
    exit 0
fi

if [[ $run_perf -eq 1 ]]; then
    echo "== field-line suite =="
    PYTHONPATH=src python -m pytest -x -q tests/fieldlines/
    echo "== compositor and point-fold references =="
    PYTHONPATH=src python -m pytest -x -q \
        tests/render/test_composite_reference.py \
        tests/render/test_point_fold.py
    echo "== perf bench =="
    PYTHONPATH=src python -m pytest -q benchmarks/bench_frame_cache.py
    echo "== perf gate =="
    python scripts/perf_gate.py
    exit 0
fi

if [[ $run_faults -eq 1 ]]; then
    echo "== fault-injection pass =="
    PYTHONPATH=src python -m pytest -x -q \
        tests/core/test_faults.py \
        tests/core/test_checkpoint.py \
        tests/remote/test_faults_remote.py \
        tests/remote/test_protocol.py \
        tests/test_robustness.py
    echo "== fault-rate bench =="
    PYTHONPATH=src python -m pytest -q benchmarks/bench_remote_faults.py
    exit 0
fi

if [[ $run_lint -eq 1 ]]; then
    if command -v ruff >/dev/null 2>&1; then
        echo "== ruff =="
        ruff check src tests benchmarks
    elif python -c "import ruff" >/dev/null 2>&1; then
        echo "== ruff (module) =="
        python -m ruff check src tests benchmarks
    else
        echo "== ruff not installed; skipping lint =="
    fi
fi

echo "== tier-1 tests =="
PYTHONPATH=src python -m pytest -x -q
