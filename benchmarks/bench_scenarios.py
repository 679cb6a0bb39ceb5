"""PERF -- digital-twin scenario layer acceptance bench.

Three measurements for ``repro.beams.scenario``:

* *feedback convergence*: the envelope matching loop closes around a
  detuned FODO channel (quads at k=4.5 against the nominal 6.0) with a
  matched space-charged beam injected; the controller must retune the
  focusing until the rms size reaches the matched target, converging
  within the documented ``STEP_BUDGET``.  The budget, the achieved
  convergence step, and the closed-loop error are recorded;
  ``scripts/check.sh --gate scenarios`` enforces the budget.
* *ensemble sweep under fire*: a 16-member quad-strength x mismatch
  grid fans through the crash-safe executor at ``workers=4`` with one
  injected worker kill (``CrashOnce`` -- a hard ``os._exit``, the
  shape of an OOM kill).  Every member must land as a CRC-verified
  :class:`~repro.core.store.ShardedStore`; the pool break and retry
  are visible in the recorded trace counters.  A second invocation
  must resume all 16 members from disk without re-running any.
* *members are render-ready*: one landed member feeds the
  forest-of-octrees partitioner (then the forest renderer) and the
  LOD builder -- the sweep's output plugs into the terascale
  visualization chain without conversion.  A member re-run under the
  same seed must reproduce its particle array bitwise (deterministic
  campaigns are what make sweep resume semantics sound).

Writes ``BENCH_scenarios.json``; ``scripts/check.sh --gate scenarios``
gates on the recorded flags.
"""

import os
import time

import numpy as np

from common import record, record_bench, scaled, traced_run

from repro.beams.lattice import fodo_cell
from repro.beams.matching import matched_sigmas
from repro.beams.scenario import (
    EnvelopeController,
    LatticeSpec,
    ScenarioSpec,
    run_sweep,
)
from repro.beams.scenario.sweep import _run_member, member_dirname
from repro.core.faults import CrashOnce
from repro.core.store import ShardedStore, is_store_dir
from repro.octree.forest import partition_forest, render_forest
from repro.octree.lod import build_lod
from repro.octree.stream_partition import partition_store

MATCHED = matched_sigmas(fodo_cell(), 0.35, 0.35)

# documented convergence budget: the validated run converges at step
# ~55 of 600; the gate allows drift to this ceiling
STEP_BUDGET = 200

SWEEP_AXES = {
    "lattice.qf": [5.4, 5.7, 6.0, 6.3],
    "mismatch": [1.0, 1.1, 1.2, 1.3],
}
SWEEP_WORKERS = 4


def _envelope_scenario():
    return ScenarioSpec(
        lattice=LatticeSpec.fodo(n_cells=120)
        .with_strength("qf", 4.5)
        .with_strength("qd", -4.5),
        name="envelope-match",
        n_particles=scaled(4_000),
        sigmas=tuple(MATCHED),
        mismatch=1.0,
        space_charge=True,
        sc_strength=0.05,
        seed=11,
    )


def _feedback_block() -> dict:
    ctrl = EnvelopeController(
        "qf",
        target=MATCHED[0],
        gain=2.0,
        smooth=0.2,
        deadband=0.02,
        every=5,
        settle=5,
        blowup=6.0,
        warmup=6,
        limits=(3.5, 8.5),
    )
    live = _envelope_scenario().build(controllers=[ctrl])
    t0 = time.perf_counter()
    live.run()
    t_run = time.perf_counter() - t0
    return {
        "converged": bool(ctrl.converged),
        "converged_step": ctrl.converged_step,
        "step_budget": STEP_BUDGET,
        "within_budget": bool(
            ctrl.converged and ctrl.converged_step <= STEP_BUDGET
        ),
        "steps_run": int(live.step_index),
        "final_error": float(abs(ctrl._ema - ctrl.target)),
        "deadband": ctrl.deadband,
        "final_qf": float(live.get_strength("qf")),
        "detuned_qf": 4.5,
        "t_run_s": t_run,
        "n_particles": live.spec.n_particles,
    }


def _sweep_spec():
    return ScenarioSpec(
        lattice=LatticeSpec.fodo(n_cells=8),
        name="operating-envelope",
        n_particles=scaled(3_000),
        sigmas=tuple(MATCHED),
        space_charge=True,
        sc_strength=0.05,
        sc_grid=(16, 16, 16),
        seed=29,
    )


def _sweep_block(tmp) -> dict:
    out = tmp / "sweep"
    token = tmp / "crash.token"
    spec = _sweep_spec()

    t0 = time.perf_counter()
    result = run_sweep(
        spec,
        SWEEP_AXES,
        out,
        workers=SWEEP_WORKERS,
        checkpoint_dir=tmp / "ckpt",
        _member_fn=CrashOnce(_run_member, token),
    )
    t_sweep = time.perf_counter() - t0

    members_ok = 0
    for i in range(result.n_members):
        d = out / member_dirname(i)
        if not is_store_dir(d):
            continue
        store = ShardedStore.open(d)
        store.verify()  # CRC32 over every shard
        if store.n_particles == spec.n_particles:
            members_ok += 1

    # second invocation: everything resumes from disk
    t0 = time.perf_counter()
    again = run_sweep(spec, SWEEP_AXES, out, workers=SWEEP_WORKERS)
    t_resume = time.perf_counter() - t0

    return {
        "n_members": result.n_members,
        "members_ok": members_ok,
        "crash_injected": token.exists(),
        "resumed": int(again.resumed),
        "n_converged": result.n_converged,
        "workers": SWEEP_WORKERS,
        "t_sweep_s": t_sweep,
        "t_resume_s": t_resume,
        "members_per_s": result.n_members / t_sweep,
    }


def _render_block(tmp, sweep_dir) -> dict:
    """One landed member through the forest and LOD chains."""
    store = ShardedStore.open(sweep_dir / member_dirname(0))

    forest = partition_forest(
        store, tmp / "forest", bricks=2, max_level=5, capacity=64
    )
    image = render_forest(forest, volume_resolution=24)
    pstore = partition_store(store, tmp / "pstore", max_level=5, capacity=64)
    lod = build_lod(pstore, levels=2, ratio=4, mip_base=16, mip_levels=2)

    # determinism: the member's scenario re-run bitwise-reproduces
    spec = _sweep_spec().with_overrides(
        {"lattice.qf": SWEEP_AXES["lattice.qf"][0],
         "mismatch": SWEEP_AXES["mismatch"][0]}
    )
    a = spec.build().run()
    b = spec.build().run()
    deterministic = bool(np.array_equal(a, b)) and bool(
        np.array_equal(a, store.to_array())
    )

    return {
        "forest_particles": int(forest.n_particles),
        "image_nonzero": bool(np.any(image.rgba > 0)),
        "lod_levels": int(lod.levels),
        "renderable": bool(
            forest.n_particles == store.n_particles
            and np.any(image.rgba > 0)
            and lod.levels >= 1
        ),
        "deterministic": deterministic,
    }


def test_scenarios_report(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("scenario_bench")
    results = {}

    fb_tracer = traced_run(
        lambda: results.update(feedback=_feedback_block())
    )
    results["feedback"]["trace_converged"] = int(
        fb_tracer.counters.get("feedback_converged", 0)
    )

    tracer = traced_run(lambda: results.update(sweep=_sweep_block(tmp)))
    sweep = results["sweep"]
    sweep["pool_breaks"] = int(tracer.counters.get("parallel_pool_breaks", 0))
    sweep["shard_retries"] = int(tracer.counters.get("parallel_shard_retries", 0))
    sweep["members_resumed_counter"] = int(
        tracer.counters.get("sweep_members_resumed", 0)
    )

    results["render"] = _render_block(tmp, tmp / "sweep")
    results["cpu_count"] = os.cpu_count() or 1

    record_bench("scenarios", tracer, extra=results)

    fb = results["feedback"]
    rd = results["render"]
    record(
        "PERF-SCENARIOS",
        [
            "paper: campaign-scale ensembles visualized end to end",
            f"measured: envelope feedback converged step "
            f"{fb['converged_step']} (budget {fb['step_budget']}), "
            f"final error {fb['final_error']:.4f} (deadband {fb['deadband']})",
            f"measured: {sweep['members_ok']}/{sweep['n_members']} members "
            f"landed as verified stores at workers={sweep['workers']} "
            f"with {sweep['pool_breaks']} injected pool break(s), "
            f"{sweep['t_sweep_s']:.1f} s "
            f"({sweep['members_per_s']:.2f} members/s)",
            f"measured: resume satisfied {sweep['resumed']}/16 from disk in "
            f"{sweep['t_resume_s']:.2f} s",
            f"measured: member renderable={rd['renderable']} "
            f"(forest {rd['forest_particles']} particles, "
            f"lod levels {rd['lod_levels']}), "
            f"deterministic={rd['deterministic']}",
        ],
    )
