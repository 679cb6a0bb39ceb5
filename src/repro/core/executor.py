"""Crash-safe multiprocess shard execution.

The paper's multi-node runs treat node failure as routine; here the
equivalent is a ``ProcessPoolExecutor`` worker dying (OOM kill, node
loss, :class:`repro.core.faults.CrashOnce`), which poisons the whole
pool -- ``concurrent.futures`` raises ``BrokenProcessPool`` for every
outstanding future and plain ``pool.map`` loses the entire run.

:func:`run_shards` recovers instead of dying: results that completed
before the break are kept, the failed shards are retried in a fresh
pool (bounded attempts), and if pools keep breaking the remainder runs
serially in the parent -- slower, never wrong.  Deterministic
exceptions raised *by the shard function itself* are not retried
(retrying them would loop): the parent cancels the shards no worker
has started and re-raises as soon as it collects the error.  Only
pool breakage is retried.

When the parent's tracer is enabled, each task runs in its worker
under :func:`repro.core.trace.capture`, and the parent merges the
worker's spans and counters under the span that launched the pass, so
a traced run counts the same at any worker count.  Untraced runs ship
nothing.

Recovery is visible in the tracer:

- ``parallel_pool_breaks``     -- pools lost to worker death
- ``parallel_shard_retries``   -- shards resubmitted to a fresh pool
- ``parallel_serial_fallbacks``-- shards finished serially in-parent

Every multiprocess entry point of the package
(:func:`repro.octree.stream_partition.partition_store`,
:func:`repro.octree.forest.partition_forest` and its renderer,
:func:`repro.fieldlines.seeding.seed_density_proportional` and
:func:`repro.beams.scenario.sweep.run_sweep`, each with
``workers > 1``) runs its shards through this function.  The
out-of-core passes (partition count and scatter, forest route and
bricks) call it at every worker count with the same task, so one code
path reads every input shard CRC-checked, and each records a shard in
its checkpoint through ``on_result`` as that shard's result is
collected, in task order.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from functools import partial

from repro.core.trace import capture, count, get_tracer, span

__all__ = ["run_shards"]

_UNSET = object()


def _traced(fn, task):
    """Run one task in a worker under a fresh tracer; return its result
    and the tracer's snapshot."""
    with capture(enabled=True) as tracer:
        result = fn(task)
    return result, tracer.snapshot()


def run_shards(
    fn,
    tasks,
    workers: int = 1,
    max_retries: int = 2,
    label: str = "shards",
    on_result=None,
):
    """Map ``fn`` over ``tasks`` on worker processes, surviving worker
    death; returns results in task order.

    ``fn`` and each task must be picklable.  ``workers <= 1`` (or a
    single task) runs serially in the parent.  After ``max_retries``
    broken pools, the still-unfinished shards fall back to serial
    execution with a warning.

    ``on_result(task, result)`` fires in the parent as each shard's
    result is collected, in task order and exactly once per shard -- the
    hook incremental checkpointing hangs off, so a killed parent keeps
    the shards collected before the kill.
    """
    tasks = list(tasks)
    if workers <= 1 or len(tasks) <= 1:
        out = []
        for t in tasks:
            r = fn(t)
            if on_result is not None:
                on_result(t, r)
            out.append(r)
        return out

    tracer = get_tracer()
    traced = tracer.enabled
    prefix = tracer.current_path()
    submit_fn = partial(_traced, fn) if traced else fn
    results = [_UNSET] * len(tasks)
    pending = list(range(len(tasks)))
    attempt = 0
    while pending:
        if attempt > max_retries:
            count("parallel_serial_fallbacks", len(pending))
            warnings.warn(
                f"{label}: worker pool broke {attempt} times; finishing "
                f"{len(pending)} shard(s) serially",
                RuntimeWarning,
                stacklevel=2,
            )
            with span("serial_fallback", label=label, shards=len(pending)):
                for i in pending:
                    results[i] = fn(tasks[i])
                    if on_result is not None:
                        on_result(tasks[i], results[i])
            break
        broke = False
        try:
            with ProcessPoolExecutor(max_workers=min(workers, len(pending))) as pool:
                futures = [(i, pool.submit(submit_fn, tasks[i])) for i in pending]
                for i, future in futures:
                    try:
                        results[i] = future.result()
                    except BrokenProcessPool:
                        broke = True
                        continue
                    except BaseException:
                        # the task's own error: drop the shards not yet
                        # started rather than run the rest of the pass
                        pool.shutdown(cancel_futures=True)
                        raise
                    if traced:
                        results[i], snapshot = results[i]
                        tracer.merge(snapshot, prefix=prefix)
                    if on_result is not None:
                        on_result(tasks[i], results[i])
        except BrokenProcessPool:
            # pool shutdown itself can re-raise after a break
            broke = True
        pending = [i for i in pending if results[i] is _UNSET]
        if broke:
            count("parallel_pool_breaks")
        if pending:
            count("parallel_shard_retries", len(pending))
        attempt += 1
    return results
