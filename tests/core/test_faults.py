"""The fault-injection harness and the crash-safe shard executor.

These tests exercise the injectors themselves (deterministic streams,
exactly-once crashes, torn-write atomicity) and the recovery machinery
that consumes them: ``run_shards`` surviving worker death and the
parallel seeder producing identical lines with and without a crashed
worker.
"""

import socket
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.core import atomic
from repro.core.atomic import atomic_write_bytes
from repro.core.errors import SimulatedCrash
from repro.core.executor import run_shards
from repro.core.faults import CrashAlways, CrashOnce, FaultPlan
from repro.core.store import create_store
from repro.core.trace import capture, count, span


# module level so ProcessPoolExecutor can pickle it
def _square(x):
    return x * x


def _counted_square(x):
    """Square under a span, bumping two counters."""
    with span("square"):
        count("squares")
        count("square_bytes", 8 * x)
        return x * x


def _raise_on_three(x):
    if x == 3:
        raise ValueError("task three is broken")
    return x


def _mark_or_fail_on_one(task):
    """Shard 1 fails at once; every other shard takes 0.1 s and leaves
    a marker file, so the markers count the shards that ran."""
    i, marks = task
    if i == 1:
        raise ValueError("shard one is damaged")
    time.sleep(0.1)
    (Path(marks) / f"{i}.done").touch()
    return i


class TestFaultPlanDeterminism:
    def test_same_seed_same_decisions(self):
        a = FaultPlan(seed=7)
        b = FaultPlan(seed=7)
        da = [a.fire("corrupt", 0.3) for _ in range(200)]
        db = [b.fire("corrupt", 0.3) for _ in range(200)]
        assert da == db
        assert any(da) and not all(da)
        assert a.injected == b.injected

    def test_kinds_draw_from_independent_streams(self):
        """Adding decisions of one kind must not perturb another's."""
        a = FaultPlan(seed=7)
        b = FaultPlan(seed=7)
        da = [a.fire("corrupt", 0.3) for _ in range(100)]
        db = []
        for _ in range(100):
            b.fire("drop", 0.5)  # interleaved traffic on another kind
            db.append(b.fire("corrupt", 0.3))
        assert da == db

    def test_zero_rate_never_fires(self):
        plan = FaultPlan(seed=0)
        assert not any(plan.fire("drop", 0.0) for _ in range(100))
        assert plan.injected == {}

    def test_corrupt_bytes_flips_exactly_one_byte(self):
        plan = FaultPlan(seed=3)
        data = bytes(range(64))
        mutated = plan.corrupt_bytes(data)
        assert len(mutated) == len(data)
        diffs = [i for i in range(64) if mutated[i] != data[i]]
        assert len(diffs) == 1
        i = diffs[0]
        assert mutated[i] == data[i] ^ 0xFF

    def test_injection_counters_reach_tracer(self):
        with capture(enabled=True) as tracer:
            plan = FaultPlan(seed=1)
            while not plan.fire("corrupt", 0.5):
                pass
        assert tracer.counters.get("faults_injected_corrupt", 0) >= 1


class TestFaultySocket:
    @staticmethod
    def _receive(via: str):
        """Chunks one seeded plan lets through a socket receiving 16 KiB
        in 100-byte reads (until the plan truncates the link)."""
        plan = FaultPlan(seed=2, corrupt=0.3, latency=0.3, latency_s=0.0, truncate=0.02)
        a, b = socket.socketpair()
        a.sendall(bytes(range(256)) * 64)
        a.close()
        sock = plan.wrap_socket(b)
        chunks = []
        try:
            while not plan.injected.get("truncate"):
                if via == "recv":
                    chunk = sock.recv(100)
                else:
                    buf = bytearray(100)
                    chunk = bytes(buf[: sock.recv_into(buf, 100)])
                if not chunk:
                    break
                chunks.append(chunk)
        finally:
            b.close()
        return chunks, plan.injected

    def test_recv_into_sees_the_same_faults_as_recv(self):
        via_recv, injected = self._receive("recv")
        via_recv_into, injected_into = self._receive("recv_into")
        # seed 2 fires every kind before the link is cut mid-stream
        assert injected["corrupt"] >= 1 and injected["latency"] >= 1
        assert injected["truncate"] == 1
        assert injected_into == injected
        assert via_recv_into == via_recv
        clean = bytes(range(256)) * 64
        assert b"".join(via_recv) != clean[: sum(map(len, via_recv))]


class TestAtomicWrites:
    def test_roundtrip_and_no_temp_left(self, tmp_path):
        path = tmp_path / "blob.bin"
        n = atomic_write_bytes(path, b"payload")
        assert n == 7
        assert path.read_bytes() == b"payload"
        assert list(tmp_path.iterdir()) == [path]

    def test_torn_write_leaves_target_intact(self, tmp_path):
        path = tmp_path / "blob.bin"
        atomic_write_bytes(path, b"old content")
        plan = FaultPlan(seed=0, torn_write=1.0)
        with plan.file_faults():
            with pytest.raises(SimulatedCrash):
                atomic_write_bytes(path, b"NEW content that must not land")
        assert path.read_bytes() == b"old content"
        assert list(tmp_path.iterdir()) == [path]  # temp cleaned up

    def test_hook_cleared_after_block(self, tmp_path):
        plan = FaultPlan(seed=0, torn_write=1.0)
        with plan.file_faults():
            pass
        assert atomic._fault_hook is None
        atomic_write_bytes(tmp_path / "ok.bin", b"fine")


    def test_two_threads_one_target(self, tmp_path):
        """Thread A is paused between its temp write and its rename
        while thread B writes the same target: each thread has its own
        temp file, so A's rename still lands."""
        path = tmp_path / "shared.bin"
        paused, resume = threading.Event(), threading.Event()
        errors = []

        def hook(target, data):
            if data == b"from A":
                paused.set()
                resume.wait(10)

        def writer_a():
            try:
                atomic_write_bytes(path, b"from A")
            except BaseException as exc:  # reported below
                errors.append(exc)

        atomic.set_fault_hook(hook)
        try:
            a = threading.Thread(target=writer_a)
            a.start()
            assert paused.wait(10)
            atomic_write_bytes(path, b"from B")
            resume.set()
            a.join(10)
        finally:
            resume.set()
            atomic.set_fault_hook(None)
        assert errors == []
        assert path.read_bytes() == b"from A"
        assert [p.name for p in tmp_path.iterdir()] == ["shared.bin"]


class TestRunShards:
    def test_serial_path(self):
        assert run_shards(_square, [1, 2, 3], workers=1) == [1, 4, 9]

    def test_parallel_matches_serial(self):
        tasks = list(range(8))
        assert run_shards(_square, tasks, workers=2) == [_square(t) for t in tasks]

    def test_deterministic_task_error_propagates(self):
        """A bug in the shard function must not be retried into a loop."""
        with pytest.raises(ValueError, match="task three"):
            run_shards(_raise_on_three, [1, 2, 3, 4], workers=2)

    def test_task_error_cancels_unstarted_shards(self, tmp_path):
        """A failing shard ends the pass: the shards no worker has
        started are cancelled, not run before the error surfaces."""
        tasks = [(i, str(tmp_path)) for i in range(24)]
        with pytest.raises(ValueError, match="shard one"):
            run_shards(_mark_or_fail_on_one, tasks, workers=2)
        assert len(list(tmp_path.glob("*.done"))) < len(tasks) // 2

    def test_survives_one_worker_crash(self, tmp_path):
        tasks = list(range(6))
        fn = CrashOnce(_square, tmp_path / "crash.token")
        with capture(enabled=True) as tracer:
            results = run_shards(fn, tasks, workers=2)
        assert results == [_square(t) for t in tasks]
        assert (tmp_path / "crash.token").exists()
        assert tracer.counters.get("parallel_pool_breaks", 0) >= 1
        assert tracer.counters.get("parallel_shard_retries", 0) >= 1

    def test_persistent_breakage_falls_back_to_serial(self):
        tasks = list(range(4))
        with capture(enabled=True) as tracer:
            with pytest.warns(RuntimeWarning, match="finishing .* serially"):
                results = run_shards(
                    CrashAlways(_square), tasks, workers=2, max_retries=1
                )
        assert results == [_square(t) for t in tasks]
        assert tracer.counters.get("parallel_serial_fallbacks", 0) == len(tasks)


class TestWorkerTraces:
    """A traced run counts the same at any worker count: each worker's
    spans and counters are merged into the parent's tracer."""

    def test_counters_and_spans_reach_the_parent(self):
        tasks = list(range(6))
        seen = {}
        for workers in (1, 2):
            with capture(enabled=True) as tracer:
                with span("pass"):
                    assert run_shards(_counted_square, tasks, workers=workers) == [
                        x * x for x in tasks
                    ]
            seen[workers] = tracer.snapshot()
        for snap in seen.values():
            assert snap["counters"]["squares"] == len(tasks)
            assert snap["counters"]["square_bytes"] == 8 * sum(tasks)
            assert snap["spans"]["pass/square"]["count"] == len(tasks)

    def test_untraced_run_ships_nothing(self):
        with capture(enabled=False) as tracer:
            assert run_shards(_counted_square, [1, 2, 3], workers=2) == [1, 4, 9]
        assert tracer.snapshot()["counters"] == {} and tracer.snapshot()["spans"] == {}

    def test_store_counters_equal_at_one_and_two_workers(self, tmp_path):
        from repro.octree.stream_partition import partition_store

        rng = np.random.default_rng(5)
        particles = rng.normal(0.0, 1.0, (16 * 512, 6))
        store = create_store(tmp_path / "store", particles, shard_rows=512)
        assert store.n_shards == 16
        names = ("store_shard_read", "store_shard_read_bytes", "store_shard_write")
        seen = {}
        for workers in (1, 2):
            with capture(enabled=True) as tracer:
                partition_store(
                    store, tmp_path / f"part{workers}", max_level=4, capacity=64,
                    workers=workers,
                )
            seen[workers] = [tracer.counters.get(name, 0) for name in names]
        assert seen[1] == seen[2]
        assert all(value > 0 for value in seen[1])


class TestParallelSeedingUnderCrash:
    def test_seeding_survives_worker_crash(self, tmp_path, structure3, e_sampler):
        from repro.fieldlines.seeding import _integrate_shard, _seed_rounds

        kwargs = dict(
            total_lines=10, field_name="E", step=None, max_steps=60,
            min_magnitude_fraction=1e-3, loop_tolerance=None, on_line=None,
            workers=2, batch_size=5,
        )
        clean = _seed_rounds(
            structure3.mesh, e_sampler, rng=np.random.default_rng(4), **kwargs,
        )
        crashing = CrashOnce(_integrate_shard, tmp_path / "seed.token")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            survived = _seed_rounds(
                structure3.mesh, e_sampler, rng=np.random.default_rng(4),
                _shard_fn=crashing, **kwargs,
            )
        assert len(survived) == len(clean)
        for a, b in zip(clean.lines, survived.lines):
            assert np.allclose(a.points, b.points)
