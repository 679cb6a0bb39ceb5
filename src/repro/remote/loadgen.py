"""Async client fleet + chaos schedule for the multi-tenant service.

Extends the fault-injection harness (:mod:`repro.core.faults`) from
one damaged link to *population-scale* abuse: a seeded fleet of
concurrent asyncio clients where most behave (request hybrid frames
from a hot set, honor BUSY backoff) and a configured fraction misbehave
in the ways that kill naive servers:

``slowloris``
    dribbles one header byte at a time, trying to pin a connection
    open forever (defeated by the service's per-message deadline)
``disconnect``
    sends a valid request, then closes mid-reply (exercises
    cancellation-on-disconnect)
``corrupt``
    writes garbage bytes (exercises protocol-damage isolation)
``flood``
    pipelines a burst of requests without reading replies (exercises
    the bounded per-session queue and BUSY shedding)

Like :class:`~repro.core.faults.FaultPlan`, everything is driven by a
seed: role assignment, per-client start stagger, and frame choice all
come from one ``random.Random`` stream, so a fleet run is reproducible.

The acceptance contract the fleet verifies (and the chaos tests /
``benchmarks/bench_service.py`` assert): the service never dies, and
every *well-behaved* client ends ``served`` (all its requests answered
with HYBRID_FRAME) or ``shed`` (explicit BUSY until its retry budget
ran out) -- never silently failed.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, field

from repro.core.metrics import percentile
from repro.remote import protocol
from repro.remote.protocol import Message, MessageType

__all__ = ["ChaosSchedule", "FleetReport", "run_fleet"]

# what a misbehaving client can be, in seeded-draw order
_FAULT_ROLES = ("slowloris", "disconnect", "corrupt", "flood")


@dataclass
class ChaosSchedule:
    """Seeded description of one fleet run.

    ``fault_fraction`` of the ``n_clients`` clients are assigned chaos
    roles (round-robin over slowloris / disconnect / corrupt / flood);
    the rest are well-behaved: each issues ``requests_per_client``
    GET_HYBRID requests for frames drawn from the first ``hot_frames``
    frame indices, retrying on BUSY up to ``busy_retries`` times per
    request with the server's retry-after hint.
    """

    threshold: float
    seed: int = 0
    n_clients: int = 100
    fault_fraction: float = 0.05
    requests_per_client: int = 3
    hot_frames: int = 10
    resolution: int = 8
    busy_retries: int = 40
    ramp_s: float = 1.0          # start stagger across the fleet
    connect_timeout: float = 10.0
    io_timeout: float = 30.0
    flood_burst: int = 24        # pipelined requests per flood client
    slowloris_bytes: int = 6     # header bytes a slowloris dribbles out
    slowloris_gap_s: float = 0.3


@dataclass
class FleetReport:
    """Outcome of one fleet run, per-client and aggregated."""

    outcomes: dict = field(default_factory=dict)   # role -> outcome -> count
    latencies: list = field(default_factory=list)  # per served request, seconds
    busy_replies: int = 0
    well_behaved: int = 0
    served: int = 0
    shed: int = 0
    failed: int = 0

    def percentile(self, q: float) -> float:
        """Nearest-rank latency percentile over all served requests."""
        return percentile(sorted(self.latencies), q)

    def summary(self) -> dict:
        """Scalar digest (the shape persisted in BENCH_service.json)."""
        return {
            "well_behaved": self.well_behaved,
            "served": self.served,
            "shed": self.shed,
            "failed": self.failed,
            "busy_replies": self.busy_replies,
            "requests_served": len(self.latencies),
            "p50_s": self.percentile(0.50),
            "p99_s": self.percentile(0.99),
            "outcomes": {k: dict(v) for k, v in self.outcomes.items()},
        }


def assign_roles(schedule: ChaosSchedule) -> list[str]:
    """Seeded role per client: 'good' or one of the chaos roles.

    Exactly ``round(n_clients * fault_fraction)`` clients misbehave,
    spread round-robin over the fault kinds and shuffled into the
    fleet by the schedule's RNG.
    """
    n_bad = round(schedule.n_clients * schedule.fault_fraction)
    roles = ["good"] * (schedule.n_clients - n_bad) + [
        _FAULT_ROLES[i % len(_FAULT_ROLES)] for i in range(n_bad)
    ]
    random.Random(f"{schedule.seed}:roles").shuffle(roles)
    return roles


async def _open(address, schedule: ChaosSchedule):
    return await asyncio.wait_for(
        asyncio.open_connection(*address), timeout=schedule.connect_timeout
    )


async def _rpc(reader, writer, message: Message, timeout: float) -> Message:
    await asyncio.wait_for(
        protocol.send_message_async(writer, message), timeout=timeout
    )
    return await asyncio.wait_for(
        protocol.recv_message_async(reader), timeout=timeout
    )


async def _good_client(address, schedule: ChaosSchedule, rng: random.Random,
                       report: FleetReport) -> str:
    """One well-behaved client; returns its outcome.

    served: every request answered with a frame.  shed: the BUSY retry
    budget ran out (the service *explicitly* turned work away).
    failed: anything else -- the outcome the acceptance run pins to 0.
    """
    budget = schedule.busy_retries
    reader = writer = None
    try:
        for _ in range(schedule.requests_per_client):
            frame = rng.randrange(max(schedule.hot_frames, 1))
            request = Message(
                MessageType.GET_HYBRID,
                protocol.encode_get_hybrid(
                    frame, schedule.threshold, schedule.resolution
                ),
            )
            while True:
                try:
                    if reader is None:
                        reader, writer = await _open(address, schedule)
                    t0 = time.perf_counter()
                    reply = await _rpc(reader, writer, request, schedule.io_timeout)
                except (OSError, asyncio.TimeoutError, ConnectionError):
                    # admission shedding can close the link right after
                    # (or instead of) a BUSY; treat as a retryable brush-off
                    if writer is not None:
                        writer.close()
                    reader = writer = None
                    budget -= 1
                    if budget <= 0:
                        return "shed"
                    await asyncio.sleep(0.05 + rng.uniform(0, 0.05))
                    continue
                if reply.type == MessageType.HYBRID_FRAME:
                    report.latencies.append(time.perf_counter() - t0)
                    break
                if reply.type == MessageType.BUSY:
                    retry_after, _ = protocol.decode_busy(reply.payload)
                    report.busy_replies += 1
                    budget -= 1
                    if budget <= 0:
                        return "shed"
                    await asyncio.sleep(retry_after + rng.uniform(0, retry_after))
                    continue
                return "failed"
        return "served"
    except Exception:
        return "failed"
    finally:
        if writer is not None:
            writer.close()


async def _slowloris_client(address, schedule: ChaosSchedule,
                            rng: random.Random) -> str:
    """Dribble header bytes; the service must cut the session loose."""
    try:
        reader, writer = await _open(address, schedule)
    except (OSError, asyncio.TimeoutError):
        return "faulted"
    try:
        for byte in protocol.PROTOCOL_MAGIC[: schedule.slowloris_bytes]:
            writer.write(bytes([byte]))
            await writer.drain()
            await asyncio.sleep(schedule.slowloris_gap_s)
        # wait for the server to hang up on us (bounded)
        await asyncio.wait_for(reader.read(1), timeout=schedule.io_timeout)
    except (OSError, asyncio.TimeoutError, ConnectionError):
        pass
    finally:
        writer.close()
    return "faulted"


async def _disconnect_client(address, schedule: ChaosSchedule,
                             rng: random.Random) -> str:
    """Send a real request, then vanish mid-reply."""
    try:
        reader, writer = await _open(address, schedule)
        await protocol.send_message_async(
            writer,
            Message(
                MessageType.GET_HYBRID,
                protocol.encode_get_hybrid(
                    rng.randrange(max(schedule.hot_frames, 1)),
                    schedule.threshold, schedule.resolution,
                ),
            ),
        )
        # read a prefix of the reply, then slam the connection shut
        await asyncio.wait_for(reader.read(8), timeout=schedule.io_timeout)
        writer.close()
    except (OSError, asyncio.TimeoutError, ConnectionError):
        pass
    return "faulted"


async def _corrupt_client(address, schedule: ChaosSchedule,
                          rng: random.Random) -> str:
    """Write garbage; the service must drop only this session."""
    try:
        reader, writer = await _open(address, schedule)
        writer.write(bytes(rng.randrange(256) for _ in range(64)))
        await writer.drain()
        await asyncio.wait_for(reader.read(1), timeout=schedule.io_timeout)
        writer.close()
    except (OSError, asyncio.TimeoutError, ConnectionError):
        pass
    return "faulted"


async def _flood_client(address, schedule: ChaosSchedule,
                        rng: random.Random) -> str:
    """Pipeline a burst without reading; expect BUSY for the overflow."""
    try:
        reader, writer = await _open(address, schedule)
        for _ in range(schedule.flood_burst):
            await protocol.send_message_async(
                writer,
                Message(
                    MessageType.GET_HYBRID,
                    protocol.encode_get_hybrid(
                        rng.randrange(max(schedule.hot_frames, 1)),
                        schedule.threshold, schedule.resolution,
                    ),
                ),
            )
        # drain replies until the server closes or we have them all
        for _ in range(schedule.flood_burst):
            await asyncio.wait_for(
                protocol.recv_message_async(reader), timeout=schedule.io_timeout
            )
        writer.close()
    except Exception:
        pass
    return "faulted"


_RUNNERS = {
    "slowloris": _slowloris_client,
    "disconnect": _disconnect_client,
    "corrupt": _corrupt_client,
    "flood": _flood_client,
}


async def _run_fleet_async(address, schedule: ChaosSchedule) -> FleetReport:
    report = FleetReport()
    roles = assign_roles(schedule)
    stagger = random.Random(f"{schedule.seed}:stagger")

    async def one(i: int, role: str) -> tuple[str, str]:
        await asyncio.sleep(stagger.random() * schedule.ramp_s)
        rng = random.Random(f"{schedule.seed}:client:{i}")
        if role == "good":
            return role, await _good_client(address, schedule, rng, report)
        return role, await _RUNNERS[role](address, schedule, rng)

    results = await asyncio.gather(
        *(one(i, role) for i, role in enumerate(roles))
    )
    for role, outcome in results:
        report.outcomes.setdefault(role, {})
        report.outcomes[role][outcome] = report.outcomes[role].get(outcome, 0) + 1
    good = report.outcomes.get("good", {})
    report.well_behaved = sum(good.values())
    report.served = good.get("served", 0)
    report.shed = good.get("shed", 0)
    report.failed = good.get("failed", 0)
    return report


def run_fleet(address, schedule: ChaosSchedule) -> FleetReport:
    """Drive one seeded chaos fleet against a running service (blocking).

    Runs the whole fleet on a private event loop in the calling thread;
    the service under test lives on its own loop/thread, so this is
    safe to call from tests and benches.
    """
    return asyncio.run(_run_fleet_async(address, schedule))
