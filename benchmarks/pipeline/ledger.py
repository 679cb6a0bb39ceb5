"""Benchmark-side spans and the per-layer ledger of a traced run.

The benchmark times each public call it makes from its own files: a
:class:`Ledger` records one span per call (name, start, end, parent
span, request id, thread) and keeps them in memory until the run
writes its trace.  The program's own spans and counters come from
:mod:`repro.core.trace`, which a traced run enables through
``capture(enabled=True)``; :func:`layer_metrics` joins the two.

Layer self time (``busy_s``) is the time inside a layer's public calls
minus the program spans inside them that belong to another layer.  The
only call that crosses layers is ``next(frames)`` of the beam
simulation, whose ``transport`` and ``space_charge`` spans are split
out into their own layers.  Work the service does on its own threads
is read from the service's ``service_extract`` span.
"""

from __future__ import annotations

import itertools
import threading
import time

# every layer span the workloads open; their durations add up to the
# client-visible work of a run (the ledger's coverage)
LAYERS = (
    "beams.simulation",
    "octree.partition",
    "octree.stream_partition",
    "octree.extraction",
    "hybrid.renderer",
    "fields.solver",
    "fieldlines.seeding",
    "fieldlines.sos",
    "remote.client.get",
    "remote.client.stream",
)


class _Span:
    __slots__ = ("ledger", "name", "rid", "id", "parent", "start")

    def __init__(self, ledger: "Ledger", name: str, rid):
        self.ledger = ledger
        self.name = name
        self.rid = rid

    def __enter__(self) -> "_Span":
        stack = self.ledger._stack()
        self.parent = stack[-1] if stack else None
        self.id = next(self.ledger._ids)
        stack.append(self.id)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        self.ledger._stack().pop()
        t0 = self.ledger.t0
        record = {
            "id": self.id,
            "name": self.name,
            "start": self.start - t0,
            "end": end - t0,
            "parent": self.parent,
            "rid": self.rid,
            "thread": threading.get_ident(),
        }
        with self.ledger._lock:
            self.ledger.spans.append(record)


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


_NULL_SPAN = _NullSpan()


class Ledger:
    """In-memory recorder of the benchmark's own spans.

    Spans nest per thread; a disabled ledger returns a shared no-op
    span, so an untraced run pays one attribute check per call.
    """

    def __init__(self, enabled: bool = False):
        self.enabled = bool(enabled)
        self.spans: list[dict] = []
        self.t0 = time.perf_counter()
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, rid=None):
        """Open a span; ``rid`` ties the spans of one request together."""
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name, rid)

    def busy(self, name: str) -> float:
        """Summed duration of the spans called ``name``."""
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s["name"] == name)


def _program(snapshot: dict, name: str, key: str = "wall") -> float:
    """Summed ``key`` of the program spans whose leaf name is ``name``,
    wherever they nest (concurrent coroutines on one thread can nest
    one span's path inside another's)."""
    return sum(
        s[key] for path, s in snapshot["spans"].items() if path.rsplit("/", 1)[-1] == name
    )


def _ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def layer_metrics(ledger: Ledger, snapshot: dict, wall: float, counts: dict) -> dict:
    """Per-layer metrics of one traced window.

    ``snapshot`` is the program tracer's snapshot, ``wall`` the timed
    window's length and ``counts`` the workload's own work counts.
    """
    c = snapshot["counters"]

    def counter(name: str) -> float:
        return c.get(name, 0)

    transport = _program(snapshot, "transport")
    space_charge = _program(snapshot, "space_charge")
    service_extract = _program(snapshot, "service_extract")
    covered = sum(ledger.busy(name) for name in LAYERS)
    return {
        "ledger.coverage": covered / wall if wall > 0 else 0.0,
        "beams.simulation.busy_s": ledger.busy("beams.simulation") - transport - space_charge,
        "beams.spacecharge.busy_s": space_charge,
        "beams.transport.busy_s": transport,
        "beams.spacecharge.green_hit_ratio": _ratio(
            counter("green_cache_hit"), counter("green_cache_miss")
        ),
        "beams.particles_stepped": counter("particles_stepped"),
        "octree.partition.busy_s": ledger.busy("octree.partition"),
        "octree.partition.calls": ledger.calls("octree.partition"),
        "octree.stream_partition.busy_s": ledger.busy("octree.stream_partition"),
        "octree.stream_partition.calls": ledger.calls("octree.stream_partition"),
        "octree.nodes_built": counter("octree_nodes"),
        "octree.particles_routed": counter("particles_routed"),
        "core.store.read_bytes": counter("store_shard_read_bytes"),
        "core.store.shard_writes": counter("store_shard_write"),
        "core.executor.shard_retries": counter("parallel_shard_retries"),
        "core.executor.serial_fallbacks": counter("parallel_serial_fallbacks"),
        "octree.extraction.busy_s": ledger.busy("octree.extraction") + service_extract,
        "octree.extraction.calls": _program(snapshot, "volume_deposit", "count"),
        "octree.extraction.points": counter("points_extracted"),
        "octree.extraction.deposit_s": _program(snapshot, "volume_deposit"),
        "hybrid.renderer.busy_s": ledger.busy("hybrid.renderer"),
        "hybrid.renderer.calls": ledger.calls("hybrid.renderer"),
        "render.frame_cache.hit_ratio": _ratio(
            counter("frame_cache_hit"), counter("frame_cache_miss")
        ),
        "render.geometry_build_s": _program(snapshot, "frame_geometry_build"),
        "render.composite_s": _program(snapshot, "slice_composite"),
        "render.classify_s": _program(snapshot, "classify_volume")
        + _program(snapshot, "classify_points"),
        "fields.solver.busy_s": ledger.busy("fields.solver"),
        "fields.solver.steps": counts.get("solver_steps", 0),
        "fieldlines.seeding.busy_s": ledger.busy("fieldlines.seeding"),
        "fieldlines.seeding.lines": counter("lines_seeded"),
        "fieldlines.integrate_s": _program(snapshot, "integrate"),
        "fieldlines.sos.busy_s": ledger.busy("fieldlines.sos"),
        "fieldlines.sos.triangles": counter("triangles_emitted"),
        "remote.client.get.busy_s": ledger.busy("remote.client.get"),
        "remote.client.stream.busy_s": ledger.busy("remote.client.stream"),
        "remote.client.retries": counter("remote_retries"),
        "remote.client.bytes_received": counter("remote_bytes_received"),
        "remote.service.cache_hit_ratio": _ratio(
            counter("service_cache_hits"), counter("service_cache_misses")
        ),
        "remote.service.extractions": counter("service_extractions"),
        "remote.service.coalesced": counter("service_coalesced"),
        "remote.service.shed_requests": counter("service_shed_requests"),
        "remote.service.timeouts": counter("service_timeouts"),
        "remote.service.bytes_sent": counter("service_bytes_sent"),
        "remote.service.extract_s": service_extract,
        "octree.lod.base_reads": counter("lod_base_reads"),
        "octree.lod.delta_reads": counter("lod_delta_reads"),
    }


def ledger_table(metrics: dict, wall: float) -> list[dict]:
    """Layer rows (busy seconds and share of the window), busiest first."""
    rows = [
        {
            "layer": key[: -len(".busy_s")],
            "busy_s": value,
            "share": value / wall if wall > 0 else 0.0,
        }
        for key, value in metrics.items()
        if key.endswith(".busy_s") and value > 0
    ]
    return sorted(rows, key=lambda r: -r["busy_s"])
