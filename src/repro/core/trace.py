"""Pipeline-wide structured tracing (zero-dependency observability).

The paper reports stage-level accounting for its pipeline programs
(partitioning ~7 minutes/step, extraction "a few minutes", section
2.4); this module makes the same accounting a first-class subsystem of
the reproduction.  It provides:

- nestable :func:`span` context managers recording wall time, CPU
  time, and (when memory tracking is on) the peak traced bytes seen
  while the span was open;
- monotonic :func:`count` counters and :func:`gauge` gauges (particles
  routed, octree nodes built, lines seeded, triangles emitted, bytes
  over the remote protocol);
- a process-global :class:`Tracer` with thread-safe aggregation, plus
  :func:`capture` / :meth:`Tracer.merge` so ``ProcessPoolExecutor``
  workers ship their spans back to the parent;
- JSON (:meth:`Tracer.save`) and human-readable table
  (:func:`format_report`) exporters, surfaced on the CLI as
  ``--trace out.json`` and ``repro trace-report``.

Tracing is **off by default**: a disabled :func:`span` returns a
shared no-op context manager, so instrumented hot paths cost a single
attribute check.  Only stdlib is used, so this module imports nothing
else from :mod:`repro` and can be imported from anywhere without
cycles.
"""

from __future__ import annotations

import io
import json
import threading
import time
import tracemalloc

__all__ = [
    "Tracer",
    "span",
    "count",
    "gauge",
    "gauge_peak_rss",
    "capture",
    "enable",
    "disable",
    "get_tracer",
    "set_tracer",
    "format_report",
    "load_trace",
]

TRACE_VERSION = 1


def _new_stats() -> dict:
    return {
        "count": 0,
        "wall": 0.0,
        "cpu": 0.0,
        "max_wall": 0.0,
        "peak_bytes": 0,
        "attrs": {},
    }


class Tracer:
    """Aggregating trace collector.

    Spans are keyed by their *path* -- the ``/``-joined names of the
    open spans on the current thread's stack -- and aggregated in
    place (count, total/max wall seconds, CPU seconds, peak traced
    bytes).  Counters and gauges are flat name -> number maps.
    Aggregation happens under a lock, so spans may close on any
    thread; the span *stack* itself is thread-local, so concurrent
    threads nest independently.
    """

    def __init__(self, enabled: bool = False):
        self.enabled = bool(enabled)
        self.spans: dict[str, dict] = {}
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.meta: dict = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._t_enabled = time.perf_counter() if enabled else None

    # ------------------------------------------------------------------
    # lifecycle
    def enable(self, memory: bool = False) -> "Tracer":
        """Turn tracing on; ``memory=True`` also starts tracemalloc so
        spans record the peak traced bytes while they are open."""
        self.enabled = True
        if self._t_enabled is None:
            self._t_enabled = time.perf_counter()
        if memory and not tracemalloc.is_tracing():
            tracemalloc.start()
        return self

    def disable(self) -> "Tracer":
        """Turn tracing off (existing data is kept)."""
        self.enabled = False
        return self

    def reset(self) -> "Tracer":
        """Drop all collected data and restart the wall clock."""
        with self._lock:
            self.spans.clear()
            self.counters.clear()
            self.gauges.clear()
            self.meta.clear()
        self._t_enabled = time.perf_counter() if self.enabled else None
        return self

    # ------------------------------------------------------------------
    # recording
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_path(self) -> str:
        """``/``-joined names of the spans open on this thread."""
        return "/".join(self._stack())

    def span(self, name: str, **attrs) -> "_SpanContext":
        """Open a nested span; a no-op when tracing is disabled."""
        if not self.enabled:
            return _NULL_SPAN
        return _SpanContext(self, name, attrs)

    def count(self, name: str, inc: float = 1) -> None:
        """Add ``inc`` to a monotonic counter."""
        if not self.enabled:
            return
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + inc

    def gauge(self, name: str, value: float) -> None:
        """Set a gauge to its latest observed value."""
        if not self.enabled:
            return
        with self._lock:
            self.gauges[name] = value

    def _record(self, path, wall, cpu, peak_bytes, attrs) -> None:
        with self._lock:
            stats = self.spans.get(path)
            if stats is None:
                stats = self.spans[path] = _new_stats()
            stats["count"] += 1
            stats["wall"] += wall
            stats["cpu"] += cpu
            stats["max_wall"] = max(stats["max_wall"], wall)
            stats["peak_bytes"] = max(stats["peak_bytes"], peak_bytes)
            if attrs:
                stats["attrs"].update(attrs)

    # ------------------------------------------------------------------
    # merging (multiprocess workers)
    def snapshot(self) -> dict:
        """Plain-dict copy of the collected data (picklable, mergeable)."""
        with self._lock:
            return {
                "version": TRACE_VERSION,
                "wall_seconds": (
                    time.perf_counter() - self._t_enabled
                    if self._t_enabled is not None
                    else 0.0
                ),
                "spans": {k: dict(v, attrs=dict(v["attrs"])) for k, v in self.spans.items()},
                "counters": dict(self.counters),
                "gauges": dict(self.gauges),
                "meta": dict(self.meta),
            }

    def merge(self, snapshot: dict, prefix: str | None = None) -> None:
        """Fold a worker's :meth:`snapshot` into this tracer.

        ``prefix`` re-roots the worker's span paths (pass
        :meth:`current_path` to nest them under the span that launched
        the workers).  Span stats add counts/times and take maxima;
        counters add; gauges take the latest (incoming wins).
        """
        if not snapshot:
            return
        pre = (prefix + "/") if prefix else ""
        with self._lock:
            for path, incoming in snapshot.get("spans", {}).items():
                stats = self.spans.get(pre + path)
                if stats is None:
                    stats = self.spans[pre + path] = _new_stats()
                stats["count"] += incoming["count"]
                stats["wall"] += incoming["wall"]
                stats["cpu"] += incoming["cpu"]
                stats["max_wall"] = max(stats["max_wall"], incoming["max_wall"])
                stats["peak_bytes"] = max(stats["peak_bytes"], incoming["peak_bytes"])
                if incoming.get("attrs"):
                    stats["attrs"].update(incoming["attrs"])
            for name, value in snapshot.get("counters", {}).items():
                self.counters[name] = self.counters.get(name, 0) + value
            for name, value in snapshot.get("gauges", {}).items():
                self.gauges[name] = value

    # ------------------------------------------------------------------
    # export
    def to_dict(self) -> dict:
        """Alias of :meth:`snapshot` (the JSON document layout)."""
        return self.snapshot()

    def to_json(self, indent: int = 2) -> str:
        """Serialize the collected data as a JSON document."""
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True,
                          default=_json_default)

    def save(self, path) -> str:
        """Write :meth:`to_json` to ``path``; returns the path."""
        with open(path, "w") as f:
            f.write(self.to_json())
        return str(path)

    def report(self) -> str:
        """Human-readable per-stage table of the current data."""
        return format_report(self.snapshot())


class _SpanContext:
    """Context manager recording one span occurrence."""

    __slots__ = ("tracer", "name", "attrs", "_t0", "_c0")

    def __init__(self, tracer: Tracer, name: str, attrs: dict):
        self.tracer = tracer
        self.name = name
        self.attrs = attrs

    def __enter__(self) -> "_SpanContext":
        self.tracer._stack().append(self.name)
        self._c0 = time.process_time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        wall = time.perf_counter() - self._t0
        cpu = time.process_time() - self._c0
        stack = self.tracer._stack()
        path = "/".join(stack)
        if stack:
            stack.pop()
        peak = tracemalloc.get_traced_memory()[1] if tracemalloc.is_tracing() else 0
        self.tracer._record(path, wall, cpu, peak, self.attrs)


class _NullSpan:
    """Shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


_NULL_SPAN = _NullSpan()

# ----------------------------------------------------------------------
# the process-global tracer
_tracer = Tracer()


def get_tracer() -> Tracer:
    """The process-global tracer instrumented code records into."""
    return _tracer


def set_tracer(tracer: Tracer) -> Tracer:
    """Swap the process-global tracer; returns the previous one."""
    global _tracer
    previous, _tracer = _tracer, tracer
    return previous


def span(name: str, **attrs):
    """Open a span on the global tracer (no-op when disabled)."""
    t = _tracer
    if not t.enabled:
        return _NULL_SPAN
    return _SpanContext(t, name, attrs)


def count(name: str, inc: float = 1) -> None:
    """Bump a counter on the global tracer."""
    _tracer.count(name, inc)


def gauge(name: str, value: float) -> None:
    """Set a gauge on the global tracer."""
    _tracer.gauge(name, value)


def gauge_peak_rss(name: str = "peak_rss_bytes") -> float:
    """Record the process's lifetime peak RSS (bytes) as a gauge.

    On Linux reads ``VmHWM`` from ``/proc/self/status``, which is reset
    at exec() -- unlike ``ru_maxrss``, whose high-water mark in a child
    spawned from a large parent includes the parent's copy-on-write
    pages resident between fork() and exec().  Falls back to
    ``ru_maxrss`` (kibibytes on Linux, bytes on macOS) where /proc is
    unavailable; returns the value so callers -- e.g. the out-of-core
    RAM-cap gate -- can also assert on it.  Returns 0.0 on platforms
    without :mod:`resource`.
    """
    rss = 0.0
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    rss = float(line.split()[1]) * 1024.0
                    break
    except OSError:  # pragma: no cover - non-Linux
        pass
    if rss == 0.0:  # pragma: no cover - non-Linux fallback
        try:
            import resource
            import sys
        except ImportError:
            return 0.0
        rss = float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        if sys.platform != "darwin":
            rss *= 1024.0
    _tracer.gauge(name, rss)
    return rss


def enable(memory: bool = False) -> Tracer:
    """Enable the global tracer and return it."""
    return _tracer.enable(memory=memory)


def disable() -> Tracer:
    """Disable the global tracer and return it."""
    return _tracer.disable()


class capture:
    """Record a region into a fresh tracer (worker-side isolation).

    Installs a new :class:`Tracer` as the process global for the
    duration of the ``with`` block and exposes it as the ``as`` target,
    so the block's spans/counters can be shipped to a parent process::

        def _worker(args, trace_enabled=False):
            with capture(enabled=trace_enabled) as t:
                ...instrumented work...
            return result, t.snapshot()

    The parent then calls ``get_tracer().merge(snap, prefix=...)``.
    Passing the parent's ``enabled`` flag through the task arguments
    makes worker tracing correct under both fork and spawn start
    methods.  ``enabled=None`` inherits the current global state.
    """

    def __init__(self, enabled: bool | None = None):
        self._enabled = enabled
        self._previous: Tracer | None = None
        self.tracer: Tracer | None = None

    def __enter__(self) -> Tracer:
        want = _tracer.enabled if self._enabled is None else bool(self._enabled)
        self.tracer = Tracer(enabled=want)
        self._previous = set_tracer(self.tracer)
        return self.tracer

    def __exit__(self, *exc) -> None:
        if self._previous is not None:
            set_tracer(self._previous)


# ----------------------------------------------------------------------
# reporting
def load_trace(path) -> dict:
    """Read a trace document: a :meth:`Tracer.save` file, or a file that
    nests one -- a bench's ``BENCH_*.json`` (under ``trace``) or the
    pipeline bench's ``trace_<workload>.json`` (under ``program``).

    Raises ``ValueError`` when the file is not JSON
    (``json.JSONDecodeError``) or the document holds no span table.
    """
    with open(path) as f:
        data = json.load(f)
    for key in ("program", "trace"):
        if isinstance(data, dict) and isinstance(data.get(key), dict):
            data = data[key]
    if not isinstance(data, dict) or not isinstance(data.get("spans"), dict):
        raise ValueError("no span table")
    return data


def _human_bytes(n: float) -> str:
    for unit in ("B", "KB", "MB", "GB", "TB"):
        if abs(n) < 1024.0 or unit == "TB":
            return f"{n:.3g} {unit}"
        n /= 1024.0
    return f"{n:.3g} TB"


def format_report(data: dict) -> str:
    """Render a trace document as a per-stage breakdown table.

    Paths are shown as an indented tree; ``self`` is a span's wall
    time minus its direct children's (time spent in the stage itself).
    Percentages are of the summed top-level span wall time.
    """
    spans = data.get("spans", {})
    out = io.StringIO()
    if spans:
        children: dict[str, list] = {}
        roots: list[str] = []
        for path in sorted(spans):
            if "/" in path:
                children.setdefault(path.rsplit("/", 1)[0], []).append(path)
            else:
                roots.append(path)
        total = sum(spans[r]["wall"] for r in roots) or 1.0

        def direct_child_wall(path: str) -> float:
            return sum(spans[c]["wall"] for c in children.get(path, ()))

        name_width = max(
            (2 * path.count("/") + len(path.rsplit("/", 1)[-1]) for path in spans),
            default=5,
        )
        name_width = max(name_width, len("stage"))
        header = (
            f"{'stage':<{name_width}}  {'count':>7}  {'wall s':>9}  "
            f"{'self s':>9}  {'cpu s':>9}  {'%':>6}"
        )
        out.write(header + "\n")
        out.write("-" * len(header) + "\n")

        def emit(path: str, depth: int) -> None:
            s = spans[path]
            name = "  " * depth + path.rsplit("/", 1)[-1]
            self_wall = max(s["wall"] - direct_child_wall(path), 0.0)
            out.write(
                f"{name:<{name_width}}  {s['count']:>7}  {s['wall']:>9.3f}  "
                f"{self_wall:>9.3f}  {s['cpu']:>9.3f}  "
                f"{100.0 * s['wall'] / total:>6.1f}\n"
            )
            for child in children.get(path, ()):
                emit(child, depth + 1)

        for root in roots:
            emit(root, 0)
        wall = data.get("wall_seconds", 0.0)
        out.write(
            f"\ntraced {sum(spans[r]['wall'] for r in roots):.3f} s across "
            f"{len(roots)} top-level stages"
        )
        if wall:
            out.write(f" ({100.0 * sum(spans[r]['wall'] for r in roots) / wall:.1f}% "
                      f"of {wall:.3f} s wall)")
        out.write("\n")
    else:
        out.write("(no spans recorded)\n")

    counters = data.get("counters", {})
    if counters:
        out.write("\ncounters\n--------\n")
        for name in sorted(counters):
            value = counters[name]
            human = f"  ({_human_bytes(value)})" if "bytes" in name else ""
            out.write(f"{name:<32}  {value:>14,.0f}{human}\n")
    gauges = data.get("gauges", {})
    if gauges:
        out.write("\ngauges\n------\n")
        for name in sorted(gauges):
            out.write(f"{name:<32}  {gauges[name]:>14,.4g}\n")
    return out.getvalue()


def _json_default(obj):
    """Best-effort serialization for numpy scalars and other strays."""
    try:
        return float(obj)
    except (TypeError, ValueError):
        return str(obj)
