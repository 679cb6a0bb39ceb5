"""Measurement helpers the benches report.

Size accounting, frame-rate estimates and latency percentiles; image
metrics live in :mod:`repro.render.image`.
"""

from __future__ import annotations

import time

__all__ = ["size_report", "fps_estimate", "human_bytes", "percentile", "Timer"]

_UNITS = ["B", "KB", "MB", "GB", "TB", "PB"]


def human_bytes(n: float) -> str:
    """Render a byte count the way the paper does (5 GB, 48 GB, 26 TB)."""
    n = float(n)
    for unit in _UNITS:
        if abs(n) < 1024.0 or unit == _UNITS[-1]:
            return f"{n:.3g} {unit}"
        n /= 1024.0
    return f"{n:.3g} PB"


def size_report(raw_bytes: int, reduced_bytes: int, label: str = "") -> dict:
    """Raw-vs-reduced storage comparison."""
    return {
        "label": label,
        "raw_bytes": int(raw_bytes),
        "reduced_bytes": int(reduced_bytes),
        "raw_human": human_bytes(raw_bytes),
        "reduced_human": human_bytes(reduced_bytes),
        "reduction_factor": raw_bytes / max(reduced_bytes, 1),
    }


def fps_estimate(render_fn, repeats: int = 3) -> float:
    """Frames per second of a zero-argument render callable (best of
    ``repeats``, matching how interactive frame rates are quoted)."""
    best = float("inf")
    for _ in range(max(repeats, 1)):
        t0 = time.perf_counter()
        render_fn()
        best = min(best, time.perf_counter() - t0)
    return 1.0 / best if best > 0 else float("inf")


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending sequence:
    ``sorted_values[min(int(q * n), n - 1)]``, or 0.0 when it is empty."""
    n = len(sorted_values)
    if n == 0:
        return 0.0
    return float(sorted_values[min(int(q * n), n - 1)])


class Timer:
    """Context-manager stopwatch: ``with Timer() as t: ...; t.seconds``."""

    def __enter__(self) -> "Timer":
        self._t0 = time.perf_counter()
        self.seconds = 0.0
        return self

    def __exit__(self, *exc) -> None:
        self.seconds = time.perf_counter() - self._t0
