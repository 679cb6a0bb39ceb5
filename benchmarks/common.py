"""Shared benchmark utilities.

Every bench prints (and records under ``benchmarks/results/``) a
"paper vs measured" block for its experiment id from DESIGN.md.  Sizes
default to laptop scale; set ``REPRO_SCALE=2`` (or higher) to grow the
workloads toward the paper's.

``traced_run`` / ``record_bench`` connect the benches to the
:mod:`repro.core.trace` subsystem: a bench runs its workload inside a
fresh tracer and persists the structured output as ``BENCH_<id>.json``
at the repository root, so the perf trajectory accumulates one JSON
document per bench per run.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
from pathlib import Path

from repro.core.trace import Tracer, capture

RESULTS_DIR = Path(__file__).parent / "results"
REPO_ROOT = Path(__file__).parent.parent

SCALE = float(os.environ.get("REPRO_SCALE", "1"))


def scaled(n: int) -> int:
    """Scale a workload size by REPRO_SCALE."""
    return max(int(n * SCALE), 1)


def record(exp_id: str, lines) -> str:
    """Print and persist a paper-vs-measured block."""
    RESULTS_DIR.mkdir(exist_ok=True)
    text = "\n".join([f"== {exp_id} =="] + [str(l) for l in lines]) + "\n"
    (RESULTS_DIR / f"{exp_id}.txt").write_text(text)
    print("\n" + text)
    return text


def traced_run(fn) -> Tracer:
    """Run ``fn()`` under a fresh enabled tracer; returns the tracer.

    The global tracer is swapped for the duration, so the run's spans
    and counters are isolated from any other instrumentation.
    """
    with capture(enabled=True) as tracer:
        fn()
    return tracer


def bench_env() -> dict:
    """Where a bench ran: interpreter and library versions, platform,
    CPU count, the checkout's commit (``None`` outside a git checkout)
    and ``REPRO_SCALE`` with every other ``REPRO_*`` override in effect."""
    import numpy
    import scipy

    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, capture_output=True, text=True
        )
        commit = head.stdout.strip() if head.returncode == 0 else None
    except OSError:  # no git on this machine
        commit = None
    overrides = {k: v for k, v in os.environ.items() if k.startswith("REPRO_")}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "commit": commit,
        "repro": dict(sorted({"REPRO_SCALE": str(SCALE), **overrides}.items())),
    }


def record_bench(exp_id: str, tracer: Tracer, extra: dict | None = None) -> Path:
    """Persist a tracer's output as ``BENCH_<exp_id>.json``.

    The document lands at the repository root (next to README.md) so
    successive runs over the project's history form the perf
    trajectory.  ``extra`` carries bench-specific scalars (sizes,
    derived rates) alongside the trace; ``env`` records where the run
    happened (:func:`bench_env`).
    """
    payload = {
        "bench": exp_id,
        "scale": SCALE,
        "env": bench_env(),
        "trace": tracer.snapshot(),
    }
    if extra:
        payload["extra"] = extra
    path = REPO_ROOT / f"BENCH_{exp_id}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, default=str))
    print(f"\nwrote {path}")
    return path
