#!/usr/bin/env python3
"""One pipeline benchmark over both paper chains and the service.

Run from the repository root::

    python3 benchmarks/pipeline/run.py --seed 0                  # all four workloads
    python3 benchmarks/pipeline/run.py --seed 0 --trace          # ... plus traced runs
    python3 benchmarks/pipeline/run.py --workload beam_sc --seed 3 --seconds 20 --trace 0
    python3 benchmarks/pipeline/run.py compare A/ B/

A single ``--workload`` runs in this process and prints, as its last
line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` -- the end-to-end metrics of ``BENCHMARK.json`` untraced,
its per-layer metrics with ``--trace 1``.  Without ``--workload`` every
workload runs in its own subprocess (so peak RSS and module caches
start fresh) and a table is printed.  Each run writes one result JSON
(and, traced, ``trace_<workload>.json``) under ``--out``.  ``compare``
reads two such directories and gives a verdict per (metric, workload)
against the bounds in ``BENCHMARK.json``.

Exit status is 0 when every output check passed, 1 when one failed,
and 2 when the sources or ``BENCHMARK.json`` are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
DEFAULT_OUT = HERE / "out"


def _fail(message: str) -> None:
    print(f"run.py: {message}", file=sys.stderr)
    raise SystemExit(2)


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        _fail(f"{path} not found")
    return json.loads(path.read_text())


def _import_workloads():
    """Import the workloads against this checkout's ``src`` tree."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        _fail(f"no repro sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import repro

    if Path(repro.__file__).resolve().parents[1] != src.resolve():
        _fail(f"imported repro from {repro.__file__}, not from {src}")
    import workloads

    return workloads


def git_commit() -> str:
    """HEAD of the checkout this file lives in, read from its ``.git``
    directory, or ``"unknown"``."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int, seconds: float, sizes: dict) -> dict:
    import numpy
    import scipy

    return {
        "commit": git_commit(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "seed": seed,
        "seconds": seconds,
        "sizes": sizes,
    }


def _result_path(out: Path, workload: str, seed: int, traced: bool) -> Path:
    stem = f"{workload}-seed{seed}" + ("-trace" if traced else "")
    k = 0
    while (out / f"{stem}-{k}.json").exists():
        k += 1
    return out / f"{stem}-{k}.json"


def _last_json_line(text: str) -> dict | None:
    lines = text.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


# ----------------------------------------------------------------------
def run_one(args, spec: dict) -> int:
    """Measure one workload in this process."""
    workloads = _import_workloads()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    overhead_base = None
    if args.trace:
        # the same workload untraced, in a fresh process, gives the
        # tracing overhead
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", "0", "--out", str(out)],
            capture_output=True, text=True, timeout=170,
        )
        overhead_base = _last_json_line(child.stdout)
        if child.returncode != 0 or overhead_base is None:
            sys.stderr.write(child.stderr)
            print(f"run.py: untraced {args.workload} run failed", file=sys.stderr)
            return 1
        print("".join(child.stdout.splitlines(keepends=True)[:-1]), end="")

    cpus = getattr(workloads.WORKLOADS[args.workload], "cpus", None)
    if cpus:
        pin_cpus(cpus)
    work = out / f"work-{args.workload}-{os.getpid()}"
    res = workloads.run(
        args.workload, seed=args.seed, seconds=args.seconds, workdir=work, trace=bool(args.trace)
    )
    res.update(trace=bool(args.trace), seed=args.seed, correct=res["failed"] == 0,
               env=environment(args.seed, args.seconds, res["sizes"]))
    if args.trace:
        add_trace_overhead(res, overhead_base["metrics"]["ops_per_s"]["value"])
        from ledger import ledger_table

        trace_doc = {key: res[key] for key in ("workload", "seed", "wall_s", "env")}
        trace_doc.update(
            ledger=ledger_table(res["layers"], res["wall_s"]),
            metrics=res["layers"],
            spans=res.pop("spans"),
            program=res.pop("program"),
        )
        (out / f"trace_{args.workload}.json").write_text(json.dumps(trace_doc, indent=1))
    line = summary(res, spec, bool(args.trace))
    path = _result_path(out, args.workload, args.seed, bool(args.trace))
    path.write_text(json.dumps(res, indent=1, default=float))

    print(f"{args.workload} seed {args.seed}: {res['attempted']} ops, "
          f"{res['failed']} failed, window {res['wall_s']:.2f} s -> {path.name}")
    for err in res["errors"]:
        print(f"  check failed: {err}")
    if args.trace:
        for row in trace_doc["ledger"]:
            print(f"  {row['layer']:<28} {row['busy_s']:9.3f} s  {100 * row['share']:5.1f} %")
    for name, v in line["metrics"].items():
        print(f"  {name:<36} {v['value']:.6g} {v['unit']}")
    print(json.dumps(line))
    return 0 if res["correct"] else 1


def pin_cpus(n: int) -> None:
    """Keep this process, and the threads it starts from now on, on its
    first ``n`` allowed CPUs; a no-op where affinity cannot be set."""
    try:
        os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:n])
    except (AttributeError, OSError):
        pass


def add_trace_overhead(res: dict, untraced_ops_per_s: float) -> None:
    """``trace_overhead_frac``: untraced over traced throughput, minus one."""
    traced = res["metrics"]["ops_per_s"]
    res["layers"]["trace_overhead_frac"] = untraced_ops_per_s / traced - 1.0 if traced else 0.0


def summary(res: dict, spec: dict, traced: bool) -> dict:
    """The result line: every end-to-end metric of ``spec`` untraced,
    every per-layer metric traced, each with its unit."""
    group = spec["per_layer"] if traced else spec["end_to_end"]
    values = res["layers"] if traced else res["metrics"]
    missing = [m["name"] for m in group if m["name"] not in values]
    if missing:
        raise KeyError(f"{res['workload']} does not produce {', '.join(missing)}")
    return {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in group},
    }


def run_all(args, spec: dict) -> int:
    """Every workload in its own subprocess, then one table."""
    rows, ok = [], True
    for w in spec["workloads"]:
        # a traced run measures the same workload untraced first
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--out", str(args.out)],
            capture_output=True, text=True, timeout=400,
        )
        sys.stdout.write("".join(child.stdout.splitlines(keepends=True)[:-1]))
        sys.stderr.write(child.stderr)
        doc = _last_json_line(child.stdout)
        ok = ok and child.returncode == 0
        if doc is None:
            print(f"{w['name']}: FAILED (exit {child.returncode})")
        else:
            rows.append((w["name"], doc))
    print()
    for name, doc in rows:
        for metric, v in doc["metrics"].items():
            print(f"{name:<16} {metric:<36} {v['value']:>12.6g} {v['unit']}")
    return 0 if ok else 1


# ----------------------------------------------------------------------
def _load_results(directory: Path) -> dict:
    """{workload: {metric: [values]}} over the untraced results in a directory."""
    out: dict = {}
    for path in sorted(Path(directory).glob("*.json")):
        doc = json.loads(path.read_text())
        if "workload" not in doc or doc.get("trace") or "metrics" not in doc:
            continue
        per = out.setdefault(doc["workload"], {})
        for metric, value in doc["metrics"].items():
            per.setdefault(metric, []).append(float(value))
    return out


def _quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(a: list, b: list, better: str, bound: float) -> tuple:
    """Verdict of side ``b`` against side ``a`` and B's relative change
    in the metric's better direction (positive is better)."""
    a1, am, a3 = _quartiles(a)
    b1, bm, b3 = _quartiles(b)
    sign = 1.0 if better == "higher" else -1.0
    gain = sign * (bm - am) / abs(am) if am else 0.0
    spread = max((a3 - a1) / abs(am) if am else 0.0, (b3 - b1) / abs(bm) if bm else 0.0)
    pairs = [sign * (y - x) for x in a for y in b]
    wins = sum(p > 0 for p in pairs) / len(pairs)
    if gain > spread and wins >= 0.9:
        return "better", gain
    if spread > bound and wins < 1.0:
        return "unresolved", gain
    if -gain > bound:
        return "worse", gain
    return "unchanged", gain


def compare(a_dir: str, b_dir: str, spec: dict) -> int:
    a, b = _load_results(Path(a_dir)), _load_results(Path(b_dir))
    worse = False
    print(f"{'metric':<16} {'workload':<16} {'A median [q1, q3]':>30} "
          f"{'B median [q1, q3]':>30} {'change':>8}  verdict")
    for m in spec["end_to_end"]:
        for w in spec["workloads"]:
            va = a.get(w["name"], {}).get(m["name"])
            vb = b.get(w["name"], {}).get(m["name"])
            if not va or not vb:
                print(f"{m['name']:<16} {w['name']:<16} {'(missing)':>30}")
                continue
            v, gain = verdict(va, vb, m["better"], m["bound"])
            worse = worse or v == "worse"
            cells = []
            for vals in (va, vb):
                q1, med, q3 = _quartiles(vals)
                cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}] n={len(vals)}")
            print(f"{m['name']:<16} {w['name']:<16} {cells[0]:>30} {cells[1]:>30} "
                  f"{100 * gain:+7.1f}%  {v} (bound {100 * m['bound']:.0f}%)")
    return 1 if worse else 0


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    spec = load_spec()
    if argv[:1] == ["compare"]:
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("a")
        p.add_argument("b")
        args = p.parse_args(argv[1:])
        return compare(args.a, args.b, spec)

    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(prog="run.py", description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=names)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    p.add_argument("--out", default=str(DEFAULT_OUT))
    args = p.parse_args(argv)
    if args.workload:
        return run_one(args, spec)
    return run_all(args, spec)


if __name__ == "__main__":
    sys.exit(main())
