"""The bench gate table (``scripts/perf_gate.py``): verdicts row by row.

Every committed ``BENCH_*.json`` a gate reads passes all its rows with
itself as the baseline.  For every row, a copy nudged just past its
threshold fails that row alone and a copy just inside passes; each
guard turns its row into a skip.  The files are only read, at HEAD
when the checkout has git (a local gate run rewrites the working copy).
"""

import copy
import functools
import importlib.util
import json
import math
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


pg = _load("perf_gate", ROOT / "scripts" / "perf_gate.py")
ROWS = [(name, i) for name, gate in pg.GATES.items() for i in range(len(gate.rows))]
GUARDED = [(n, i) for n, i in ROWS if pg.GATES[n].rows[i].same or pg.GATES[n].rows[i].cpus]
RANGES = [(n, i) for n, i in ROWS if pg.GATES[n].rows[i].check == "in"]


@functools.lru_cache(maxsize=None)
def _committed_text(file):
    try:
        head = subprocess.run(
            ["git", "show", f"HEAD:{file}"], cwd=ROOT, capture_output=True, text=True
        )
    except OSError:  # no git on this machine
        head = None
    return head.stdout if head and head.returncode == 0 else (ROOT / file).read_text()


def committed(name):
    return json.loads(_committed_text(pg.GATES[name].file))["extra"]


def statuses(name, fresh, base):
    return [pg.verdict(row, fresh, base)[0] for row in pg.GATES[name].rows]


def _set(doc, path, value):
    *head, last = path.split(".")
    parent = pg.lookup(doc, ".".join(head))
    parent[int(last) if isinstance(parent, list) else last] = value


def _past(check, limit):
    """A value just across ``limit`` for ``check``, and one just inside."""
    if isinstance(limit, int):
        past = {"<": limit, "<=": limit + 1, ">": limit, ">=": limit - 1, "==": limit + 1}
        inside = {"<": limit - 1, "<=": limit, ">": limit + 1, ">=": limit, "==": limit}
        return past[check], inside[check]
    up, down = math.nextafter(limit, math.inf), math.nextafter(limit, -math.inf)
    return {"<": (limit, down), "<=": (up, limit), ">": (limit, up), ">=": (down, limit)}[check]


# predicate rows: (a change to the block that fails the row, one that passes)
PREDICATE_NUDGES = {
    "all(r['bytes'] > 0 for r in rates)": (
        lambda d: d["rates"][1].update(bytes=0),
        lambda d: d["rates"][1].update(bytes=1),
    ),
    "rates[-1]['retries'] >= 1 or rates[-1]['injected'] == {}": (
        lambda d: d["rates"][-1].update(retries=0, injected={"corrupt": 1}),
        lambda d: d["rates"][-1].update(retries=0, injected={}),
    ),
    "served + shed == well_behaved": (
        lambda d: d.update(shed=d["shed"] + 1),
        lambda d: d.update(served=d["served"] - 1, shed=d["shed"] + 1),
    ),
    "amr_core_nonzero > flat_core_nonzero": (
        lambda d: d.update(amr_core_nonzero=d["flat_core_nonzero"]),
        lambda d: d.update(amr_core_nonzero=d["flat_core_nonzero"] + 1),
    ),
    "final_error <= 2.0 * deadband": (
        lambda d: d.update(final_error=math.nextafter(2.0 * d["deadband"], math.inf)),
        lambda d: d.update(final_error=2.0 * d["deadband"]),
    ),
    "members_ok == n_members == 16": (
        lambda d: d.update(members_ok=15),
        lambda d: d.update(members_ok=16),
    ),
    "crash_injected and pool_breaks >= 1": (
        lambda d: d.update(pool_breaks=0),
        lambda d: d.update(pool_breaks=1),
    ),
    "resumed == n_members == 16": (
        lambda d: d.update(resumed=15),
        lambda d: d.update(resumed=16),
    ),
}


def nudges(name, index):
    """``(fresh past, base past), (fresh inside, base inside)`` for one row.

    Guards are met first (``cpu_count`` raised to the row's ``cpus``).  A
    drift row moves the baseline (x2, or /2 where lower is better) and
    puts the fresh value at the drift limit, so no constant row on the
    same path moves; every other row uses its nudged copy as its own
    baseline, so no drift row moves.  A drift nudge starts from a value
    inside every constant row on its path: a value recorded on fewer
    CPUs than a guarded floor needs may sit below that floor.
    """
    row = pg.GATES[name].rows[index]
    doc = committed(name)
    if row.cpus:
        doc["cpu_count"] = max(doc.get("cpu_count", 1), row.cpus)
    pairs = []
    if row.check in ("drift", "drift-"):
        now = pg.lookup(doc, row.path)
        for other in pg.GATES[name].rows:
            if other.path == row.path and other.check in (">", ">="):
                now = max(now, other.limit)
            elif other.path == row.path and other.check in ("<", "<="):
                now = min(now, other.limit)
        was = 2.0 * now if row.check == "drift" else now / 2.0
        limit = (1.0 - pg.TOLERANCE if row.check == "drift" else 1.0 + pg.TOLERANCE) * was
        for value in _past(">=" if row.check == "drift" else "<=", limit):
            fresh, base = copy.deepcopy(doc), copy.deepcopy(doc)
            _set(fresh, row.path, value)
            _set(base, row.path, was)
            pairs.append((fresh, base))
        return pairs
    if row.check == "digest":
        changed = copy.deepcopy(doc)
        _set(changed, row.path, "0" * 64)
        return [(changed, doc), (doc, copy.deepcopy(doc))]
    if row.check == "flag":
        values = (False, True)
    elif row.check == "in":
        values = (math.nextafter(row.limit[1], math.inf), row.limit[1])
    elif row.check in pg.OPS:
        values = _past(row.check, row.limit)
    else:
        values = PREDICATE_NUDGES[row.check]
    for value in values:
        fresh = copy.deepcopy(doc)
        if callable(value):
            value(pg.lookup(fresh, row.path))
        else:
            _set(fresh, row.path, value)
        pairs.append((fresh, copy.deepcopy(fresh)))
    return pairs


@pytest.mark.parametrize("name", list(pg.GATES))
def test_committed_file_passes_every_row(name):
    doc = committed(name)
    got = statuses(name, doc, copy.deepcopy(doc))
    assert "FAIL" not in got
    guarded = [i for i, row in enumerate(pg.GATES[name].rows) if doc.get("cpu_count", 1) < row.cpus]
    assert [i for i, s in enumerate(got) if s == "skip"] == guarded


@pytest.mark.parametrize("name,index", ROWS)
def test_nudge_past_fails_that_row_alone(name, index):
    (past, past_base), (inside, inside_base) = nudges(name, index)
    got = statuses(name, past, past_base)
    assert got[index] == "FAIL"
    assert [i for i, s in enumerate(got) if s == "FAIL"] == [index]
    assert "FAIL" not in statuses(name, inside, inside_base)


@pytest.mark.parametrize("name,index", RANGES)
def test_range_rows_fail_below_too(name, index):
    row = pg.GATES[name].rows[index]
    for value, want in ((math.nextafter(row.limit[0], -math.inf), "FAIL"), (row.limit[0], "ok")):
        doc = committed(name)
        _set(doc, row.path, value)
        assert pg.verdict(row, doc, copy.deepcopy(doc))[0] == want


@pytest.mark.parametrize("name,index", GUARDED)
def test_guard_turns_the_row_into_a_skip(name, index):
    row = pg.GATES[name].rows[index]
    (fresh, base), _ = nudges(name, index)
    if row.cpus:
        fresh = dict(fresh, cpu_count=row.cpus - 1)
    else:
        fresh = dict(fresh, **{row.same: fresh[row.same] + 1})
    status, text = pg.verdict(row, fresh, base)
    assert status == "skip", text


@pytest.mark.parametrize("name,index", ROWS)
def test_without_a_baseline_only_baseline_rows_skip(name, index):
    row = pg.GATES[name].rows[index]
    (fresh, _), _ = nudges(name, index)
    status, _text = pg.verdict(row, fresh, None)
    if row.check in ("drift", "drift-", "digest"):
        assert status == "skip"
    else:
        assert status == "FAIL"  # every other row needs no baseline


def test_perf_bit_identical_is_checked_without_a_baseline():
    doc = committed("perf")
    doc["frame"]["bit_identical"] = False
    got = statuses("perf", doc, None)
    assert got[0] == "FAIL" and pg.evaluate("perf", doc, None) == 1


def test_selector_path_reads_the_batch_size_8_row():
    doc = committed("perf")
    want = next(r for r in doc["seeding"]["batched"] if r["batch_size"] == 8)["speedup"]
    assert pg.lookup(doc, "seeding.batched.batch_size=8.speedup") == want


def test_every_gate_names_existing_suites_bench_and_file():
    for gate in pg.GATES.values():
        for target in gate.suites.split():
            assert (ROOT / target).exists(), target
        assert (ROOT / gate.bench).is_file(), gate.bench
        assert (ROOT / gate.file).is_file(), gate.file


@pytest.mark.parametrize("argv", [[], ["bogus"], ["--store"]])
def test_unknown_gate_exits_2_and_lists_the_gates(argv, capsys):
    assert pg.main(argv) == 2
    err = capsys.readouterr().err
    for name, gate in pg.GATES.items():
        assert name in err and gate.about in err


def test_run_stops_at_the_first_failing_step(monkeypatch, capsys):
    calls = []

    def fake_call(argv, **kwargs):
        calls.append(argv)
        return 5

    monkeypatch.setattr(pg.subprocess, "call", fake_call)
    assert pg.run("lod") == 5
    assert len(calls) == 1 and "tests/octree/test_lod.py" in calls[0]


def test_run_sets_the_bench_env_and_evaluates_the_file(tmp_path, monkeypatch, capsys):
    envs = []
    (tmp_path / "BENCH_lod.json").write_text(json.dumps({"extra": committed("lod")}))
    monkeypatch.setattr(pg, "ROOT", tmp_path)  # not a git checkout: no baseline

    def fake_call(argv, env, **kwargs):
        envs.append(env)
        return 0

    monkeypatch.setattr(pg.subprocess, "call", fake_call)
    monkeypatch.delenv("REPRO_LOD_PARTICLES", raising=False)
    assert pg.run("lod") == 0
    suites_env, bench_env = envs
    assert "REPRO_LOD_PARTICLES" not in suites_env
    assert bench_env["REPRO_LOD_PARTICLES"] == "2000000"
    assert bench_env["PYTHONPATH"] == "src"
    out = capsys.readouterr().out
    assert "ok   prefix_valid" in out and "no committed baseline" in out
    assert "0 of 5 rows failed" in out

    envs.clear()
    monkeypatch.setenv("REPRO_LOD_PARTICLES", "123")
    pg.run("lod")
    assert envs[1]["REPRO_LOD_PARTICLES"] == "123"  # the caller's value wins


def test_record_bench_stamps_env(tmp_path, monkeypatch):
    from repro.core.trace import Tracer

    common = _load("bench_common", ROOT / "benchmarks" / "common.py")
    monkeypatch.setattr(common, "REPO_ROOT", tmp_path)
    monkeypatch.setenv("REPRO_LOD_PARTICLES", "1234")
    path = common.record_bench("probe", Tracer(enabled=True), extra={"n": 1})
    assert path == tmp_path / "BENCH_probe.json"
    doc = json.loads(path.read_text())
    env = doc["env"]
    assert {"python", "numpy", "scipy", "platform", "cpu_count", "commit"} <= set(env)
    assert env["repro"]["REPRO_LOD_PARTICLES"] == "1234"
    assert env["repro"]["REPRO_SCALE"] == str(common.SCALE)
    assert env["commit"] is None or len(env["commit"]) == 40
    assert doc["extra"] == {"n": 1} and "spans" in doc["trace"]
