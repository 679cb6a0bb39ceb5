#!/usr/bin/env bash
# The pre-merge gate: lint + tier-1 tests, or one bench gate.
#
#   scripts/check.sh              # ruff, then the tier-1 tests
#   scripts/check.sh --no-lint    # the tier-1 tests only
#   scripts/check.sh --gate NAME  # gate NAME: its suites, its bench, its rows
#
# The gates (faults, perf, store, forest, service, lod, amr, scenarios)
# are one table in scripts/perf_gate.py, each described in its entry;
# `--gate` with an unknown name lists them.
#
# ruff is optional: environments without it (the pinned CI image bakes
# only the runtime deps) skip the lint step with a notice instead of
# failing.
set -euo pipefail

cd "$(dirname "$0")/.."

if [[ "${1:-}" == "--gate" ]]; then
    exec python scripts/perf_gate.py "${2:-}"
fi

if [[ "${1:-}" != "--no-lint" ]]; then
    if command -v ruff >/dev/null 2>&1; then
        echo "== ruff =="
        ruff check src tests benchmarks
    elif python -c "import ruff" >/dev/null 2>&1; then
        echo "== ruff (module) =="
        python -m ruff check src tests benchmarks
    else
        echo "== ruff not installed; skipping lint =="
    fi
fi

echo "== tier-1 tests =="
PYTHONPATH=src python -m pytest -x -q
