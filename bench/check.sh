#!/usr/bin/env bash
# Lint, unit tests and a smoke run of the benchmark.  A later issue
# wires this into CI; this PR may not touch the workflow file.
set -euo pipefail
cd "$(dirname "$0")/.."

if command -v ruff >/dev/null 2>&1; then
    ruff check bench/
else
    echo "ruff not installed - lint skipped" >&2
fi
python3 -m pytest bench/tests -q
python3 bench/run.py --smoke
