#!/usr/bin/env bash
# Builds the end-to-end benchmark into build-e2e/, runs all five workloads,
# prints every metric by name with its unit, and exits non-zero on any
# failed check.
#
#   bench/e2e/run.sh [--seed=N] [--trace]
set -euo pipefail
exec python3 "$(dirname "$0")/run.py" "$@"
