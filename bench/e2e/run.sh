#!/usr/bin/env bash
# SPDX-License-Identifier: Apache-2.0
# Build the end-to-end benchmark (Release, into build-bench/ at the
# repository root) and run it; every argument goes to mp3d_bench:
#   bench/e2e/run.sh --seed 1 --out build-bench/out
#   bench/e2e/run.sh --workload matmul_4mib --seed 3 --seconds 20 --trace 0
# Build output goes to stderr, so stdout carries only the report, whose
# last line is one JSON object.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(cd "$here/../.." && pwd)/build-bench"
cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" --target mp3d_bench -j "$(nproc)" >&2
exec "$build/mp3d_bench" "$@"
