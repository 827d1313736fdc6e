#!/usr/bin/env bash
# Builds the benchmark and the nncps-serve daemon it drives (release), then
# runs the benchmark with this script's arguments.  Run from the repository
# root, e.g.:
#   bash e2e_bench/run.sh --workload registry-cold --seed 1 --seconds 30 --trace 0
set -euo pipefail
target="${CARGO_TARGET_DIR:-e2e_bench/target}"
cargo build --quiet --release --manifest-path e2e_bench/Cargo.toml --bins >&2
exec "$target/release/e2e-bench" "$@"
