#!/usr/bin/env bash
# CI gate for the workspace. Run from the repository root:
#
#   ./ci.sh          # full gate: fmt, build, tests, docs, lints, the
#                    # e2e_bench build + unit tests, scenario-regression,
#                    # bench smoke + bench-regression
#   ./ci.sh quick    # skip the release build, the scenario-regression run,
#                    # and the bench stages (debug tests + docs + lints)
#
# Every step must pass with zero warnings.
set -euo pipefail

quick="${1:-}"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo build --release"
if [ "$quick" != "quick" ]; then
    cargo build --release
fi

echo "==> cargo build --examples"
if [ "$quick" != "quick" ]; then
    cargo build --release --examples
else
    cargo build --examples
fi

echo "==> cargo test -q (unit + integration + doc tests)"
cargo test -q

echo "==> cargo doc --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps

echo "==> cargo clippy --all-targets (warnings are errors)"
cargo clippy --all-targets -- -D warnings

# --- frozen end-to-end benchmark ----------------------------------------------
# e2e_bench/ is a cargo package of its own that builds against this
# workspace through path dependencies.  Build it and run its unit tests
# here, so a library API change that breaks the benchmark fails CI instead
# of the benchmark run.  The package is frozen: its uses of the deprecated
# no-ops (`with_threads`, `with_batched_evaluation`, `smt_threads`,
# `smt_batched_evaluation`, `CompiledFormula::ensure_gradients`) print
# deprecation warnings here.
echo "==> e2e_bench: build + unit tests against the current library"
if [ "$quick" != "quick" ]; then
    cargo test -q --release --manifest-path e2e_bench/Cargo.toml
else
    cargo test -q --manifest-path e2e_bench/Cargo.toml
fi

# --- scenario-regression ----------------------------------------------------
# Run the batch verifier over the whole scenario registry and diff verdicts
# and witness/certificate fingerprints against the checked-in baseline.  Any
# drift fails the gate; after an *intended* semantic change, regenerate with:
#
#   cargo run --release --bin nncps-batch -- --write-expected SCENARIOS_expected.json
if [ "$quick" != "quick" ]; then
    echo "==> scenario-regression: nncps-batch --check SCENARIOS_expected.json"
    cargo run --release --bin nncps-batch -- --quiet --check SCENARIOS_expected.json
else
    echo "==> scenario-regression: (skipped in quick mode)"
fi

# --- family-sweep regression -------------------------------------------------
# Sweep the 24-member CI family (contraction rate x X0 x solver precision
# over the rotation-contraction system) with warm-start caching.  The run
# itself gates on the family's pinned verdict counts (12 certified / 12
# inconclusive, declared in `builtin_families()` — nncps-batch exits nonzero
# on count drift), and a second run must produce a byte-identical
# deterministic report: warm-start reuse and scenario-level threading are
# required to be bit-invisible.
if [ "$quick" != "quick" ]; then
    echo "==> family-sweep: nncps-batch --family linear-ci-grid (counts + determinism)"
    sweep_a="$PWD/target/family_sweep_a.json"
    sweep_b="$PWD/target/family_sweep_b.json"
    cargo run --release --bin nncps-batch -- \
        --family linear-ci-grid --quiet --threads 1 --out-deterministic "$sweep_a"
    cargo run --release --bin nncps-batch -- \
        --family linear-ci-grid --quiet --threads 2 --cold --out-deterministic "$sweep_b"
    cmp "$sweep_a" "$sweep_b" \
        || { echo "family sweep is not deterministic across runs/threads/warm-start"; exit 1; }
    echo "    family sweep byte-identical across warm/cold and 1/2 threads"
    # Every builtin family (254 members), cold: the run gates on each
    # family's pinned verdict counts from `builtin_families()`.
    echo "==> family-sweep: nncps-batch --family all --cold (pinned counts of every family)"
    cargo run --release --bin nncps-batch -- --family all --quiet --threads 1 --cold
else
    echo "==> family-sweep: (skipped in quick mode)"
fi

# --- chaos: fault injection ---------------------------------------------------
# Build with the fault-injection feature, arm exactly one deterministic panic
# (first solver box pop, single-threaded => first member of the 24-member CI
# family), and require the structured failure surface: 23 verdicts + 1
# crashed row in the report and the dedicated "crashed members" exit code 3.
# Then re-run the same featured build UNARMED: its deterministic report must
# be byte-identical to the default build's pinned form from the family-sweep
# stage — the compiled-in hooks are bit-invisible until armed.
if [ "$quick" != "quick" ]; then
    echo "==> chaos: seeded panic in 1 of 24 linear-ci-grid members (fault-injection build)"
    chaos_report="$PWD/target/chaos_sweep.json"
    unarmed_report="$PWD/target/chaos_unarmed.json"
    set +e
    NNCPS_FAULTS="solver.box_pop=panic:nth=1" \
        cargo run --release --features fault-injection --bin nncps-batch -- \
        --family linear-ci-grid --quiet --threads 1 --out-deterministic "$chaos_report"
    chaos_code=$?
    set -e
    [ "$chaos_code" -eq 3 ] \
        || { echo "chaos run exited $chaos_code, expected 3 (crashed members)"; exit 1; }
    verdicts=$(grep -c '"verdict"' "$chaos_report")
    crashes=$(grep -c '"payload"' "$chaos_report")
    [ "$verdicts" -eq 23 ] && [ "$crashes" -eq 1 ] \
        || { echo "chaos run produced $verdicts verdicts + $crashes crash rows, expected 23 + 1"; exit 1; }
    cargo run --release --features fault-injection --bin nncps-batch -- \
        --family linear-ci-grid --quiet --threads 1 --out-deterministic "$unarmed_report"
    cmp "$sweep_a" "$unarmed_report" \
        || { echo "unarmed fault-injection build drifts from the pinned deterministic report"; exit 1; }
    echo "    chaos: 23 verdicts + 1 crashed row, exit 3; unarmed featured build byte-identical"
else
    echo "==> chaos: (skipped in quick mode)"
fi

# --- serve: verification-as-a-service round trip ------------------------------
# Start the daemon on an ephemeral port with an on-disk store, submit the CI
# family twice through the nncps-batch client, and require both reports
# byte-identical to the in-process sweep pinned by the family-sweep stage.
# Then SIGTERM the daemon (no clean-shutdown request): the content-addressed
# store must survive — a restarted daemon over the same directory serves the
# identical report from disk, and honours a protocol-level shutdown.
if [ "$quick" != "quick" ]; then
    echo "==> serve: daemon double-submission + SIGTERM + disk-warm restart"
    serve_store="$PWD/target/serve_store"
    serve_log="$PWD/target/serve_banner.txt"
    serve_a="$PWD/target/serve_sweep_a.json"
    serve_b="$PWD/target/serve_sweep_b.json"
    serve_c="$PWD/target/serve_sweep_c.json"
    rm -rf "$serve_store"

    scrape_addr() {
        addr=""
        for _ in $(seq 1 100); do
            addr=$(sed -n 's/^nncps-serve: listening on //p' "$serve_log" | head -n 1)
            [ -n "$addr" ] && return 0
            sleep 0.1
        done
        echo "nncps-serve never printed its banner:"; cat "$serve_log"
        return 1
    }

    ./target/release/nncps-serve --store "$serve_store" --threads 2 > "$serve_log" &
    serve_pid=$!
    scrape_addr || { kill "$serve_pid" 2>/dev/null; exit 1; }
    ./target/release/nncps-batch --connect "$addr" --family linear-ci-grid \
        --quiet --out-deterministic "$serve_a"
    ./target/release/nncps-batch --connect "$addr" --family linear-ci-grid \
        --quiet --out-deterministic "$serve_b"
    cmp "$sweep_a" "$serve_a" \
        || { echo "served report drifts from the in-process sweep"; kill "$serve_pid"; exit 1; }
    cmp "$serve_a" "$serve_b" \
        || { echo "warm resubmission is not byte-identical"; kill "$serve_pid"; exit 1; }
    kill -TERM "$serve_pid"
    wait "$serve_pid" 2>/dev/null || true

    ./target/release/nncps-serve --store "$serve_store" --threads 2 > "$serve_log" &
    serve_pid=$!
    scrape_addr || { kill "$serve_pid" 2>/dev/null; exit 1; }
    ./target/release/nncps-batch --connect "$addr" --family linear-ci-grid \
        --quiet --out-deterministic "$serve_c" --shutdown
    wait "$serve_pid" \
        || { echo "daemon exited nonzero after a protocol shutdown"; exit 1; }
    cmp "$serve_a" "$serve_c" \
        || { echo "disk-warm restarted daemon drifts from the pinned report"; exit 1; }
    rm -rf "$serve_store"
    echo "    serve: double submission + disk-warm restart byte-identical; store survived SIGTERM"
else
    echo "==> serve: (skipped in quick mode)"
fi

if [ "$quick" != "quick" ]; then
    echo "==> bench smoke: tape-vs-tree microbenches"
    cargo bench --bench substrate_micro -- substrate/tape_vs_tree
else
    echo "==> bench smoke: (skipped in quick mode)"
fi

# --- bench-regression -------------------------------------------------------
# Re-measure the headline benches — the decrease query and the warm-start
# family sweep — and fail if either median regresses more than
# 25% against the BENCH_pr5.json record (tolerance overridable via
# NNCPS_BENCH_TOLERANCE_PCT for noisy hosts).
if [ "$quick" != "quick" ]; then
    echo "==> bench-regression: headline benches vs BENCH_pr5.json"
    # Absolute path: cargo runs bench binaries with the *package* directory
    # as cwd, so a relative CRITERION_JSON would land in crates/bench/.
    bench_json="$PWD/target/bench_current.jsonl"
    rm -f "$bench_json"
    CRITERION_JSON="$bench_json" \
        cargo bench --bench substrate_micro -- "substrate/deltasat/decrease_query/50"
    CRITERION_JSON="$bench_json" \
        cargo bench --bench substrate_micro -- "substrate/family_sweep"
    cargo run --release -p nncps_bench --bin bench-compare -- \
        "$bench_json" BENCH_pr5.json
    cargo run --release -p nncps_bench --bin bench-compare -- \
        --bench "substrate/family_sweep/warm_24" \
        "$bench_json" BENCH_pr5.json

    # Closed-loop simulation: RK4 over the width-100 Dubins field through
    # the compiled tape and a per-trace workspace is held to >= 1.5x over the
    # tree-walking, allocating reference, measured within this run.
    echo "==> bench-regression: compiled closed-loop simulation speedup"
    CRITERION_JSON="$bench_json" \
        cargo bench --bench substrate_micro -- "substrate/sim/closed_loop_w100/"
    cargo run --release -p nncps_bench --bin bench-compare -- \
        "$bench_json" --speedup \
        "substrate/sim/closed_loop_w100/tree" \
        "substrate/sim/closed_loop_w100/compiled" --min 1.5

    # PR 7: resource governance.  The budget-poll overhead on the headline
    # decrease query is held to <=2% (best-case sample times, governed vs
    # ungoverned measured back-to-back in one process), and the governed
    # lane is anchored against the BENCH_pr6.json record of the ungoverned
    # headline so the pair cannot drift away together.
    echo "==> bench-regression: governance overhead vs BENCH_pr6.json"
    CRITERION_JSON="$bench_json" \
        cargo bench --bench substrate_micro -- "substrate/govern/decrease_query_50"
    cargo run --release -p nncps_bench --bin bench-compare -- \
        "$bench_json" --overhead \
        "substrate/govern/decrease_query_50/ungoverned" \
        "substrate/govern/decrease_query_50/governed" --max-pct 2
    cargo run --release -p nncps_bench --bin bench-compare -- \
        --bench "substrate/govern/decrease_query_50/governed" \
        --baseline-bench "substrate/deltasat/decrease_query/50" \
        "$bench_json" BENCH_pr6.json

    # PR 8: verification-as-a-service.  Both lanes verify the two-member
    # smoke family with fresh caches; `served` routes the work through
    # ServeEngine::handle_line (request parse, pool dispatch, event + report
    # serialization).  The protocol path is held to ≤5% overhead over the
    # direct in-process sweep (best-case sample times, one process).
    echo "==> bench-regression: service request overhead"
    CRITERION_JSON="$bench_json" \
        cargo bench --bench substrate_micro -- "substrate/serve"
    cargo run --release -p nncps_bench --bin bench-compare -- \
        "$bench_json" --overhead \
        "substrate/serve/direct" \
        "substrate/serve/served" --max-pct 5
else
    echo "==> bench-regression: (skipped in quick mode)"
fi

echo "==> ci.sh: all green"
