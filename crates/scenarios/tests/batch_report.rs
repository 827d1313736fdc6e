//! Integration tests for the batch runner's report: JSON round-trip on a
//! real run, byte-identical determinism at a fixed thread count, and the
//! checked-in manifest example.

use nncps_scenarios::{run_batch, BatchOptions, BatchReport, Registry};

/// The shared two-scenario linear fixture (cheap: no NN case studies).
fn smoke_registry() -> Registry {
    Registry::from_toml_str(nncps_scenarios::SMOKE_MANIFEST).expect("smoke manifest parses")
}

#[test]
fn real_batch_report_round_trips_through_json() {
    let report = run_batch(
        &smoke_registry(),
        &BatchOptions {
            threads: 1,
            ..BatchOptions::default()
        },
    );
    assert!(report.all_match_expected());
    for include_timings in [false, true] {
        let text = report.to_json(include_timings);
        let parsed = BatchReport::from_json(&text).expect("report parses back");
        assert_eq!(
            parsed.to_json(include_timings),
            text,
            "serialize -> parse -> serialize must be the identity"
        );
    }
    // The full report round-trips structurally, including timings.
    let full = BatchReport::from_json(&report.to_json(true)).unwrap();
    assert_eq!(full, report);
}

#[test]
fn two_batch_runs_produce_byte_identical_reports_at_fixed_threads() {
    let registry = smoke_registry();
    // The determinism contract the CI scenario-regression stage relies on:
    // at a fixed thread count, everything but wall-clock timing is
    // byte-identical between runs — verdicts, witnesses, certificates,
    // solver box counts, fingerprints, and the serialized layout itself.
    for threads in [1usize, 2] {
        let options = BatchOptions {
            threads,
            ..BatchOptions::default()
        };
        let first = run_batch(&registry, &options).to_json(false);
        let second = run_batch(&registry, &options).to_json(false);
        assert_eq!(
            first, second,
            "batch runs must be deterministic (threads = {threads})"
        );
    }
}

#[test]
fn checked_in_manifest_example_loads_and_names_are_fresh() {
    let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios/extra.toml");
    let extra = Registry::from_toml_file(manifest).expect("scenarios/extra.toml loads");
    assert!(extra.len() >= 3);
    // Manifest scenarios must not collide with built-in names, so
    // `--manifest` registries can be merged with the builtin set later.
    let builtin = Registry::builtin();
    for scenario in &extra {
        assert!(
            builtin.get(scenario.name()).is_none(),
            "manifest name `{}` collides with a built-in scenario",
            scenario.name()
        );
        // Each manifest scenario builds a well-formed closed loop.
        assert_eq!(scenario.build_system().dim(), scenario.spec().dim());
    }
}

#[test]
fn expected_baseline_stays_in_sync_with_the_builtin_registry() {
    // Cheap structural check (the full behavioural diff runs in ci.sh): the
    // checked-in baseline lists exactly the built-in scenario names, in
    // registry order.
    let baseline_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../SCENARIOS_expected.json");
    let baseline = std::fs::read_to_string(baseline_path)
        .expect("SCENARIOS_expected.json is checked in at the repository root");
    let parsed = nncps_scenarios::Json::parse(&baseline).expect("baseline parses");
    let names: Vec<&str> = parsed
        .get("scenarios")
        .and_then(nncps_scenarios::Json::as_array)
        .expect("baseline has a scenarios array")
        .iter()
        .map(|s| {
            s.get("name")
                .and_then(nncps_scenarios::Json::as_str)
                .unwrap()
        })
        .collect();
    let builtin = Registry::builtin();
    let registry_names: Vec<&str> = builtin.names().collect();
    assert_eq!(
        names, registry_names,
        "regenerate with: cargo run --release --bin nncps-batch -- --write-expected SCENARIOS_expected.json"
    );
}

#[test]
fn cold_registry_solver_counters_are_pinned() {
    // The δ-SAT work of a cold registry run is a pure function of the search
    // trees, so its summed counters are exact.  Pinning them catches any
    // algorithmic drift of the solver (more boxes, more bisections, more
    // tape instructions per box); it cannot catch a constant-factor
    // slowdown, which leaves every counter unchanged.  Re-pin only on
    // purpose, with the reason recorded in CHANGES.md.
    let report = run_batch(
        &Registry::builtin(),
        &BatchOptions {
            threads: 1,
            ..BatchOptions::default()
        },
    );
    let mut totals = (0, 0, 0);
    for result in &report.results {
        totals.0 += result.stats.boxes_explored;
        totals.1 += result.stats.bisections;
        totals.2 += result.stats.instructions_executed;
    }
    assert_eq!(
        totals,
        (2_465, 1_201, 535_037),
        "(boxes_explored, bisections, instructions_executed) of the cold registry"
    );
}
