//! Differential cache test (PR 5 satellite): warm-start sweep results must
//! be **bit-identical** to cold per-scenario runs, at 1 and 2 scenario
//! threads.
//!
//! Every warm-start layer (seed-trace bundles, LP candidate memoization,
//! the whole-outcome memo, shared plant dynamics) claims to be a pure
//! memoization under structural identity keys.  This suite holds the engine
//! to that claim end to end: verdicts, witnesses, fingerprints, and solver
//! search-tree statistics all flow into the deterministic report JSON, which
//! must come out byte-identical with the cache on or off, sequential or
//! threaded.

use nncps::scenarios::{
    builtin_families, run_scenario, run_scenario_cached, run_sweep, AxisParam, Family, ParamAxis,
    Registry, SweepCache, SweepOptions,
};

/// A small but representative family mix: an NN plant with perturbation and
/// precision axes (deep cache reuse), plus a linear family crossing the
/// certification boundary (partial reuse, inconclusive members).
fn fixture_families() -> Vec<Family> {
    let registry = Registry::builtin();
    let pendulum = Family::new(
        "diff-pendulum",
        "perturbation x precision",
        nncps::scenarios::Scenario::new(
            "diff-pendulum-base",
            "2-6-1 pendulum, sweep-sized",
            nncps::scenarios::PlantSpec::Pendulum {
                hidden_neurons: 4,
                activation: nncps::nn::Activation::Tanh,
                k_theta: 1.2,
                k_omega: 0.5,
                max_torque: 20.0,
                damping: 0.5,
            },
            registry.get("pendulum-tanh-16").unwrap().spec().clone(),
            nncps::barrier::VerificationConfig {
                num_seed_traces: 3,
                sim_duration: 2.5,
                max_samples_per_trace: 12,
                ..Default::default()
            },
            nncps::scenarios::ExpectedVerdict::Any,
        ),
    )
    .with_weight_seed(13)
    .with_axis(ParamAxis::grid(
        AxisParam::WeightPerturbation,
        vec![0.0, 0.03],
    ))
    .with_axis(ParamAxis::grid(AxisParam::Delta, vec![1e-3, 1e-4]));

    let linear = Family::new(
        "diff-linear",
        "contraction sweep crossing the boundary",
        registry.get("linear-unstable-canary").unwrap().clone(),
    )
    .with_axis(ParamAxis::grid(
        AxisParam::plant("matrix_scale"),
        vec![-4.0, -1.0, 1.0],
    ))
    .with_axis(ParamAxis::grid(AxisParam::Seed, vec![2018.0, 77.0]));

    vec![pendulum, linear]
}

#[test]
fn warm_and_cold_sweeps_are_byte_identical_at_1_and_2_threads() {
    let families = fixture_families();
    let mut reports = Vec::new();
    for threads in [1usize, 2] {
        for warm_start in [false, true] {
            let report = run_sweep(
                &families,
                &SweepOptions {
                    threads,
                    warm_start,
                    ..SweepOptions::default()
                },
            )
            .expect("fixture families expand");
            reports.push((threads, warm_start, report.to_json(false)));
        }
    }
    let (_, _, reference) = &reports[0];
    for (threads, warm_start, json) in &reports {
        assert_eq!(
            json, reference,
            "deterministic report diverged at threads={threads}, warm_start={warm_start}"
        );
    }
    // The fixture is non-trivial: both verdicts occur and witnesses flow
    // through the fingerprints.
    let report = run_sweep(&families, &SweepOptions::default()).unwrap();
    assert!(report.families.iter().any(|f| f.certified > 0));
    assert!(report.families.iter().any(|f| f.inconclusive > 0));
}

#[test]
fn cached_single_scenario_run_matches_the_cold_run_bitwise() {
    let registry = Registry::builtin();
    let cache = SweepCache::new();
    for name in ["pendulum-tanh-16", "linear-unstable-canary"] {
        let scenario = registry.get(name).unwrap();
        let cold = run_scenario(scenario);
        let first = run_scenario_cached(scenario, Some(&cache));
        // The exact repeat short-circuits at the session's whole-outcome
        // memo — the strongest form of reuse, still bit-identical.
        let second = run_scenario_cached(scenario, Some(&cache));
        for warm in [&first, &second] {
            assert_eq!(cold.verdict, warm.verdict, "{name}");
            assert_eq!(cold.fingerprint(), warm.fingerprint(), "{name}");
            assert_eq!(cold.level, warm.level, "{name}");
            assert_eq!(
                cold.generator_coefficients, warm.generator_coefficients,
                "{name}"
            );
            assert_eq!(
                cold.counterexample_witnesses, warm.counterexample_witnesses,
                "{name}"
            );
            assert_eq!(cold.stats, warm.stats, "{name}");
        }
        // A δ-varied sibling misses the outcome memo (δ is part of the
        // request fingerprint) but reuses the inner warm-start layers, whose
        // keys are δ-independent: seed traces and LP candidates.
        let varied = nncps::scenarios::Scenario::new(
            format!("{name}-delta-varied"),
            "δ-varied sibling of the cached scenario",
            scenario.plant().clone(),
            scenario.spec().clone(),
            nncps::barrier::VerificationConfig {
                delta: scenario.config().delta * 0.5,
                ..scenario.config().clone()
            },
            nncps::scenarios::ExpectedVerdict::Any,
        );
        run_scenario_cached(&varied, Some(&cache));
    }
    let session = cache.session().stats();
    assert!(
        session.outcome_hits >= 2,
        "exact repeats must hit the outcome memo: {session:?}"
    );
    let stats = cache.warm_start().stats();
    assert!(
        stats.trace_hits > 0,
        "delta-varied runs must hit the trace memo"
    );
    assert!(
        stats.candidate_hits > 0,
        "delta-varied runs must hit the candidate memo"
    );
    assert_eq!(
        stats.formula_hits, 0,
        "compiled δ-SAT queries are not memoized"
    );
}

#[test]
fn builtin_ci_family_counts_hold_warm_and_cold() {
    let families: Vec<Family> = builtin_families()
        .into_iter()
        .filter(|f| f.name() == "linear-ci-grid")
        .collect();
    assert_eq!(families.len(), 1);
    let warm = run_sweep(&families, &SweepOptions::default()).unwrap();
    let cold = run_sweep(
        &families,
        &SweepOptions {
            threads: 1,
            warm_start: false,
            ..SweepOptions::default()
        },
    )
    .unwrap();
    assert!(warm.check_family_counts().is_ok(), "warm counts");
    assert!(cold.check_family_counts().is_ok(), "cold counts");
    assert_eq!(warm.to_json(false), cold.to_json(false));
    assert_eq!(warm.families[0].members, 24);
}
