//! Shared workload definitions for the benchmark harness.
//!
//! The paper's evaluation consists of one table and two figures:
//!
//! * **Table 1** — wall-clock breakdown of the verification procedure for
//!   hidden-layer widths from 10 to 1000 neurons,
//! * **Figure 4** — evolution of the CMA-ES policy search that trains the
//!   path-following controller,
//! * **Figure 5** — the phase portrait of the verified closed loop with the
//!   initial set, the unsafe set, sample trajectories, and the certified
//!   barrier level set.
//!
//! Each figure/table has a Criterion bench (`benches/table1_timing.rs`,
//! `benches/fig4_training.rs`, `benches/fig5_phase_portrait.rs`) built from
//! the helpers in this crate, so the bench targets and the runnable examples
//! agree on every workload parameter.
//!
//! # Examples
//!
//! ```
//! use nncps_bench::{paper_system, fast_config, verify_once};
//!
//! let outcome = verify_once(&paper_system(10), fast_config());
//! assert!(outcome.is_certified());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use nncps_barrier::{
    ClosedLoopSystem, SafetySpec, VerificationConfig, VerificationOutcome, VerificationRequest,
    VerificationSession, VerificationStats,
};
use nncps_dubins::{reference_controller, ErrorDynamics, Path, TrainingOptions};
use nncps_interval::IntervalBox;

/// The hidden-layer widths reported in Table 1 of the paper.
pub const PAPER_TABLE1_WIDTHS: [usize; 12] = [10, 20, 40, 50, 70, 80, 90, 100, 300, 500, 700, 1000];

/// The subset of Table 1 widths the benches run by default (the full sweep is
/// enabled by setting the environment variable `NNCPS_FULL_TABLE1=1`).
pub const DEFAULT_TABLE1_WIDTHS: [usize; 5] = [10, 20, 50, 80, 100];

/// Returns the widths the Table 1 bench should use, honouring
/// `NNCPS_FULL_TABLE1`.
pub fn table1_widths() -> Vec<usize> {
    if std::env::var("NNCPS_FULL_TABLE1").is_ok_and(|v| v == "1") {
        PAPER_TABLE1_WIDTHS.to_vec()
    } else {
        DEFAULT_TABLE1_WIDTHS.to_vec()
    }
}

/// The safety specification of Section 4.3: `X0 = [-1, 1] × [-π/16, π/16]`,
/// `U` the complement of `[-5, 5] × [-(π/2-ε), π/2-ε]` with `ε = 0.01`.
pub fn paper_spec() -> SafetySpec {
    let eps = 0.01;
    let pi = std::f64::consts::PI;
    SafetySpec::rectangular(
        IntervalBox::from_bounds(&[(-1.0, 1.0), (-pi / 16.0, pi / 16.0)]),
        IntervalBox::from_bounds(&[(-5.0, 5.0), (-(pi / 2.0 - eps), pi / 2.0 - eps)]),
    )
}

/// The closed-loop error-dynamics system of Figure 2 with a controller of the
/// given hidden-layer width.
pub fn paper_system(hidden_neurons: usize) -> ClosedLoopSystem {
    let controller = reference_controller(hidden_neurons);
    let dynamics = ErrorDynamics::new(controller, 1.0);
    ClosedLoopSystem::new(dynamics.symbolic_vector_field(), paper_spec())
}

/// The verification configuration used by the benches and doc tests: the
/// paper's `γ = 10⁻⁶` with a trimmed simulation budget so individual runs
/// stay fast enough to sample repeatedly.
pub fn fast_config() -> VerificationConfig {
    VerificationConfig {
        num_seed_traces: 10,
        max_samples_per_trace: 15,
        sim_duration: 8.0,
        ..VerificationConfig::default()
    }
}

/// The CMA-ES policy-search settings used by the Figure 4 bench: the paper's
/// architecture with a reduced population and generation budget (the paper
/// uses population 152 and up to 50 generations).
pub fn fig4_training_options(generations: usize) -> TrainingOptions {
    TrainingOptions {
        hidden_neurons: 10,
        population: 24,
        max_generations: generations,
        ..TrainingOptions::default()
    }
}

/// The Figure 4 piecewise-linear reference path.
pub fn fig4_path() -> Path {
    Path::figure4_path()
}

/// One cold verification through the session API — the canonical way the
/// benches run the pipeline end to end with no cache reuse between samples
/// (a warm sample would measure memo lookups, not verification).
pub fn verify_once(system: &ClosedLoopSystem, config: VerificationConfig) -> VerificationOutcome {
    VerificationSession::new().verify(&VerificationRequest::over(system).with_config(config).cold())
}

/// Runs one verification of the case study and returns its statistics — one
/// row of Table 1.
pub fn run_table1_row(hidden_neurons: usize) -> (bool, VerificationStats) {
    let system = paper_system(hidden_neurons);
    let outcome = verify_once(&system, fast_config());
    (outcome.is_certified(), outcome.stats().clone())
}

/// Formats one Table 1 row the way the paper reports it.
pub fn format_table1_row(
    hidden_neurons: usize,
    certified: bool,
    stats: &VerificationStats,
) -> String {
    format!(
        "{:>7} | {:>10} | {:>9.3} | {:>11.3} | {:>9.3} | {:>9.3} | {}",
        hidden_neurons,
        stats.generator_iterations,
        stats.avg_lp_time().as_secs_f64(),
        stats.avg_smt_time().as_secs_f64(),
        stats.timings.other().as_secs_f64(),
        stats.timings.total.as_secs_f64(),
        if certified { "safe" } else { "unknown" },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_widths_are_a_subset_of_the_paper_widths() {
        for w in DEFAULT_TABLE1_WIDTHS {
            assert!(PAPER_TABLE1_WIDTHS.contains(&w));
        }
    }

    #[test]
    fn paper_system_has_two_states() {
        assert_eq!(paper_system(10).dim(), 2);
    }

    #[test]
    fn table1_request_fingerprint_is_pinned() {
        // The request fingerprint keys the outcome memo and the on-disk
        // store.  The expected value was recorded before the `seen` map of
        // `StructuralHasher` switched hashers: the map's hasher must never
        // reach the digest.
        let system = paper_system(100);
        let config = VerificationConfig {
            seed: 3,
            threads: 1,
            ..fast_config()
        };
        let request = VerificationRequest::over(&system).with_config(config);
        assert_eq!(
            request.fingerprint().to_string(),
            "29171e2ad08b02083dda04cc82e64b30"
        );
    }

    #[test]
    fn table1_row_runs_and_formats() {
        let (certified, stats) = run_table1_row(10);
        assert!(certified);
        let row = format_table1_row(10, certified, &stats);
        assert!(row.contains("safe"));
    }

    #[test]
    fn fig4_settings_use_the_paper_architecture() {
        let options = fig4_training_options(5);
        assert_eq!(options.hidden_neurons, 10);
        assert!(fig4_path().length() > 100.0);
    }
}
