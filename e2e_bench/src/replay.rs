//! The traced replay of the Figure-1 loop.
//!
//! `Verifier::run` is not public: the library's one verify entry point is
//! `VerificationSession::verify`, which times nothing per layer from the
//! outside.  This module walks the same steps through each layer's public
//! functions and opens a span around every call into a layer:
//!
//! | span        | call |
//! |-------------|------|
//! | `sim`       | `Simulator::simulate_until_batch(_governed)`, `simulate_until`, `Trace::downsampled` |
//! | `lp`        | `CandidateSynthesizer::synthesize` (through `WarmStart::candidate_or_insert` when warm) |
//! | `compile`   | `QueryBuilder::compiled_decrease_query`, the level-set query compiles |
//! | `smt`       | `DeltaSolver::solve_compiled_with_stats` |
//! | `level_set` | `LevelSetSelector::bracket` and its bisection over queries (6)/(7) |
//!
//! The level-set search is replayed step by step (its compiles and solves
//! are children of the `level_set` span) in the order
//! `LevelSetSelector::select_with_cache` issues them.  Everything outside
//! the spans — RNG draws, LP row generation, counterexample rows — is the
//! `other` layer.  The replay must reproduce the untraced pipeline bit for
//! bit; the workloads check that for every member.

use std::sync::Arc;

use nncps::barrier::{
    BarrierCertificate, CandidateSynthesizer, ClosedLoopSystem, GeneratorFunction, LevelSetResult,
    LevelSetSelector, QueryBuilder, SafetySpec, VerificationConfig, VerificationOutcome,
    VerificationStats, WarmStart,
};
use nncps::deltasat::{
    Budget, CompilationCache, CompiledFormula, DeltaSolver, Formula, SatResult, SolverStats,
};
use nncps::expr::{Fingerprint, StructuralHasher};
use nncps::interval::IntervalBox;
use nncps::sim::{Integrator, Simulator, Trace};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::trace::{Counters, Tracer};

/// Replays one verification of `system` under `config`, cold or over a
/// warm-start handle, recording spans into `tracer` and work counts into
/// `counters`.
pub fn replay(
    system: &ClosedLoopSystem,
    cfg: &VerificationConfig,
    warm: Option<&WarmStart>,
    tracer: &mut Tracer,
    counters: &mut Counters,
) -> VerificationOutcome {
    let mut stats = VerificationStats::default();
    let spec = system.spec().clone();
    let dynamics = system.dynamics();
    let simulator = Simulator::new(Integrator::RungeKutta4, cfg.sim_dt, cfg.sim_duration);
    let budget = Budget::unlimited();
    let solver = DeltaSolver::new(cfg.delta)
        .with_max_boxes(cfg.max_smt_boxes)
        .with_threads(cfg.smt_threads)
        .with_batched_evaluation(cfg.smt_batched_evaluation)
        .with_budget(budget.clone());
    let queries = QueryBuilder::new(system, cfg.gamma);
    let mut synthesizer = CandidateSynthesizer::with_options(spec.clone(), cfg.synthesis);
    let domain = spec.domain().clone();
    let outside = |_: f64, state: &[f64]| !domain.contains_point(state);
    let sim_key_base = warm.map(|_| simulation_identity(system, &domain, cfg));

    let initial_states: Vec<Vec<f64>> = {
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        (0..cfg.num_seed_traces)
            .map(|_| {
                let unit: Vec<f64> = (0..domain.dim()).map(|_| rng.gen::<f64>()).collect();
                domain.lerp_point(&unit)
            })
            .collect()
    };

    // --- Seed traces -------------------------------------------------------
    tracer.enter("sim");
    let seed_traces: Arc<Vec<Trace>> = match (warm, &sim_key_base) {
        (Some(warm), Some(base)) => {
            warm.traces_or_insert(seed_trace_key(base, cfg.seed, cfg.num_seed_traces), || {
                let raw = simulator.simulate_until_batch(
                    &dynamics,
                    &initial_states,
                    outside,
                    cfg.threads,
                );
                downsample(&raw, cfg.max_samples_per_trace, counters)
            })
        }
        _ => {
            let raw = simulator
                .simulate_until_batch_governed(
                    &dynamics,
                    &initial_states,
                    outside,
                    cfg.threads,
                    &budget,
                )
                .expect("an unlimited budget never trips");
            Arc::new(downsample(&raw, cfg.max_samples_per_trace, counters))
        }
    };
    tracer.exit();
    for trace in seed_traces.iter() {
        synthesizer.add_trace(trace);
    }

    // --- Candidate loop: LP + decrease check (5) ----------------------------
    let mut certified = None;
    for iteration in 1..=cfg.max_candidate_iterations {
        stats.generator_iterations = iteration;
        tracer.enter("lp");
        let candidate = match warm {
            Some(warm) => (*warm.candidate_or_insert(synthesizer.fingerprint(), || {
                count_lp(&synthesizer, counters);
                synthesizer.synthesize()
            }))
            .clone(),
            None => {
                count_lp(&synthesizer, counters);
                synthesizer.synthesize()
            }
        };
        tracer.exit();
        stats.lp_solves += 1;
        let candidate = match candidate {
            Ok(candidate) => candidate,
            Err(err) => {
                return VerificationOutcome::Inconclusive {
                    reason: format!("candidate synthesis failed: {err}"),
                    stats,
                }
            }
        };

        tracer.enter("compile");
        let (compiled, query_domain) = match warm {
            Some(warm) => {
                let (formula, domain) = queries.decrease_query(&candidate);
                (warm.compilation().compile(&formula), domain)
            }
            None => {
                let (compiled, domain) = queries.compiled_decrease_query(&candidate);
                (Arc::new(compiled), domain)
            }
        };
        tracer.exit();
        counters.compile_queries += 1;
        let (result, solve_stats) = solve(&solver, &compiled, &query_domain, tracer, counters);
        stats.smt_decrease_checks += 1;
        stats.solver.merge(&solve_stats);

        match result {
            SatResult::Unsat => {
                certified = Some(candidate);
                break;
            }
            SatResult::DeltaSat(witness_box) => {
                stats.counterexamples += 1;
                let witness = witness_box.midpoint();
                stats.counterexample_witnesses.push(witness.clone());
                stats
                    .counterexample_candidates
                    .push(flatten_generator(&candidate));
                let derivative = system.derivative(&witness);
                synthesizer.add_counterexample(&witness, &derivative, cfg.gamma.max(1e-9));
                tracer.enter("sim");
                let mut simulate_witness = || {
                    let raw = simulator.simulate_until(&dynamics, &witness, outside);
                    downsample(&[raw], cfg.max_samples_per_trace, counters)
                };
                let witness_traces = match (warm, &sim_key_base) {
                    (Some(warm), Some(base)) => {
                        warm.traces_or_insert(witness_trace_key(base, &witness), simulate_witness)
                    }
                    _ => Arc::new(simulate_witness()),
                };
                tracer.exit();
                synthesizer.add_trace(&witness_traces[0]);
            }
            SatResult::Unknown(reason) => {
                stats.exhaustion = Some(reason);
                return VerificationOutcome::Inconclusive {
                    reason: format!("decrease check inconclusive: {reason}"),
                    stats,
                };
            }
        }
    }
    let Some(generator) = certified else {
        return VerificationOutcome::Inconclusive {
            reason: format!(
                "no generator function passed the decrease check within {} iterations",
                cfg.max_candidate_iterations
            ),
            stats,
        };
    };

    // --- Level-set selection: queries (6) and (7) ----------------------------
    tracer.enter("level_set");
    let (level_result, level_stats) = select_level(
        &generator,
        &spec,
        &queries,
        &solver,
        cfg.max_level_iterations,
        warm.map(WarmStart::compilation),
        tracer,
        counters,
    );
    tracer.exit();
    stats.solver.merge(&level_stats);
    match level_result {
        LevelSetResult::Found { level, iterations } => {
            stats.level_iterations = iterations;
            counters.level_set_iterations += iterations as u64;
            VerificationOutcome::Certified {
                certificate: BarrierCertificate::new(generator, level),
                stats,
            }
        }
        LevelSetResult::NotFound { reason, iterations } => {
            stats.level_iterations = iterations;
            counters.level_set_iterations += iterations as u64;
            VerificationOutcome::Inconclusive {
                reason: format!("level-set selection failed: {reason}"),
                stats,
            }
        }
    }
}

/// The bracket-then-bisect level search of `LevelSetSelector`, with each
/// query compile and solve in its own span.
#[allow(clippy::too_many_arguments)]
fn select_level(
    generator: &GeneratorFunction,
    spec: &SafetySpec,
    queries: &QueryBuilder<'_>,
    solver: &DeltaSolver,
    max_iterations: usize,
    cache: Option<&CompilationCache>,
    tracer: &mut Tracer,
    counters: &mut Counters,
) -> (LevelSetResult, SolverStats) {
    let selector = LevelSetSelector::new(max_iterations);
    let max_iterations = max_iterations.max(1);
    let mut stats = SolverStats::default();
    let Some((mut low, mut high)) = selector.bracket(generator, spec) else {
        return (
            LevelSetResult::NotFound {
                reason: "no admissible level separates X0 from the unsafe set".to_string(),
                iterations: 0,
            },
            stats,
        );
    };
    for iteration in 1..=max_iterations {
        let level = 0.5 * (low + high);
        let (q6, x0_domain) = queries.initial_containment_query(generator, level);
        let q6 = compile(&q6, cache, tracer, counters);
        let (q6_result, q6_stats) = solve(solver, &q6, &x0_domain, tracer, counters);
        stats.merge(&q6_stats);
        if !q6_result.is_unsat() {
            low = level;
            continue;
        }
        let Some((q7, unsafe_domain)) = queries.unsafe_disjointness_query(generator, level) else {
            return (
                LevelSetResult::NotFound {
                    reason: "sublevel sets of the candidate are unbounded".to_string(),
                    iterations: iteration,
                },
                stats,
            );
        };
        let q7 = compile(&q7, cache, tracer, counters);
        let (q7_result, q7_stats) = solve(solver, &q7, &unsafe_domain, tracer, counters);
        stats.merge(&q7_stats);
        if !q7_result.is_unsat() {
            high = level;
            continue;
        }
        return (
            LevelSetResult::Found {
                level,
                iterations: iteration,
            },
            stats,
        );
    }
    (
        LevelSetResult::NotFound {
            reason: format!("no level confirmed within {max_iterations} bisection iterations"),
            iterations: max_iterations,
        },
        stats,
    )
}

fn compile(
    formula: &Formula,
    cache: Option<&CompilationCache>,
    tracer: &mut Tracer,
    counters: &mut Counters,
) -> Arc<CompiledFormula> {
    counters.compile_queries += 1;
    tracer.span("compile", || match cache {
        Some(cache) => cache.compile(formula),
        None => {
            let compiled = CompiledFormula::compile(formula);
            compiled.ensure_gradients();
            Arc::new(compiled)
        }
    })
}

fn solve(
    solver: &DeltaSolver,
    query: &CompiledFormula,
    domain: &IntervalBox,
    tracer: &mut Tracer,
    counters: &mut Counters,
) -> (SatResult, SolverStats) {
    let (result, stats) = tracer.span("smt", || solver.solve_compiled_with_stats(query, domain));
    counters.add_solver(&stats);
    (result, stats)
}

fn count_lp(synthesizer: &CandidateSynthesizer, counters: &mut Counters) {
    counters.lp_solves += 1;
    counters.lp_rows += synthesizer.num_constraints() as u64;
    // The template coefficients plus the decrease-rate margin variable.
    counters.lp_cols += synthesizer.template().num_coefficients() as u64 + 1;
}

/// Downsamples freshly simulated traces, counting RK4 steps (raw trace
/// length − 1) and traces.
fn downsample(raw: &[Trace], max_samples: usize, counters: &mut Counters) -> Vec<Trace> {
    counters.sim_traces += raw.len() as u64;
    counters.sim_rk4_steps += raw
        .iter()
        .map(|t| t.len().saturating_sub(1) as u64)
        .sum::<u64>();
    raw.iter().map(|t| t.downsampled(max_samples)).collect()
}

/// Identity of everything a simulation bundle depends on (the dynamics DAG
/// and integrator settings) — the warm-start key prefix the pipeline uses.
fn simulation_identity(
    system: &ClosedLoopSystem,
    domain: &IntervalBox,
    cfg: &VerificationConfig,
) -> StructuralHasher {
    let mut hasher = StructuralHasher::new();
    hasher.write_u8(0x20);
    for component in system.vector_field() {
        hasher.write_expr(component);
    }
    hasher.write_usize(domain.dim());
    for interval in domain.iter() {
        hasher.write_f64(interval.lo());
        hasher.write_f64(interval.hi());
    }
    hasher.write_f64(cfg.sim_dt);
    hasher.write_f64(cfg.sim_duration);
    hasher.write_usize(cfg.max_samples_per_trace);
    hasher
}

fn seed_trace_key(base: &StructuralHasher, seed: u64, num_traces: usize) -> Fingerprint {
    let mut hasher = base.clone();
    hasher.write_u8(0x21);
    hasher.write_u64(seed);
    hasher.write_usize(num_traces);
    hasher.finish()
}

fn witness_trace_key(base: &StructuralHasher, witness: &[f64]) -> Fingerprint {
    let mut hasher = base.clone();
    hasher.write_u8(0x22);
    hasher.write_usize(witness.len());
    for &x in witness {
        hasher.write_f64(x);
    }
    hasher.finish()
}

/// Rows of `P`, then `q`, then `c` — the layout of
/// `VerificationStats::counterexample_candidates`.
fn flatten_generator(generator: &GeneratorFunction) -> Vec<f64> {
    let n = generator.dim();
    let mut coefficients = Vec::with_capacity(n * n + n + 1);
    for i in 0..n {
        for j in 0..n {
            coefficients.push(generator.quadratic_part()[(i, j)]);
        }
    }
    for i in 0..n {
        coefficients.push(generator.linear_part()[i]);
    }
    coefficients.push(generator.constant_part());
    coefficients
}

#[cfg(test)]
mod tests {
    use super::*;
    use nncps::scenarios::{Registry, ScenarioResult};
    use nncps::{VerificationRequest, VerificationSession};

    fn identity(
        scenario: &nncps::Scenario,
        outcome: &VerificationOutcome,
    ) -> crate::tally::Identity {
        crate::tally::Identity::of(&ScenarioResult::from_outcome(scenario, outcome, 0.0, 0.0))
    }

    #[test]
    fn cold_and_warm_replays_match_the_pipeline_bit_for_bit() {
        let registry = Registry::builtin();
        let scenario = registry.get("linear-unstable-canary").unwrap();
        let system = scenario.build_system();
        let reference = VerificationSession::new().verify(
            &VerificationRequest::over(&system)
                .with_config(scenario.config().clone())
                .cold(),
        );
        let warm = WarmStart::new();
        for handle in [None, Some(&warm), Some(&warm)] {
            let mut tracer = Tracer::new();
            let mut counters = Counters::default();
            let replayed = replay(
                &system,
                scenario.config(),
                handle,
                &mut tracer,
                &mut counters,
            );
            assert!(identity(scenario, &replayed)
                .diff(&identity(scenario, &reference))
                .is_empty());
            assert!(tracer.spans().iter().any(|s| s.name == "lp"));
        }
        // The second warm replay was served from the warm-start layers.
        assert!(warm.stats().trace_hits >= 1);
    }
}
