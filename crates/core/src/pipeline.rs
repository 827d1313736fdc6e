//! The end-to-end verification procedure of Figure 1.

use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use nncps_deltasat::{Budget, DeltaSolver, ExhaustionReason, SatResult, SolverStats};
use nncps_expr::{Fingerprint, StructuralHasher};
use nncps_sim::{Integrator, Simulator, Trace};
use rand::Rng;
use rand_chacha::ChaCha8Rng;

use crate::synthesis::SynthesisOptions;
use crate::{
    BarrierCertificate, CandidateSynthesizer, ClosedLoopSystem, LevelSetResult, LevelSetSelector,
    QueryBuilder, WarmStart,
};

/// Configuration of the verification pipeline.
///
/// # Examples
///
/// ```
/// use nncps_barrier::VerificationConfig;
///
/// // A scaled-down single-threaded run for quick experiments.
/// let config = VerificationConfig {
///     num_seed_traces: 8,
///     sim_duration: 5.0,
///     threads: 1,
///     ..VerificationConfig::default()
/// };
/// assert_eq!(config.gamma, 1e-6); // the paper's slack is the default
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct VerificationConfig {
    /// Number of random initial states simulated to seed the LP (Φs).
    pub num_seed_traces: usize,
    /// Simulation step size.
    pub sim_dt: f64,
    /// Simulation horizon per trace.
    pub sim_duration: f64,
    /// The slack `γ` of the decrease condition (the paper uses `10⁻⁶`).
    pub gamma: f64,
    /// Precision `δ` of the δ-SAT solver.
    pub delta: f64,
    /// Box budget per δ-SAT query.
    pub max_smt_boxes: usize,
    /// Maximum number of candidate-generator iterations (LP + SMT loop).
    pub max_candidate_iterations: usize,
    /// Maximum number of level-set bisection iterations.
    pub max_level_iterations: usize,
    /// Maximum number of samples kept per trace when generating LP
    /// constraints (traces are downsampled to bound the number of LP rows,
    /// each of which the solver prices at every pivot).
    pub max_samples_per_trace: usize,
    /// Seed for the deterministic RNG that samples initial states.
    pub seed: u64,
    /// LP constraint-generation options.
    pub synthesis: SynthesisOptions,
    /// Worker threads for seed-trace simulation (`0` = one per available
    /// core, `1` = fully sequential).
    ///
    /// The seed traces are batched through
    /// [`Simulator::simulate_until_batch`](nncps_sim::Simulator::simulate_until_batch);
    /// the batch is bit-identical to the sequential loop for every thread
    /// count, so the default (`0`) never affects results.  Ignored
    /// (sequential) when the `parallel` feature is disabled.
    pub threads: usize,
    /// No effect; kept only so the frozen benchmark compiles.  The δ-SAT
    /// search is one sequential loop.
    #[deprecated(note = "no effect: the δ-SAT search is always sequential")]
    pub smt_threads: usize,
    /// No effect; kept only so the frozen benchmark compiles.  The δ-SAT
    /// solver has no batched evaluation layer.
    #[deprecated(note = "no effect: there is no batched evaluation layer")]
    pub smt_batched_evaluation: bool,
}

impl VerificationConfig {
    /// A typed builder that validates the configuration at construction —
    /// nonsense values (δ ≤ 0, zero seed traces, empty iteration budgets)
    /// are rejected here instead of surfacing as panics or silent
    /// non-termination deep inside the solver.
    ///
    /// # Examples
    ///
    /// ```
    /// use nncps_barrier::VerificationConfig;
    ///
    /// let config = VerificationConfig::builder()
    ///     .num_seed_traces(8)
    ///     .sim_duration(5.0)
    ///     .threads(1)
    ///     .build()
    ///     .unwrap();
    /// assert_eq!(config.gamma, 1e-6); // the paper's slack is the default
    /// assert!(VerificationConfig::builder().delta(0.0).build().is_err());
    /// ```
    pub fn builder() -> VerificationConfigBuilder {
        VerificationConfigBuilder {
            config: VerificationConfig::default(),
        }
    }

    /// Validates an already-assembled configuration (the builder's
    /// [`build`](VerificationConfigBuilder::build) calls this; entry points
    /// that accept externally-supplied configurations call it directly).
    pub fn validate(&self) -> Result<(), ConfigError> {
        fn positive_finite(name: &'static str, value: f64) -> Result<(), ConfigError> {
            if value > 0.0 && value.is_finite() {
                Ok(())
            } else {
                Err(ConfigError {
                    message: format!("{name} must be positive and finite, got {value}"),
                })
            }
        }
        fn nonzero(name: &'static str, value: usize) -> Result<(), ConfigError> {
            if value == 0 {
                Err(ConfigError {
                    message: format!("{name} must be at least 1"),
                })
            } else {
                Ok(())
            }
        }
        positive_finite("sim_dt", self.sim_dt)?;
        positive_finite("sim_duration", self.sim_duration)?;
        positive_finite("delta (δ-SAT precision)", self.delta)?;
        if !(self.gamma >= 0.0 && self.gamma.is_finite()) {
            return Err(ConfigError {
                message: format!(
                    "gamma (decrease slack) must be non-negative and finite, got {}",
                    self.gamma
                ),
            });
        }
        nonzero("num_seed_traces", self.num_seed_traces)?;
        nonzero("max_smt_boxes", self.max_smt_boxes)?;
        nonzero("max_candidate_iterations", self.max_candidate_iterations)?;
        nonzero("max_level_iterations", self.max_level_iterations)?;
        if self.max_samples_per_trace < 2 {
            return Err(ConfigError {
                message: format!(
                    "max_samples_per_trace must be at least 2 (a decrease \
                     constraint needs consecutive samples), got {}",
                    self.max_samples_per_trace
                ),
            });
        }
        Ok(())
    }
}

/// An invalid [`VerificationConfig`] caught at construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    message: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid verification config: {}", self.message)
    }
}

impl std::error::Error for ConfigError {}

/// Builder for [`VerificationConfig`] — see
/// [`VerificationConfig::builder`].
#[derive(Debug, Clone)]
pub struct VerificationConfigBuilder {
    config: VerificationConfig,
}

macro_rules! builder_setters {
    ($($(#[$doc:meta])* $field:ident: $ty:ty),* $(,)?) => {
        $(
            $(#[$doc])*
            pub fn $field(mut self, value: $ty) -> Self {
                self.config.$field = value;
                self
            }
        )*
    };
}

impl VerificationConfigBuilder {
    builder_setters! {
        /// Number of random initial states simulated to seed the LP.
        num_seed_traces: usize,
        /// Simulation step size.
        sim_dt: f64,
        /// Simulation horizon per trace.
        sim_duration: f64,
        /// The slack `γ` of the decrease condition.
        gamma: f64,
        /// Precision `δ` of the δ-SAT solver.
        delta: f64,
        /// Box budget per δ-SAT query.
        max_smt_boxes: usize,
        /// Maximum number of candidate-generator iterations.
        max_candidate_iterations: usize,
        /// Maximum number of level-set bisection iterations.
        max_level_iterations: usize,
        /// Maximum number of samples kept per trace.
        max_samples_per_trace: usize,
        /// Seed for the deterministic initial-state RNG.
        seed: u64,
        /// LP constraint-generation options.
        synthesis: SynthesisOptions,
        /// Worker threads for seed-trace simulation (bit-invisible).
        threads: usize,
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the offending field when any value
    /// is out of range.
    pub fn build(self) -> Result<VerificationConfig, ConfigError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

impl Default for VerificationConfig {
    // Initializing the inert fields is the only place they are named.
    #[allow(deprecated)]
    fn default() -> Self {
        VerificationConfig {
            num_seed_traces: 20,
            sim_dt: 0.05,
            sim_duration: 10.0,
            gamma: 1e-6,
            delta: 1e-4,
            max_smt_boxes: 2_000_000,
            max_candidate_iterations: 10,
            max_level_iterations: 30,
            max_samples_per_trace: 25,
            seed: 2018,
            synthesis: SynthesisOptions::default(),
            threads: 0,
            smt_threads: 1,
            smt_batched_evaluation: true,
        }
    }
}

/// Wall-clock time spent in each stage of the procedure, mirroring the
/// columns of Table 1 in the paper.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageTimings {
    /// Time spent simulating traces (seed traces and counterexample traces).
    pub simulation: Duration,
    /// Total time spent solving LPs.
    pub lp: Duration,
    /// Total time spent in the decrease-condition SMT checks (query (5)).
    pub smt_decrease: Duration,
    /// Time spent selecting and confirming the level set (queries (6), (7)).
    pub level_set: Duration,
    /// Total wall-clock time of the verification run.
    pub total: Duration,
}

impl StageTimings {
    /// Time not accounted for by the other columns ("Time Spent in Other
    /// Steps" in Table 1).
    pub fn other(&self) -> Duration {
        self.total
            .saturating_sub(self.lp)
            .saturating_sub(self.smt_decrease)
            .saturating_sub(self.level_set)
    }
}

/// Statistics of a verification run (the quantities reported in Table 1).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VerificationStats {
    /// Number of generator-candidate iterations (each is one LP solve plus one
    /// decrease check).
    pub generator_iterations: usize,
    /// Number of LP solves.
    pub lp_solves: usize,
    /// Number of decrease-condition SMT checks.
    pub smt_decrease_checks: usize,
    /// Number of counterexamples returned by the decrease check.
    pub counterexamples: usize,
    /// Number of level-set bisection iterations.
    pub level_iterations: usize,
    /// Aggregated δ-SAT search statistics over every query the run issued
    /// (the decrease checks (5) and the level-set confirmations (6)/(7)).
    pub solver: SolverStats,
    /// Midpoints of the δ-SAT witness boxes returned by failed decrease
    /// checks, in the order they were fed back into the LP.  Deterministic
    /// for a fixed seed and solver thread count, so batch reports can
    /// fingerprint the counterexample trail.
    pub counterexample_witnesses: Vec<Vec<f64>>,
    /// The candidate generator that failed at each witness (parallel to
    /// [`VerificationStats::counterexample_witnesses`]), flattened as the
    /// rows of `P` followed by `q` and `c`.  Recorded so the
    /// simulation-oracle tests can replay every witness against the exact
    /// decrease condition the solver refuted.
    pub counterexample_candidates: Vec<Vec<f64>>,
    /// Stage timings.
    pub timings: StageTimings,
    /// Why a governed run stopped early, if its [`Budget`] tripped
    /// (fuel, deadline, or cancellation) or a δ-SAT query exhausted its box
    /// budget.  `None` for ungoverned runs and for inconclusive outcomes
    /// with a non-resource cause (infeasible LP, no admissible level).
    pub exhaustion: Option<ExhaustionReason>,
}

impl VerificationStats {
    /// Average time of a single LP solve.
    pub fn avg_lp_time(&self) -> Duration {
        average(self.timings.lp, self.lp_solves)
    }

    /// Average time of a single decrease-condition SMT check.
    pub fn avg_smt_time(&self) -> Duration {
        average(self.timings.smt_decrease, self.smt_decrease_checks)
    }
}

fn average(total: Duration, count: usize) -> Duration {
    if count == 0 {
        Duration::ZERO
    } else {
        total / count as u32
    }
}

/// Outcome of a verification run.
#[derive(Debug, Clone)]
pub enum VerificationOutcome {
    /// A barrier certificate was found; the system is proven safe.
    Certified {
        /// The certificate `B(x) = W(x) − ℓ`.
        certificate: BarrierCertificate,
        /// Run statistics (Table 1 quantities).
        stats: VerificationStats,
    },
    /// The procedure terminated without a conclusion (the paper's termination
    /// cases (1)–(3): infeasible LP, iteration budget exhausted, or no level
    /// set found).  This does **not** mean the system is unsafe.
    Inconclusive {
        /// Human-readable explanation of why the procedure stopped.
        reason: String,
        /// Run statistics.
        stats: VerificationStats,
    },
}

impl VerificationOutcome {
    /// Returns `true` if a certificate was produced.
    pub fn is_certified(&self) -> bool {
        matches!(self, VerificationOutcome::Certified { .. })
    }

    /// The certificate, if the run succeeded.
    pub fn certificate(&self) -> Option<&BarrierCertificate> {
        match self {
            VerificationOutcome::Certified { certificate, .. } => Some(certificate),
            VerificationOutcome::Inconclusive { .. } => None,
        }
    }

    /// The run statistics.
    pub fn stats(&self) -> &VerificationStats {
        match self {
            VerificationOutcome::Certified { stats, .. }
            | VerificationOutcome::Inconclusive { stats, .. } => stats,
        }
    }
}

impl fmt::Display for VerificationOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerificationOutcome::Certified { certificate, stats } => write!(
                f,
                "certified: {certificate} ({} iterations, {:.2?} total)",
                stats.generator_iterations, stats.timings.total
            ),
            VerificationOutcome::Inconclusive { reason, stats } => write!(
                f,
                "inconclusive after {} iterations: {reason}",
                stats.generator_iterations
            ),
        }
    }
}

/// The simulation-guided barrier-certificate verifier (Figure 1 of the paper).
///
/// See the [crate-level documentation](crate) for an end-to-end example.
#[derive(Debug, Clone)]
pub struct Verifier {
    config: VerificationConfig,
}

impl Verifier {
    /// Creates a verifier with the given configuration.
    pub fn new(config: VerificationConfig) -> Self {
        Verifier { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &VerificationConfig {
        &self.config
    }

    /// The pipeline engine: the full procedure of Figure 1 over an optional
    /// [`WarmStart`] and under a resource [`Budget`].
    ///
    /// This is deliberately *not* public — the one public entry point is
    /// [`VerificationSession::verify`](crate::VerificationSession::verify),
    /// which wraps this engine with the outcome memo, the disk store, and
    /// the memo-safety rules.  The behavioural contracts the session relies
    /// on:
    ///
    /// * **Warm ≡ cold, bit for bit.**  With a warm-start handle, compiled
    ///   δ-SAT queries, seed-trace bundles, and LP candidates are looked up
    ///   under structural identity keys before being recomputed; every
    ///   reused artifact is bit-identical to recomputation (see the
    ///   [`warmstart`](crate::warmstart) module docs), so verdicts,
    ///   certificate bits, witnesses, and solver statistics are identical
    ///   to `warm == None`.  Only wall-clock timings differ.
    /// * **Cooperative governance.**  Every stage polls the budget at its
    ///   loop head — the seed-trace batch, the candidate LP/SMT loop, the
    ///   δ-SAT searches themselves, and the level-set bisection — and a
    ///   tripped budget degrades the run to
    ///   [`VerificationOutcome::Inconclusive`] with the machine-readable
    ///   reason in [`VerificationStats::exhaustion`].  A fuel limit is
    ///   deterministic (fuel counts tape instructions, and the solver
    ///   forces its sequential search path under fuel); deadlines and
    ///   cancellation are inherently non-deterministic and are excluded
    ///   from pinned report forms.  An untripped budget never changes the
    ///   outcome.
    /// * **Memoized bundles are built ungoverned** — a tripped budget can
    ///   never publish a truncated trace bundle that a sibling member would
    ///   then silently reuse; governance is enforced by polling between
    ///   stages on the warm path.
    pub(crate) fn run(
        &self,
        system: &ClosedLoopSystem,
        warm: Option<&WarmStart>,
        budget: &Budget,
    ) -> VerificationOutcome {
        let start = Instant::now();
        let mut stats = VerificationStats::default();
        let cfg = &self.config;

        let spec = system.spec().clone();
        let dynamics = system.dynamics();
        let simulator = Simulator::new(Integrator::RungeKutta4, cfg.sim_dt, cfg.sim_duration);
        let solver = DeltaSolver::new(cfg.delta)
            .with_max_boxes(cfg.max_smt_boxes)
            .with_budget(budget.clone());
        let queries = QueryBuilder::new(system, cfg.gamma);
        let mut synthesizer = CandidateSynthesizer::with_options(spec.clone(), cfg.synthesis);

        // Identity of everything the simulation bundles depend on: the
        // dynamics DAG plus the integrator settings.  Computed once per run,
        // only when a warm-start handle can use it.
        let domain = spec.domain().clone();
        let sim_key_base = warm.map(|_| {
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
        });

        // --- Seed traces Φs -------------------------------------------------
        // The initial states are drawn sequentially from the seeded RNG (so
        // runs stay reproducible), then the embarrassingly parallel batch of
        // closed-loop simulations fans out over the worker threads.  The
        // downsampled bundle is a pure function of the warm-start key, so a
        // sweep computes it once per distinct (dynamics, domain, seed,
        // integrator) combination.
        let sim_start = Instant::now();
        let initial_states: Vec<Vec<f64>> = {
            let mut rng = seeded_rng(cfg.seed);
            (0..cfg.num_seed_traces)
                .map(|_| {
                    let unit: Vec<f64> = (0..domain.dim()).map(|_| rng.gen::<f64>()).collect();
                    domain.lerp_point(&unit)
                })
                .collect()
        };
        let simulate_seed_traces = || {
            simulator
                .simulate_until_batch(
                    &dynamics,
                    &initial_states,
                    |_, s| !domain.contains_point(s),
                    cfg.threads,
                )
                .iter()
                .map(|trace| trace.downsampled(cfg.max_samples_per_trace))
                .collect()
        };
        let seed_traces: Arc<Vec<Trace>> = match (warm, &sim_key_base) {
            (Some(warm), Some(base)) => {
                // Memoized bundles are built ungoverned (see the method
                // docs); the budget is polled right after the stage instead.
                let key = seed_trace_key(base, cfg.seed, cfg.num_seed_traces);
                warm.traces_or_insert(key, simulate_seed_traces)
            }
            _ => {
                // Cold path: the governed batch stops every in-flight trace
                // at its next step head once the budget trips.  Untripped,
                // it is bit-identical to the ungoverned batch.
                match simulator.simulate_until_batch_governed(
                    &dynamics,
                    &initial_states,
                    |_, s| !domain.contains_point(s),
                    cfg.threads,
                    budget,
                ) {
                    Ok(traces) => Arc::new(
                        traces
                            .iter()
                            .map(|trace| trace.downsampled(cfg.max_samples_per_trace))
                            .collect(),
                    ),
                    Err(reason) => {
                        stats.timings.simulation += sim_start.elapsed();
                        stats.timings.total = start.elapsed();
                        stats.exhaustion = Some(reason);
                        return VerificationOutcome::Inconclusive {
                            reason: format!("verification stopped: {reason}"),
                            stats,
                        };
                    }
                }
            }
        };
        for trace in seed_traces.iter() {
            synthesizer.add_trace(trace);
        }
        stats.timings.simulation += sim_start.elapsed();
        if let Some(reason) = budget.check() {
            stats.timings.total = start.elapsed();
            stats.exhaustion = Some(reason);
            return VerificationOutcome::Inconclusive {
                reason: format!("verification stopped: {reason}"),
                stats,
            };
        }

        // --- Candidate loop: LP + decrease check (5) ------------------------
        let mut certified_generator = None;
        for iteration in 1..=cfg.max_candidate_iterations {
            // Cooperative governance poll at the candidate loop head;
            // `generator_iterations` still counts only iterations that
            // actually started.
            if let Some(reason) = budget.check() {
                stats.timings.total = start.elapsed();
                stats.exhaustion = Some(reason);
                return VerificationOutcome::Inconclusive {
                    reason: format!("verification stopped: {reason}"),
                    stats,
                };
            }
            stats.generator_iterations = iteration;

            // The synthesizer state (options, spec, accumulated rows) fully
            // determines the LP solution, so a sweep solves each distinct
            // state once.
            let lp_start = Instant::now();
            let candidate = match warm {
                Some(warm) => {
                    let memo = warm.candidate_or_insert(synthesizer.fingerprint(), || {
                        synthesizer.synthesize()
                    });
                    (*memo).clone()
                }
                None => synthesizer.synthesize(),
            };
            stats.timings.lp += lp_start.elapsed();
            stats.lp_solves += 1;
            let candidate = match candidate {
                Ok(candidate) => candidate,
                Err(err) => {
                    stats.timings.total = start.elapsed();
                    return VerificationOutcome::Inconclusive {
                        reason: format!("candidate synthesis failed: {err}"),
                        stats,
                    };
                }
            };

            // Compile the query to evaluation tapes *before* the timed SMT
            // section: the solver's branch-and-prune loop then runs on the
            // pre-lowered clauses without per-solve setup.  Under warm
            // start, structurally identical decrease queries (same candidate
            // bits over the same closed loop) reuse one compilation.
            let (compiled_query, query_domain) = match warm {
                Some(warm) => {
                    let (formula, domain) = queries.decrease_query(&candidate);
                    (warm.compilation().compile(&formula), domain)
                }
                None => {
                    let (compiled, domain) = queries.compiled_decrease_query(&candidate);
                    (Arc::new(compiled), domain)
                }
            };
            let smt_start = Instant::now();
            let (result, solve_stats) =
                solver.solve_compiled_with_stats(&compiled_query, &query_domain);
            stats.timings.smt_decrease += smt_start.elapsed();
            stats.smt_decrease_checks += 1;
            stats.solver.merge(&solve_stats);

            match result {
                SatResult::Unsat => {
                    certified_generator = Some(candidate);
                    break;
                }
                SatResult::DeltaSat(witness_box) => {
                    stats.counterexamples += 1;
                    let witness = witness_box.midpoint();
                    stats.counterexample_witnesses.push(witness.clone());
                    stats
                        .counterexample_candidates
                        .push(flatten_generator(&candidate));
                    // Cut the failing candidate out of the LP feasible set by
                    // requiring the Lie derivative to decrease at the witness
                    // (the row is linear in the template coefficients).
                    let derivative = system.derivative(&witness);
                    synthesizer.add_counterexample(&witness, &derivative, cfg.gamma.max(1e-9));
                    // Simulate from the counterexample (Φf) and refine the LP
                    // with the downstream behaviour as well.
                    let sim_start = Instant::now();
                    let simulate_witness_trace = || {
                        vec![simulator
                            .simulate_until(&dynamics, &witness, |_, s| !domain.contains_point(s))
                            .downsampled(cfg.max_samples_per_trace)]
                    };
                    let witness_traces = match (warm, &sim_key_base) {
                        (Some(warm), Some(base)) => {
                            let key = witness_trace_key(base, &witness);
                            warm.traces_or_insert(key, simulate_witness_trace)
                        }
                        _ => Arc::new(simulate_witness_trace()),
                    };
                    stats.timings.simulation += sim_start.elapsed();
                    synthesizer.add_trace(&witness_traces[0]);
                }
                SatResult::Unknown(reason) => {
                    stats.timings.total = start.elapsed();
                    stats.exhaustion = Some(reason);
                    return VerificationOutcome::Inconclusive {
                        reason: format!("decrease check inconclusive: {reason}"),
                        stats,
                    };
                }
            }
        }

        let Some(generator) = certified_generator else {
            stats.timings.total = start.elapsed();
            return VerificationOutcome::Inconclusive {
                reason: format!(
                    "no generator function passed the decrease check within {} iterations",
                    cfg.max_candidate_iterations
                ),
                stats,
            };
        };

        // --- Level-set selection: queries (6) and (7) ------------------------
        let level_start = Instant::now();
        let selector = LevelSetSelector::new(cfg.max_level_iterations);
        let (level_result, level_stats) = selector.select_with_cache(
            &generator,
            &spec,
            &queries,
            &solver,
            warm.map(WarmStart::compilation),
        );
        stats.solver.merge(&level_stats);
        stats.timings.level_set = level_start.elapsed();

        stats.timings.total = start.elapsed();
        match level_result {
            LevelSetResult::Found { level, iterations } => {
                stats.level_iterations = iterations;
                VerificationOutcome::Certified {
                    certificate: BarrierCertificate::new(generator, level),
                    stats,
                }
            }
            LevelSetResult::NotFound { reason, iterations } => {
                stats.level_iterations = iterations;
                // A budget that tripped during the level search surfaces as
                // a NotFound; record the machine-readable reason alongside
                // the prose (an untripped budget leaves this `None`).
                stats.exhaustion = budget.check();
                VerificationOutcome::Inconclusive {
                    reason: format!("level-set selection failed: {reason}"),
                    stats,
                }
            }
        }
    }
}

impl Default for Verifier {
    fn default() -> Self {
        Verifier::new(VerificationConfig::default())
    }
}

/// Deterministic RNG used for initial-state sampling.
fn seeded_rng(seed: u64) -> ChaCha8Rng {
    use rand::SeedableRng;
    ChaCha8Rng::seed_from_u64(seed)
}

/// Key of the seed-trace bundle: the shared simulation identity plus the RNG
/// seed and trace count.
fn seed_trace_key(base: &StructuralHasher, seed: u64, num_traces: usize) -> Fingerprint {
    let mut hasher = base.clone();
    hasher.write_u8(0x21);
    hasher.write_u64(seed);
    hasher.write_usize(num_traces);
    hasher.finish()
}

/// Key of a counterexample trace: the shared simulation identity plus the
/// exact witness bits.
fn witness_trace_key(base: &StructuralHasher, witness: &[f64]) -> Fingerprint {
    let mut hasher = base.clone();
    hasher.write_u8(0x22);
    hasher.write_usize(witness.len());
    for &x in witness {
        hasher.write_f64(x);
    }
    hasher.finish()
}

/// Flattens a generator function the same way batch reports do: rows of `P`,
/// then `q`, then `c`.
fn flatten_generator(generator: &crate::GeneratorFunction) -> Vec<f64> {
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
    use crate::{SafetySpec, VerificationRequest, VerificationSession};
    use nncps_expr::Expr;
    use nncps_interval::IntervalBox;

    /// One independent run through the public session API (a fresh session
    /// per call, so repeated calls really re-run the pipeline).
    fn verify_with(
        system: &ClosedLoopSystem,
        config: VerificationConfig,
        budget: Budget,
    ) -> VerificationOutcome {
        VerificationSession::new().verify(
            &VerificationRequest::over(system)
                .with_config(config)
                .with_budget(budget),
        )
    }

    fn verify_plain(system: &ClosedLoopSystem) -> VerificationOutcome {
        verify_with(system, VerificationConfig::default(), Budget::unlimited())
    }

    fn paper_style_spec() -> SafetySpec {
        SafetySpec::rectangular(
            IntervalBox::from_bounds(&[(-0.5, 0.5), (-0.5, 0.5)]),
            IntervalBox::from_bounds(&[(-3.0, 3.0), (-3.0, 3.0)]),
        )
    }

    fn stable_linear_system() -> ClosedLoopSystem {
        ClosedLoopSystem::new(
            vec![
                -Expr::var(0) + Expr::var(1) * 0.2,
                -Expr::var(1) - Expr::var(0) * 0.2,
            ],
            paper_style_spec(),
        )
    }

    fn unstable_system() -> ClosedLoopSystem {
        ClosedLoopSystem::new(vec![Expr::var(0), Expr::var(1)], paper_style_spec())
    }

    #[test]
    fn stable_system_is_certified() {
        let outcome = verify_plain(&stable_linear_system());
        assert!(outcome.is_certified(), "outcome: {outcome}");
        let certificate = outcome.certificate().unwrap();
        // The certified invariant contains X0 and avoids U.
        let spec = paper_style_spec();
        for corner in spec.initial_set().corners() {
            assert!(certificate.contains(&corner));
        }
        assert!(!certificate.contains(&[3.0, 3.0]));
        assert_eq!(
            certificate.count_violations(
                &spec,
                |p| vec![-p[0] + 0.2 * p[1], -p[1] - 0.2 * p[0]],
                25
            ),
            0
        );
        let stats = outcome.stats();
        assert!(stats.generator_iterations >= 1);
        assert!(stats.lp_solves >= 1);
        assert!(stats.smt_decrease_checks >= 1);
        assert!(stats.timings.total >= stats.timings.lp);
        assert!(stats.avg_lp_time() <= stats.timings.lp);
        assert!(format!("{outcome}").contains("certified"));
    }

    #[test]
    fn unstable_system_is_not_certified() {
        let config = VerificationConfig {
            max_candidate_iterations: 3,
            num_seed_traces: 8,
            sim_duration: 3.0,
            ..VerificationConfig::default()
        };
        let outcome = verify_with(&unstable_system(), config, Budget::unlimited());
        assert!(!outcome.is_certified());
        assert!(outcome.certificate().is_none());
        match outcome {
            VerificationOutcome::Inconclusive { reason, .. } => {
                assert!(!reason.is_empty());
            }
            VerificationOutcome::Certified { .. } => panic!("must not certify"),
        }
    }

    #[test]
    fn counterexample_refinement_recovers_from_sparse_seeding() {
        // With a single seed trace the first candidate is often wrong; the
        // CEX loop must still converge for the stable system.
        let config = VerificationConfig {
            num_seed_traces: 1,
            max_candidate_iterations: 12,
            ..VerificationConfig::default()
        };
        let outcome = verify_with(&stable_linear_system(), config, Budget::unlimited());
        assert!(outcome.is_certified(), "outcome: {outcome}");
    }

    #[test]
    fn runs_are_reproducible_for_a_fixed_seed() {
        let a = verify_plain(&stable_linear_system());
        let b = verify_plain(&stable_linear_system());
        assert_eq!(a.is_certified(), b.is_certified());
        let (Some(ca), Some(cb)) = (a.certificate(), b.certificate()) else {
            panic!("both runs should certify");
        };
        assert_eq!(ca.generator(), cb.generator());
        assert_eq!(ca.level(), cb.level());
    }

    #[test]
    fn cancelled_budget_yields_inconclusive_immediately() {
        let budget = Budget::unlimited();
        budget.cancel();
        let outcome = verify_with(
            &stable_linear_system(),
            VerificationConfig::default(),
            budget,
        );
        match &outcome {
            VerificationOutcome::Inconclusive { reason, stats } => {
                assert!(reason.contains("cancelled"), "{reason}");
                assert_eq!(stats.exhaustion, Some(ExhaustionReason::Cancelled));
                assert_eq!(stats.generator_iterations, 0);
            }
            VerificationOutcome::Certified { .. } => panic!("cancelled run must not certify"),
        }
    }

    #[test]
    fn fuel_limited_run_degrades_to_inconclusive_with_the_reason() {
        let budget = Budget::unlimited().with_fuel(50);
        let outcome = verify_with(
            &stable_linear_system(),
            VerificationConfig::default(),
            budget,
        );
        match &outcome {
            VerificationOutcome::Inconclusive { reason, stats } => {
                assert!(
                    reason.contains("fuel budget of 50 instructions exhausted"),
                    "{reason}"
                );
                assert_eq!(stats.exhaustion, Some(ExhaustionReason::Fuel(50)));
            }
            VerificationOutcome::Certified { .. } => panic!("fuel-starved run must not certify"),
        }
    }

    #[test]
    fn generous_budget_matches_the_ungoverned_run() {
        let budget = Budget::unlimited().with_fuel(u64::MAX / 2);
        let governed = verify_with(
            &stable_linear_system(),
            VerificationConfig::default(),
            budget.clone(),
        );
        let ungoverned = verify_plain(&stable_linear_system());
        assert!(governed.is_certified(), "governed: {governed}");
        assert!(ungoverned.is_certified(), "ungoverned: {ungoverned}");
        let (gc, uc) = (
            governed.certificate().unwrap(),
            ungoverned.certificate().unwrap(),
        );
        assert_eq!(gc.generator(), uc.generator());
        assert_eq!(gc.level(), uc.level());
        assert_eq!(governed.stats().solver, ungoverned.stats().solver);
        assert_eq!(
            governed.stats().counterexample_witnesses,
            ungoverned.stats().counterexample_witnesses
        );
        assert_eq!(governed.stats().exhaustion, None);
        assert!(budget.fuel_used() > 0);
    }

    #[test]
    fn fuel_exhaustion_point_is_pinned() {
        // A fuel-exhausted run stops at one exact point of the sequential
        // δ-SAT search.  The expected search statistics and fuel use were
        // recorded when the solver still had a batched sibling evaluator
        // with its own fuel watermark; they pin that its removal moved no
        // exhaustion point.
        let budget = Budget::unlimited().with_fuel(200);
        let outcome = verify_with(
            &stable_linear_system(),
            VerificationConfig::default(),
            budget.clone(),
        );
        let VerificationOutcome::Inconclusive { reason, stats } = outcome else {
            panic!("fuel-starved run must be inconclusive");
        };
        assert_eq!(
            reason,
            "decrease check inconclusive: fuel budget of 200 instructions exhausted"
        );
        assert_eq!(stats.exhaustion, Some(ExhaustionReason::Fuel(200)));
        let solver = stats.solver;
        assert_eq!(
            (
                solver.boxes_explored,
                solver.boxes_pruned,
                solver.bisections,
                solver.clauses_examined,
                solver.instructions_executed,
            ),
            (7, 1, 6, 4, 204)
        );
        assert_eq!(budget.fuel_used(), 204);
    }

    #[test]
    fn stage_timings_are_consistent() {
        let timings = StageTimings {
            simulation: Duration::from_millis(5),
            lp: Duration::from_millis(10),
            smt_decrease: Duration::from_millis(20),
            level_set: Duration::from_millis(5),
            total: Duration::from_millis(50),
        };
        assert_eq!(timings.other(), Duration::from_millis(15));
        let stats = VerificationStats {
            lp_solves: 2,
            smt_decrease_checks: 4,
            timings,
            ..VerificationStats::default()
        };
        assert_eq!(stats.avg_lp_time(), Duration::from_millis(5));
        assert_eq!(stats.avg_smt_time(), Duration::from_millis(5));
        assert_eq!(VerificationStats::default().avg_lp_time(), Duration::ZERO);
    }

    #[test]
    fn config_builder_validates_at_construction() {
        let built = VerificationConfig::builder()
            .num_seed_traces(8)
            .seed(99)
            .build()
            .unwrap();
        assert_eq!(built.num_seed_traces, 8);
        assert_eq!(built.seed, 99);
        assert!(VerificationConfig::builder().delta(0.0).build().is_err());
        assert!(VerificationConfig::builder().delta(-1e-4).build().is_err());
        assert!(VerificationConfig::builder()
            .num_seed_traces(0)
            .build()
            .is_err());
        assert!(VerificationConfig::builder()
            .max_candidate_iterations(0)
            .build()
            .is_err());
        assert!(VerificationConfig::builder()
            .max_samples_per_trace(1)
            .build()
            .is_err());
        assert!(VerificationConfig::builder().sim_dt(0.0).build().is_err());
        assert!(VerificationConfig::builder()
            .gamma(f64::NAN)
            .build()
            .is_err());
        let err = VerificationConfig::builder()
            .delta(0.0)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("delta"), "{err}");
    }

    #[test]
    fn config_accessors() {
        let verifier = Verifier::default();
        assert_eq!(verifier.config().gamma, 1e-6);
        assert_eq!(verifier.config().num_seed_traces, 20);
    }
}
