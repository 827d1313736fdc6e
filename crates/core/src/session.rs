//! The unified request/session verification API.
//!
//! Every way of running the pipeline (plain, warm-start, governed) goes
//! through one path:
//!
//! * [`VerificationRequest`] — a builder bundling *what* to verify (a
//!   borrowed [`ClosedLoopSystem`]) with *how* (a [`VerificationConfig`], a
//!   resource [`Budget`], and whether session caches may be consulted).
//! * [`VerificationSession`] — owns the caches that outlive a single
//!   request: the [`WarmStart`] memo layers (seed-trace bundles, LP
//!   candidates), a whole-outcome memo, and an optional on-disk
//!   [`DiskStore`] that extends the outcome memo across *processes*.
//!   [`VerificationSession::verify`] is the **only** public verify entry
//!   point.
//!
//! # Key discipline
//!
//! The outcome memo is keyed by [`VerificationRequest::fingerprint`], which
//! covers every bit-relevant input of a run: the vector-field DAG, the full
//! safety specification, every result-affecting configuration field, and
//! the budget's deterministic fuel state.  The bit-*invisible* simulation
//! worker-thread count and the inert `smt_threads`/`smt_batched_evaluation`
//! fields are deliberately excluded, so runs that provably produce
//! identical bits share one entry.
//! Requests whose budget can trip non-deterministically (wall-clock
//! deadline, cancellation, forced exhaustion) are never memoized, and
//! outcomes that stopped for a non-deterministic reason are never stored.
//!
//! # Examples
//!
//! ```
//! use nncps_barrier::{
//!     ClosedLoopSystem, SafetySpec, VerificationRequest, VerificationSession,
//! };
//! use nncps_expr::Expr;
//! use nncps_interval::IntervalBox;
//!
//! let system = ClosedLoopSystem::new(
//!     vec![-Expr::var(0), -Expr::var(1)],
//!     SafetySpec::rectangular(
//!         IntervalBox::from_bounds(&[(-0.5, 0.5), (-0.5, 0.5)]),
//!         IntervalBox::from_bounds(&[(-3.0, 3.0), (-3.0, 3.0)]),
//!     ),
//! );
//! let session = VerificationSession::new();
//! let outcome = session.verify(&VerificationRequest::over(&system));
//! assert!(outcome.is_certified());
//! // An identical request is served from the whole-outcome memo.
//! let again = session.verify(&VerificationRequest::over(&system));
//! assert!(again.is_certified());
//! assert_eq!(session.stats().outcome_hits, 1);
//! ```

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use nncps_deltasat::{Budget, ExhaustionReason, SolverStats};
use nncps_expr::{Fingerprint, StructuralHasher};
use nncps_linalg::{Matrix, Vector};

use crate::pipeline::{run, StageTimings, VerificationStats};
use crate::store::{DiskStore, PayloadReader, PayloadWriter};
use crate::warmstart::WarmStartStats;
use crate::{
    BarrierCertificate, ClosedLoopSystem, GeneratorFunction, VerificationConfig,
    VerificationOutcome, WarmStart,
};

/// One verification problem plus everything governing how it runs.
///
/// Built with [`VerificationRequest::over`] (borrowing a prepared
/// [`ClosedLoopSystem`]; [`ClosedLoopSystem::from_dynamics`] closes the
/// loop over any symbolic plant), then refined with the builder methods.
/// Defaults: [`VerificationConfig::default`], an unlimited [`Budget`],
/// session caches enabled.
#[derive(Debug, Clone)]
pub struct VerificationRequest<'a> {
    system: &'a ClosedLoopSystem,
    config: VerificationConfig,
    budget: Budget,
    reuse: bool,
}

impl<'a> VerificationRequest<'a> {
    /// A request over a prepared closed-loop system (borrowed).
    pub fn over(system: &'a ClosedLoopSystem) -> Self {
        VerificationRequest {
            system,
            config: VerificationConfig::default(),
            budget: Budget::unlimited(),
            reuse: true,
        }
    }

    /// Replaces the pipeline configuration.
    pub fn with_config(mut self, config: VerificationConfig) -> Self {
        self.config = config;
        self
    }

    /// Attaches a resource [`Budget`] (cloned handles share state, so the
    /// caller keeps cancellation and fuel observation).
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Disables every session cache for this request: the run is executed
    /// from scratch and its outcome is not recorded.  The differential
    /// tests use this to pin warm ≡ cold bit-identity.
    pub fn cold(mut self) -> Self {
        self.reuse = false;
        self
    }

    /// The closed-loop system under verification.
    pub fn system(&self) -> &ClosedLoopSystem {
        self.system
    }

    /// The pipeline configuration.
    pub fn config(&self) -> &VerificationConfig {
        &self.config
    }

    /// The resource budget.
    pub fn budget(&self) -> &Budget {
        &self.budget
    }

    /// Whether session caches are bypassed (see
    /// [`VerificationRequest::cold`]).
    pub fn is_cold(&self) -> bool {
        !self.reuse
    }

    /// The 128-bit structural identity of this request — the key of the
    /// whole-outcome memo and of the on-disk store (see the [module
    /// docs](self) for what it covers and what it deliberately omits).
    ///
    /// Fuel is part of the identity *as observed now*: a shared budget that
    /// has already burned fuel names a different remaining-resource problem
    /// than a fresh one.
    pub fn fingerprint(&self) -> Fingerprint {
        let mut hasher = StructuralHasher::new();
        hasher.write_u8(0x30);
        for component in self.system.vector_field() {
            hasher.write_expr(component);
        }
        let spec = self.system.spec();
        hasher.write_usize(spec.dim());
        for interval in spec.initial_set().iter() {
            hasher.write_f64(interval.lo());
            hasher.write_f64(interval.hi());
        }
        for interval in spec.domain().iter() {
            hasher.write_f64(interval.lo());
            hasher.write_f64(interval.hi());
        }
        hasher.write_usize(spec.unsafe_halfspaces().len());
        for halfspace in spec.unsafe_halfspaces() {
            for &n in halfspace.normal() {
                hasher.write_f64(n);
            }
            hasher.write_f64(halfspace.offset());
        }
        // Bit-relevant configuration.  `threads` is excluded: it is
        // documented (and differentially tested) as bit-invisible.  The
        // inert `smt_threads`/`smt_batched_evaluation` fields have no
        // effect at all.
        let cfg = &self.config;
        hasher.write_usize(cfg.num_seed_traces);
        hasher.write_f64(cfg.sim_dt);
        hasher.write_f64(cfg.sim_duration);
        hasher.write_f64(cfg.gamma);
        hasher.write_f64(cfg.delta);
        hasher.write_usize(cfg.max_smt_boxes);
        hasher.write_usize(cfg.max_candidate_iterations);
        hasher.write_usize(cfg.max_level_iterations);
        hasher.write_usize(cfg.max_samples_per_trace);
        hasher.write_u64(cfg.seed);
        hasher.write_f64(cfg.synthesis.positivity_margin);
        hasher.write_f64(cfg.synthesis.decrease_margin);
        hasher.write_f64(cfg.synthesis.coefficient_bound);
        hasher.write_f64(cfg.synthesis.diagonal_floor);
        hasher.write_f64(cfg.synthesis.cross_term_ratio);
        hasher.write_f64(cfg.synthesis.margin_cap);
        // Deterministic budget state: a fuel limit changes where the run
        // stops, and fuel already burned changes what remains.
        match self.budget.fuel_limit() {
            Some(limit) => {
                hasher.write_u8(1);
                hasher.write_u64(limit);
                hasher.write_u64(self.budget.fuel_used());
            }
            None => hasher.write_u8(0),
        }
        hasher.finish()
    }
}

/// Hit/miss counters of a [`VerificationSession`] (reporting only).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Requests served from the in-memory whole-outcome memo.
    pub outcome_hits: usize,
    /// Requests that ran the pipeline.
    pub outcome_misses: usize,
    /// Requests served from the on-disk store (a subset of neither counter:
    /// a disk hit skips the pipeline without touching the in-memory memo
    /// miss count).
    pub disk_outcome_hits: usize,
    /// The underlying warm-start layer counters.
    pub warm: WarmStartStats,
}

/// Long-lived verification state: warm-start memo layers, a whole-outcome
/// memo, and an optional on-disk store (see the [module docs](self)).
///
/// The session is `Sync`; a sweep or server shares one instance across its
/// workers.
#[derive(Debug)]
pub struct VerificationSession {
    warm: WarmStart,
    outcomes: Mutex<HashMap<Fingerprint, Arc<VerificationOutcome>>>,
    store: Option<Arc<DiskStore>>,
    outcome_hits: AtomicUsize,
    outcome_misses: AtomicUsize,
    disk_outcome_hits: AtomicUsize,
}

impl Default for VerificationSession {
    fn default() -> Self {
        VerificationSession::new()
    }
}

impl VerificationSession {
    /// A session with in-memory caches only.
    pub fn new() -> Self {
        VerificationSession {
            warm: WarmStart::new(),
            outcomes: Mutex::new(HashMap::new()),
            store: None,
            outcome_hits: AtomicUsize::new(0),
            outcome_misses: AtomicUsize::new(0),
            disk_outcome_hits: AtomicUsize::new(0),
        }
    }

    /// A session whose outcome memo is additionally backed by an on-disk
    /// content-addressed store (the `outcome` kind), so whole outcomes
    /// persist across processes.  The trace and candidate memos stay in
    /// memory; `traces/` and `candidates/` directories left in a store by
    /// earlier versions are ignored.
    pub fn with_store(store: Arc<DiskStore>) -> Self {
        VerificationSession {
            store: Some(store),
            ..VerificationSession::new()
        }
    }

    /// The warm-start memo layers shared by this session's requests.
    pub fn warm_start(&self) -> &WarmStart {
        &self.warm
    }

    /// The on-disk store, when this session has one.
    pub fn store(&self) -> Option<&Arc<DiskStore>> {
        self.store.as_ref()
    }

    /// Snapshot of the cache counters.
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            outcome_hits: self.outcome_hits.load(Ordering::Relaxed),
            outcome_misses: self.outcome_misses.load(Ordering::Relaxed),
            disk_outcome_hits: self.disk_outcome_hits.load(Ordering::Relaxed),
            warm: self.warm.stats(),
        }
    }

    /// Runs one verification request — the single public verify entry
    /// point.
    ///
    /// A cold request runs the pipeline from scratch.  A cacheable request
    /// first consults the whole-outcome memo, then the on-disk store, and
    /// only then runs the pipeline over the session's warm-start layers;
    /// every cached artifact is a pure function of its key, so the returned
    /// outcome is bit-identical to a cold run (only wall-clock timings in
    /// [`VerificationStats::timings`](crate::VerificationStats) reflect
    /// whichever run actually executed).
    pub fn verify(&self, request: &VerificationRequest<'_>) -> VerificationOutcome {
        let config = request.config();
        let budget = request.budget();
        if request.is_cold() {
            return run(config, request.system(), None, budget);
        }
        // A deadline or cancellation can trip at a wall-clock-dependent
        // point, and forced exhaustion is fault injection: none of them
        // name a deterministic outcome, so such requests bypass the
        // outcome memo (the inner warm-start layers stay safe — their
        // bundles are built ungoverned).
        let memoizable = !budget.has_deadline() && !budget.is_cancelled() && !budget.fuel_forced();
        if !memoizable {
            return run(config, request.system(), Some(&self.warm), budget);
        }
        let key = request.fingerprint();
        if let Some(found) = self
            .outcomes
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&key)
        {
            self.outcome_hits.fetch_add(1, Ordering::Relaxed);
            return (**found).clone();
        }
        if let Some(store) = &self.store {
            if let Some(outcome) = store
                .load("outcome", key)
                .and_then(|bytes| decode_outcome(&bytes))
            {
                self.disk_outcome_hits.fetch_add(1, Ordering::Relaxed);
                let outcome = Arc::new(outcome);
                let mut memo = self.outcomes.lock().unwrap_or_else(PoisonError::into_inner);
                let kept = memo.entry(key).or_insert_with(|| Arc::clone(&outcome));
                return (**kept).clone();
            }
        }
        self.outcome_misses.fetch_add(1, Ordering::Relaxed);
        let outcome = run(config, request.system(), Some(&self.warm), budget);
        // Outcomes that stopped for a non-deterministic reason (deadline,
        // cancellation mid-run via a cloned handle, box budgets are fine)
        // must not be replayed to later identical requests.
        let storable = outcome
            .stats()
            .exhaustion
            .as_ref()
            .is_none_or(ExhaustionReason::is_deterministic);
        if storable {
            let shared = Arc::new(outcome.clone());
            self.outcomes
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .entry(key)
                .or_insert(shared);
            if let Some(store) = &self.store {
                store.store("outcome", key, &encode_outcome(&outcome));
            }
        }
        outcome
    }
}

// --- binary codec for persisted outcomes -----------------------------------

/// Serializes an outcome for the on-disk store.  Bit-exact: every `f64`
/// travels via its bit pattern, and `GeneratorFunction::new`'s
/// re-symmetrization `(a + a) / 2` is exact for the already-symmetric
/// stored matrix.
pub(crate) fn encode_outcome(outcome: &VerificationOutcome) -> Vec<u8> {
    let mut w = PayloadWriter::new();
    match outcome {
        VerificationOutcome::Certified { certificate, stats } => {
            w.put_u8(1);
            encode_generator(&mut w, certificate.generator());
            w.put_f64(certificate.level());
            encode_stats(&mut w, stats);
        }
        VerificationOutcome::Inconclusive { reason, stats } => {
            w.put_u8(0);
            w.put_str(reason);
            encode_stats(&mut w, stats);
        }
    }
    w.finish()
}

/// Inverse of [`encode_outcome`]; `None` on any structural mismatch (the
/// store then quarantines nothing further — a decode failure is simply a
/// miss, the entry's checksum already passed).
pub(crate) fn decode_outcome(bytes: &[u8]) -> Option<VerificationOutcome> {
    let mut r = PayloadReader::new(bytes);
    let outcome = match r.take_u8()? {
        1 => {
            let generator = decode_generator(&mut r)?;
            let level = r.take_f64()?;
            let stats = decode_stats(&mut r)?;
            VerificationOutcome::Certified {
                certificate: BarrierCertificate::new(generator, level),
                stats,
            }
        }
        0 => {
            let reason = r.take_str()?;
            let stats = decode_stats(&mut r)?;
            VerificationOutcome::Inconclusive { reason, stats }
        }
        _ => return None,
    };
    r.is_exhausted().then_some(outcome)
}

fn encode_generator(w: &mut PayloadWriter, generator: &GeneratorFunction) {
    let n = generator.dim();
    w.put_usize(n);
    for i in 0..n {
        for j in 0..n {
            w.put_f64(generator.quadratic_part()[(i, j)]);
        }
    }
    for i in 0..n {
        w.put_f64(generator.linear_part()[i]);
    }
    w.put_f64(generator.constant_part());
}

fn decode_generator(r: &mut PayloadReader<'_>) -> Option<GeneratorFunction> {
    let n = r.take_usize()?;
    if n == 0 || n.checked_mul(n)?.checked_mul(8)? > r.remaining() {
        return None;
    }
    let p: Vec<f64> = (0..n * n).map(|_| r.take_f64()).collect::<Option<_>>()?;
    let q: Vec<f64> = (0..n).map(|_| r.take_f64()).collect::<Option<_>>()?;
    let c = r.take_f64()?;
    Some(GeneratorFunction::new(
        Matrix::from_row_major(n, n, p),
        Vector::from_vec(q),
        c,
    ))
}

fn encode_stats(w: &mut PayloadWriter, stats: &VerificationStats) {
    w.put_usize(stats.generator_iterations);
    w.put_usize(stats.lp_solves);
    w.put_usize(stats.smt_decrease_checks);
    w.put_usize(stats.counterexamples);
    w.put_usize(stats.level_iterations);
    let s = &stats.solver;
    w.put_usize(s.boxes_explored);
    w.put_usize(s.boxes_pruned);
    w.put_usize(s.bisections);
    w.put_usize(s.clauses_examined);
    w.put_usize(s.instructions_executed);
    w.put_usize(s.specialized_tape_len_sum);
    w.put_usize(s.newton_cuts);
    w.put_usize(stats.counterexample_witnesses.len());
    for witness in &stats.counterexample_witnesses {
        w.put_f64_slice(witness);
    }
    w.put_usize(stats.counterexample_candidates.len());
    for candidate in &stats.counterexample_candidates {
        w.put_f64_slice(candidate);
    }
    let t = &stats.timings;
    for duration in [t.simulation, t.lp, t.smt_decrease, t.level_set, t.total] {
        w.put_u64(duration.as_nanos() as u64);
    }
    match &stats.exhaustion {
        None => w.put_u8(0),
        Some(reason) => {
            w.put_u8(1);
            w.put_str(reason.kind());
            match reason.limit() {
                Some(limit) => {
                    w.put_u8(1);
                    w.put_u64(limit);
                }
                None => w.put_u8(0),
            }
        }
    }
}

fn decode_stats(r: &mut PayloadReader<'_>) -> Option<VerificationStats> {
    let generator_iterations = r.take_usize()?;
    let lp_solves = r.take_usize()?;
    let smt_decrease_checks = r.take_usize()?;
    let counterexamples = r.take_usize()?;
    let level_iterations = r.take_usize()?;
    let solver = SolverStats {
        boxes_explored: r.take_usize()?,
        boxes_pruned: r.take_usize()?,
        bisections: r.take_usize()?,
        clauses_examined: r.take_usize()?,
        instructions_executed: r.take_usize()?,
        specialized_tape_len_sum: r.take_usize()?,
        newton_cuts: r.take_usize()?,
    };
    let witnesses = take_f64_vecs(r)?;
    let candidates = take_f64_vecs(r)?;
    let mut durations = [Duration::ZERO; 5];
    for slot in &mut durations {
        *slot = Duration::from_nanos(r.take_u64()?);
    }
    let exhaustion = match r.take_u8()? {
        0 => None,
        1 => {
            let kind = r.take_str()?;
            let limit = match r.take_u8()? {
                0 => None,
                1 => Some(r.take_u64()?),
                _ => return None,
            };
            Some(ExhaustionReason::from_parts(&kind, limit)?)
        }
        _ => return None,
    };
    Some(VerificationStats {
        generator_iterations,
        lp_solves,
        smt_decrease_checks,
        counterexamples,
        level_iterations,
        solver,
        counterexample_witnesses: witnesses,
        counterexample_candidates: candidates,
        timings: StageTimings {
            simulation: durations[0],
            lp: durations[1],
            smt_decrease: durations[2],
            level_set: durations[3],
            total: durations[4],
        },
        exhaustion,
    })
}

fn take_f64_vecs(r: &mut PayloadReader<'_>) -> Option<Vec<Vec<f64>>> {
    let count = r.take_usize()?;
    // Every element carries at least its own 8-byte length prefix.
    if count.checked_mul(8)? > r.remaining() {
        return None;
    }
    (0..count).map(|_| r.take_f64_vec()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SafetySpec;
    use nncps_expr::Expr;
    use nncps_interval::IntervalBox;

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

    fn assert_outcomes_bit_identical(a: &VerificationOutcome, b: &VerificationOutcome) {
        assert_eq!(a.is_certified(), b.is_certified());
        match (a.certificate(), b.certificate()) {
            (Some(ca), Some(cb)) => {
                assert_eq!(ca.generator(), cb.generator());
                assert_eq!(ca.level().to_bits(), cb.level().to_bits());
            }
            (None, None) => {}
            _ => panic!("verdicts diverged"),
        }
        assert_eq!(a.stats().solver, b.stats().solver);
        assert_eq!(
            a.stats().counterexample_witnesses,
            b.stats().counterexample_witnesses
        );
        assert_eq!(a.stats().exhaustion, b.stats().exhaustion);
    }

    #[test]
    fn fingerprint_ignores_bit_invisible_knobs_only() {
        let system = stable_linear_system();
        let base = VerificationRequest::over(&system);
        let mut threads_differ = base.config().clone();
        threads_differ.threads = 7;
        assert_eq!(
            base.fingerprint(),
            VerificationRequest::over(&system)
                .with_config(threads_differ)
                .fingerprint(),
            "bit-invisible knobs must not split the memo key"
        );

        let mut delta_differs = base.config().clone();
        delta_differs.delta *= 2.0;
        assert_ne!(
            base.fingerprint(),
            VerificationRequest::over(&system)
                .with_config(delta_differs)
                .fingerprint()
        );
        assert_ne!(
            base.fingerprint(),
            VerificationRequest::over(&system)
                .with_budget(Budget::unlimited().with_fuel(1000))
                .fingerprint(),
            "a fuel limit names a different remaining-resource problem"
        );
        let other = ClosedLoopSystem::new(vec![-Expr::var(0), -Expr::var(1)], paper_style_spec());
        assert_ne!(
            base.fingerprint(),
            VerificationRequest::over(&other).fingerprint()
        );
    }

    #[test]
    fn repeated_requests_hit_the_outcome_memo_bit_identically() {
        let system = stable_linear_system();
        let session = VerificationSession::new();
        let first = session.verify(&VerificationRequest::over(&system));
        let second = session.verify(&VerificationRequest::over(&system));
        assert!(first.is_certified());
        assert_outcomes_bit_identical(&first, &second);
        let stats = session.stats();
        assert_eq!((stats.outcome_hits, stats.outcome_misses), (1, 1));
    }

    #[test]
    #[allow(deprecated)]
    fn inert_solver_knobs_share_one_memo_entry() {
        // `smt_threads` and `smt_batched_evaluation` have no effect, so two
        // requests differing only in them name one outcome.
        let system = stable_linear_system();
        let session = VerificationSession::new();
        let first = session.verify(&VerificationRequest::over(&system));
        let inert = VerificationConfig {
            smt_threads: 4,
            smt_batched_evaluation: false,
            ..VerificationConfig::default()
        };
        let second = session.verify(&VerificationRequest::over(&system).with_config(inert));
        assert_outcomes_bit_identical(&first, &second);
        let stats = session.stats();
        assert_eq!((stats.outcome_hits, stats.outcome_misses), (1, 1));
    }

    #[test]
    fn cold_requests_bypass_and_match_the_session_path() {
        let system = stable_linear_system();
        let session = VerificationSession::new();
        let warm = session.verify(&VerificationRequest::over(&system));
        let cold = session.verify(&VerificationRequest::over(&system).cold());
        assert_outcomes_bit_identical(&warm, &cold);
        // The cold run left no trace in the counters.
        assert_eq!(session.stats().outcome_hits, 0);
        assert_eq!(session.stats().outcome_misses, 1);
    }

    #[test]
    fn deadline_budgets_are_never_memoized() {
        let system = stable_linear_system();
        let session = VerificationSession::new();
        let budget = Budget::unlimited().with_deadline(Duration::from_secs(3600));
        for _ in 0..2 {
            let request = VerificationRequest::over(&system).with_budget(budget.clone());
            let outcome = session.verify(&request);
            assert!(outcome.is_certified());
        }
        let stats = session.stats();
        assert_eq!((stats.outcome_hits, stats.outcome_misses), (0, 0));
    }

    #[test]
    fn disk_store_replays_outcomes_across_sessions() {
        let root =
            std::env::temp_dir().join(format!("nncps-session-test-{}-replay", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let system = stable_linear_system();

        let store = Arc::new(DiskStore::open(&root).expect("store opens"));
        let first_session = VerificationSession::with_store(Arc::clone(&store));
        let first = first_session.verify(&VerificationRequest::over(&system));
        assert!(first.is_certified());
        assert!(store.stats().writes > 0, "outcome must be persisted");
        drop(first_session);

        // A brand-new process-like session over the same root: the outcome
        // comes back from disk, bit-identical, without running the pipeline.
        let store = Arc::new(DiskStore::open(&root).expect("store reopens"));
        let second_session = VerificationSession::with_store(store);
        let second = second_session.verify(&VerificationRequest::over(&system));
        assert_outcomes_bit_identical(&first, &second);
        let stats = second_session.stats();
        assert_eq!(stats.disk_outcome_hits, 1);
        assert_eq!(stats.outcome_misses, 0);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn outcome_codec_round_trips_both_variants() {
        let stats = VerificationStats {
            generator_iterations: 3,
            lp_solves: 3,
            smt_decrease_checks: 3,
            counterexamples: 2,
            level_iterations: 5,
            solver: SolverStats {
                boxes_explored: 100,
                boxes_pruned: 90,
                bisections: 40,
                clauses_examined: 7,
                instructions_executed: 12345,
                specialized_tape_len_sum: 999,
                newton_cuts: 3,
            },
            counterexample_witnesses: vec![vec![0.1, -0.2], vec![f64::MIN_POSITIVE, -0.0]],
            counterexample_candidates: vec![vec![1.0; 7], vec![2.0; 7]],
            timings: StageTimings {
                simulation: Duration::from_micros(11),
                lp: Duration::from_micros(22),
                smt_decrease: Duration::from_micros(33),
                level_set: Duration::from_micros(44),
                total: Duration::from_micros(110),
            },
            exhaustion: Some(ExhaustionReason::Fuel(5000)),
        };
        let generator = GeneratorFunction::new(
            Matrix::from_row_major(2, 2, vec![1.5, 0.25, 0.25, 2.5]),
            Vector::from_vec(vec![-0.5, 0.75]),
            0.125,
        );
        let certified = VerificationOutcome::Certified {
            certificate: BarrierCertificate::new(generator, 1.75),
            stats: stats.clone(),
        };
        let decoded = decode_outcome(&encode_outcome(&certified)).expect("decodes");
        assert_outcomes_bit_identical(&certified, &decoded);
        assert_eq!(decoded.stats(), &stats);

        let inconclusive = VerificationOutcome::Inconclusive {
            reason: "level-set selection failed: no admissible level".to_string(),
            stats,
        };
        let decoded = decode_outcome(&encode_outcome(&inconclusive)).expect("decodes");
        match &decoded {
            VerificationOutcome::Inconclusive { reason, .. } => {
                assert!(reason.contains("no admissible level"));
            }
            VerificationOutcome::Certified { .. } => panic!("variant flipped"),
        }

        // Truncation and trailing garbage both decode to a miss.
        let bytes = encode_outcome(&certified);
        assert!(decode_outcome(&bytes[..bytes.len() - 1]).is_none());
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(decode_outcome(&padded).is_none());
    }
}
