//! Warm-start state shared across a scenario-family sweep.
//!
//! Running a family of related verification problems as N independent cold
//! runs repeats two expensive, *deterministic* computations:
//!
//! 1. **seed-trace simulation** — members sharing dynamics, initial set,
//!    seed, and simulation parameters integrate exactly the same
//!    trajectories,
//! 2. **candidate synthesis** — the LP over identical constraint rows has
//!    one solution, re-solved per member.
//!
//! A [`WarmStart`] memoizes both in memory behind 128-bit structural
//! identity keys ([`Fingerprint`]).  Every entry is a pure function of its
//! key, so a hit returns *bit-identical* data to recomputation: verdicts,
//! witnesses, certificates, solver statistics, and therefore whole batch
//! reports are byte-identical with warm start on or off, at any thread
//! count.  (The differential tests in `tests/family_warm_start.rs` assert
//! this.)
//!
//! δ-SAT queries are not memoized: keying a query hashes its whole formula
//! DAG, which costs about as much as compiling it.  Nor are the memos
//! persisted: across processes the whole-outcome store of
//! [`VerificationSession`](crate::VerificationSession) answers before
//! either memo is consulted.
//!
//! The struct is `Sync`: a sweep shares one instance across its scenario
//! workers (entries are published under short-lived mutexes and read through
//! `Arc`s).
//!
//! # Examples
//!
//! ```
//! use nncps_barrier::{
//!     ClosedLoopSystem, SafetySpec, VerificationRequest, VerificationSession,
//! };
//! use nncps_expr::Expr;
//! use nncps_interval::IntervalBox;
//! use nncps_sim::ExprDynamics;
//!
//! let plant = ExprDynamics::new(vec![-Expr::var(0), -Expr::var(1)]);
//! let spec = SafetySpec::rectangular(
//!     IntervalBox::from_bounds(&[(-0.5, 0.5), (-0.5, 0.5)]),
//!     IntervalBox::from_bounds(&[(-3.0, 3.0), (-3.0, 3.0)]),
//! );
//! let system = ClosedLoopSystem::from_dynamics(&plant, spec);
//! let session = VerificationSession::new();
//! let cold = session.verify(&VerificationRequest::over(&system).cold());
//! let first = session.verify(&VerificationRequest::over(&system));
//! // A second request differing only in δ-SAT precision still shares the
//! // seed-trace bundle and the first LP candidate through the warm layers.
//! let config = nncps_barrier::VerificationConfig {
//!     delta: 2e-4,
//!     ..nncps_barrier::VerificationConfig::default()
//! };
//! let varied = session.verify(&VerificationRequest::over(&system).with_config(config));
//! assert!(cold.is_certified() && first.is_certified() && varied.is_certified());
//! let warm = session.stats().warm;
//! assert!(warm.trace_hits >= 1 && warm.candidate_hits >= 1);
//! ```

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

#[allow(deprecated)]
use nncps_deltasat::CompilationCache;
use nncps_expr::Fingerprint;
use nncps_sim::Trace;

use crate::{GeneratorFunction, SynthesisError};

/// Hit/miss counters of every warm-start layer (reporting only — the
/// counters never influence results).
///
/// `formula_hits`, `formula_misses`, `disk_trace_hits` and
/// `disk_candidate_hits` name layers that no longer exist and are always 0;
/// they stay so that readers of the counters keep their keys.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WarmStartStats {
    /// Always 0: compiled δ-SAT queries are not memoized.
    pub formula_hits: usize,
    /// Always 0: compiled δ-SAT queries are not memoized.
    pub formula_misses: usize,
    /// Simulation bundles (seed-trace sets, counterexample traces) reused.
    pub trace_hits: usize,
    /// Simulation bundles computed.
    pub trace_misses: usize,
    /// LP candidates served from the synthesis memo.
    pub candidate_hits: usize,
    /// LP candidates solved.
    pub candidate_misses: usize,
    /// Always 0: simulation bundles are not persisted.
    pub disk_trace_hits: usize,
    /// Always 0: LP candidates are not persisted.
    pub disk_candidate_hits: usize,
}

/// Shared memoization state for a family sweep (see the [module
/// docs](self)).
#[derive(Debug, Default)]
pub struct WarmStart {
    traces: Mutex<HashMap<Fingerprint, Arc<Vec<Trace>>>>,
    candidates: Mutex<HashMap<Fingerprint, Arc<Result<GeneratorFunction, SynthesisError>>>>,
    trace_hits: AtomicUsize,
    trace_misses: AtomicUsize,
    candidate_hits: AtomicUsize,
    candidate_misses: AtomicUsize,
}

impl WarmStart {
    /// Creates empty warm-start state.
    pub fn new() -> Self {
        WarmStart::default()
    }

    /// No effect; kept only so the frozen benchmark compiles.  The returned
    /// handle compiles every query afresh.
    #[deprecated(note = "no effect: δ-SAT queries are not memoized")]
    #[allow(deprecated)]
    pub fn compilation(&self) -> &CompilationCache {
        &CompilationCache
    }

    /// Returns the memoized simulation bundle for `key`, computing and
    /// publishing it with `build` on a miss.
    ///
    /// The caller owns the key discipline: `key` must cover every input of
    /// `build` (dynamics structure, initial data, integrator parameters), so
    /// that a hit is bit-identical to recomputing.
    pub fn traces_or_insert(
        &self,
        key: Fingerprint,
        build: impl FnOnce() -> Vec<Trace>,
    ) -> Arc<Vec<Trace>> {
        // Poisoned locks are recovered, not propagated: every entry is a
        // pure function of its key built *outside* the lock, so a sweep
        // member that panicked while holding the map cannot leave a torn
        // entry behind — a crashed member must not poison its siblings.
        if let Some(found) = self
            .traces
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&key)
        {
            self.trace_hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(found);
        }
        // Build outside the lock: simulation can be slow and other workers
        // should not serialize behind it.  A racing duplicate is dropped —
        // both builds are bit-identical by the key discipline.
        let built = Arc::new(build());
        self.trace_misses.fetch_add(1, Ordering::Relaxed);
        nncps_fault::panic_point(nncps_fault::SITE_WARMSTART_INSERT);
        let mut map = self.traces.lock().unwrap_or_else(PoisonError::into_inner);
        Arc::clone(map.entry(key).or_insert_with(|| Arc::clone(&built)))
    }

    /// Returns the memoized candidate-synthesis result for `key`, solving
    /// and publishing it with `build` on a miss.  Same key discipline as
    /// [`WarmStart::traces_or_insert`]; the natural key is
    /// [`CandidateSynthesizer::fingerprint`](crate::CandidateSynthesizer::fingerprint).
    pub fn candidate_or_insert(
        &self,
        key: Fingerprint,
        build: impl FnOnce() -> Result<GeneratorFunction, SynthesisError>,
    ) -> Arc<Result<GeneratorFunction, SynthesisError>> {
        if let Some(found) = self
            .candidates
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&key)
        {
            self.candidate_hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(found);
        }
        let built = Arc::new(build());
        self.candidate_misses.fetch_add(1, Ordering::Relaxed);
        nncps_fault::panic_point(nncps_fault::SITE_WARMSTART_INSERT);
        let mut map = self
            .candidates
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        Arc::clone(map.entry(key).or_insert_with(|| Arc::clone(&built)))
    }

    /// Snapshot of the hit/miss counters across all layers.
    pub fn stats(&self) -> WarmStartStats {
        WarmStartStats {
            trace_hits: self.trace_hits.load(Ordering::Relaxed),
            trace_misses: self.trace_misses.load(Ordering::Relaxed),
            candidate_hits: self.candidate_hits.load(Ordering::Relaxed),
            candidate_misses: self.candidate_misses.load(Ordering::Relaxed),
            ..WarmStartStats::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_memo_hits_on_identical_keys() {
        let warm = WarmStart::new();
        let key = Fingerprint(1, 2);
        let mut builds = 0;
        let a = warm.traces_or_insert(key, || {
            builds += 1;
            vec![Trace::new(2)]
        });
        let b = warm.traces_or_insert(key, || {
            builds += 1;
            vec![Trace::new(2)]
        });
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(builds, 1);
        let other = warm.traces_or_insert(Fingerprint(1, 3), Vec::new);
        assert!(other.is_empty());
        let stats = warm.stats();
        assert_eq!((stats.trace_hits, stats.trace_misses), (1, 2));
    }

    #[test]
    fn candidate_memo_stores_errors_too() {
        let warm = WarmStart::new();
        let key = Fingerprint(7, 7);
        let first = warm.candidate_or_insert(key, || Err(SynthesisError::NoTraceData));
        let second = warm.candidate_or_insert(key, || panic!("must not re-run"));
        assert!(Arc::ptr_eq(&first, &second));
        assert!(matches!(*second, Err(SynthesisError::NoTraceData)));
        assert_eq!(warm.stats().candidate_hits, 1);
        assert_eq!(warm.stats().candidate_misses, 1);
    }
}
