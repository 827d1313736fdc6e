//! Warm-start state shared across a scenario-family sweep.
//!
//! Running a family of related verification problems as N independent cold
//! runs repeats three expensive, *deterministic* computations:
//!
//! 1. **query compilation** — DNF conversion, CSE tape lowering, and
//!    symbolic differentiation of every δ-SAT query (family members sharing
//!    dynamics re-derive structurally identical queries),
//! 2. **seed-trace simulation** — members sharing dynamics, initial set,
//!    seed, and simulation parameters integrate exactly the same
//!    trajectories,
//! 3. **candidate synthesis** — the LP over identical constraint rows has
//!    one solution, re-solved per member.
//!
//! A [`WarmStart`] memoizes all three behind 128-bit structural identity
//! keys ([`Fingerprint`]).  Every entry is a pure function of its key, so a
//! hit returns *bit-identical* data to recomputation: verdicts, witnesses,
//! certificates, solver statistics, and therefore whole batch reports are
//! byte-identical with warm start on or off, at any thread count.  (The
//! differential tests in `tests/family_warm_start.rs` assert this.)
//!
//! The struct is `Sync`: a sweep shares one instance across its scenario
//! workers (entries are published under short-lived mutexes and read through
//! `Arc`s).
//!
//! With [`WarmStart::with_store`], the trace and candidate layers are
//! additionally backed by an on-disk content-addressed
//! [`DiskStore`] under the same fingerprint keys, so the
//! memos survive the process: a resident verification server (or repeated
//! CLI runs over one `--store` directory) re-reads earlier bundles instead
//! of recomputing them.  The compiled-query layer stays in-memory only —
//! evaluation tapes are not serialized — but the whole-outcome store in
//! [`VerificationSession`](crate::VerificationSession) makes recompilation
//! moot for repeated requests.
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
//! assert!(session.stats().warm.trace_hits >= 1);
//! ```

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use nncps_deltasat::CompilationCache;
use nncps_expr::Fingerprint;
use nncps_sim::Trace;

use crate::session::{decode_generator, encode_generator};
use crate::store::{DiskStore, PayloadReader, PayloadWriter};
use crate::{GeneratorFunction, SynthesisError};

/// Hit/miss counters of every warm-start layer (reporting only — the
/// counters never influence results).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WarmStartStats {
    /// δ-SAT queries served from the compilation cache.
    pub formula_hits: usize,
    /// δ-SAT queries compiled (cache misses).
    pub formula_misses: usize,
    /// Simulation bundles (seed-trace sets, counterexample traces) reused.
    pub trace_hits: usize,
    /// Simulation bundles computed.
    pub trace_misses: usize,
    /// LP candidates served from the synthesis memo.
    pub candidate_hits: usize,
    /// LP candidates solved.
    pub candidate_misses: usize,
    /// Simulation bundles replayed from the on-disk store (counted in
    /// neither `trace_hits` nor `trace_misses`: a disk hit skips the build
    /// without touching the in-memory memo first).
    pub disk_trace_hits: usize,
    /// LP candidates replayed from the on-disk store.
    pub disk_candidate_hits: usize,
}

/// Shared memoization state for a family sweep (see the [module
/// docs](self)).
#[derive(Debug, Default)]
pub struct WarmStart {
    compilation: CompilationCache,
    traces: Mutex<HashMap<Fingerprint, Arc<Vec<Trace>>>>,
    candidates: Mutex<HashMap<Fingerprint, Arc<Result<GeneratorFunction, SynthesisError>>>>,
    store: Option<Arc<DiskStore>>,
    trace_hits: AtomicUsize,
    trace_misses: AtomicUsize,
    candidate_hits: AtomicUsize,
    candidate_misses: AtomicUsize,
    disk_trace_hits: AtomicUsize,
    disk_candidate_hits: AtomicUsize,
}

impl WarmStart {
    /// Creates empty warm-start state.
    pub fn new() -> Self {
        WarmStart::default()
    }

    /// Warm-start state whose trace and candidate layers are backed by an
    /// on-disk content-addressed store (see the [module docs](self)).
    pub fn with_store(store: Arc<DiskStore>) -> Self {
        WarmStart {
            store: Some(store),
            ..WarmStart::default()
        }
    }

    /// The δ-SAT query compilation cache.
    pub fn compilation(&self) -> &CompilationCache {
        &self.compilation
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
        // Disk layer before recomputation: entries are pure functions of
        // their keys, so a replay is bit-identical to rebuilding.
        if let Some(store) = &self.store {
            if let Some(bundle) = store
                .load("traces", key)
                .and_then(|bytes| decode_traces(&bytes))
            {
                self.disk_trace_hits.fetch_add(1, Ordering::Relaxed);
                let built = Arc::new(bundle);
                let mut map = self.traces.lock().unwrap_or_else(PoisonError::into_inner);
                return Arc::clone(map.entry(key).or_insert_with(|| Arc::clone(&built)));
            }
        }
        // Build outside the lock: simulation can be slow and other workers
        // should not serialize behind it.  A racing duplicate is dropped —
        // both builds are bit-identical by the key discipline.
        let built = Arc::new(build());
        self.trace_misses.fetch_add(1, Ordering::Relaxed);
        if let Some(store) = &self.store {
            store.store("traces", key, &encode_traces(&built));
        }
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
        if let Some(store) = &self.store {
            if let Some(generator) = store
                .load("candidates", key)
                .and_then(|bytes| decode_candidate(&bytes))
            {
                self.disk_candidate_hits.fetch_add(1, Ordering::Relaxed);
                let built = Arc::new(Ok(generator));
                let mut map = self
                    .candidates
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                return Arc::clone(map.entry(key).or_insert_with(|| Arc::clone(&built)));
            }
        }
        let built = Arc::new(build());
        self.candidate_misses.fetch_add(1, Ordering::Relaxed);
        // Only successful syntheses persist: a `SynthesisError` stays a
        // cheap in-memory memo (and its Display text is free to evolve).
        if let (Some(store), Ok(generator)) = (&self.store, built.as_ref()) {
            store.store("candidates", key, &encode_candidate(generator));
        }
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
            formula_hits: self.compilation.hits(),
            formula_misses: self.compilation.misses(),
            trace_hits: self.trace_hits.load(Ordering::Relaxed),
            trace_misses: self.trace_misses.load(Ordering::Relaxed),
            candidate_hits: self.candidate_hits.load(Ordering::Relaxed),
            candidate_misses: self.candidate_misses.load(Ordering::Relaxed),
            disk_trace_hits: self.disk_trace_hits.load(Ordering::Relaxed),
            disk_candidate_hits: self.disk_candidate_hits.load(Ordering::Relaxed),
        }
    }
}

// --- binary codec for persisted bundles ------------------------------------

fn encode_traces(traces: &[Trace]) -> Vec<u8> {
    let mut w = PayloadWriter::new();
    w.put_usize(traces.len());
    for trace in traces {
        w.put_usize(trace.dim());
        w.put_f64_slice(trace.times());
        w.put_usize(trace.states().len());
        for state in trace.states() {
            w.put_f64_slice(state);
        }
    }
    w.finish()
}

fn decode_traces(bytes: &[u8]) -> Option<Vec<Trace>> {
    let mut r = PayloadReader::new(bytes);
    let count = r.take_usize()?;
    // Every trace carries at least its 8-byte dimension field.
    if count.checked_mul(8)? > r.remaining() {
        return None;
    }
    let traces = (0..count)
        .map(|_| {
            let dim = r.take_usize()?;
            let times = r.take_f64_vec()?;
            let num_states = r.take_usize()?;
            if num_states != times.len() {
                return None;
            }
            let states = (0..num_states)
                .map(|_| {
                    let state = r.take_f64_vec()?;
                    (state.len() == dim).then_some(state)
                })
                .collect::<Option<Vec<_>>>()?;
            Some(Trace::from_samples(dim, times, states))
        })
        .collect::<Option<Vec<_>>>()?;
    r.is_exhausted().then_some(traces)
}

fn encode_candidate(generator: &GeneratorFunction) -> Vec<u8> {
    let mut w = PayloadWriter::new();
    encode_generator(&mut w, generator);
    w.finish()
}

fn decode_candidate(bytes: &[u8]) -> Option<GeneratorFunction> {
    let mut r = PayloadReader::new(bytes);
    let generator = decode_generator(&mut r)?;
    r.is_exhausted().then_some(generator)
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
    fn disk_backing_replays_traces_and_candidates_across_instances() {
        let root =
            std::env::temp_dir().join(format!("nncps-warmstart-test-{}-disk", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let store = Arc::new(DiskStore::open(&root).expect("store opens"));

        let warm = WarmStart::with_store(Arc::clone(&store));
        let trace_key = Fingerprint(3, 4);
        let built = warm.traces_or_insert(trace_key, || {
            vec![Trace::from_samples(
                1,
                vec![0.0, 0.5],
                vec![vec![0.25], vec![-0.125]],
            )]
        });
        let candidate_key = Fingerprint(5, 6);
        let generator = GeneratorFunction::new(
            nncps_linalg::Matrix::identity(2),
            nncps_linalg::Vector::from_vec(vec![0.5, -0.25]),
            0.125,
        );
        let _ = warm.candidate_or_insert(candidate_key, || Ok(generator.clone()));
        let error_key = Fingerprint(7, 8);
        let _ = warm.candidate_or_insert(error_key, || Err(SynthesisError::NoTraceData));

        // A fresh instance over the same store replays both layers without
        // rebuilding — this is the cross-process path a daemon restart takes.
        let fresh = WarmStart::with_store(store);
        let replayed = fresh.traces_or_insert(trace_key, || panic!("must replay from disk"));
        assert_eq!(replayed.len(), built.len());
        assert_eq!(replayed[0].times(), built[0].times());
        assert!(replayed[0].states().eq(built[0].states()));
        let candidate =
            fresh.candidate_or_insert(candidate_key, || panic!("must replay from disk"));
        assert_eq!(*candidate, Ok(generator));
        // Synthesis errors are memory-only: the fresh instance rebuilds.
        let mut rebuilt = false;
        let _ = fresh.candidate_or_insert(error_key, || {
            rebuilt = true;
            Err(SynthesisError::NoTraceData)
        });
        assert!(rebuilt);
        let stats = fresh.stats();
        assert_eq!((stats.disk_trace_hits, stats.disk_candidate_hits), (1, 1));
        let _ = std::fs::remove_dir_all(&root);
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
