//! The compilation cache: compiled δ-SAT queries keyed by structural
//! identity.
//!
//! A scenario-family sweep issues hundreds of δ-SAT queries whose expression
//! trees repeat across family members: members that share dynamics and
//! differ only in boxes, solver precision, or thread counts re-derive the
//! *same* decrease query (the Lie derivative of the same candidate over the
//! same closed loop) and the same level-set confirmation queries.  Compiling
//! a query — DNF conversion and CSE tape lowering — is pure per-structure
//! work, so [`CompilationCache`] memoizes it: the key is a 128-bit
//! [`Fingerprint`] over every bit the compiled artifact depends on (Boolean
//! structure, relations, bound bits, and the full expression DAGs), and the
//! value is the finished [`CompiledFormula`] behind an [`Arc`], shared
//! read-only across sweep workers.
//!
//! # Determinism
//!
//! A cache hit returns an artifact that is *bit-identical in behaviour* to
//! recompiling: tape lowering is a deterministic function of the expression
//! structure, and [`Tape`](nncps_expr::Tape) evaluation is bit-identical to
//! tree evaluation (the PR 2 discipline).  Sweeps therefore produce
//! byte-identical reports with the cache enabled or disabled — the
//! differential test suite asserts exactly that.
//!
//! # Examples
//!
//! ```
//! use nncps_deltasat::{CompilationCache, Constraint, DeltaSolver, Formula};
//! use nncps_expr::Expr;
//! use nncps_interval::IntervalBox;
//!
//! let cache = CompilationCache::new();
//! let query = Formula::atom(Constraint::ge(Expr::var(0).powi(2), 2.0));
//! let compiled = cache.compile(&query);
//! // The structurally identical query is not recompiled.
//! let again = cache.compile(&Formula::atom(Constraint::ge(Expr::var(0).powi(2), 2.0)));
//! assert_eq!(cache.hits(), 1);
//! assert_eq!(cache.misses(), 1);
//! let domain = IntervalBox::from_bounds(&[(-3.0, 3.0)]);
//! assert!(DeltaSolver::new(1e-4).solve_compiled(&again, &domain).is_delta_sat());
//! # let _ = compiled;
//! ```

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use nncps_expr::{Fingerprint, StructuralHasher};

use crate::{CompiledFormula, Formula, Relation};

/// A concurrent map from formula structure to compiled artifacts (see the
/// [module docs](self)).
#[derive(Debug, Default)]
pub struct CompilationCache {
    formulas: Mutex<HashMap<Fingerprint, Arc<CompiledFormula>>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl CompilationCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        CompilationCache::default()
    }

    /// The structural identity key of a formula: Boolean shape, relations,
    /// bound bits, and the full expression DAGs of every atom.
    pub fn fingerprint(formula: &Formula) -> Fingerprint {
        let mut hasher = StructuralHasher::new();
        write_formula(&mut hasher, formula);
        hasher.finish()
    }

    /// Compiles a formula through the cache: on a hit the previously
    /// compiled artifact is returned; on a miss the formula is compiled with
    /// [`CompiledFormula::compile`] and the artifact is stored.
    pub fn compile(&self, formula: &Formula) -> Arc<CompiledFormula> {
        let key = Self::fingerprint(formula);
        // Poisoned locks are recovered, not propagated: every cached value
        // is a pure function of its key computed *outside* the lock, so a
        // sweep member that panicked mid-insert cannot leave a torn entry —
        // isolation of crashed members must not poison their siblings.
        if let Some(found) = self
            .formulas
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&key)
        {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(found);
        }
        // Compile outside the lock: lowering an NN-sized query to a tape
        // takes milliseconds and other workers should not serialize behind
        // it.  If two workers race on the same key the loser's artifact is
        // dropped — both are behaviourally identical.
        let compiled = Arc::new(CompiledFormula::compile(formula));
        let mut map = self.formulas.lock().unwrap_or_else(PoisonError::into_inner);
        let entry = map.entry(key).or_insert_with(|| Arc::clone(&compiled));
        self.misses.fetch_add(1, Ordering::Relaxed);
        Arc::clone(entry)
    }

    /// Number of cache hits so far.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of cache misses (compilations performed) so far.
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of distinct formulas currently cached.
    pub fn len(&self) -> usize {
        self.formulas
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Whether the cache holds no compiled formulas yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

fn write_formula(hasher: &mut StructuralHasher, formula: &Formula) {
    match formula {
        Formula::Atom(constraint) => {
            hasher.write_u8(0x10);
            hasher.write_u8(match constraint.relation() {
                Relation::Le => 0,
                Relation::Lt => 1,
                Relation::Ge => 2,
                Relation::Gt => 3,
                Relation::Eq => 4,
            });
            hasher.write_f64(constraint.bound());
            hasher.write_expr(constraint.expr());
        }
        Formula::And(parts) => {
            hasher.write_u8(0x11);
            hasher.write_usize(parts.len());
            for part in parts {
                write_formula(hasher, part);
            }
        }
        Formula::Or(parts) => {
            hasher.write_u8(0x12);
            hasher.write_usize(parts.len());
            for part in parts {
                write_formula(hasher, part);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Constraint;
    use nncps_expr::Expr;

    fn x() -> Expr {
        Expr::var(0)
    }

    #[test]
    fn structurally_equal_formulas_share_one_compilation() {
        let cache = CompilationCache::new();
        let build = || {
            Formula::and(vec![
                Formula::atom(Constraint::ge(x().tanh(), 0.25)),
                Formula::or(vec![
                    Formula::atom(Constraint::lt(x(), -1.0)),
                    Formula::atom(Constraint::gt(x(), 1.0)),
                ]),
            ])
        };
        let a = cache.compile(&build());
        let b = cache.compile(&build());
        assert!(Arc::ptr_eq(&a, &b), "hit must return the same artifact");
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (1, 1, 1));
        assert!(!cache.is_empty());
    }

    #[test]
    fn fingerprints_distinguish_relation_bound_and_shape() {
        let base = CompilationCache::fingerprint(&Formula::atom(Constraint::ge(x(), 1.0)));
        assert_ne!(
            base,
            CompilationCache::fingerprint(&Formula::atom(Constraint::gt(x(), 1.0))),
            "relation"
        );
        assert_ne!(
            base,
            CompilationCache::fingerprint(&Formula::atom(Constraint::ge(x(), 1.5))),
            "bound bits"
        );
        assert_ne!(
            base,
            CompilationCache::fingerprint(&Formula::and(vec![Formula::atom(Constraint::ge(
                x(),
                1.0
            ))])),
            "boolean wrapper"
        );
        assert_ne!(
            CompilationCache::fingerprint(&Formula::and(vec![])),
            CompilationCache::fingerprint(&Formula::or(vec![])),
            "verum vs falsum"
        );
    }

    #[test]
    fn distinct_formulas_get_distinct_entries() {
        let cache = CompilationCache::new();
        cache.compile(&Formula::atom(Constraint::ge(x(), 1.0)));
        cache.compile(&Formula::atom(Constraint::ge(x(), 2.0)));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.misses(), 2);
    }
}
