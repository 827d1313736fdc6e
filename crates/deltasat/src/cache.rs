//! A stateless stand-in for the deleted compilation cache.
//!
//! Compiled δ-SAT queries were once memoized here under a structural
//! fingerprint of the whole formula DAG.  Hashing the DAG cost about as much
//! as compiling it, so the map is gone and every query is compiled with
//! [`CompiledFormula::compile`].  [`CompilationCache`] survives only so that
//! existing callers keep compiling: it holds nothing and counts nothing.
//!
//! # Examples
//!
//! ```
//! # #![allow(deprecated)]
//! use nncps_deltasat::{CompilationCache, CompiledFormula, Constraint, DeltaSolver, Formula};
//! use nncps_expr::Expr;
//! use nncps_interval::IntervalBox;
//!
//! let query = Formula::atom(Constraint::ge(Expr::var(0).powi(2), 2.0));
//! // What to call instead of the stand-in.
//! let compiled = CompiledFormula::compile(&query);
//! // The stand-in compiles afresh and counts nothing.
//! let cache = CompilationCache;
//! let again = cache.compile(&query);
//! assert_eq!((cache.hits(), cache.misses()), (0, 0));
//! let domain = IntervalBox::from_bounds(&[(-3.0, 3.0)]);
//! let solver = DeltaSolver::new(1e-4);
//! assert!(solver.solve_compiled(&compiled, &domain).is_delta_sat());
//! assert!(solver.solve_compiled(&again, &domain).is_delta_sat());
//! ```

#![allow(deprecated)]

use std::sync::Arc;

use crate::{CompiledFormula, Formula};

/// No effect; kept only so the frozen benchmark compiles (see the [module
/// docs](self)).
#[deprecated(note = "no effect: queries are compiled with `CompiledFormula::compile`")]
#[derive(Debug, Default, Clone, Copy)]
pub struct CompilationCache;

impl CompilationCache {
    /// Compiles `formula` afresh; equivalent to
    /// `Arc::new(CompiledFormula::compile(formula))`.
    #[deprecated(note = "no effect: use `CompiledFormula::compile`")]
    pub fn compile(&self, formula: &Formula) -> Arc<CompiledFormula> {
        Arc::new(CompiledFormula::compile(formula))
    }

    /// Always 0: nothing is cached.
    #[deprecated(note = "no effect: nothing is cached")]
    pub fn hits(&self) -> usize {
        0
    }

    /// Always 0: compilations are not counted.
    #[deprecated(note = "no effect: nothing is cached")]
    pub fn misses(&self) -> usize {
        0
    }
}
