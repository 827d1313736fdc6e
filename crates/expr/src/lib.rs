//! Symbolic scalar expressions over real variables.
//!
//! The barrier-certificate pipeline needs a *single* mathematical description
//! of the closed-loop dynamics that can be
//!
//! 1. evaluated numerically (to simulate and to sample counterexamples),
//! 2. evaluated over interval boxes (so the δ-SAT solver can prune), and
//! 3. differentiated symbolically (to form `∇W` and `(∇W)ᵀ·f(x)`).
//!
//! [`Expr`] is an immutable, reference-counted expression tree supporting the
//! operations used by the case study: arithmetic, integer powers, `sin`,
//! `cos`, `tan`, `exp`, `ln`, `sqrt`, `abs`, `tanh`, `sigmoid`, `atan`,
//! `min`/`max`.  Variables are identified by index into a [`VarSet`], which
//! maps human-readable names (such as `d_err`, `theta_err`) to indices.
//!
//! Hot paths should not walk the tree repeatedly.  Two compiled forms are
//! bit-identical to it but allocation-free and cache-friendly:
//!
//! * [`Tape`] lowers one or more expressions into a flat, CSE-deduplicated
//!   SSA program: the interval IR that the δ-SAT solver's per-box loop and
//!   HC4 contractor run.
//! * [`ScalarProgram`] is lowered from a tape for point evaluation (the
//!   simulator's field): constants become registers and each linear chain
//!   `b + Σ cⱼ·xⱼ` — a neuron's pre-activation — runs as one instruction.
//!
//! # Examples
//!
//! ```
//! use nncps_expr::{Expr, VarSet};
//!
//! let mut vars = VarSet::new();
//! let x = vars.var("x");
//! let y = vars.var("y");
//!
//! // f(x, y) = x^2 + sin(y)
//! let f = x.clone().powi(2) + y.clone().sin();
//! assert!((f.eval(&[2.0, 0.0]) - 4.0).abs() < 1e-12);
//!
//! // ∂f/∂x = 2x
//! let dfdx = f.differentiate(0).simplified();
//! assert!((dfdx.eval(&[3.0, 1.0]) - 6.0).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod diff;
mod eval;
mod expr;
pub mod fingerprint;
mod keyhash;
mod ops;
mod scalar;
mod simplify;
mod tape;
mod vars;

pub use expr::{Expr, ExprView};
pub use fingerprint::{Fingerprint, StructuralHasher};
pub use ops::{BinaryOp, UnaryOp};
pub use scalar::ScalarProgram;
pub use tape::{Tape, TapeInstr};
pub use vars::VarSet;
