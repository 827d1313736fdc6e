//! Simulation-guided barrier-certificate synthesis for NN-controlled CPS.
//!
//! This crate is the primary contribution of the reproduced paper
//! (*Reasoning about Safety of Learning-Enabled Components in Autonomous
//! Cyber-physical Systems*, Tuncali et al., DAC 2018): an automatic procedure
//! that proves unbounded-time safety of a closed-loop system whose controller
//! is a neural network, by
//!
//! 1. simulating the closed loop from random initial states (traces Φs),
//! 2. fitting a quadratic **generator function** `W(x)` to linear constraints
//!    extracted from the traces (positivity, decrease along trajectories) with
//!    an LP solver,
//! 3. checking the decrease condition `(∇W)ᵀ·f(x) < 0` globally with a δ-SAT
//!    solver (this workspace's dReal stand-in), feeding counterexamples back
//!    into the LP until the check passes,
//! 4. selecting a **level set** `ℓ` such that `L = {W ≤ ℓ}` contains the
//!    initial set `X0` and avoids the unsafe set `U`, confirming both facts
//!    with two more δ-SAT queries, and
//! 5. returning the **strict barrier certificate** `B(x) = W(x) − ℓ`.
//!
//! The module layout mirrors the flowchart of Figure 1 in the paper:
//!
//! | paper step                        | module |
//! |-----------------------------------|--------|
//! | templates for `W`                 | [`template`] |
//! | `X0`, `U`, `D` descriptions       | [`sets`] |
//! | traces → LP → candidate           | [`synthesis`] |
//! | SMT queries (5), (6), (7)         | [`queries`] |
//! | level-set computation             | [`level_set`] |
//! | the barrier certificate itself    | [`certificate`] |
//! | the closed-loop model description | [`system`] |
//! | the end-to-end procedure          | [`pipeline`] |
//!
//! All verification flows through one entry point:
//! [`VerificationSession::verify`] takes a [`VerificationRequest`]
//! (system + config + budget) and returns a
//! [`VerificationOutcome`]; the session owns every cache that outlives a
//! single request (the trace and candidate memos, a whole-outcome memo, and
//! an optional on-disk [`DiskStore`] of outcomes).
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
//! // A stable linear system x' = -x, y' = -y (no NN — just a smoke test).
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
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod certificate;
pub mod level_set;
pub mod pipeline;
pub mod queries;
pub mod session;
pub mod sets;
pub mod store;
pub mod synthesis;
pub mod system;
pub mod template;
pub mod warmstart;

pub use certificate::BarrierCertificate;
pub use level_set::{LevelSetResult, LevelSetSelector};
pub use pipeline::{
    ConfigError, StageTimings, VerificationConfig, VerificationOutcome, VerificationStats,
};
pub use queries::QueryBuilder;
pub use session::{SessionStats, VerificationRequest, VerificationSession};
pub use sets::{Halfspace, SafetySpec};
pub use store::{DiskStore, DiskStoreStats, STORE_FORMAT_VERSION};
pub use synthesis::{CandidateSynthesizer, SynthesisError};
pub use system::ClosedLoopSystem;
pub use template::{GeneratorFunction, QuadraticTemplate};
pub use warmstart::{WarmStart, WarmStartStats};
// Governance vocabulary for `VerificationRequest::with_budget` and
// `VerificationStats::exhaustion`.
pub use nncps_deltasat::{Budget, ExhaustionReason};
