//! Meta-crate for the reproduction of *Reasoning about Safety of
//! Learning-Enabled Components in Autonomous Cyber-physical Systems*
//! (Tuncali, Kapinski, Ito, Deshmukh — DAC 2018).
//!
//! This crate re-exports every workspace crate under one roof and owns the
//! end-to-end examples (`examples/`) and cross-crate integration tests
//! (`tests/`). See the repository `README.md` for the paper-step → module
//! map and `ARCHITECTURE.md` for the pipeline design.
//!
//! The working vocabulary — requests, sessions, configs, budgets, the
//! scenario registry, the serve engine — is re-exported at the root, so one
//! `use nncps::...` line covers the common flows.
//!
//! # Examples
//!
//! ```
//! use nncps::{
//!     ClosedLoopSystem, SafetySpec, VerificationRequest, VerificationSession,
//! };
//! use nncps::expr::Expr;
//! use nncps::interval::IntervalBox;
//!
//! // Certify a stable linear system (the smoke test from `nncps_barrier`).
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

pub use nncps_barrier as barrier;
pub use nncps_cmaes as cmaes;
pub use nncps_deltasat as deltasat;
pub use nncps_dubins as dubins;
pub use nncps_expr as expr;
pub use nncps_interval as interval;
pub use nncps_linalg as linalg;
pub use nncps_lp as lp;
pub use nncps_nn as nn;
pub use nncps_scenarios as scenarios;
pub use nncps_sim as sim;

// The one-import facade: the types a typical caller needs, at the root.
pub use nncps_barrier::{
    BarrierCertificate, Budget, ClosedLoopSystem, ConfigError, DiskStore, ExhaustionReason,
    SafetySpec, VerificationConfig, VerificationOutcome, VerificationRequest, VerificationSession,
    WarmStart,
};
pub use nncps_scenarios::{
    run_batch, run_scenario, run_sweep, BatchOptions, BatchReport, Family, Registry, Scenario,
    ServeEngine, ServeOptions, SweepOptions,
};
