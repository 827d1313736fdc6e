//! Closed-loop simulation: dynamics, ODE integrators, and traces.
//!
//! The barrier-certificate procedure is *simulation guided*: candidate
//! generator functions are fitted to constraints extracted from trajectories
//! of the closed-loop system (the paper's traces Φs and Φf).  This crate
//! provides the simulation substrate that replaces the paper's MATLAB®
//! environment:
//!
//! * the [`Dynamics`] trait describing an autonomous vector field `ẋ = f(x)`,
//! * implementations for plain closures ([`FnDynamics`]) and for symbolic
//!   expressions ([`ExprDynamics`]) so the *same* expression tree used in the
//!   SMT queries can also drive the simulator,
//! * the classic fourth-order Runge–Kutta integrator ([`Integrator`]), which
//!   steps in place through a reusable [`StepWorkspace`],
//! * the [`Trace`] type storing time-stamped states, and
//! * a [`Simulator`] that wires it all together.
//!
//! A symbolic field is compiled once, on its first evaluation, into a fused
//! [`ScalarProgram`](nncps_expr::ScalarProgram) (constants in registers,
//! each linear chain one instruction) whose results are bit-identical to
//! walking the expression trees; the simulator keeps one [`StepWorkspace`]
//! per trace, so an RK4 step through a compiled field performs no heap
//! allocation, and each trace stores its samples in one flat buffer.
//!
//! With the `parallel` feature (on by default), batches of traces from
//! different initial states — which are embarrassingly parallel — can be
//! collected on worker threads via [`Simulator::simulate_until_batch`],
//! built on the order-preserving [`parallel_map`] helper.
//!
//! # Examples
//!
//! ```
//! use nncps_sim::{FnDynamics, Integrator, Simulator};
//!
//! // Simulate the scalar system x' = -x for one second.
//! let dynamics = FnDynamics::new(1, |x: &[f64]| vec![-x[0]]);
//! let simulator = Simulator::new(Integrator::RungeKutta4, 0.01, 1.0);
//! let trace = simulator.simulate(&dynamics, &[1.0]);
//! let x_end = trace.final_state()[0];
//! assert!((x_end - (-1.0_f64).exp()).abs() < 1e-6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dynamics;
mod integrator;
mod simulator;
mod trace;

pub use dynamics::{Dynamics, ExprDynamics, FnDynamics, SymbolicDynamics};
pub use integrator::{Integrator, StepWorkspace};
pub use nncps_parallel::{effective_threads, parallel_map};
pub use simulator::Simulator;
pub use trace::{Sample, Trace};
