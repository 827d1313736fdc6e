//! The `Simulator` driver that produces traces from dynamics.

use crate::{Dynamics, Integrator, StepWorkspace, Trace};
use nncps_parallel::{Budget, ExhaustionReason};

/// A fixed-horizon simulator producing [`Trace`]s of a [`Dynamics`] model.
///
/// # Examples
///
/// ```
/// use nncps_sim::{FnDynamics, Integrator, Simulator};
///
/// let dynamics = FnDynamics::new(2, |s: &[f64]| vec![s[1], -s[0]]);
/// let simulator = Simulator::new(Integrator::RungeKutta4, 0.05, 2.0);
/// let trace = simulator.simulate(&dynamics, &[1.0, 0.0]);
/// assert_eq!(trace.len(), 41); // initial sample + 40 steps
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Simulator {
    integrator: Integrator,
    dt: f64,
    duration: f64,
}

impl Simulator {
    /// Creates a simulator with the given scheme, step size, and horizon.
    ///
    /// # Panics
    ///
    /// Panics if `dt` or `duration` is not strictly positive.
    pub fn new(integrator: Integrator, dt: f64, duration: f64) -> Self {
        assert!(dt > 0.0, "step size must be positive");
        assert!(duration > 0.0, "duration must be positive");
        Simulator {
            integrator,
            dt,
            duration,
        }
    }

    /// The integration scheme in use.
    pub fn integrator(&self) -> Integrator {
        self.integrator
    }

    /// The fixed step size.
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// The simulation horizon.
    pub fn duration(&self) -> f64 {
        self.duration
    }

    /// Number of integration steps taken per simulation.
    pub fn num_steps(&self) -> usize {
        (self.duration / self.dt).round().max(1.0) as usize
    }

    /// Simulates from `initial_state` and records every step in a trace.
    ///
    /// # Panics
    ///
    /// Panics if the initial state dimension does not match the dynamics.
    pub fn simulate<D: Dynamics + ?Sized>(&self, dynamics: &D, initial_state: &[f64]) -> Trace {
        self.simulate_until(dynamics, initial_state, |_, _| false)
    }

    /// Simulates from `initial_state`, stopping early as soon as
    /// `stop(time, state)` returns `true` (the stopping sample is included).
    ///
    /// Early stopping is used by the barrier pipeline to truncate trajectories
    /// that leave the domain of interest, mirroring how the paper only uses
    /// samples inside `D`.
    ///
    /// The trace owns one [`StepWorkspace`] for its whole run, so the
    /// integration steps themselves allocate nothing after the first, and
    /// the trace reserves its flat sample buffer for the full horizon up
    /// front: a whole simulation makes a handful of allocations, however
    /// many steps it records.
    ///
    /// # Panics
    ///
    /// Panics if the initial state dimension does not match the dynamics.
    pub fn simulate_until<D, F>(&self, dynamics: &D, initial_state: &[f64], mut stop: F) -> Trace
    where
        D: Dynamics + ?Sized,
        F: FnMut(f64, &[f64]) -> bool,
    {
        assert_eq!(
            initial_state.len(),
            dynamics.dim(),
            "initial state dimension must match the dynamics"
        );
        let mut trace = Trace::with_capacity(dynamics.dim(), self.num_steps() + 1);
        let mut workspace = StepWorkspace::default();
        let mut state = initial_state.to_vec();
        let mut time = 0.0;
        trace.push(time, &state);
        if stop(time, &state) {
            return trace;
        }
        for _ in 0..self.num_steps() {
            nncps_fault::panic_point(nncps_fault::SITE_SIM_STEP);
            self.integrator
                .step_in_place(dynamics, &mut state, self.dt, &mut workspace);
            if let Some(first) = state.first_mut() {
                // Fault site: an armed `nan` fault corrupts one state
                // component; the domain stop predicate then truncates the
                // trace, which is exactly how a real NaN escapes integration.
                *first = nncps_fault::corrupt_f64(nncps_fault::SITE_SIM_STEP, *first);
            }
            time += self.dt;
            trace.push(time, &state);
            if stop(time, &state) {
                break;
            }
        }
        trace
    }

    /// Simulates several initial states and returns one trace per state.
    pub fn simulate_batch<D: Dynamics + ?Sized>(
        &self,
        dynamics: &D,
        initial_states: &[Vec<f64>],
    ) -> Vec<Trace> {
        initial_states
            .iter()
            .map(|x0| self.simulate(dynamics, x0))
            .collect()
    }

    /// Batch version of [`Simulator::simulate_until`]: simulates every
    /// initial state with the same early-stopping predicate on up to
    /// `threads` worker threads (`0` = one per available core), preserving
    /// input order.
    ///
    /// This is the entry point the verification pipeline uses to collect the
    /// seed traces Φs: the predicate truncates trajectories that leave the
    /// domain of interest `D`, and the batch is collected in parallel.
    pub fn simulate_until_batch<D, F>(
        &self,
        dynamics: &D,
        initial_states: &[Vec<f64>],
        stop: F,
        threads: usize,
    ) -> Vec<Trace>
    where
        D: Dynamics + Sync + ?Sized,
        F: Fn(f64, &[f64]) -> bool + Sync,
    {
        crate::parallel_map(initial_states, threads, |x0| {
            self.simulate_until(dynamics, x0, &stop)
        })
    }

    /// Budget-governed version of [`Simulator::simulate_until_batch`].
    ///
    /// The batch polls the [`Budget`] cooperatively: once the budget trips
    /// (cancellation, an expired wall-clock deadline, or fuel exhausted by
    /// an earlier stage), every in-flight trace stops at its next step head
    /// and the whole batch degrades to `Err` with the machine-readable
    /// [`ExhaustionReason`] — partial traces are discarded, never returned.
    /// With an untripped budget the result is bit-identical to the
    /// ungoverned batch at every thread count.
    pub fn simulate_until_batch_governed<D, F>(
        &self,
        dynamics: &D,
        initial_states: &[Vec<f64>],
        stop: F,
        threads: usize,
        budget: &Budget,
    ) -> Result<Vec<Trace>, ExhaustionReason>
    where
        D: Dynamics + Sync + ?Sized,
        F: Fn(f64, &[f64]) -> bool + Sync,
    {
        if let Some(reason) = budget.check() {
            return Err(reason);
        }
        // Fold the budget poll into the stop predicate so a tripped budget
        // truncates every worker's trace at its next integration step; the
        // truncated traces are thrown away below, so truncation never leaks
        // into results.
        let traces = crate::parallel_map(initial_states, threads, |x0| {
            self.simulate_until(dynamics, x0, |t, s| stop(t, s) || budget.check().is_some())
        });
        match budget.check() {
            Some(reason) => Err(reason),
            None => Ok(traces),
        }
    }
}

impl Default for Simulator {
    fn default() -> Self {
        Simulator::new(Integrator::RungeKutta4, 0.01, 10.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FnDynamics;

    fn decay() -> FnDynamics<impl Fn(&[f64]) -> Vec<f64>> {
        FnDynamics::new(1, |s: &[f64]| vec![-s[0]])
    }

    #[test]
    fn simulate_exponential_decay() {
        let sim = Simulator::new(Integrator::RungeKutta4, 0.01, 1.0);
        let trace = sim.simulate(&decay(), &[2.0]);
        assert_eq!(trace.len(), sim.num_steps() + 1);
        assert!((trace.final_state()[0] - 2.0 * (-1.0_f64).exp()).abs() < 1e-6);
        assert!((trace.duration() - 1.0).abs() < 1e-9);
        assert_eq!(sim.integrator(), Integrator::RungeKutta4);
        assert_eq!(sim.dt(), 0.01);
        assert_eq!(sim.duration(), 1.0);
    }

    #[test]
    fn early_stopping_truncates_trace() {
        let sim = Simulator::new(Integrator::RungeKutta4, 0.1, 10.0);
        let trace = sim.simulate_until(&decay(), &[1.0], |_, s| s[0] < 0.5);
        assert!(trace.len() < sim.num_steps() + 1);
        assert!(trace.final_state()[0] < 0.5);
        // Stop predicate true at the initial state keeps only that sample.
        let immediate = sim.simulate_until(&decay(), &[0.1], |_, s| s[0] < 0.5);
        assert_eq!(immediate.len(), 1);
    }

    #[test]
    fn batch_simulation_produces_one_trace_per_start() {
        let sim = Simulator::new(Integrator::RungeKutta4, 0.1, 1.0);
        let traces = sim.simulate_batch(&decay(), &[vec![1.0], vec![2.0], vec![-1.0]]);
        assert_eq!(traces.len(), 3);
        assert!(traces[1].final_state()[0] > traces[0].final_state()[0]);
        assert!(traces[2].final_state()[0] < 0.0);
    }

    #[test]
    fn threaded_batch_matches_sequential_batch() {
        let sim = Simulator::new(Integrator::RungeKutta4, 0.05, 2.0);
        let starts: Vec<Vec<f64>> = (0..17).map(|i| vec![i as f64 * 0.3 - 2.0]).collect();
        let sequential = sim.simulate_batch(&decay(), &starts);
        for threads in [0, 1, 4] {
            let threaded = sim.simulate_until_batch(&decay(), &starts, |_, _| false, threads);
            assert_eq!(threaded, sequential);
        }
    }

    #[test]
    fn until_batch_applies_the_predicate_to_every_trace() {
        let sim = Simulator::new(Integrator::RungeKutta4, 0.1, 10.0);
        let starts = vec![vec![1.0], vec![2.0], vec![4.0]];
        let traces = sim.simulate_until_batch(&decay(), &starts, |_, s| s[0] < 0.5, 0);
        assert_eq!(traces.len(), 3);
        for (trace, start) in traces.iter().zip(&starts) {
            assert_eq!(trace.iter().next().unwrap().1[0], start[0]);
            assert!(trace.final_state()[0] < 0.5);
            assert!(trace.len() < sim.num_steps() + 1);
        }
    }

    #[test]
    fn default_simulator_is_reasonable() {
        let sim = Simulator::default();
        assert_eq!(sim.integrator(), Integrator::RungeKutta4);
        assert_eq!(sim.num_steps(), 1000);
    }

    #[test]
    #[should_panic(expected = "step size must be positive")]
    fn zero_dt_panics() {
        let _ = Simulator::new(Integrator::RungeKutta4, 0.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "duration must be positive")]
    fn zero_duration_panics() {
        let _ = Simulator::new(Integrator::RungeKutta4, 0.1, 0.0);
    }

    #[test]
    #[should_panic(expected = "initial state dimension")]
    fn wrong_initial_state_panics() {
        let _ = Simulator::default().simulate(&decay(), &[1.0, 2.0]);
    }
}
