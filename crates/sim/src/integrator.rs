//! Explicit ODE integration.

use crate::Dynamics;

/// Explicit one-step integration schemes for `ẋ = f(x)`: the classic
/// fourth-order Runge–Kutta scheme, which the verification pipeline
/// simulates with.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Integrator {
    /// The classic fourth-order Runge–Kutta scheme.
    #[default]
    RungeKutta4,
}

impl Integrator {
    /// Advances the state by one step of size `dt`, returning the new state.
    ///
    /// A convenience wrapper over [`Integrator::step_in_place`] with a fresh
    /// workspace; loops should keep one [`StepWorkspace`] and step in place.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not strictly positive or `state.len()` differs from
    /// the dynamics dimension.
    pub fn step<D: Dynamics + ?Sized>(&self, dynamics: &D, state: &[f64], dt: f64) -> Vec<f64> {
        let mut next = state.to_vec();
        self.step_in_place(dynamics, &mut next, dt, &mut StepWorkspace::default());
        next
    }

    /// Advances `state` in place by one step of size `dt`, with `workspace`
    /// holding every intermediate buffer.
    ///
    /// Once the workspace has been through one step of this dimension, a
    /// step performs no heap allocation (provided the dynamics'
    /// [`Dynamics::derivative_into`] does not allocate, as for
    /// [`ExprDynamics`](crate::ExprDynamics)).  The result is bit-identical
    /// to [`Integrator::step`].
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not strictly positive or `state.len()` differs from
    /// the dynamics dimension.
    pub fn step_in_place<D: Dynamics + ?Sized>(
        &self,
        dynamics: &D,
        state: &mut [f64],
        dt: f64,
        workspace: &mut StepWorkspace,
    ) {
        assert!(dt > 0.0, "step size must be positive");
        assert_eq!(
            state.len(),
            dynamics.dim(),
            "state dimension must match the dynamics"
        );
        workspace.fit(state.len());
        match self {
            Integrator::RungeKutta4 => rk4_step(dynamics, state, dt, workspace),
        }
    }
}

/// Reusable buffers for [`Integrator::step_in_place`]: the stage
/// derivatives `k1..k4`, the stage point, and the dynamics' evaluation
/// scratch (a compiled field's register file).
///
/// A simulation owns one workspace per trace, so consecutive steps reuse the
/// same memory and a step through a warm workspace allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct StepWorkspace {
    k1: Vec<f64>,
    k2: Vec<f64>,
    k3: Vec<f64>,
    k4: Vec<f64>,
    stage: Vec<f64>,
    slots: Vec<f64>,
}

impl StepWorkspace {
    /// Sizes the stage buffers for `dim`-dimensional states (a no-op when
    /// they already fit).
    fn fit(&mut self, dim: usize) {
        for buffer in [
            &mut self.k1,
            &mut self.k2,
            &mut self.k3,
            &mut self.k4,
            &mut self.stage,
        ] {
            buffer.resize(dim, 0.0);
        }
    }
}

/// `out = state + scale * direction`, component by component.
fn axpy_into(out: &mut [f64], state: &[f64], scale: f64, direction: &[f64]) {
    for ((o, x), d) in out.iter_mut().zip(state).zip(direction) {
        *o = x + scale * d;
    }
}

fn rk4_step<D: Dynamics + ?Sized>(
    dynamics: &D,
    state: &mut [f64],
    dt: f64,
    ws: &mut StepWorkspace,
) {
    dynamics.derivative_into(state, &mut ws.k1, &mut ws.slots);
    axpy_into(&mut ws.stage, state, dt / 2.0, &ws.k1);
    dynamics.derivative_into(&ws.stage, &mut ws.k2, &mut ws.slots);
    axpy_into(&mut ws.stage, state, dt / 2.0, &ws.k2);
    dynamics.derivative_into(&ws.stage, &mut ws.k3, &mut ws.slots);
    axpy_into(&mut ws.stage, state, dt, &ws.k3);
    dynamics.derivative_into(&ws.stage, &mut ws.k4, &mut ws.slots);
    for (i, x) in state.iter_mut().enumerate() {
        *x += dt / 6.0 * (ws.k1[i] + 2.0 * ws.k2[i] + 2.0 * ws.k3[i] + ws.k4[i]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FnDynamics;

    fn decay() -> FnDynamics<impl Fn(&[f64]) -> Vec<f64>> {
        FnDynamics::new(1, |s: &[f64]| vec![-s[0]])
    }

    fn oscillator() -> FnDynamics<impl Fn(&[f64]) -> Vec<f64>> {
        FnDynamics::new(2, |s: &[f64]| vec![s[1], -s[0]])
    }

    /// Integrates to t=1 with the given step count and returns the error
    /// against the exact solution e^{-1}.
    fn decay_error(integrator: Integrator, steps: usize) -> f64 {
        let d = decay();
        let dt = 1.0 / steps as f64;
        let mut x = vec![1.0];
        for _ in 0..steps {
            x = integrator.step(&d, &x, dt);
        }
        (x[0] - (-1.0_f64).exp()).abs()
    }

    #[test]
    fn all_schemes_approximate_exponential_decay() {
        assert!(decay_error(Integrator::RungeKutta4, 100) < 1e-9);
    }

    #[test]
    fn convergence_orders_are_respected() {
        // Halving the step size should reduce the error by roughly 2^4.
        let r_coarse = decay_error(Integrator::RungeKutta4, 10);
        let r_fine = decay_error(Integrator::RungeKutta4, 20);
        assert!(r_coarse / r_fine > 12.0 && r_coarse / r_fine < 20.0);
    }

    #[test]
    fn rk4_preserves_oscillator_energy_well() {
        let d = oscillator();
        let mut x = vec![1.0, 0.0];
        let dt = 0.01;
        for _ in 0..628 {
            // roughly one period (2π)
            x = Integrator::RungeKutta4.step(&d, &x, dt);
        }
        let energy = x[0] * x[0] + x[1] * x[1];
        assert!((energy - 1.0).abs() < 1e-6);
        // Position should be back near 1 after a full period.
        assert!((x[0] - 1.0).abs() < 1e-2);
    }

    #[test]
    fn default_is_rk4() {
        assert_eq!(Integrator::default(), Integrator::RungeKutta4);
    }

    #[test]
    #[should_panic(expected = "step size must be positive")]
    fn non_positive_step_panics() {
        let _ = Integrator::RungeKutta4.step(&decay(), &[1.0], 0.0);
    }

    #[test]
    #[should_panic(expected = "state dimension")]
    fn wrong_state_dimension_panics() {
        let _ = Integrator::RungeKutta4.step(&oscillator(), &[1.0], 0.1);
    }
}
