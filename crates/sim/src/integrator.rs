//! Explicit ODE integration schemes.

use crate::Dynamics;

/// Explicit one-step integration schemes for `ẋ = f(x)`.
///
/// The fixed-step schemes advance by exactly the requested step; the adaptive
/// Runge–Kutta–Fehlberg 4(5) scheme subdivides the requested step internally
/// until its local error estimate meets the tolerance, which makes it a good
/// default when the neural controller saturates and produces stiff-ish
/// transients.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Integrator {
    /// Explicit (forward) Euler — first order, used mainly in tests and as the
    /// discrete-time model for controller training.
    Euler,
    /// Explicit midpoint method — second order.
    Midpoint,
    /// The classic fourth-order Runge–Kutta scheme.
    #[default]
    RungeKutta4,
    /// Runge–Kutta–Fehlberg 4(5) with the given absolute local-error tolerance
    /// per step.
    RungeKuttaFehlberg45 {
        /// Target local truncation error per (outer) step.
        tolerance: f64,
    },
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
    /// Once the workspace has been through one step of this dimension, the
    /// Euler, midpoint and RK4 schemes perform no heap allocation (provided
    /// the dynamics' [`Dynamics::derivative_into`] does not allocate, as for
    /// [`ExprDynamics`](crate::ExprDynamics)); the adaptive RKF45 scheme
    /// still allocates its stages.  The result is bit-identical to
    /// [`Integrator::step`].
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
        match *self {
            Integrator::Euler => euler_step(dynamics, state, dt, workspace),
            Integrator::Midpoint => midpoint_step(dynamics, state, dt, workspace),
            Integrator::RungeKutta4 => rk4_step(dynamics, state, dt, workspace),
            Integrator::RungeKuttaFehlberg45 { tolerance } => {
                let next = rkf45_step(dynamics, state, dt, tolerance);
                state.copy_from_slice(&next);
            }
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

fn euler_step<D: Dynamics + ?Sized>(
    dynamics: &D,
    state: &mut [f64],
    dt: f64,
    ws: &mut StepWorkspace,
) {
    dynamics.derivative_into(state, &mut ws.k1, &mut ws.slots);
    for (x, k1) in state.iter_mut().zip(&ws.k1) {
        *x += dt * k1;
    }
}

fn midpoint_step<D: Dynamics + ?Sized>(
    dynamics: &D,
    state: &mut [f64],
    dt: f64,
    ws: &mut StepWorkspace,
) {
    dynamics.derivative_into(state, &mut ws.k1, &mut ws.slots);
    axpy_into(&mut ws.stage, state, dt / 2.0, &ws.k1);
    dynamics.derivative_into(&ws.stage, &mut ws.k2, &mut ws.slots);
    for (x, k2) in state.iter_mut().zip(&ws.k2) {
        *x += dt * k2;
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

/// One outer step of the adaptive RKF45 scheme: internally subdivides until
/// the accumulated sub-steps cover `dt` while each sub-step meets `tolerance`.
fn rkf45_step<D: Dynamics + ?Sized>(
    dynamics: &D,
    state: &[f64],
    dt: f64,
    tolerance: f64,
) -> Vec<f64> {
    let tolerance = tolerance.max(1e-14);
    let mut x = state.to_vec();
    let mut remaining = dt;
    let mut h = dt;
    let min_h = dt * 1e-6;
    while remaining > 1e-15 {
        h = h.min(remaining);
        let (candidate, error) = rkf45_embedded(dynamics, &x, h);
        if error <= tolerance || h <= min_h {
            x = candidate;
            remaining -= h;
            // Grow the step conservatively for the next sub-step.
            let factor = if error > 0.0 {
                0.9 * (tolerance / error).powf(0.2)
            } else {
                2.0
            };
            h *= factor.clamp(0.2, 4.0);
        } else {
            // Reject and shrink.
            let factor = 0.9 * (tolerance / error).powf(0.25);
            h *= factor.clamp(0.1, 0.9);
            h = h.max(min_h);
        }
    }
    x
}

/// One embedded RKF45 step returning the 5th-order estimate and an error
/// estimate (max-norm difference between the 4th- and 5th-order solutions).
fn rkf45_embedded<D: Dynamics + ?Sized>(dynamics: &D, state: &[f64], h: f64) -> (Vec<f64>, f64) {
    let k1 = dynamics.derivative(state);
    let k2 = dynamics.derivative(&combine(state, h, &[(0.25, &k1)]));
    let k3 = dynamics.derivative(&combine(state, h, &[(3.0 / 32.0, &k1), (9.0 / 32.0, &k2)]));
    let k4 = dynamics.derivative(&combine(
        state,
        h,
        &[
            (1932.0 / 2197.0, &k1),
            (-7200.0 / 2197.0, &k2),
            (7296.0 / 2197.0, &k3),
        ],
    ));
    let k5 = dynamics.derivative(&combine(
        state,
        h,
        &[
            (439.0 / 216.0, &k1),
            (-8.0, &k2),
            (3680.0 / 513.0, &k3),
            (-845.0 / 4104.0, &k4),
        ],
    ));
    let k6 = dynamics.derivative(&combine(
        state,
        h,
        &[
            (-8.0 / 27.0, &k1),
            (2.0, &k2),
            (-3544.0 / 2565.0, &k3),
            (1859.0 / 4104.0, &k4),
            (-11.0 / 40.0, &k5),
        ],
    ));

    let order4 = combine(
        state,
        h,
        &[
            (25.0 / 216.0, &k1),
            (1408.0 / 2565.0, &k3),
            (2197.0 / 4104.0, &k4),
            (-1.0 / 5.0, &k5),
        ],
    );
    let order5 = combine(
        state,
        h,
        &[
            (16.0 / 135.0, &k1),
            (6656.0 / 12825.0, &k3),
            (28561.0 / 56430.0, &k4),
            (-9.0 / 50.0, &k5),
            (2.0 / 55.0, &k6),
        ],
    );
    let error = order4
        .iter()
        .zip(order5.iter())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max);
    (order5, error)
}

fn combine(state: &[f64], h: f64, terms: &[(f64, &Vec<f64>)]) -> Vec<f64> {
    let mut out = state.to_vec();
    for (coef, k) in terms {
        for (o, v) in out.iter_mut().zip(k.iter()) {
            *o += h * coef * v;
        }
    }
    out
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
        assert!(decay_error(Integrator::Euler, 1000) < 1e-3);
        assert!(decay_error(Integrator::Midpoint, 1000) < 1e-6);
        assert!(decay_error(Integrator::RungeKutta4, 100) < 1e-9);
        assert!(decay_error(Integrator::RungeKuttaFehlberg45 { tolerance: 1e-10 }, 10) < 1e-8);
    }

    #[test]
    fn convergence_orders_are_respected() {
        // Halving the step size should reduce the error by roughly 2^order.
        let e_coarse = decay_error(Integrator::Euler, 100);
        let e_fine = decay_error(Integrator::Euler, 200);
        assert!(e_coarse / e_fine > 1.8 && e_coarse / e_fine < 2.2);

        let m_coarse = decay_error(Integrator::Midpoint, 100);
        let m_fine = decay_error(Integrator::Midpoint, 200);
        assert!(m_coarse / m_fine > 3.5 && m_coarse / m_fine < 4.5);

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
    fn adaptive_scheme_matches_rk4_on_smooth_problem() {
        let d = oscillator();
        let mut a = vec![0.3, -0.4];
        let mut b = a.clone();
        for _ in 0..100 {
            a = Integrator::RungeKutta4.step(&d, &a, 0.01);
            b = Integrator::RungeKuttaFehlberg45 { tolerance: 1e-12 }.step(&d, &b, 0.01);
        }
        assert!((a[0] - b[0]).abs() < 1e-8);
        assert!((a[1] - b[1]).abs() < 1e-8);
    }

    #[test]
    fn default_is_rk4() {
        assert_eq!(Integrator::default(), Integrator::RungeKutta4);
    }

    #[test]
    #[should_panic(expected = "step size must be positive")]
    fn non_positive_step_panics() {
        let _ = Integrator::Euler.step(&decay(), &[1.0], 0.0);
    }

    #[test]
    #[should_panic(expected = "state dimension")]
    fn wrong_state_dimension_panics() {
        let _ = Integrator::Euler.step(&oscillator(), &[1.0], 0.1);
    }
}
