//! Closed-loop error dynamics in `(d_err, θ_err)` coordinates.

use nncps_expr::Expr;
use nncps_nn::FeedforwardNetwork;
use nncps_sim::{Dynamics, SymbolicDynamics};

/// The closed-loop error dynamics of Section 4.1.3–4.1.4.
///
/// For a straight-line target path with constant orientation `θ_r` the
/// path-following errors evolve as
///
/// ```text
/// ḋ_err = −V sin(θ_r − θ_err) cos θ_r + V cos(θ_r − θ_err) sin θ_r
/// θ̇_err = −u,            u = h(d_err, θ_err)
/// ```
///
/// where `h` is the neural-network controller.  (Trigonometric identities
/// collapse the first equation to `V sin θ_err`, but the unsimplified form is
/// kept in the symbolic export so the verified model matches the paper's
/// presentation term by term.)
///
/// The state ordering is `x0 = d_err`, `x1 = θ_err`, matching the variable
/// indices used in all verification queries.
///
/// # Examples
///
/// ```
/// use nncps_dubins::ErrorDynamics;
/// use nncps_nn::FeedforwardNetwork;
/// use nncps_sim::Dynamics;
///
/// let controller = FeedforwardNetwork::paper_architecture(8);
/// let dynamics = ErrorDynamics::new(controller, 1.0);
/// assert_eq!(dynamics.dim(), 2);
/// let dx = dynamics.derivative(&[0.0, 0.2]);
/// assert!((dx[0] - 0.2_f64.sin()).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct ErrorDynamics {
    controller: FeedforwardNetwork,
    speed: f64,
    path_angle: f64,
}

impl ErrorDynamics {
    /// Creates the closed-loop error dynamics for a straight path with
    /// orientation `θ_r = 0` (the configuration used in the paper's
    /// verification experiments) and vehicle speed `speed`.
    ///
    /// # Panics
    ///
    /// Panics if the controller does not map 2 inputs to 1 output, or the
    /// speed is not strictly positive.
    pub fn new(controller: FeedforwardNetwork, speed: f64) -> Self {
        Self::with_path_angle(controller, speed, 0.0)
    }

    /// Creates the error dynamics for a straight path with an arbitrary
    /// constant orientation `path_angle` (radians, clockwise from +y).
    ///
    /// # Panics
    ///
    /// Panics if the controller does not map 2 inputs to 1 output, or the
    /// speed is not strictly positive.
    pub fn with_path_angle(controller: FeedforwardNetwork, speed: f64, path_angle: f64) -> Self {
        assert_eq!(
            controller.input_dim(),
            2,
            "controller must take (d_err, theta_err) as inputs"
        );
        assert_eq!(
            controller.output_dim(),
            1,
            "controller must produce a single steering output"
        );
        assert!(speed > 0.0, "vehicle speed must be positive");
        ErrorDynamics {
            controller,
            speed,
            path_angle,
        }
    }

    /// The neural-network controller in the loop.
    pub fn controller(&self) -> &FeedforwardNetwork {
        &self.controller
    }

    /// The constant vehicle speed `V`.
    pub fn speed(&self) -> f64 {
        self.speed
    }

    /// The constant path orientation `θ_r`.
    pub fn path_angle(&self) -> f64 {
        self.path_angle
    }

    /// Evaluates the controller output `u = h(d_err, θ_err)`.
    pub fn steering(&self, d_err: f64, theta_err: f64) -> f64 {
        self.controller.forward(&[d_err, theta_err])[0]
    }

    /// Exports the closed-loop vector field symbolically, with variables
    /// `x0 = d_err` and `x1 = θ_err`.
    ///
    /// This is the `f(x)` that appears inside the δ-SAT queries; because it is
    /// produced from the same network weights as [`ErrorDynamics::derivative`]
    /// the simulated and verified models coincide.
    pub fn symbolic_vector_field(&self) -> Vec<Expr> {
        let d_err = Expr::var(0);
        let theta_err = Expr::var(1);
        let theta_r = Expr::constant(self.path_angle);
        let v = Expr::constant(self.speed);
        // ḋ_err = -V sin(θr - θerr) cos(θr) + V cos(θr - θerr) sin(θr)
        let angle = theta_r.clone() - theta_err.clone();
        let d_dot = Expr::constant(-1.0) * v.clone() * angle.clone().sin() * theta_r.clone().cos()
            + v * angle.cos() * theta_r.sin();
        // θ̇_err = -u
        let u = self
            .controller
            .forward_symbolic(&[d_err, theta_err])
            .remove(0);
        let theta_dot = -u;
        vec![d_dot.simplified(), theta_dot.simplified()]
    }
}

impl SymbolicDynamics for ErrorDynamics {
    fn symbolic_vector_field(&self) -> Vec<Expr> {
        ErrorDynamics::symbolic_vector_field(self)
    }
}

impl Dynamics for ErrorDynamics {
    fn dim(&self) -> usize {
        2
    }

    fn derivative(&self, state: &[f64]) -> Vec<f64> {
        let theta_err = state[1];
        let u = self.steering(state[0], theta_err);
        let angle = self.path_angle - theta_err;
        let d_dot = -self.speed * angle.sin() * self.path_angle.cos()
            + self.speed * angle.cos() * self.path_angle.sin();
        vec![d_dot, -u]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nncps_cmaes::seeded_rng;
    use nncps_nn::{Activation, FeedforwardNetwork};
    use nncps_sim::{ExprDynamics, Integrator, Simulator};

    fn random_controller(hidden: usize, seed: u64) -> FeedforwardNetwork {
        let mut rng = seeded_rng(seed);
        FeedforwardNetwork::builder(2)
            .layer(hidden, Activation::Tanh)
            .layer(1, Activation::Tanh)
            .build_random(&mut rng, 0.8)
    }

    #[test]
    fn derivative_reduces_to_v_sin_theta_err_for_zero_path_angle() {
        let dynamics = ErrorDynamics::new(random_controller(6, 1), 2.0);
        for &theta_err in &[-0.7, -0.1, 0.0, 0.3, 1.2] {
            let dx = dynamics.derivative(&[0.4, theta_err]);
            assert!(
                (dx[0] - 2.0 * theta_err.sin()).abs() < 1e-12,
                "theta_err = {theta_err}"
            );
        }
    }

    #[test]
    fn theta_err_rate_is_negated_controller_output() {
        let dynamics = ErrorDynamics::new(random_controller(6, 2), 1.0);
        let state = [0.3, -0.2];
        let u = dynamics.steering(state[0], state[1]);
        let dx = dynamics.derivative(&state);
        assert!((dx[1] + u).abs() < 1e-12);
    }

    #[test]
    fn symbolic_and_numeric_vector_fields_agree() {
        let dynamics = ErrorDynamics::with_path_angle(random_controller(10, 3), 1.5, 0.4);
        let field = dynamics.symbolic_vector_field();
        assert_eq!(field.len(), 2);
        for &state in &[[0.0, 0.0], [0.5, -0.3], [-1.2, 0.7], [3.0, 1.4]] {
            let numeric = dynamics.derivative(&state);
            for k in 0..2 {
                let symbolic = field[k].eval(&state);
                assert!(
                    (numeric[k] - symbolic).abs() < 1e-10,
                    "component {k} at {state:?}: {} vs {symbolic}",
                    numeric[k]
                );
            }
        }
    }

    #[test]
    fn expr_dynamics_simulation_matches_numeric_simulation() {
        let dynamics = ErrorDynamics::new(random_controller(5, 4), 1.0);
        let expr_dynamics = ExprDynamics::new(dynamics.symbolic_vector_field());
        let sim = Simulator::new(Integrator::RungeKutta4, 0.01, 2.0);
        let a = sim.simulate(&dynamics, &[0.5, 0.1]);
        let b = sim.simulate(&expr_dynamics, &[0.5, 0.1]);
        for (sa, sb) in a.states().zip(b.states()) {
            assert!((sa[0] - sb[0]).abs() < 1e-9);
            assert!((sa[1] - sb[1]).abs() < 1e-9);
        }
    }

    #[test]
    fn nonzero_path_angle_matches_paper_formula() {
        let theta_r = 0.6;
        let v = 1.2;
        let dynamics = ErrorDynamics::with_path_angle(random_controller(4, 5), v, theta_r);
        let theta_err = -0.25;
        let dx = dynamics.derivative(&[0.1, theta_err]);
        let expected = -v * (theta_r - theta_err).sin() * theta_r.cos()
            + v * (theta_r - theta_err).cos() * theta_r.sin();
        assert!((dx[0] - expected).abs() < 1e-12);
        // The identity d_dot = V sin(theta_err) holds for any theta_r.
        assert!((dx[0] - v * theta_err.sin()).abs() < 1e-12);
        assert_eq!(dynamics.path_angle(), theta_r);
        assert_eq!(dynamics.speed(), v);
        assert_eq!(dynamics.controller().num_params(), 4 * 4 + 1);
    }

    #[test]
    #[should_panic(expected = "(d_err, theta_err)")]
    fn wrong_controller_input_dimension_panics() {
        let bad = FeedforwardNetwork::builder(3)
            .layer(1, Activation::Tanh)
            .build_zeroed();
        let _ = ErrorDynamics::new(bad, 1.0);
    }

    #[test]
    #[should_panic(expected = "speed must be positive")]
    fn non_positive_speed_panics() {
        let _ = ErrorDynamics::new(random_controller(2, 6), -1.0);
    }
}
