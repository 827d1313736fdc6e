//! Activation functions.

use std::fmt;

use nncps_expr::Expr;

/// Activation function applied componentwise after a layer's affine map.
///
/// The paper trains its controllers with MATLAB's `tansig` (hyperbolic
/// tangent) activation; sigmoid, ReLU, and linear activations are provided for
/// the comparison experiments and for output layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Activation {
    /// Hyperbolic tangent, MATLAB's `tansig`. The paper's default.
    #[default]
    Tanh,
    /// Logistic sigmoid `1 / (1 + e^{-x})`, MATLAB's `logsig`.
    Sigmoid,
    /// Rectified linear unit `max(x, 0)`.
    Relu,
    /// Symmetric saturating linear `min(max(x, -1), 1)`, MATLAB's `satlins`.
    /// Like ReLU it lowers to pure `min`/`max` expression nodes, with no
    /// transcendental function.
    HardTanh,
    /// Identity (MATLAB's `purelin`), typically used on output layers.
    Linear,
}

impl Activation {
    /// Applies the activation to a scalar.
    pub fn apply(self, x: f64) -> f64 {
        match self {
            Activation::Tanh => x.tanh(),
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            Activation::Relu => x.max(0.0),
            Activation::HardTanh => x.clamp(-1.0, 1.0),
            Activation::Linear => x,
        }
    }

    /// Derivative of the activation at `x`.
    pub fn derivative(self, x: f64) -> f64 {
        match self {
            Activation::Tanh => 1.0 - x.tanh().powi(2),
            Activation::Sigmoid => {
                let s = self.apply(x);
                s * (1.0 - s)
            }
            Activation::Relu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::HardTanh => {
                if (-1.0..=1.0).contains(&x) {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Linear => 1.0,
        }
    }

    /// Applies the activation symbolically to an expression.
    ///
    /// ReLU is encoded as `max(x, 0)`, which the δ-SAT solver handles through
    /// its interval semantics for `max`.
    pub fn apply_expr(self, x: Expr) -> Expr {
        match self {
            Activation::Tanh => x.tanh(),
            Activation::Sigmoid => x.sigmoid(),
            Activation::Relu => x.max(Expr::constant(0.0)),
            Activation::HardTanh => x.max(Expr::constant(-1.0)).min(Expr::constant(1.0)),
            Activation::Linear => x,
        }
    }

    /// Output range of the activation, used to sanity-check controller
    /// saturation limits: `(lower, upper)` with infinities where unbounded.
    pub fn range(self) -> (f64, f64) {
        match self {
            Activation::Tanh => (-1.0, 1.0),
            Activation::Sigmoid => (0.0, 1.0),
            Activation::Relu => (0.0, f64::INFINITY),
            Activation::HardTanh => (-1.0, 1.0),
            Activation::Linear => (f64::NEG_INFINITY, f64::INFINITY),
        }
    }
}

/// The MATLAB-style name of the activation (`tansig`, `logsig`, ...).
impl fmt::Display for Activation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Activation::Tanh => "tansig",
            Activation::Sigmoid => "logsig",
            Activation::Relu => "poslin",
            Activation::HardTanh => "satlins",
            Activation::Linear => "purelin",
        })
    }
}

/// Error returned when parsing an unknown activation name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseActivationError(String);

impl fmt::Display for ParseActivationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown activation `{}` (expected tanh/tansig, sigmoid/logsig, relu/poslin, \
             hardtanh/satlins, or linear/purelin)",
            self.0
        )
    }
}

impl std::error::Error for ParseActivationError {}

impl std::str::FromStr for Activation {
    type Err = ParseActivationError;

    /// Parses both the Rust-style and the MATLAB-style names, so scenario
    /// manifests can say either `activation = "tanh"` or `"tansig"`.
    ///
    /// # Examples
    ///
    /// ```
    /// use nncps_nn::Activation;
    ///
    /// assert_eq!("tanh".parse::<Activation>().unwrap(), Activation::Tanh);
    /// assert_eq!("logsig".parse::<Activation>().unwrap(), Activation::Sigmoid);
    /// assert!("softplus".parse::<Activation>().is_err());
    /// ```
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "tanh" | "tansig" => Ok(Activation::Tanh),
            "sigmoid" | "logsig" => Ok(Activation::Sigmoid),
            "relu" | "poslin" => Ok(Activation::Relu),
            "hardtanh" | "satlins" => Ok(Activation::HardTanh),
            "linear" | "purelin" | "identity" => Ok(Activation::Linear),
            other => Err(ParseActivationError(other.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn values_match_reference_formulas() {
        assert!((Activation::Tanh.apply(0.5) - 0.5_f64.tanh()).abs() < 1e-15);
        assert!((Activation::Sigmoid.apply(0.0) - 0.5).abs() < 1e-15);
        assert_eq!(Activation::Relu.apply(-2.0), 0.0);
        assert_eq!(Activation::Relu.apply(3.0), 3.0);
        assert_eq!(Activation::HardTanh.apply(-2.0), -1.0);
        assert_eq!(Activation::HardTanh.apply(0.25), 0.25);
        assert_eq!(Activation::HardTanh.apply(3.0), 1.0);
        assert_eq!(Activation::Linear.apply(1.25), 1.25);
        assert_eq!(Activation::default(), Activation::Tanh);
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let h = 1e-6;
        for act in [Activation::Tanh, Activation::Sigmoid, Activation::Linear] {
            for &x in &[-1.2, -0.1, 0.7, 2.0] {
                let fd = (act.apply(x + h) - act.apply(x - h)) / (2.0 * h);
                assert!(
                    (act.derivative(x) - fd).abs() < 1e-6,
                    "{act:?} at {x}: {} vs {fd}",
                    act.derivative(x)
                );
            }
        }
        assert_eq!(Activation::Relu.derivative(1.0), 1.0);
        assert_eq!(Activation::Relu.derivative(-1.0), 0.0);
        assert_eq!(Activation::HardTanh.derivative(0.5), 1.0);
        assert_eq!(Activation::HardTanh.derivative(2.0), 0.0);
        assert_eq!(Activation::HardTanh.derivative(-2.0), 0.0);
    }

    #[test]
    fn symbolic_application_matches_numeric() {
        use nncps_expr::Expr;
        let x = Expr::var(0);
        for act in [
            Activation::Tanh,
            Activation::Sigmoid,
            Activation::Relu,
            Activation::HardTanh,
            Activation::Linear,
        ] {
            let e = act.apply_expr(x.clone());
            for &v in &[-2.0, -0.3, 0.0, 0.9, 2.5] {
                assert!(
                    (e.eval(&[v]) - act.apply(v)).abs() < 1e-14,
                    "{act:?} at {v}"
                );
            }
        }
    }

    #[test]
    fn ranges_and_names() {
        assert_eq!(Activation::Tanh.range(), (-1.0, 1.0));
        assert_eq!(Activation::Sigmoid.range(), (0.0, 1.0));
        assert_eq!(Activation::Relu.range().0, 0.0);
        assert_eq!(Activation::HardTanh.range(), (-1.0, 1.0));
        assert_eq!(Activation::Tanh.to_string(), "tansig");
        assert_eq!(Activation::HardTanh.to_string(), "satlins");
        assert_eq!(format!("{}", Activation::Linear), "purelin");
        assert_eq!(
            "satlins".parse::<Activation>().unwrap(),
            Activation::HardTanh
        );
        assert_eq!(
            "HardTanh".parse::<Activation>().unwrap(),
            Activation::HardTanh
        );
        let err = "softsign".parse::<Activation>().unwrap_err();
        assert!(err.to_string().contains("hardtanh/satlins"), "{err}");
    }

    proptest! {
        #[test]
        fn prop_outputs_stay_in_declared_range(x in -50.0f64..50.0) {
            for act in [
                Activation::Tanh,
                Activation::Sigmoid,
                Activation::Relu,
                Activation::HardTanh,
            ] {
                let (lo, hi) = act.range();
                let y = act.apply(x);
                prop_assert!(y >= lo - 1e-12 && y <= hi + 1e-12);
            }
        }
    }
}
