//! Numeric and interval evaluation of expressions.

use nncps_interval::{Interval, IntervalBox};

use crate::expr::Node;
use crate::Expr;

impl Expr {
    /// Evaluates the expression at the given variable assignment.
    ///
    /// `values[i]` is the value of variable `i`.
    ///
    /// # Panics
    ///
    /// Panics if the expression references a variable index that is out of
    /// bounds for `values`.
    pub fn eval(&self, values: &[f64]) -> f64 {
        match self.node() {
            Node::Const(c) => *c,
            Node::Var(i) => {
                assert!(
                    *i < values.len(),
                    "expression references variable x{i} but only {} values were supplied",
                    values.len()
                );
                values[*i]
            }
            Node::Unary(op, a) => op.apply(a.eval(values)),
            Node::Binary(op, a, b) => op.apply(a.eval(values), b.eval(values)),
            Node::Powi(a, n) => a.eval(values).powi(*n),
        }
    }

    /// Evaluates the expression over an interval box, returning a sound
    /// enclosure of the expression's range on that box.
    ///
    /// # Panics
    ///
    /// Panics if the expression references a variable index that is out of
    /// bounds for the box.
    pub fn eval_box(&self, region: &IntervalBox) -> Interval {
        match self.node() {
            Node::Const(c) => Interval::singleton(*c),
            Node::Var(i) => {
                assert!(
                    *i < region.dim(),
                    "expression references variable x{i} but the box has {} dimensions",
                    region.dim()
                );
                region[*i]
            }
            Node::Unary(op, a) => op.apply_interval(a.eval_box(region)),
            Node::Binary(op, a, b) => op.apply_interval(a.eval_box(region), b.eval_box(region)),
            Node::Powi(a, n) => a.eval_box(region).powi(*n),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn eval_composite_expression() {
        // f(x, y) = sin(x) * y + exp(-x^2)
        let x = Expr::var(0);
        let y = Expr::var(1);
        let f = x.clone().sin() * y + (-(x.powi(2))).exp();
        let got = f.eval(&[1.2, -0.5]);
        let want = 1.2_f64.sin() * -0.5 + (-(1.2_f64 * 1.2)).exp();
        assert!((got - want).abs() < 1e-14);
    }

    #[test]
    fn eval_box_encloses_sampled_values() {
        let x = Expr::var(0);
        let y = Expr::var(1);
        let f = (x.clone() * y.clone()).tanh() + x.clone().cos() - y.powi(3);
        let region = IntervalBox::from_bounds(&[(-1.0, 1.0), (0.0, 2.0)]);
        let enclosure = f.eval_box(&region);
        for i in 0..=10 {
            for j in 0..=10 {
                let px = -1.0 + 0.2 * i as f64;
                let py = 0.2 * j as f64;
                assert!(enclosure.contains(f.eval(&[px, py])));
            }
        }
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let x = Expr::var(0);
        let y = Expr::var(1);
        let f = x.clone().sin() * y.clone() + x.clone() * x.clone() * y.clone();
        let point = [0.8, -1.3];
        let grad: Vec<f64> = (0..2).map(|k| f.differentiate(k).eval(&point)).collect();
        let h = 1e-6;
        for k in 0..2 {
            let mut plus = point;
            let mut minus = point;
            plus[k] += h;
            minus[k] -= h;
            let fd = (f.eval(&plus) - f.eval(&minus)) / (2.0 * h);
            assert!((grad[k] - fd).abs() < 1e-5, "component {k}");
        }
    }

    #[test]
    #[should_panic(expected = "references variable")]
    fn eval_with_missing_variable_panics() {
        let f = Expr::var(3);
        let _ = f.eval(&[1.0]);
    }

    #[test]
    #[should_panic(expected = "references variable")]
    fn eval_box_with_missing_dimension_panics() {
        let f = Expr::var(2);
        let _ = f.eval_box(&IntervalBox::from_bounds(&[(0.0, 1.0)]));
    }

    proptest! {
        #[test]
        fn prop_interval_evaluation_encloses_point_evaluation(
            a in -2.0f64..2.0, b in -2.0f64..2.0,
            ta in 0.0f64..1.0, tb in 0.0f64..1.0,
        ) {
            let x = Expr::var(0);
            let y = Expr::var(1);
            let f = (x.clone() * y.clone() + x.clone().tanh()).sin()
                + (y.clone() - 0.5).powi(2) * x.clone().cos();
            let lo_a = a.min(a + 1.0);
            let lo_b = b.min(b + 0.5);
            let region = IntervalBox::from_bounds(&[(lo_a, lo_a + 1.0), (lo_b, lo_b + 0.5)]);
            let px = lo_a + ta * 1.0;
            let py = lo_b + tb * 0.5;
            let enclosure = f.eval_box(&region);
            prop_assert!(enclosure.contains(f.eval(&[px, py])));
        }
    }
}
