//! The [`Expr`] expression tree: construction, structure, and operators.

use std::collections::BTreeSet;
use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};
use std::sync::Arc;

use crate::{BinaryOp, UnaryOp};

/// An immutable symbolic expression over indexed real variables.
///
/// Expressions are cheap to clone (`Arc`-backed) and share common
/// subexpressions, which matters when the whole neural-network controller is
/// exported symbolically: each hidden neuron's pre-activation is built once
/// and reused in both the dynamics and its gradient. The atomically
/// reference-counted nodes make expressions `Send + Sync`, so dynamics and
/// constraints built from them can be evaluated from worker threads (the
/// simulator's `parallel` feature and the scenario runner rely on this).
///
/// # Examples
///
/// ```
/// use nncps_expr::Expr;
///
/// let x = Expr::var(0);
/// let f = (x.clone() * 2.0 + 1.0).tanh();
/// assert!((f.eval(&[0.0]) - 1.0_f64.tanh()).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct Expr {
    node: Arc<Node>,
}

/// The internal node representation.
#[derive(Debug)]
pub(crate) enum Node {
    /// A floating-point constant.
    Const(f64),
    /// A variable identified by its index.
    Var(usize),
    /// A unary operation.
    Unary(UnaryOp, Expr),
    /// A binary operation.
    Binary(BinaryOp, Expr, Expr),
    /// An integer power `base^exponent`.
    Powi(Expr, i32),
}

/// A borrowed, pattern-matchable view of the top node of an [`Expr`].
///
/// External crates (such as the δ-SAT solver's HC4 contractor) use this view
/// to walk expression trees without the crate exposing its internal node
/// representation.
///
/// # Examples
///
/// ```
/// use nncps_expr::{Expr, ExprView};
///
/// let e = Expr::var(0) + 1.0;
/// match e.view() {
///     ExprView::Binary(_, lhs, _) => assert_eq!(lhs.as_var(), Some(0)),
///     _ => unreachable!(),
/// }
/// ```
#[derive(Debug, Clone, Copy)]
pub enum ExprView<'a> {
    /// A floating-point constant.
    Const(f64),
    /// A variable identified by its index.
    Var(usize),
    /// A unary operation applied to a sub-expression.
    Unary(UnaryOp, &'a Expr),
    /// A binary operation applied to two sub-expressions.
    Binary(BinaryOp, &'a Expr, &'a Expr),
    /// An integer power of a sub-expression.
    Powi(&'a Expr, i32),
}

impl Expr {
    pub(crate) fn from_node(node: Node) -> Self {
        Expr {
            node: Arc::new(node),
        }
    }

    pub(crate) fn node(&self) -> &Node {
        &self.node
    }

    /// The shared node handle, for pointer-identity bookkeeping (tape CSE,
    /// structural fingerprints).
    pub(crate) fn arc_node(&self) -> &Arc<Node> {
        &self.node
    }

    /// Returns a pattern-matchable view of the top node of the expression.
    pub fn view(&self) -> ExprView<'_> {
        match self.node() {
            Node::Const(c) => ExprView::Const(*c),
            Node::Var(i) => ExprView::Var(*i),
            Node::Unary(op, a) => ExprView::Unary(*op, a),
            Node::Binary(op, a, b) => ExprView::Binary(*op, a, b),
            Node::Powi(a, n) => ExprView::Powi(a, *n),
        }
    }

    /// Creates a constant expression.
    pub fn constant(value: f64) -> Self {
        Expr::from_node(Node::Const(value))
    }

    /// The constant `0`.
    pub fn zero() -> Self {
        Expr::constant(0.0)
    }

    /// The constant `1`.
    pub fn one() -> Self {
        Expr::constant(1.0)
    }

    /// Creates a variable expression referring to variable `index`.
    pub fn var(index: usize) -> Self {
        Expr::from_node(Node::Var(index))
    }

    /// If the expression is a constant, returns its value.
    pub fn as_constant(&self) -> Option<f64> {
        match self.node() {
            Node::Const(c) => Some(*c),
            _ => None,
        }
    }

    /// If the expression is a bare variable, returns its index.
    pub fn as_var(&self) -> Option<usize> {
        match self.node() {
            Node::Var(i) => Some(*i),
            _ => None,
        }
    }

    /// Applies a unary operator.
    pub fn unary(op: UnaryOp, operand: Expr) -> Self {
        Expr::from_node(Node::Unary(op, operand))
    }

    /// Applies a binary operator.
    pub fn binary(op: BinaryOp, lhs: Expr, rhs: Expr) -> Self {
        Expr::from_node(Node::Binary(op, lhs, rhs))
    }

    /// Integer power `self^exponent`.
    pub fn powi(self, exponent: i32) -> Self {
        Expr::from_node(Node::Powi(self, exponent))
    }

    /// Sine of the expression.
    pub fn sin(self) -> Self {
        Expr::unary(UnaryOp::Sin, self)
    }

    /// Cosine of the expression.
    pub fn cos(self) -> Self {
        Expr::unary(UnaryOp::Cos, self)
    }

    /// Tangent of the expression.
    pub fn tan(self) -> Self {
        Expr::unary(UnaryOp::Tan, self)
    }

    /// Natural exponential of the expression.
    pub fn exp(self) -> Self {
        Expr::unary(UnaryOp::Exp, self)
    }

    /// Natural logarithm of the expression.
    pub fn ln(self) -> Self {
        Expr::unary(UnaryOp::Ln, self)
    }

    /// Square root of the expression.
    pub fn sqrt(self) -> Self {
        Expr::unary(UnaryOp::Sqrt, self)
    }

    /// Absolute value of the expression.
    pub fn abs(self) -> Self {
        Expr::unary(UnaryOp::Abs, self)
    }

    /// Hyperbolic tangent of the expression (the paper's `tansig` activation).
    pub fn tanh(self) -> Self {
        Expr::unary(UnaryOp::Tanh, self)
    }

    /// Logistic sigmoid of the expression.
    pub fn sigmoid(self) -> Self {
        Expr::unary(UnaryOp::Sigmoid, self)
    }

    /// Arctangent of the expression.
    pub fn atan(self) -> Self {
        Expr::unary(UnaryOp::Atan, self)
    }

    /// Pointwise minimum of two expressions.
    pub fn min(self, other: Expr) -> Self {
        Expr::binary(BinaryOp::Min, self, other)
    }

    /// Pointwise maximum of two expressions.
    pub fn max(self, other: Expr) -> Self {
        Expr::binary(BinaryOp::Max, self, other)
    }

    /// Returns the set of variable indices that occur in the expression.
    pub fn variables(&self) -> BTreeSet<usize> {
        let mut out = BTreeSet::new();
        self.collect_variables(&mut out);
        out
    }

    fn collect_variables(&self, out: &mut BTreeSet<usize>) {
        match self.node() {
            Node::Const(_) => {}
            Node::Var(i) => {
                out.insert(*i);
            }
            Node::Unary(_, a) => a.collect_variables(out),
            Node::Binary(_, a, b) => {
                a.collect_variables(out);
                b.collect_variables(out);
            }
            Node::Powi(a, _) => a.collect_variables(out),
        }
    }

    /// Returns `1 + max variable index` (the minimum input length accepted by
    /// [`Expr::eval`]), or `0` if the expression contains no variables.
    pub fn num_vars(&self) -> usize {
        match self.node() {
            Node::Const(_) => 0,
            Node::Var(i) => i + 1,
            Node::Unary(_, a) | Node::Powi(a, _) => a.num_vars(),
            Node::Binary(_, a, b) => a.num_vars().max(b.num_vars()),
        }
    }

    /// Number of nodes in the expression tree (a rough size/complexity measure).
    ///
    /// Shared subtrees are counted each time they appear, matching the cost of
    /// a naive (uncached) evaluation.
    pub fn node_count(&self) -> usize {
        match self.node() {
            Node::Const(_) | Node::Var(_) => 1,
            Node::Unary(_, a) => 1 + a.node_count(),
            Node::Binary(_, a, b) => 1 + a.node_count() + b.node_count(),
            Node::Powi(a, _) => 1 + a.node_count(),
        }
    }

    /// Substitutes expressions for variables: each variable `i` is replaced by
    /// `substitutions[i]` when present.
    ///
    /// Variables without a substitution are left untouched.
    pub fn substitute(&self, substitutions: &[Option<Expr>]) -> Expr {
        match self.node() {
            Node::Const(c) => Expr::constant(*c),
            Node::Var(i) => match substitutions.get(*i) {
                Some(Some(e)) => e.clone(),
                _ => Expr::var(*i),
            },
            Node::Unary(op, a) => Expr::unary(*op, a.substitute(substitutions)),
            Node::Binary(op, a, b) => Expr::binary(
                *op,
                a.substitute(substitutions),
                b.substitute(substitutions),
            ),
            Node::Powi(a, n) => a.substitute(substitutions).powi(*n),
        }
    }
}

impl Default for Expr {
    fn default() -> Self {
        Expr::zero()
    }
}

impl From<f64> for Expr {
    fn from(value: f64) -> Self {
        Expr::constant(value)
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.node() {
            Node::Const(c) => write!(f, "{c}"),
            Node::Var(i) => write!(f, "x{i}"),
            Node::Unary(UnaryOp::Neg, a) => write!(f, "(-{a})"),
            Node::Unary(op, a) => write!(f, "{}({a})", op.name()),
            Node::Binary(op @ (BinaryOp::Min | BinaryOp::Max), a, b) => {
                write!(f, "{}({a}, {b})", op.symbol())
            }
            Node::Binary(op, a, b) => write!(f, "({a} {} {b})", op.symbol()),
            Node::Powi(a, n) => write!(f, "({a})^{n}"),
        }
    }
}

// --- operator overloads ---------------------------------------------------

impl Add for Expr {
    type Output = Expr;
    fn add(self, rhs: Expr) -> Expr {
        Expr::binary(BinaryOp::Add, self, rhs)
    }
}

impl Sub for Expr {
    type Output = Expr;
    fn sub(self, rhs: Expr) -> Expr {
        Expr::binary(BinaryOp::Sub, self, rhs)
    }
}

impl Mul for Expr {
    type Output = Expr;
    fn mul(self, rhs: Expr) -> Expr {
        Expr::binary(BinaryOp::Mul, self, rhs)
    }
}

impl Div for Expr {
    type Output = Expr;
    fn div(self, rhs: Expr) -> Expr {
        Expr::binary(BinaryOp::Div, self, rhs)
    }
}

impl Neg for Expr {
    type Output = Expr;
    fn neg(self) -> Expr {
        Expr::unary(UnaryOp::Neg, self)
    }
}

impl Add<f64> for Expr {
    type Output = Expr;
    fn add(self, rhs: f64) -> Expr {
        self + Expr::constant(rhs)
    }
}

impl Sub<f64> for Expr {
    type Output = Expr;
    fn sub(self, rhs: f64) -> Expr {
        self - Expr::constant(rhs)
    }
}

impl Mul<f64> for Expr {
    type Output = Expr;
    fn mul(self, rhs: f64) -> Expr {
        self * Expr::constant(rhs)
    }
}

impl Div<f64> for Expr {
    type Output = Expr;
    fn div(self, rhs: f64) -> Expr {
        self / Expr::constant(rhs)
    }
}

impl Add<Expr> for f64 {
    type Output = Expr;
    fn add(self, rhs: Expr) -> Expr {
        Expr::constant(self) + rhs
    }
}

impl Sub<Expr> for f64 {
    type Output = Expr;
    fn sub(self, rhs: Expr) -> Expr {
        Expr::constant(self) - rhs
    }
}

impl Mul<Expr> for f64 {
    type Output = Expr;
    fn mul(self, rhs: Expr) -> Expr {
        Expr::constant(self) * rhs
    }
}

impl Div<Expr> for f64 {
    type Output = Expr;
    fn div(self, rhs: Expr) -> Expr {
        Expr::constant(self) / rhs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_inspection() {
        assert_eq!(Expr::constant(3.0).as_constant(), Some(3.0));
        assert_eq!(Expr::var(4).as_var(), Some(4));
        assert_eq!(Expr::var(4).as_constant(), None);
        assert_eq!(Expr::zero().as_constant(), Some(0.0));
        assert_eq!(Expr::one().as_constant(), Some(1.0));
        assert_eq!(Expr::default().as_constant(), Some(0.0));
        assert_eq!(Expr::from(2.5).as_constant(), Some(2.5));
    }

    #[test]
    fn variables_and_num_vars() {
        let e = Expr::var(0) * Expr::var(3) + Expr::var(1).sin();
        let vars: Vec<usize> = e.variables().into_iter().collect();
        assert_eq!(vars, vec![0, 1, 3]);
        assert_eq!(e.num_vars(), 4);
        assert_eq!(Expr::constant(1.0).num_vars(), 0);
    }

    #[test]
    fn node_count_grows_with_structure() {
        let x = Expr::var(0);
        assert_eq!(x.node_count(), 1);
        let e = x.clone() + x.clone();
        assert_eq!(e.node_count(), 3);
        assert_eq!(e.sin().node_count(), 4);
        assert_eq!(Expr::var(0).powi(3).node_count(), 2);
    }

    #[test]
    fn substitution_replaces_variables() {
        // f(x0, x1) = x0 * x1; substitute x0 := x1 + 1.
        let f = Expr::var(0) * Expr::var(1);
        let g = f.substitute(&[Some(Expr::var(1) + 1.0), None]);
        assert!((g.eval(&[0.0, 3.0]) - 12.0).abs() < 1e-12);
        // Missing substitution leaves variable intact.
        let h = f.substitute(&[]);
        assert!((h.eval(&[2.0, 5.0]) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn display_is_readable() {
        let e = (Expr::var(0) + 1.0).tanh();
        assert_eq!(format!("{e}"), "tanh((x0 + 1))");
        let m = Expr::var(0).min(Expr::constant(2.0));
        assert_eq!(format!("{m}"), "min(x0, 2)");
        let p = Expr::var(1).powi(2);
        assert_eq!(format!("{p}"), "(x1)^2");
        let n = -Expr::var(0);
        assert_eq!(format!("{n}"), "(-x0)");
    }

    #[test]
    fn scalar_operator_overloads() {
        let x = Expr::var(0);
        assert!(((x.clone() + 1.0).eval(&[2.0]) - 3.0).abs() < 1e-12);
        assert!(((1.0 + x.clone()).eval(&[2.0]) - 3.0).abs() < 1e-12);
        assert!(((x.clone() - 1.0).eval(&[2.0]) - 1.0).abs() < 1e-12);
        assert!(((1.0 - x.clone()).eval(&[2.0]) + 1.0).abs() < 1e-12);
        assert!(((x.clone() * 3.0).eval(&[2.0]) - 6.0).abs() < 1e-12);
        assert!(((3.0 * x.clone()).eval(&[2.0]) - 6.0).abs() < 1e-12);
        assert!(((x.clone() / 2.0).eval(&[2.0]) - 1.0).abs() < 1e-12);
        assert!(((2.0 / x.clone()).eval(&[2.0]) - 1.0).abs() < 1e-12);
        assert!(((-x).eval(&[2.0]) + 2.0).abs() < 1e-12);
    }

    #[test]
    fn transcendental_builders_match_std() {
        let x = Expr::var(0);
        let v = 0.37;
        assert!((x.clone().sin().eval(&[v]) - v.sin()).abs() < 1e-15);
        assert!((x.clone().cos().eval(&[v]) - v.cos()).abs() < 1e-15);
        assert!((x.clone().tan().eval(&[v]) - v.tan()).abs() < 1e-15);
        assert!((x.clone().exp().eval(&[v]) - v.exp()).abs() < 1e-15);
        assert!((x.clone().ln().eval(&[v]) - v.ln()).abs() < 1e-15);
        assert!((x.clone().sqrt().eval(&[v]) - v.sqrt()).abs() < 1e-15);
        assert!((x.clone().abs().eval(&[-v]) - v).abs() < 1e-15);
        assert!((x.clone().tanh().eval(&[v]) - v.tanh()).abs() < 1e-15);
        assert!((x.clone().atan().eval(&[v]) - v.atan()).abs() < 1e-15);
        assert!((x.clone().sigmoid().eval(&[0.0]) - 0.5).abs() < 1e-15);
        assert!((x.clone().min(Expr::constant(0.2)).eval(&[v]) - 0.2).abs() < 1e-15);
        assert!((x.max(Expr::constant(0.2)).eval(&[v]) - v).abs() < 1e-15);
    }
}
