//! Generator-function templates and concrete generator functions.

use std::fmt;

use nncps_expr::Expr;
use nncps_linalg::{Matrix, SymmetricEigen, Vector};

/// A quadratic template for the generator function
/// `W(x) = xᵀ P x + qᵀ x + c` over `n` state variables.
///
/// The template exposes its monomial basis so that the LP synthesis can build
/// linear constraints in the unknown coefficients: the coefficient vector is
/// ordered as
///
/// ```text
/// [ p_00, p_01, ..., p_0(n-1), p_11, p_12, ..., p_(n-1)(n-1),   (upper triangle of P)
///   q_0, ..., q_(n-1),                                           (linear part)
///   c ]                                                          (constant)
/// ```
///
/// # Examples
///
/// ```
/// use nncps_barrier::QuadraticTemplate;
///
/// let template = QuadraticTemplate::new(2);
/// assert_eq!(template.num_coefficients(), 6); // x², xy, y², x, y, 1
/// let basis = template.basis_values(&[2.0, 3.0]);
/// assert_eq!(basis, vec![4.0, 6.0, 9.0, 2.0, 3.0, 1.0]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuadraticTemplate {
    dim: usize,
}

impl QuadraticTemplate {
    /// Creates a quadratic template over `dim` state variables.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "template dimension must be positive");
        QuadraticTemplate { dim }
    }

    /// State dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of quadratic monomials (upper triangle of `P`).
    fn num_quadratic_terms(&self) -> usize {
        self.dim * (self.dim + 1) / 2
    }

    /// Total number of template coefficients (quadratic + linear + constant).
    pub fn num_coefficients(&self) -> usize {
        self.num_quadratic_terms() + self.dim + 1
    }

    /// Evaluates every basis monomial at a point, in coefficient order.
    ///
    /// # Panics
    ///
    /// Panics if `point.len() != self.dim()`.
    pub fn basis_values(&self, point: &[f64]) -> Vec<f64> {
        assert_eq!(point.len(), self.dim, "point dimension mismatch");
        let mut values = Vec::with_capacity(self.num_coefficients());
        for i in 0..self.dim {
            for j in i..self.dim {
                values.push(point[i] * point[j]);
            }
        }
        values.extend_from_slice(point);
        values.push(1.0);
        values
    }

    /// Evaluates, for every basis monomial, the value of its Lie derivative
    /// `∇(monomial)·f` at `point` given the vector-field value
    /// `derivative = f(point)`, in coefficient order.
    ///
    /// The Lie derivative of the template is linear in the template
    /// coefficients, so the returned row can be used directly as an LP
    /// constraint `(∇W)(x*)·f(x*) ≤ −margin` that cuts off a candidate whose
    /// decrease condition fails at the counterexample `x*`.
    ///
    /// # Panics
    ///
    /// Panics if `point` or `derivative` do not have the template dimension.
    ///
    /// # Examples
    ///
    /// ```
    /// use nncps_barrier::QuadraticTemplate;
    ///
    /// let template = QuadraticTemplate::new(2);
    /// // d/dt of [x², xy, y², x, y, 1] along f = (fx, fy):
    /// // [2x·fx, y·fx + x·fy, 2y·fy, fx, fy, 0]
    /// let row = template.lie_basis_values(&[2.0, 3.0], &[-1.0, 0.5]);
    /// assert_eq!(row, vec![-4.0, -2.0, 3.0, -1.0, 0.5, 0.0]);
    /// ```
    pub fn lie_basis_values(&self, point: &[f64], derivative: &[f64]) -> Vec<f64> {
        assert_eq!(point.len(), self.dim, "point dimension mismatch");
        assert_eq!(derivative.len(), self.dim, "derivative dimension mismatch");
        let mut values = Vec::with_capacity(self.num_coefficients());
        for i in 0..self.dim {
            for j in i..self.dim {
                if i == j {
                    values.push(2.0 * point[i] * derivative[i]);
                } else {
                    values.push(point[j] * derivative[i] + point[i] * derivative[j]);
                }
            }
        }
        values.extend_from_slice(derivative);
        values.push(0.0);
        values
    }

    /// Index of the coefficient multiplying `x_i · x_j` (with `i <= j`).
    ///
    /// # Panics
    ///
    /// Panics if `i > j` or `j >= self.dim()`.
    pub fn quadratic_index(&self, i: usize, j: usize) -> usize {
        assert!(i <= j && j < self.dim, "invalid quadratic term indices");
        // Number of entries in rows 0..i of the upper triangle, plus offset in row i.
        let row_offset: usize = (0..i).map(|r| self.dim - r).sum();
        row_offset + (j - i)
    }

    /// Index of the coefficient multiplying `x_i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.dim()`.
    fn linear_index(&self, i: usize) -> usize {
        assert!(i < self.dim, "linear index out of range");
        self.num_quadratic_terms() + i
    }

    /// Index of the constant coefficient.
    fn constant_index(&self) -> usize {
        self.num_coefficients() - 1
    }

    /// Builds a concrete generator function from a coefficient vector.
    ///
    /// # Panics
    ///
    /// Panics if the coefficient count does not match the template.
    pub fn instantiate(&self, coefficients: &[f64]) -> GeneratorFunction {
        assert_eq!(
            coefficients.len(),
            self.num_coefficients(),
            "coefficient count mismatch"
        );
        let n = self.dim;
        let mut p = Matrix::zeros(n, n);
        for i in 0..n {
            for j in i..n {
                let coef = coefficients[self.quadratic_index(i, j)];
                if i == j {
                    p[(i, j)] = coef;
                } else {
                    // Split the cross term symmetrically.
                    p[(i, j)] = coef / 2.0;
                    p[(j, i)] = coef / 2.0;
                }
            }
        }
        let q = Vector::from_fn(n, |i| coefficients[self.linear_index(i)]);
        let c = coefficients[self.constant_index()];
        GeneratorFunction::new(p, q, c)
    }
}

/// A concrete generator function `W(x) = xᵀ P x + qᵀ x + c`.
///
/// A level set of a generator function is a barrier-certificate candidate:
/// `B(x) = W(x) − ℓ`.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratorFunction {
    p: Matrix,
    q: Vector,
    c: f64,
}

impl GeneratorFunction {
    /// Creates a generator function from its quadratic, linear, and constant
    /// parts.  `P` is symmetrized on construction.
    ///
    /// # Panics
    ///
    /// Panics if `P` is not square or `q` has a different dimension.
    pub fn new(mut p: Matrix, q: Vector, c: f64) -> Self {
        assert!(p.is_square(), "quadratic part must be square");
        assert_eq!(p.rows(), q.len(), "linear part dimension mismatch");
        p.symmetrize();
        GeneratorFunction { p, q, c }
    }

    /// State dimension.
    pub fn dim(&self) -> usize {
        self.p.rows()
    }

    /// The symmetric quadratic part `P`.
    pub fn quadratic_part(&self) -> &Matrix {
        &self.p
    }

    /// The linear part `q`.
    pub fn linear_part(&self) -> &Vector {
        &self.q
    }

    /// The constant part `c`.
    pub fn constant_part(&self) -> f64 {
        self.c
    }

    /// The coefficients flattened as the rows of `P`, then `q`, then `c` —
    /// the form batch reports fingerprint and the counterexample trail
    /// records.
    pub fn flattened(&self) -> Vec<f64> {
        let mut coefficients = Vec::with_capacity(self.p.as_slice().len() + self.q.len() + 1);
        coefficients.extend_from_slice(self.p.as_slice());
        coefficients.extend_from_slice(self.q.as_slice());
        coefficients.push(self.c);
        coefficients
    }

    /// Evaluates `W(x)`.
    ///
    /// # Panics
    ///
    /// Panics if `point.len() != self.dim()`.
    pub fn evaluate(&self, point: &[f64]) -> f64 {
        let x = Vector::from_slice(point);
        self.p.quadratic_form(&x) + self.q.dot(&x) + self.c
    }

    /// Evaluates the gradient `∇W(x) = 2 P x + q`.
    ///
    /// # Panics
    ///
    /// Panics if `point.len() != self.dim()`.
    pub fn gradient(&self, point: &[f64]) -> Vec<f64> {
        let x = Vector::from_slice(point);
        let px = self.p.mat_vec(&x);
        (0..self.dim()).map(|i| 2.0 * px[i] + self.q[i]).collect()
    }

    /// Returns `W` as a symbolic expression over variables `x0..x(n-1)`.
    pub fn to_expr(&self) -> Expr {
        let n = self.dim();
        let mut expr = Expr::constant(self.c);
        for i in 0..n {
            if self.q[i] != 0.0 {
                expr = expr + Expr::constant(self.q[i]) * Expr::var(i);
            }
            for j in 0..n {
                if self.p[(i, j)] != 0.0 {
                    expr = expr + Expr::constant(self.p[(i, j)]) * Expr::var(i) * Expr::var(j);
                }
            }
        }
        expr.simplified()
    }

    /// Returns the symbolic gradient `[∂W/∂x0, ..., ∂W/∂x(n-1)]`.
    pub fn gradient_exprs(&self) -> Vec<Expr> {
        let w = self.to_expr();
        (0..self.dim())
            .map(|i| w.differentiate(i).simplified())
            .collect()
    }

    /// Returns `true` if the quadratic part is positive definite (all
    /// eigenvalues greater than `tol`), which guarantees that every sublevel
    /// set of `W` is a bounded ellipsoid.
    pub fn is_positive_definite(&self, tol: f64) -> bool {
        SymmetricEigen::new(&self.p)
            .map(|eig| eig.is_positive_definite(tol))
            .unwrap_or(false)
    }

    /// The unconstrained minimizer `x* = −P⁻¹ q / 2` of `W`, if `P` is
    /// invertible.
    pub fn minimizer(&self) -> Option<Vec<f64>> {
        let rhs = self.q.scaled(-0.5);
        self.p.solve(&rhs).ok().map(Vector::into_vec)
    }

    /// An axis-aligned bounding box of the sublevel set `{x : W(x) ≤ level}`,
    /// or `None` if the quadratic part is not positive definite or the
    /// sublevel set is empty.
    ///
    /// The box is computed from the smallest eigenvalue of `P`:
    /// `‖x − x*‖² ≤ (level − W(x*)) / λ_min`.
    pub fn sublevel_bounding_box(&self, level: f64) -> Option<Vec<(f64, f64)>> {
        let eig = SymmetricEigen::new(&self.p).ok()?;
        if !eig.is_positive_definite(1e-12) {
            return None;
        }
        let center = self.minimizer()?;
        let min_value = self.evaluate(&center);
        if level < min_value {
            return None;
        }
        let radius = ((level - min_value) / eig.min_eigenvalue()).sqrt();
        Some(
            center
                .iter()
                .map(|&ci| (ci - radius, ci + radius))
                .collect(),
        )
    }
}

impl fmt::Display for GeneratorFunction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "W(x) = {}", self.to_expr())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn template_counts_and_indices() {
        let t = QuadraticTemplate::new(2);
        assert_eq!(t.dim(), 2);
        assert_eq!(t.num_quadratic_terms(), 3);
        assert_eq!(t.num_coefficients(), 6);
        assert_eq!(t.quadratic_index(0, 0), 0);
        assert_eq!(t.quadratic_index(0, 1), 1);
        assert_eq!(t.quadratic_index(1, 1), 2);
        assert_eq!(t.linear_index(0), 3);
        assert_eq!(t.linear_index(1), 4);
        assert_eq!(t.constant_index(), 5);
        let t3 = QuadraticTemplate::new(3);
        assert_eq!(t3.num_coefficients(), 6 + 3 + 1);
        assert_eq!(t3.quadratic_index(1, 2), 4);
        assert_eq!(t3.quadratic_index(2, 2), 5);
    }

    #[test]
    fn basis_values_match_monomials() {
        let t = QuadraticTemplate::new(2);
        assert_eq!(
            t.basis_values(&[2.0, -3.0]),
            vec![4.0, -6.0, 9.0, 2.0, -3.0, 1.0]
        );
        let t3 = QuadraticTemplate::new(3);
        let b = t3.basis_values(&[1.0, 2.0, 3.0]);
        assert_eq!(b, vec![1.0, 2.0, 3.0, 4.0, 6.0, 9.0, 1.0, 2.0, 3.0, 1.0]);
    }

    #[test]
    fn instantiation_matches_coefficient_dot_basis() {
        let t = QuadraticTemplate::new(2);
        let coefficients = [1.5, -0.4, 2.0, 0.3, -0.1, 0.7];
        let w = t.instantiate(&coefficients);
        for &point in &[[0.0, 0.0], [1.0, -2.0], [0.5, 0.25], [-3.0, 4.0]] {
            let via_basis: f64 = t
                .basis_values(&point)
                .iter()
                .zip(coefficients.iter())
                .map(|(b, c)| b * c)
                .sum();
            assert!((w.evaluate(&point) - via_basis).abs() < 1e-12);
        }
    }

    #[test]
    fn generator_gradient_and_expr_agree() {
        let w = GeneratorFunction::new(
            Matrix::from_rows(&[&[2.0, 0.5], &[0.5, 1.0]]),
            Vector::from_slice(&[0.3, -0.2]),
            0.1,
        );
        let expr = w.to_expr();
        let grad_exprs = w.gradient_exprs();
        for &point in &[[0.0, 0.0], [1.0, 2.0], [-0.7, 0.4]] {
            assert!((expr.eval(&point) - w.evaluate(&point)).abs() < 1e-12);
            let grad = w.gradient(&point);
            for i in 0..2 {
                assert!((grad_exprs[i].eval(&point) - grad[i]).abs() < 1e-12);
            }
        }
        assert!(format!("{w}").starts_with("W(x) ="));
    }

    #[test]
    fn definiteness_minimizer_and_bounding_box() {
        let w = GeneratorFunction::new(
            Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 4.0]]),
            Vector::from_slice(&[0.0, 0.0]),
            0.0,
        );
        assert!(w.is_positive_definite(1e-9));
        assert_eq!(w.minimizer().unwrap(), vec![0.0, 0.0]);
        assert_eq!(w.evaluate(&w.minimizer().unwrap()), 0.0);
        let bb = w.sublevel_bounding_box(4.0).unwrap();
        // lambda_min = 1, so the bounding radius is 2 in every direction.
        assert!((bb[0].0 + 2.0).abs() < 1e-9 && (bb[0].1 - 2.0).abs() < 1e-9);
        assert!((bb[1].0 + 2.0).abs() < 1e-9 && (bb[1].1 - 2.0).abs() < 1e-9);
        // The true extent in x1 is only 1 (= sqrt(4/4)), so the box is an
        // over-approximation — exactly what soundness needs.
        assert!(w.sublevel_bounding_box(-1.0).is_none());

        let indefinite = GeneratorFunction::new(
            Matrix::from_rows(&[&[1.0, 3.0], &[3.0, 1.0]]),
            Vector::zeros(2),
            0.0,
        );
        assert!(!indefinite.is_positive_definite(0.0));
        assert!(indefinite.sublevel_bounding_box(1.0).is_none());
    }

    #[test]
    fn shifted_generator_minimizer() {
        // W(x) = (x-1)^2 + (y+2)^2 = x^2 + y^2 - 2x + 4y + 5
        let w = GeneratorFunction::new(Matrix::identity(2), Vector::from_slice(&[-2.0, 4.0]), 5.0);
        let m = w.minimizer().unwrap();
        assert!((m[0] - 1.0).abs() < 1e-9);
        assert!((m[1] + 2.0).abs() < 1e-9);
        assert!(w.evaluate(&w.minimizer().unwrap()).abs() < 1e-9);
        let bb = w.sublevel_bounding_box(1.0).unwrap();
        assert!(bb[0].0 <= 0.0 && bb[0].1 >= 2.0);
    }

    #[test]
    #[should_panic(expected = "coefficient count mismatch")]
    fn wrong_coefficient_count_panics() {
        let _ = QuadraticTemplate::new(2).instantiate(&[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "dimension must be positive")]
    fn zero_dimension_panics() {
        let _ = QuadraticTemplate::new(0);
    }

    proptest! {
        #[test]
        fn prop_gradient_matches_finite_differences(
            p11 in 0.5f64..3.0, p12 in -1.0f64..1.0, p22 in 0.5f64..3.0,
            q1 in -2.0f64..2.0, q2 in -2.0f64..2.0, c in -1.0f64..1.0,
            x in -3.0f64..3.0, y in -3.0f64..3.0,
        ) {
            let w = GeneratorFunction::new(
                Matrix::from_rows(&[&[p11, p12], &[p12, p22]]),
                Vector::from_slice(&[q1, q2]),
                c,
            );
            let grad = w.gradient(&[x, y]);
            let h = 1e-6;
            let fd0 = (w.evaluate(&[x + h, y]) - w.evaluate(&[x - h, y])) / (2.0 * h);
            let fd1 = (w.evaluate(&[x, y + h]) - w.evaluate(&[x, y - h])) / (2.0 * h);
            prop_assert!((grad[0] - fd0).abs() < 1e-5);
            prop_assert!((grad[1] - fd1).abs() < 1e-5);
        }

        #[test]
        fn prop_sublevel_bounding_box_contains_sublevel_points(
            p11 in 0.5f64..3.0, p22 in 0.5f64..3.0,
            x in -2.0f64..2.0, y in -2.0f64..2.0,
        ) {
            let w = GeneratorFunction::new(
                Matrix::from_rows(&[&[p11, 0.1], &[0.1, p22]]),
                Vector::zeros(2),
                0.0,
            );
            let value = w.evaluate(&[x, y]);
            let bb = w.sublevel_bounding_box(value).unwrap();
            prop_assert!(x >= bb[0].0 - 1e-9 && x <= bb[0].1 + 1e-9);
            prop_assert!(y >= bb[1].0 - 1e-9 && y <= bb[1].1 + 1e-9);
        }
    }
}
