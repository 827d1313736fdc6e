//! Dense column vectors backed by `Vec<f64>`.

use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub, SubAssign};

/// A dense column vector of `f64` values.
///
/// `Vector` is a thin wrapper around `Vec<f64>` that provides the arithmetic
/// operations needed by the optimization and verification code: addition,
/// subtraction, scaling, dot products, and norms.
///
/// # Examples
///
/// ```
/// use nncps_linalg::Vector;
///
/// let a = Vector::from_slice(&[1.0, 2.0, 3.0]);
/// let b = Vector::from_slice(&[4.0, 5.0, 6.0]);
/// assert_eq!(a.dot(&b), 32.0);
/// assert_eq!((&a + &b).as_slice(), &[5.0, 7.0, 9.0]);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Vector {
    data: Vec<f64>,
}

impl Vector {
    /// Creates a zero vector of length `len`.
    ///
    /// ```
    /// use nncps_linalg::Vector;
    /// let v = Vector::zeros(3);
    /// assert_eq!(v.as_slice(), &[0.0, 0.0, 0.0]);
    /// ```
    pub fn zeros(len: usize) -> Self {
        Vector {
            data: vec![0.0; len],
        }
    }

    /// Creates a vector whose entries are all `value`.
    pub fn filled(len: usize, value: f64) -> Self {
        Vector {
            data: vec![value; len],
        }
    }

    /// Creates a vector by copying the given slice.
    pub fn from_slice(values: &[f64]) -> Self {
        Vector {
            data: values.to_vec(),
        }
    }

    /// Creates a vector from an owned `Vec<f64>` without copying.
    pub fn from_vec(values: Vec<f64>) -> Self {
        Vector { data: values }
    }

    /// Creates a length-`len` vector from a function of the index.
    ///
    /// ```
    /// use nncps_linalg::Vector;
    /// let v = Vector::from_fn(4, |i| i as f64 * 2.0);
    /// assert_eq!(v.as_slice(), &[0.0, 2.0, 4.0, 6.0]);
    /// ```
    pub fn from_fn<F: FnMut(usize) -> f64>(len: usize, f: F) -> Self {
        Vector {
            data: (0..len).map(f).collect(),
        }
    }

    /// Returns the number of entries.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the vector has no entries.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Returns the entries as a slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Consumes the vector and returns the underlying storage.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Returns an iterator over the entries.
    pub fn iter(&self) -> std::slice::Iter<'_, f64> {
        self.data.iter()
    }

    /// Returns a mutable iterator over the entries.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, f64> {
        self.data.iter_mut()
    }

    /// Dot product with another vector.
    ///
    /// # Panics
    ///
    /// Panics if the vectors have different lengths.
    pub fn dot(&self, other: &Vector) -> f64 {
        assert_eq!(
            self.len(),
            other.len(),
            "dot product requires equal lengths"
        );
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| a * b)
            .sum()
    }

    /// Euclidean (L2) norm.
    pub fn norm(&self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Returns a new vector scaled by `factor`.
    pub fn scaled(&self, factor: f64) -> Vector {
        Vector::from_fn(self.len(), |i| self.data[i] * factor)
    }

    /// Adds `factor * other` to this vector in place (an "axpy" update).
    ///
    /// # Panics
    ///
    /// Panics if the vectors have different lengths.
    pub fn axpy(&mut self, factor: f64, other: &Vector) {
        assert_eq!(self.len(), other.len(), "axpy requires equal lengths");
        for (x, y) in self.data.iter_mut().zip(other.data.iter()) {
            *x += factor * y;
        }
    }

    /// Returns `true` if every entry is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

impl fmt::Display for Vector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, x) in self.data.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{x:.6}")?;
        }
        write!(f, "]")
    }
}

impl Index<usize> for Vector {
    type Output = f64;
    fn index(&self, index: usize) -> &f64 {
        &self.data[index]
    }
}

impl IndexMut<usize> for Vector {
    fn index_mut(&mut self, index: usize) -> &mut f64 {
        &mut self.data[index]
    }
}

impl From<Vec<f64>> for Vector {
    fn from(values: Vec<f64>) -> Self {
        Vector::from_vec(values)
    }
}

impl From<&[f64]> for Vector {
    fn from(values: &[f64]) -> Self {
        Vector::from_slice(values)
    }
}

impl FromIterator<f64> for Vector {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Vector {
            data: iter.into_iter().collect(),
        }
    }
}

impl IntoIterator for Vector {
    type Item = f64;
    type IntoIter = std::vec::IntoIter<f64>;
    fn into_iter(self) -> Self::IntoIter {
        self.data.into_iter()
    }
}

impl<'a> IntoIterator for &'a Vector {
    type Item = &'a f64;
    type IntoIter = std::slice::Iter<'a, f64>;
    fn into_iter(self) -> Self::IntoIter {
        self.data.iter()
    }
}

impl Add for &Vector {
    type Output = Vector;
    fn add(self, rhs: &Vector) -> Vector {
        assert_eq!(self.len(), rhs.len(), "vector addition length mismatch");
        Vector::from_fn(self.len(), |i| self[i] + rhs[i])
    }
}

impl Add for Vector {
    type Output = Vector;
    fn add(self, rhs: Vector) -> Vector {
        &self + &rhs
    }
}

impl AddAssign<&Vector> for Vector {
    fn add_assign(&mut self, rhs: &Vector) {
        self.axpy(1.0, rhs);
    }
}

impl Sub for &Vector {
    type Output = Vector;
    fn sub(self, rhs: &Vector) -> Vector {
        assert_eq!(self.len(), rhs.len(), "vector subtraction length mismatch");
        Vector::from_fn(self.len(), |i| self[i] - rhs[i])
    }
}

impl Sub for Vector {
    type Output = Vector;
    fn sub(self, rhs: Vector) -> Vector {
        &self - &rhs
    }
}

impl SubAssign<&Vector> for Vector {
    fn sub_assign(&mut self, rhs: &Vector) {
        self.axpy(-1.0, rhs);
    }
}

impl Mul<f64> for &Vector {
    type Output = Vector;
    fn mul(self, rhs: f64) -> Vector {
        self.scaled(rhs)
    }
}

impl Mul<f64> for Vector {
    type Output = Vector;
    fn mul(self, rhs: f64) -> Vector {
        self.scaled(rhs)
    }
}

impl Neg for &Vector {
    type Output = Vector;
    fn neg(self) -> Vector {
        self.scaled(-1.0)
    }
}

impl Neg for Vector {
    type Output = Vector;
    fn neg(self) -> Vector {
        self.scaled(-1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn constructors_produce_expected_contents() {
        assert_eq!(Vector::zeros(2).as_slice(), &[0.0, 0.0]);
        assert_eq!(Vector::filled(2, 3.5).as_slice(), &[3.5, 3.5]);
        assert_eq!(Vector::from_slice(&[1.0]).as_slice(), &[1.0]);
        assert_eq!(Vector::from_vec(vec![2.0]).as_slice(), &[2.0]);
        assert_eq!(
            Vector::from_fn(3, |i| i as f64).as_slice(),
            &[0.0, 1.0, 2.0]
        );
    }

    #[test]
    fn dot_norm_and_scaling() {
        let a = Vector::from_slice(&[3.0, 4.0]);
        assert_eq!(a.dot(&a), 25.0);
        assert_eq!(a.norm(), 5.0);
        assert_eq!(a.scaled(2.0).as_slice(), &[6.0, 8.0]);
    }

    #[test]
    fn arithmetic_operators() {
        let a = Vector::from_slice(&[1.0, 2.0]);
        let b = Vector::from_slice(&[3.0, 5.0]);
        assert_eq!((&a + &b).as_slice(), &[4.0, 7.0]);
        assert_eq!((&b - &a).as_slice(), &[2.0, 3.0]);
        assert_eq!((&a * 3.0).as_slice(), &[3.0, 6.0]);
        assert_eq!((-&a).as_slice(), &[-1.0, -2.0]);
        let mut c = a.clone();
        c += &b;
        assert_eq!(c.as_slice(), &[4.0, 7.0]);
        c -= &b;
        assert_eq!(c.as_slice(), &[1.0, 2.0]);
    }

    #[test]
    fn axpy_and_component_mul() {
        let mut a = Vector::from_slice(&[1.0, 1.0]);
        let b = Vector::from_slice(&[2.0, 3.0]);
        a.axpy(2.0, &b);
        assert_eq!(a.as_slice(), &[5.0, 7.0]);
    }

    #[test]
    fn indexing_and_iteration() {
        let mut v = Vector::from_slice(&[1.0, 2.0]);
        v[0] = 9.0;
        assert_eq!(v[0], 9.0);
        let collected: Vector = v.iter().map(|x| x * 2.0).collect();
        assert_eq!(collected.as_slice(), &[18.0, 4.0]);
        let sum: f64 = (&v).into_iter().sum();
        assert_eq!(sum, 11.0);
    }

    #[test]
    fn display_is_not_empty() {
        let v = Vector::from_slice(&[1.0, 2.0]);
        let s = format!("{v}");
        assert!(s.starts_with('[') && s.ends_with(']'));
        assert!(s.contains("1.0"));
    }

    #[test]
    fn finite_detection() {
        assert!(Vector::from_slice(&[1.0, 2.0]).is_finite());
        assert!(!Vector::from_slice(&[1.0, f64::NAN]).is_finite());
        assert!(!Vector::from_slice(&[f64::INFINITY]).is_finite());
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn dot_length_mismatch_panics() {
        let _ = Vector::zeros(2).dot(&Vector::zeros(3));
    }

    proptest! {
        #[test]
        fn prop_dot_is_commutative(a in proptest::collection::vec(-1e3f64..1e3, 1..20)) {
            let n = a.len();
            let b: Vec<f64> = a.iter().map(|x| x * 0.5 + 1.0).collect();
            let va = Vector::from_slice(&a);
            let vb = Vector::from_slice(&b[..n]);
            prop_assert!((va.dot(&vb) - vb.dot(&va)).abs() < 1e-9);
        }

        #[test]
        fn prop_triangle_inequality(a in proptest::collection::vec(-1e3f64..1e3, 1..20),
                                    scale in -2.0f64..2.0) {
            let b: Vec<f64> = a.iter().map(|x| x * scale).collect();
            let va = Vector::from_slice(&a);
            let vb = Vector::from_slice(&b);
            prop_assert!((&va + &vb).norm() <= va.norm() + vb.norm() + 1e-9);
        }

        #[test]
        fn prop_scaling_scales_norm(a in proptest::collection::vec(-1e3f64..1e3, 1..20),
                                    s in -10.0f64..10.0) {
            let v = Vector::from_slice(&a);
            prop_assert!((v.scaled(s).norm() - s.abs() * v.norm()).abs() < 1e-6);
        }
    }
}
