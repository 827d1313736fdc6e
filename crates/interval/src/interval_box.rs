//! Axis-aligned interval boxes used by the branch-and-prune search.

use std::fmt;
use std::ops::{Index, IndexMut};

use crate::Interval;

/// An axis-aligned box: a vector of [`Interval`]s, one per dimension.
///
/// Boxes are the unit of work in the δ-SAT branch-and-prune loop: the solver
/// repeatedly contracts a box with the problem constraints, measures its
/// width, and bisects it along the widest dimension until either every
/// constraint is δ-satisfied or the box is proven empty.
///
/// # Examples
///
/// ```
/// use nncps_interval::{Interval, IntervalBox};
///
/// let b = IntervalBox::new(vec![Interval::new(0.0, 1.0), Interval::new(-1.0, 1.0)]);
/// assert_eq!(b.dim(), 2);
/// assert_eq!(b.max_width(), 2.0);
/// let (left, right) = b.bisect_widest();
/// assert!(left.max_width() <= 1.0 + 1e-12);
/// assert!(right.max_width() <= 1.0 + 1e-12);
/// ```
#[derive(Debug, PartialEq, Default)]
pub struct IntervalBox {
    dims: Vec<Interval>,
}

impl Clone for IntervalBox {
    fn clone(&self) -> Self {
        IntervalBox {
            dims: self.dims.clone(),
        }
    }

    /// Clones into existing storage, reusing the destination's capacity —
    /// this is what keeps the branch-and-prune box pool allocation-free.
    fn clone_from(&mut self, source: &Self) {
        self.dims.clone_from(&source.dims);
    }
}

impl IntervalBox {
    /// Creates a box from per-dimension intervals.
    pub fn new(dims: Vec<Interval>) -> Self {
        IntervalBox { dims }
    }

    /// Creates a box from `(lo, hi)` bound pairs.
    pub fn from_bounds(bounds: &[(f64, f64)]) -> Self {
        IntervalBox {
            dims: bounds
                .iter()
                .map(|&(lo, hi)| Interval::new(lo, hi))
                .collect(),
        }
    }

    /// Creates the degenerate box containing exactly the given point.
    pub fn from_point(point: &[f64]) -> Self {
        IntervalBox {
            dims: point.iter().map(|&x| Interval::singleton(x)).collect(),
        }
    }

    /// Number of dimensions.
    pub fn dim(&self) -> usize {
        self.dims.len()
    }

    /// Returns `true` if any dimension is the empty interval.
    pub fn is_empty(&self) -> bool {
        self.dims.iter().any(Interval::is_empty)
    }

    /// The per-dimension intervals as a slice.
    pub fn intervals(&self) -> &[Interval] {
        &self.dims
    }

    /// Iterator over the per-dimension intervals.
    pub fn iter(&self) -> std::slice::Iter<'_, Interval> {
        self.dims.iter()
    }

    /// Largest dimension width (the measure driven to `δ` by the solver).
    pub fn max_width(&self) -> f64 {
        self.dims.iter().map(Interval::width).fold(0.0, f64::max)
    }

    /// Index of the widest dimension (ties go to the lowest index), or `None`
    /// for a zero-dimensional box.
    pub fn widest_dimension(&self) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for (i, iv) in self.dims.iter().enumerate() {
            let w = iv.width();
            match best {
                Some((_, bw)) if bw >= w => {}
                _ => best = Some((i, w)),
            }
        }
        best.map(|(i, _)| i)
    }

    /// Center point of the box.
    pub fn midpoint(&self) -> Vec<f64> {
        self.dims.iter().map(Interval::midpoint).collect()
    }

    /// Returns `true` if the point lies inside the box.
    ///
    /// # Panics
    ///
    /// Panics if `point.len() != self.dim()`.
    pub fn contains_point(&self, point: &[f64]) -> bool {
        assert_eq!(point.len(), self.dim(), "point dimension mismatch");
        self.dims
            .iter()
            .zip(point.iter())
            .all(|(iv, &x)| iv.contains(x))
    }

    /// Returns `true` if `other` is contained in `self` dimension-wise.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn contains_box(&self, other: &IntervalBox) -> bool {
        assert_eq!(self.dim(), other.dim(), "box dimension mismatch");
        self.dims
            .iter()
            .zip(other.dims.iter())
            .all(|(a, b)| a.contains_interval(b))
    }

    /// Dimension-wise intersection.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn intersect(&self, other: &IntervalBox) -> IntervalBox {
        assert_eq!(self.dim(), other.dim(), "box dimension mismatch");
        IntervalBox {
            dims: self
                .dims
                .iter()
                .zip(other.dims.iter())
                .map(|(a, b)| a.intersect(b))
                .collect(),
        }
    }

    /// Dimension-wise hull.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn hull(&self, other: &IntervalBox) -> IntervalBox {
        assert_eq!(self.dim(), other.dim(), "box dimension mismatch");
        IntervalBox {
            dims: self
                .dims
                .iter()
                .zip(other.dims.iter())
                .map(|(a, b)| a.hull(b))
                .collect(),
        }
    }

    /// Splits the box into two halves along dimension `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is out of range.
    pub fn bisect_dimension(&self, dim: usize) -> (IntervalBox, IntervalBox) {
        assert!(dim < self.dim(), "bisect dimension out of range");
        let (lo_half, hi_half) = self.dims[dim].bisect();
        let mut left = self.clone();
        let mut right = self.clone();
        left.dims[dim] = lo_half;
        right.dims[dim] = hi_half;
        (left, right)
    }

    /// Splits the box along its widest dimension.
    ///
    /// # Panics
    ///
    /// Panics if the box is zero-dimensional.
    pub fn bisect_widest(&self) -> (IntervalBox, IntervalBox) {
        let dim = self
            .widest_dimension()
            .expect("cannot bisect a zero-dimensional box");
        self.bisect_dimension(dim)
    }

    /// Splits the box along its widest dimension **in place**: `self` becomes
    /// the lower half and `right` is overwritten with the upper half, reusing
    /// `right`'s existing storage.
    ///
    /// The halves are identical to those of [`IntervalBox::bisect_widest`],
    /// but no allocation occurs when `right` already has capacity for
    /// [`IntervalBox::dim`] intervals — the δ-SAT branch-and-prune loop
    /// recycles pruned boxes through this method to keep its steady state
    /// allocation-free.
    ///
    /// # Examples
    ///
    /// ```
    /// use nncps_interval::IntervalBox;
    ///
    /// let mut left = IntervalBox::from_bounds(&[(0.0, 1.0), (0.0, 4.0)]);
    /// let (want_left, want_right) = left.bisect_widest();
    /// let mut right = IntervalBox::default();
    /// left.split_widest_into(&mut right);
    /// assert_eq!(left, want_left);
    /// assert_eq!(right, want_right);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if the box is zero-dimensional.
    pub fn split_widest_into(&mut self, right: &mut IntervalBox) {
        let dim = self
            .widest_dimension()
            .expect("cannot bisect a zero-dimensional box");
        right.dims.clone_from(&self.dims);
        let (lo_half, hi_half) = self.dims[dim].bisect();
        self.dims[dim] = lo_half;
        right.dims[dim] = hi_half;
    }

    /// Returns the corner points (vertices) of the box.
    ///
    /// The number of corners is `2^dim`; this is intended for low-dimensional
    /// boxes such as the 2-D initial set of the case study.
    ///
    /// # Panics
    ///
    /// Panics if the dimension exceeds 20 (to avoid accidental exponential blowups).
    pub fn corners(&self) -> Vec<Vec<f64>> {
        let n = self.dim();
        assert!(n <= 20, "corner enumeration limited to 20 dimensions");
        let mut out = Vec::with_capacity(1 << n);
        for mask in 0..(1usize << n) {
            let corner: Vec<f64> = (0..n)
                .map(|i| {
                    if mask & (1 << i) != 0 {
                        self.dims[i].hi()
                    } else {
                        self.dims[i].lo()
                    }
                })
                .collect();
            out.push(corner);
        }
        out
    }

    /// Uniformly samples a point in the box using the provided unit samples.
    ///
    /// `unit` must contain one value in `[0, 1]` per dimension; this keeps the
    /// crate free of a direct RNG dependency while letting callers plug in any
    /// random source.
    ///
    /// # Panics
    ///
    /// Panics if `unit.len() != self.dim()`.
    pub fn lerp_point(&self, unit: &[f64]) -> Vec<f64> {
        assert_eq!(unit.len(), self.dim(), "unit sample dimension mismatch");
        self.dims
            .iter()
            .zip(unit.iter())
            .map(|(iv, &t)| iv.lo() + t.clamp(0.0, 1.0) * iv.width())
            .collect()
    }
}

impl fmt::Display for IntervalBox {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, iv) in self.dims.iter().enumerate() {
            if i > 0 {
                write!(f, " × ")?;
            }
            write!(f, "{iv}")?;
        }
        write!(f, "}}")
    }
}

impl Index<usize> for IntervalBox {
    type Output = Interval;
    fn index(&self, index: usize) -> &Interval {
        &self.dims[index]
    }
}

impl IndexMut<usize> for IntervalBox {
    fn index_mut(&mut self, index: usize) -> &mut Interval {
        &mut self.dims[index]
    }
}

impl FromIterator<Interval> for IntervalBox {
    fn from_iter<I: IntoIterator<Item = Interval>>(iter: I) -> Self {
        IntervalBox {
            dims: iter.into_iter().collect(),
        }
    }
}

impl IntoIterator for IntervalBox {
    type Item = Interval;
    type IntoIter = std::vec::IntoIter<Interval>;
    fn into_iter(self) -> Self::IntoIter {
        self.dims.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Product of the widths; `0` for an empty box.
    fn volume(b: &IntervalBox) -> f64 {
        if b.is_empty() {
            return 0.0;
        }
        b.iter().map(Interval::width).product()
    }

    fn unit_box() -> IntervalBox {
        IntervalBox::from_bounds(&[(0.0, 1.0), (0.0, 2.0), (-1.0, 1.0)])
    }

    #[test]
    fn construction_and_measures() {
        let b = unit_box();
        assert_eq!(b.dim(), 3);
        assert!(!b.is_empty());
        assert_eq!(b.max_width(), 2.0);
        assert_eq!(volume(&b), 4.0);
        assert_eq!(b.widest_dimension(), Some(1));
        assert_eq!(b.midpoint(), vec![0.5, 1.0, 0.0]);
        let p = IntervalBox::from_point(&[1.0, 2.0]);
        assert_eq!(p.max_width(), 0.0);
        assert!(p.contains_point(&[1.0, 2.0]));
    }

    #[test]
    fn emptiness_detection() {
        let mut b = unit_box();
        b[1] = Interval::EMPTY;
        assert!(b.is_empty());
        assert_eq!(volume(&b), 0.0);
        assert_eq!(IntervalBox::default().dim(), 0);
    }

    #[test]
    fn containment_and_intersection() {
        let outer = IntervalBox::from_bounds(&[(0.0, 10.0), (0.0, 10.0)]);
        let inner = IntervalBox::from_bounds(&[(1.0, 2.0), (3.0, 4.0)]);
        assert!(outer.contains_box(&inner));
        assert!(!inner.contains_box(&outer));
        assert!(outer.contains_point(&[5.0, 5.0]));
        assert!(!outer.contains_point(&[11.0, 5.0]));
        let inter = outer.intersect(&inner);
        assert_eq!(inter, inner);
        let hull = inner.hull(&IntervalBox::from_bounds(&[(5.0, 6.0), (0.0, 1.0)]));
        assert!(hull.contains_box(&inner));
    }

    #[test]
    fn bisection() {
        let b = IntervalBox::from_bounds(&[(0.0, 1.0), (0.0, 4.0)]);
        let (l, r) = b.bisect_widest();
        assert_eq!(l[1], Interval::new(0.0, 2.0));
        assert_eq!(r[1], Interval::new(2.0, 4.0));
        assert_eq!(l[0], b[0]);
        let (l0, r0) = b.bisect_dimension(0);
        assert_eq!(l0[0], Interval::new(0.0, 0.5));
        assert_eq!(r0[0], Interval::new(0.5, 1.0));
    }

    #[test]
    fn in_place_split_matches_bisect_widest() {
        let b = IntervalBox::from_bounds(&[(0.0, 1.0), (0.0, 4.0), (-2.0, -1.0)]);
        let (want_l, want_r) = b.bisect_widest();
        let mut left = b.clone();
        // A stale box of the wrong dimension must be fully overwritten.
        let mut right = IntervalBox::from_bounds(&[(9.0, 10.0)]);
        left.split_widest_into(&mut right);
        assert_eq!(left, want_l);
        assert_eq!(right, want_r);
        // clone_from reuses storage and copies values exactly.
        let mut reused = IntervalBox::from_bounds(&[(0.0, 0.0), (0.0, 0.0), (0.0, 0.0)]);
        reused.clone_from(&b);
        assert_eq!(reused, b);
    }

    #[test]
    fn corners_enumeration() {
        let b = IntervalBox::from_bounds(&[(0.0, 1.0), (2.0, 3.0)]);
        let corners = b.corners();
        assert_eq!(corners.len(), 4);
        assert!(corners.contains(&vec![0.0, 2.0]));
        assert!(corners.contains(&vec![1.0, 3.0]));
        assert!(corners.contains(&vec![0.0, 3.0]));
        assert!(corners.contains(&vec![1.0, 2.0]));
    }

    #[test]
    fn lerp_point_stays_inside() {
        let b = IntervalBox::from_bounds(&[(0.0, 1.0), (-2.0, 2.0)]);
        assert_eq!(b.lerp_point(&[0.0, 0.0]), vec![0.0, -2.0]);
        assert_eq!(b.lerp_point(&[1.0, 1.0]), vec![1.0, 2.0]);
        assert!(b.contains_point(&b.lerp_point(&[0.3, 0.7])));
        // Out-of-range samples are clamped.
        assert!(b.contains_point(&b.lerp_point(&[-1.0, 2.0])));
    }

    #[test]
    fn display_indexing_iteration() {
        let mut b = IntervalBox::from_bounds(&[(0.0, 1.0)]);
        b[0] = Interval::new(2.0, 3.0);
        assert_eq!(b[0].lo(), 2.0);
        let s = format!("{b}");
        assert!(s.contains("[2, 3]"));
        let collected: IntervalBox = b.iter().copied().collect();
        assert_eq!(collected, b);
        let items: Vec<Interval> = b.clone().into_iter().collect();
        assert_eq!(items.len(), 1);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mismatched_intersection_panics() {
        let a = IntervalBox::from_bounds(&[(0.0, 1.0)]);
        let b = IntervalBox::from_bounds(&[(0.0, 1.0), (0.0, 1.0)]);
        let _ = a.intersect(&b);
    }

    proptest! {
        #[test]
        fn prop_bisection_preserves_points(
            bounds in proptest::collection::vec((-10.0f64..0.0, 0.0f64..10.0), 1..5),
            t in proptest::collection::vec(0.0f64..1.0, 5),
        ) {
            let b = IntervalBox::from_bounds(&bounds);
            let point = b.lerp_point(&t[..b.dim()]);
            let (l, r) = b.bisect_widest();
            prop_assert!(l.contains_point(&point) || r.contains_point(&point));
        }

        #[test]
        fn prop_intersection_contained_in_both(
            bounds in proptest::collection::vec((-10.0f64..0.0, 0.0f64..10.0), 1..5),
        ) {
            let a = IntervalBox::from_bounds(&bounds);
            let shifted: Vec<(f64, f64)> = bounds.iter().map(|&(lo, hi)| (lo + 1.0, hi + 1.0)).collect();
            let b = IntervalBox::from_bounds(&shifted);
            let inter = a.intersect(&b);
            if !inter.is_empty() {
                prop_assert!(a.contains_box(&inter));
                prop_assert!(b.contains_box(&inter));
            }
        }

        #[test]
        fn prop_volume_halves_under_bisection(
            bounds in proptest::collection::vec((-10.0f64..-0.5, 0.5f64..10.0), 1..5),
        ) {
            let b = IntervalBox::from_bounds(&bounds);
            let (l, r) = b.bisect_widest();
            prop_assert!((volume(&l) + volume(&r) - volume(&b)).abs() < 1e-6 * volume(&b).max(1.0));
        }
    }
}
