//! The scalar [`Interval`] type and its arithmetic.

use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// A closed interval `[lo, hi]` of real numbers, represented with `f64` bounds.
///
/// All operations are *outward rounded*: the result interval is guaranteed to
/// enclose every real value that could be obtained by applying the operation
/// to real numbers drawn from the operands.  The empty interval is represented
/// explicitly and is propagated by all operations.
///
/// # Examples
///
/// ```
/// use nncps_interval::Interval;
///
/// let x = Interval::new(1.0, 2.0);
/// assert!(x.contains(1.5));
/// assert!((x * x).contains(2.25));
/// assert!(x.sin().contains(1.5_f64.sin()));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    lo: f64,
    hi: f64,
}

/// Rounds a computed *lower* endpoint outward: one ulp down for finite
/// values, and — crucially — back to `f64::MAX` when the underlying
/// computation overflowed to `+∞`.  The true value of an overflowed lower
/// endpoint is a finite real above `MAX`, so `MAX` is the tightest sound
/// bound; leaving `+∞` would claim the result exceeds every real, turning
/// sound enclosures (for example `exp` of a large but finite range) into
/// `[+∞, +∞]` and making the HC4 backward pass empty out satisfiable boxes.
#[inline]
fn down(x: f64) -> f64 {
    if x == f64::INFINITY {
        f64::MAX
    } else if x.is_finite() {
        x.next_down()
    } else {
        x
    }
}

/// Rounds a computed *upper* endpoint outward: one ulp up for finite
/// values, and back to `f64::MIN` when the computation overflowed to `−∞`
/// (mirror image of [`down`]).
#[inline]
fn up(x: f64) -> f64 {
    if x == f64::NEG_INFINITY {
        f64::MIN
    } else if x.is_finite() {
        x.next_up()
    } else {
        x
    }
}

impl Interval {
    /// The empty interval.
    pub const EMPTY: Interval = Interval {
        lo: f64::INFINITY,
        hi: f64::NEG_INFINITY,
    };

    /// The whole real line `(-∞, +∞)`.
    pub const ENTIRE: Interval = Interval {
        lo: f64::NEG_INFINITY,
        hi: f64::INFINITY,
    };

    /// Creates the interval `[lo, hi]`.
    ///
    /// If `lo > hi` or either bound is NaN the empty interval is returned.
    pub fn new(lo: f64, hi: f64) -> Self {
        if lo.is_nan() || hi.is_nan() || lo > hi {
            Interval::EMPTY
        } else {
            Interval { lo, hi }
        }
    }

    /// Creates the degenerate interval `[x, x]`.
    pub fn singleton(x: f64) -> Self {
        Interval::new(x, x)
    }

    /// Lower bound. For the empty interval this is `+∞`.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper bound. For the empty interval this is `-∞`.
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Returns `true` if the interval contains no points.
    pub fn is_empty(&self) -> bool {
        self.lo > self.hi
    }

    /// Returns `true` if the interval is a single point.
    pub fn is_singleton(&self) -> bool {
        self.lo == self.hi
    }

    /// Width `hi - lo` of the interval; `0` for the empty interval.
    pub fn width(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.hi - self.lo
        }
    }

    /// Midpoint of the interval.
    ///
    /// For unbounded intervals a finite representative is returned (`0` for
    /// the entire line, a large finite value for half-lines) so that the
    /// branch-and-prune search can always pick a splitting point.
    pub fn midpoint(&self) -> f64 {
        if self.is_empty() {
            return f64::NAN;
        }
        match (self.lo.is_finite(), self.hi.is_finite()) {
            (true, true) => 0.5 * (self.lo + self.hi),
            (true, false) => self.lo + 1e8,
            (false, true) => self.hi - 1e8,
            (false, false) => 0.0,
        }
    }

    /// Magnitude: the largest absolute value contained in the interval.
    pub fn magnitude(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.lo.abs().max(self.hi.abs())
        }
    }

    /// Returns `true` if `x` lies within the interval.
    pub fn contains(&self, x: f64) -> bool {
        !self.is_empty() && self.lo <= x && x <= self.hi
    }

    /// Returns `true` if `other` is entirely contained in `self`.
    pub fn contains_interval(&self, other: &Interval) -> bool {
        other.is_empty() || (!self.is_empty() && self.lo <= other.lo && other.hi <= self.hi)
    }

    /// Intersection of two intervals.
    pub fn intersect(&self, other: &Interval) -> Interval {
        if self.is_empty() || other.is_empty() {
            return Interval::EMPTY;
        }
        Interval::new(self.lo.max(other.lo), self.hi.min(other.hi))
    }

    /// Interval hull (smallest interval containing both operands).
    pub fn hull(&self, other: &Interval) -> Interval {
        if self.is_empty() {
            return *other;
        }
        if other.is_empty() {
            return *self;
        }
        Interval::new(self.lo.min(other.lo), self.hi.max(other.hi))
    }

    /// Widens the interval outward by `margin` on both sides.
    pub fn inflate(&self, margin: f64) -> Interval {
        if self.is_empty() {
            return Interval::EMPTY;
        }
        Interval::new(self.lo - margin, self.hi + margin)
    }

    /// Splits the interval at its midpoint into a lower and an upper half.
    pub fn bisect(&self) -> (Interval, Interval) {
        let mid = self.midpoint();
        (Interval::new(self.lo, mid), Interval::new(mid, self.hi))
    }

    // ---------------------------------------------------------------------
    // Elementary functions
    // ---------------------------------------------------------------------

    /// Absolute value.
    pub fn abs(&self) -> Interval {
        if self.is_empty() {
            return Interval::EMPTY;
        }
        if self.lo >= 0.0 {
            *self
        } else if self.hi <= 0.0 {
            -*self
        } else {
            Interval::new(0.0, self.magnitude())
        }
    }

    /// Elementwise minimum (envelope of `min(x, y)` for `x ∈ self`, `y ∈ other`).
    pub fn min(&self, other: &Interval) -> Interval {
        if self.is_empty() || other.is_empty() {
            return Interval::EMPTY;
        }
        Interval::new(self.lo.min(other.lo), self.hi.min(other.hi))
    }

    /// Elementwise maximum.
    pub fn max(&self, other: &Interval) -> Interval {
        if self.is_empty() || other.is_empty() {
            return Interval::EMPTY;
        }
        Interval::new(self.lo.max(other.lo), self.hi.max(other.hi))
    }

    /// Square of the interval (tighter than `self * self` around zero).
    pub fn square(&self) -> Interval {
        if self.is_empty() {
            return Interval::EMPTY;
        }
        let a = self.lo * self.lo;
        let b = self.hi * self.hi;
        if self.contains(0.0) {
            Interval::new(0.0, up(a.max(b)))
        } else {
            Interval::new(down(a.min(b)), up(a.max(b)))
        }
    }

    /// Integer power `self^n`.
    pub fn powi(&self, n: i32) -> Interval {
        if self.is_empty() {
            return Interval::EMPTY;
        }
        if n == 0 {
            return Interval::singleton(1.0);
        }
        if n < 0 {
            return Interval::singleton(1.0) / self.powi(-n);
        }
        if n % 2 == 0 {
            // Even power: behaves like square of |x|^(n/2).
            let lo_p = self.lo.powi(n);
            let hi_p = self.hi.powi(n);
            if self.contains(0.0) {
                Interval::new(0.0, up(lo_p.max(hi_p)))
            } else {
                Interval::new(down(lo_p.min(hi_p)), up(lo_p.max(hi_p)))
            }
        } else {
            // Odd power: monotone.
            Interval::new(down(self.lo.powi(n)), up(self.hi.powi(n)))
        }
    }

    /// Square root. The negative part of the interval is clipped away; the
    /// result is empty if the whole interval is negative.
    pub fn sqrt(&self) -> Interval {
        if self.is_empty() || self.hi < 0.0 {
            return Interval::EMPTY;
        }
        let lo = self.lo.max(0.0);
        Interval::new(down(lo.sqrt()).max(0.0), up(self.hi.sqrt()))
    }

    /// Exponential function.
    pub fn exp(&self) -> Interval {
        if self.is_empty() {
            return Interval::EMPTY;
        }
        Interval::new(down(self.lo.exp()).max(0.0), up(self.hi.exp()))
    }

    /// Natural logarithm. The non-positive part of the interval is clipped;
    /// the result is empty if `hi <= 0`.
    pub fn ln(&self) -> Interval {
        if self.is_empty() || self.hi <= 0.0 {
            return Interval::EMPTY;
        }
        let lo = if self.lo <= 0.0 {
            f64::NEG_INFINITY
        } else {
            down(self.lo.ln())
        };
        Interval::new(lo, up(self.hi.ln()))
    }

    /// Hyperbolic tangent (monotone, so the enclosure is tight).
    pub fn tanh(&self) -> Interval {
        if self.is_empty() {
            return Interval::EMPTY;
        }
        Interval::new(down(self.lo.tanh()).max(-1.0), up(self.hi.tanh()).min(1.0))
    }

    /// Logistic sigmoid `1 / (1 + e^{-x})` (monotone).
    pub fn sigmoid(&self) -> Interval {
        if self.is_empty() {
            return Interval::EMPTY;
        }
        let s = |x: f64| 1.0 / (1.0 + (-x).exp());
        Interval::new(down(s(self.lo)).max(0.0), up(s(self.hi)).min(1.0))
    }

    /// Sine. Handles the periodic extrema correctly.
    pub fn sin(&self) -> Interval {
        if self.is_empty() {
            return Interval::EMPTY;
        }
        if self.width() >= 2.0 * std::f64::consts::PI {
            return Interval::new(-1.0, 1.0);
        }
        let two_pi = 2.0 * std::f64::consts::PI;
        let half_pi = 0.5 * std::f64::consts::PI;
        // sin attains max 1 at pi/2 + 2k*pi and min -1 at -pi/2 + 2k*pi.
        let mut lo = down(self.lo.sin().min(self.hi.sin()));
        let mut hi = up(self.lo.sin().max(self.hi.sin()));
        if contains_periodic_point(self.lo, self.hi, half_pi, two_pi) {
            hi = 1.0;
        }
        if contains_periodic_point(self.lo, self.hi, -half_pi, two_pi) {
            lo = -1.0;
        }
        Interval::new(lo.max(-1.0), hi.min(1.0))
    }

    /// Cosine.
    pub fn cos(&self) -> Interval {
        // cos(x) = sin(x + pi/2); shifting by a constant keeps soundness
        // because the shift itself is outward rounded through `+`.
        (*self + Interval::singleton(0.5 * std::f64::consts::PI)).sin()
    }

    /// Tangent. Returns [`Interval::ENTIRE`] whenever the interval may contain
    /// a pole of `tan`.
    pub fn tan(&self) -> Interval {
        if self.is_empty() {
            return Interval::EMPTY;
        }
        let pi = std::f64::consts::PI;
        let half_pi = 0.5 * pi;
        if self.width() >= pi || contains_periodic_point(self.lo, self.hi, half_pi, pi) {
            return Interval::ENTIRE;
        }
        Interval::new(down(self.lo.tan()), up(self.hi.tan()))
    }

    /// Arctangent (monotone).
    pub fn atan(&self) -> Interval {
        if self.is_empty() {
            return Interval::EMPTY;
        }
        Interval::new(down(self.lo.atan()), up(self.hi.atan()))
    }
}

/// Returns `true` if the arithmetic progression `offset + k * period` (k ∈ ℤ)
/// intersects `[lo, hi]`.
fn contains_periodic_point(lo: f64, hi: f64, offset: f64, period: f64) -> bool {
    if !(lo.is_finite() && hi.is_finite()) {
        return true;
    }
    let k = ((lo - offset) / period).ceil();
    let point = offset + k * period;
    point <= hi + 1e-15
}

impl Default for Interval {
    fn default() -> Self {
        Interval::singleton(0.0)
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            write!(f, "∅")
        } else {
            write!(f, "[{}, {}]", self.lo, self.hi)
        }
    }
}

impl From<f64> for Interval {
    fn from(x: f64) -> Self {
        Interval::singleton(x)
    }
}

impl Neg for Interval {
    type Output = Interval;
    fn neg(self) -> Interval {
        if self.is_empty() {
            Interval::EMPTY
        } else {
            Interval::new(-self.hi, -self.lo)
        }
    }
}

impl Add for Interval {
    type Output = Interval;
    fn add(self, rhs: Interval) -> Interval {
        if self.is_empty() || rhs.is_empty() {
            return Interval::EMPTY;
        }
        Interval::new(down(self.lo + rhs.lo), up(self.hi + rhs.hi))
    }
}

impl Sub for Interval {
    type Output = Interval;
    fn sub(self, rhs: Interval) -> Interval {
        self + (-rhs)
    }
}

/// The product of two endpoints in interval semantics: `0 · ∞` is `0`, not
/// the NaN IEEE multiplication produces.
#[inline]
fn endpoint_product(a: f64, b: f64) -> f64 {
    let p = a * b;
    if p.is_nan() {
        0.0
    } else {
        p
    }
}

impl Mul for Interval {
    type Output = Interval;
    fn mul(self, rhs: Interval) -> Interval {
        if self.is_empty() || rhs.is_empty() {
            return Interval::EMPTY;
        }
        let candidates = [
            endpoint_product(self.lo, rhs.lo),
            endpoint_product(self.lo, rhs.hi),
            endpoint_product(self.hi, rhs.lo),
            endpoint_product(self.hi, rhs.hi),
        ];
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for c in candidates {
            lo = lo.min(c);
            hi = hi.max(c);
        }
        Interval::new(down(lo), up(hi))
    }
}

impl Interval {
    /// The product `c · x` of a point and an interval, bit-identical to
    /// `Interval::singleton(c) * x` at half the endpoint products.
    ///
    /// A NaN `c` gives the empty interval, as `Interval::singleton(NaN)` is
    /// empty.  The two products are ordered by comparison instead of the
    /// generic `min`/`max` fold; the only pairs the fold could order
    /// differently are `±0.0`, and the outward rounding shared with `Mul`
    /// maps both signs of zero to the same endpoint.
    ///
    /// # Examples
    ///
    /// ```
    /// use nncps_interval::Interval;
    ///
    /// let x = Interval::new(-1.0, 2.0);
    /// assert_eq!(Interval::point_mul(-3.0, x), Interval::singleton(-3.0) * x);
    /// assert!(Interval::point_mul(f64::NAN, x).is_empty());
    /// ```
    #[inline]
    pub fn point_mul(c: f64, x: Interval) -> Interval {
        if x.is_empty() || c.is_nan() {
            return Interval::EMPTY;
        }
        let a = endpoint_product(c, x.lo);
        let b = endpoint_product(c, x.hi);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        Interval::new(down(lo), up(hi))
    }
}

impl Div for Interval {
    type Output = Interval;
    fn div(self, rhs: Interval) -> Interval {
        if self.is_empty() || rhs.is_empty() {
            return Interval::EMPTY;
        }
        if rhs.contains(0.0) {
            // Dividing by an interval containing zero: the enclosure is the
            // whole line unless the divisor is identically zero (then empty).
            if rhs.lo == 0.0 && rhs.hi == 0.0 {
                return Interval::EMPTY;
            }
            return Interval::ENTIRE;
        }
        let candidates = [
            self.lo / rhs.lo,
            self.lo / rhs.hi,
            self.hi / rhs.lo,
            self.hi / rhs.hi,
        ];
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for c in candidates {
            let c = if c.is_nan() { 0.0 } else { c };
            lo = lo.min(c);
            hi = hi.max(c);
        }
        Interval::new(down(lo), up(hi))
    }
}

impl Add<f64> for Interval {
    type Output = Interval;
    fn add(self, rhs: f64) -> Interval {
        self + Interval::singleton(rhs)
    }
}

impl Sub<f64> for Interval {
    type Output = Interval;
    fn sub(self, rhs: f64) -> Interval {
        self - Interval::singleton(rhs)
    }
}

impl Mul<f64> for Interval {
    type Output = Interval;
    fn mul(self, rhs: f64) -> Interval {
        self * Interval::singleton(rhs)
    }
}

impl Div<f64> for Interval {
    type Output = Interval;
    fn div(self, rhs: f64) -> Interval {
        self / Interval::singleton(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn construction_and_accessors() {
        let x = Interval::new(1.0, 2.0);
        assert_eq!(x.lo(), 1.0);
        assert_eq!(x.hi(), 2.0);
        assert!(!x.is_empty());
        assert!(!x.is_singleton());
        assert_eq!(x.width(), 1.0);
        assert_eq!(x.midpoint(), 1.5);
        assert!(Interval::new(2.0, 1.0).is_empty());
        assert!(Interval::new(f64::NAN, 1.0).is_empty());
        assert!(Interval::singleton(3.0).is_singleton());
        assert_eq!(Interval::from(2.5), Interval::singleton(2.5));
        assert_eq!(Interval::default(), Interval::singleton(0.0));
    }

    #[test]
    fn empty_and_entire_behave() {
        assert!(Interval::EMPTY.is_empty());
        assert_eq!(Interval::EMPTY.width(), 0.0);
        assert_eq!(Interval::ENTIRE.width(), f64::INFINITY);
        assert_eq!(Interval::ENTIRE.midpoint(), 0.0);
        assert!((Interval::EMPTY + Interval::new(0.0, 1.0)).is_empty());
        assert!((Interval::EMPTY * Interval::new(0.0, 1.0)).is_empty());
        assert!((-Interval::EMPTY).is_empty());
        assert!(Interval::EMPTY.abs().is_empty());
        assert!(Interval::EMPTY.sin().is_empty());
        assert!(Interval::EMPTY.exp().is_empty());
        assert!(Interval::EMPTY.sqrt().is_empty());
        assert!(Interval::EMPTY.tanh().is_empty());
    }

    #[test]
    fn containment_intersection_hull() {
        let a = Interval::new(0.0, 2.0);
        let b = Interval::new(1.0, 3.0);
        assert!(a.contains(0.0) && a.contains(2.0) && !a.contains(2.1));
        assert!(a.contains_interval(&Interval::new(0.5, 1.5)));
        assert!(a.contains_interval(&Interval::EMPTY));
        assert_eq!(a.intersect(&b), Interval::new(1.0, 2.0));
        assert!(a.intersect(&Interval::new(5.0, 6.0)).is_empty());
        assert_eq!(a.hull(&b), Interval::new(0.0, 3.0));
        assert_eq!(a.hull(&Interval::EMPTY), a);
        assert_eq!(Interval::EMPTY.hull(&b), b);
        assert_eq!(a.inflate(0.5), Interval::new(-0.5, 2.5));
    }

    #[test]
    fn bisect_splits_at_midpoint() {
        let (left, right) = Interval::new(0.0, 4.0).bisect();
        assert_eq!(left, Interval::new(0.0, 2.0));
        assert_eq!(right, Interval::new(2.0, 4.0));
    }

    #[test]
    fn arithmetic_encloses_known_results() {
        let x = Interval::new(1.0, 2.0);
        let y = Interval::new(-1.0, 3.0);
        let s = x + y;
        assert!(s.lo() <= 0.0 && s.hi() >= 5.0);
        let d = x - y;
        assert!(d.lo() <= -2.0 && d.hi() >= 3.0);
        let p = x * y;
        assert!(p.lo() <= -2.0 && p.hi() >= 6.0);
        let q = x / Interval::new(2.0, 4.0);
        assert!(q.lo() <= 0.25 && q.hi() >= 1.0);
        assert_eq!((x + 1.0).midpoint(), 2.5);
        assert!((x * 2.0).contains(3.0));
        assert!((x - 0.5).contains(0.5));
        assert!((x / 2.0).contains(0.75));
    }

    #[test]
    fn division_by_zero_containing_interval() {
        let x = Interval::new(1.0, 2.0);
        assert_eq!(x / Interval::new(-1.0, 1.0), Interval::ENTIRE);
        assert!((x / Interval::singleton(0.0)).is_empty());
    }

    #[test]
    fn multiplication_with_infinite_bounds() {
        let zero = Interval::singleton(0.0);
        let entire = Interval::ENTIRE;
        let p = zero * entire;
        assert!(p.contains(0.0));
        assert!(!p.is_empty());
    }

    #[test]
    fn abs_min_max_magnitude() {
        let x = Interval::new(-2.0, 1.0);
        assert_eq!(x.abs(), Interval::new(0.0, 2.0));
        assert_eq!(Interval::new(1.0, 2.0).abs(), Interval::new(1.0, 2.0));
        assert_eq!(Interval::new(-3.0, -1.0).abs(), Interval::new(1.0, 3.0));
        assert_eq!(x.magnitude(), 2.0);
        let a = Interval::new(0.0, 5.0);
        let b = Interval::new(2.0, 3.0);
        assert_eq!(a.min(&b), Interval::new(0.0, 3.0));
        assert_eq!(a.max(&b), Interval::new(2.0, 5.0));
    }

    #[test]
    fn powers_and_square() {
        let x = Interval::new(-2.0, 3.0);
        let sq = x.square();
        assert!(sq.lo() <= 0.0 && sq.hi() >= 9.0);
        assert!(sq.lo() >= -1e-9);
        let cube = x.powi(3);
        assert!(cube.lo() <= -8.0 && cube.hi() >= 27.0);
        assert_eq!(x.powi(0), Interval::singleton(1.0));
        let inv = Interval::new(2.0, 4.0).powi(-1);
        assert!(inv.contains(0.25) && inv.contains(0.5));
        let even = Interval::new(1.0, 2.0).powi(4);
        assert!(even.contains(1.0) && even.contains(16.0));
    }

    #[test]
    fn overflowed_bounds_round_back_to_finite_values() {
        // exp over a large but finite range overflows the f64 computation of
        // *both* endpoints; the enclosure must keep a finite lower bound
        // (the true values are finite reals above MAX), not collapse to the
        // absurd [+∞, +∞].
        let e = Interval::new(1000.0, 2000.0).exp();
        assert_eq!(e.lo(), f64::MAX);
        assert_eq!(e.hi(), f64::INFINITY);
        // Same overflow through multiplication and addition.
        let huge = Interval::new(1e300, 1e305);
        let p = huge * huge;
        assert_eq!(p.lo(), f64::MAX);
        let s = Interval::new(f64::MAX, f64::MAX) + Interval::new(f64::MAX, f64::MAX);
        assert_eq!(s.lo(), f64::MAX);
        // The mirror image for upper bounds.
        let n = Interval::new(-1e305, -1e300) * Interval::new(1e300, 1e305);
        assert_eq!(n.hi(), f64::MIN);
        assert_eq!(n.lo(), f64::NEG_INFINITY);
    }

    #[test]
    fn sqrt_exp_ln() {
        let x = Interval::new(4.0, 9.0);
        let r = x.sqrt();
        assert!(r.contains(2.0) && r.contains(3.0));
        assert!(Interval::new(-3.0, -1.0).sqrt().is_empty());
        let clipped = Interval::new(-1.0, 4.0).sqrt();
        assert!(clipped.contains(0.0) && clipped.contains(2.0));

        let e = Interval::new(0.0, 1.0).exp();
        assert!(e.contains(1.0) && e.contains(std::f64::consts::E));
        assert!(e.lo() >= 0.0);

        let l = Interval::new(1.0, std::f64::consts::E).ln();
        assert!(l.contains(0.0) && l.contains(1.0));
        assert!(Interval::new(-2.0, -1.0).ln().is_empty());
        assert_eq!(Interval::new(0.0, 1.0).ln().lo(), f64::NEG_INFINITY);
    }

    #[test]
    fn tanh_sigmoid_atan_are_tight_monotone_enclosures() {
        let x = Interval::new(-1.0, 2.0);
        let t = x.tanh();
        assert!(t.contains((-1.0f64).tanh()) && t.contains(2.0f64.tanh()));
        assert!(t.lo() >= -1.0 && t.hi() <= 1.0);
        let s = x.sigmoid();
        assert!(s.contains(1.0 / (1.0 + 1.0f64.exp())));
        assert!(s.lo() >= 0.0 && s.hi() <= 1.0);
        let a = x.atan();
        assert!(a.contains(0.0) && a.contains(1.0f64.atan()));
    }

    #[test]
    fn sin_cos_handle_extrema() {
        let x = Interval::new(0.0, std::f64::consts::PI);
        let s = x.sin();
        assert!(s.hi() >= 1.0 - 1e-12);
        assert!(s.lo() <= 1e-12);
        let c = x.cos();
        assert!(c.lo() <= -1.0 + 1e-9);
        assert!(c.hi() >= 1.0 - 1e-9);
        // Narrow interval away from extrema is tight.
        let narrow = Interval::new(0.1, 0.2).sin();
        assert!(narrow.width() < 0.11);
        // Width exceeding a full period spans [-1, 1].
        let wide = Interval::new(0.0, 10.0).sin();
        assert_eq!(wide, Interval::new(-1.0, 1.0));
        // Negative extremum inside.
        let neg = Interval::new(-2.0, -1.0).sin();
        assert!(neg.lo() <= -1.0 + 1e-12);
    }

    #[test]
    fn tan_detects_poles() {
        let safe = Interval::new(-0.5, 0.5).tan();
        assert!(safe.lo().is_finite() && safe.hi().is_finite());
        assert!(safe.contains(0.0));
        let pole = Interval::new(1.0, 2.0).tan(); // contains pi/2
        assert_eq!(pole, Interval::ENTIRE);
        let wide = Interval::new(0.0, 4.0).tan();
        assert_eq!(wide, Interval::ENTIRE);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Interval::new(1.0, 2.0)), "[1, 2]");
        assert_eq!(format!("{}", Interval::EMPTY), "∅");
    }

    /// The special operands of the point×interval kernel.
    const SPECIALS: [f64; 14] = [
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        f64::MAX,
        f64::MIN,
        f64::MIN_POSITIVE,
        -f64::MIN_POSITIVE,
        5e-324,
        -5e-324,
        2.2e-308,
        1.0,
        -1.0,
    ];

    /// An operand for the `point_mul` property: a special value one time in
    /// four, otherwise `unit` scaled to a magnitude between `1e-320` and
    /// `1e300`, so products underflow to subnormals and zero or overflow.
    fn point_mul_operand(code: usize, unit: f64) -> f64 {
        if code.is_multiple_of(4) {
            SPECIALS[(code / 4) % SPECIALS.len()]
        } else {
            unit * 10f64.powi((code % 62) as i32 * 10 - 320)
        }
    }

    #[test]
    fn point_mul_matches_the_generic_product_on_every_special_pair() {
        let mut operands = vec![Interval::EMPTY];
        for a in SPECIALS {
            for b in SPECIALS {
                operands.push(Interval::new(a, b));
            }
        }
        for c in SPECIALS.into_iter().chain([3.5, -0.25, 1e-300, -1e300]) {
            for &x in &operands {
                let (fused, generic) = (Interval::point_mul(c, x), Interval::singleton(c) * x);
                assert_eq!(fused.lo().to_bits(), generic.lo().to_bits(), "{c} * {x}");
                assert_eq!(fused.hi().to_bits(), generic.hi().to_bits(), "{c} * {x}");
            }
        }
        // 0 · ∞ is 0 in interval semantics, outward rounded.
        let zero_times_entire = Interval::point_mul(0.0, Interval::ENTIRE);
        assert_eq!(zero_times_entire, Interval::new(-5e-324, 5e-324));
        assert!(Interval::point_mul(f64::NAN, Interval::new(1.0, 2.0)).is_empty());
    }

    fn finite_interval() -> impl Strategy<Value = (Interval, f64)> {
        (-50.0f64..50.0, -50.0f64..50.0, 0.0f64..1.0).prop_map(|(a, b, t)| {
            let iv = Interval::new(a.min(b), a.max(b));
            let point = iv.lo() + t * iv.width();
            (iv, point)
        })
    }

    proptest! {
        #[test]
        fn prop_addition_encloses((x, px) in finite_interval(), (y, py) in finite_interval()) {
            prop_assert!((x + y).contains(px + py));
        }

        #[test]
        fn prop_multiplication_encloses((x, px) in finite_interval(), (y, py) in finite_interval()) {
            prop_assert!((x * y).contains(px * py));
        }

        #[test]
        fn prop_subtraction_encloses((x, px) in finite_interval(), (y, py) in finite_interval()) {
            prop_assert!((x - y).contains(px - py));
        }

        #[test]
        fn prop_division_encloses((x, px) in finite_interval(), (y, py) in finite_interval()) {
            prop_assume!(!y.contains(0.0));
            prop_assert!((x / y).contains(px / py));
        }

        #[test]
        fn prop_unary_functions_enclose((x, px) in finite_interval()) {
            prop_assert!(x.square().contains(px * px));
            prop_assert!(x.abs().contains(px.abs()));
            prop_assert!(x.sin().contains(px.sin()));
            prop_assert!(x.cos().contains(px.cos()));
            prop_assert!(x.tanh().contains(px.tanh()));
            prop_assert!(x.atan().contains(px.atan()));
            prop_assert!(x.powi(3).contains(px.powi(3)));
            if px > 0.0 {
                prop_assert!(x.sqrt().contains(px.sqrt()));
                prop_assert!(x.ln().contains(px.ln()));
            }
            // exp can overflow interest range; restrict to moderate values
            if px.abs() < 30.0 {
                let clamped = x.intersect(&Interval::new(-30.0, 30.0));
                prop_assert!(clamped.exp().contains(px.exp()));
            }
        }

        /// `point_mul` against the generic product over 512 pairs per case
        /// (131,072 at the default case count), drawn so that signed zeros,
        /// subnormals, infinities, NaN coefficients and empty operands all
        /// occur in every case.
        #[test]
        fn prop_point_mul_is_bit_identical_to_singleton_product(
            codes in collection::vec(0usize..1_000_000, 512),
            magnitudes in collection::vec(-1.0f64..1.0, 1536),
        ) {
            for (k, &code) in codes.iter().enumerate() {
                let c = point_mul_operand(code, magnitudes[3 * k]);
                let a = point_mul_operand(code / 16, magnitudes[3 * k + 1]);
                let b = point_mul_operand(code / 256, magnitudes[3 * k + 2]);
                let x = if code.is_multiple_of(29) {
                    Interval::EMPTY
                } else {
                    Interval::new(a.min(b), a.max(b))
                };
                let (fused, generic) = (Interval::point_mul(c, x), Interval::singleton(c) * x);
                prop_assert_eq!(fused.lo().to_bits(), generic.lo().to_bits());
                prop_assert_eq!(fused.hi().to_bits(), generic.hi().to_bits());
            }
        }

        #[test]
        fn prop_intersection_is_subset((x, _) in finite_interval(), (y, _) in finite_interval()) {
            let inter = x.intersect(&y);
            prop_assert!(x.contains_interval(&inter));
            prop_assert!(y.contains_interval(&inter));
            let hull = x.hull(&y);
            prop_assert!(hull.contains_interval(&x));
            prop_assert!(hull.contains_interval(&y));
        }

        #[test]
        fn prop_bisect_covers((x, px) in finite_interval()) {
            prop_assume!(x.width() > 0.0);
            let (l, r) = x.bisect();
            prop_assert!(l.contains(px) || r.contains(px));
            prop_assert!(l.hull(&r) == x || l.hull(&r).contains_interval(&x));
        }
    }
}
