//! HC4-revise interval contraction (tree-walking reference implementation).
//!
//! Given a constraint `expr ⋈ bound` and a box of variable domains, the HC4
//! algorithm performs a forward interval evaluation of the expression —
//! recording the enclosure of every node — followed by a backward pass that
//! propagates the admissible output range down to the leaves using the
//! recorded values, narrowing variable domains on the way.  Narrowing is
//! *sound*: no point of the box that satisfies the constraint is ever
//! removed.
//!
//! Both passes visit each tree node once, so one revise is O(n) in the node
//! count.  The recursive functions here are the readable *reference*
//! implementation; the solver's hot loop runs the same algorithm — bit for
//! bit — on compiled tapes via [`crate::CompiledClause`], which shares the
//! inversion rules defined in this module.  Variable-free subtrees are
//! treated atomically (their recorded enclosure is checked against the
//! requirement, but they are not descended into), matching the tape's
//! constant folding.

use nncps_expr::{BinaryOp, Expr, ExprView, UnaryOp};
use nncps_interval::{Interval, IntervalBox};

use crate::Constraint;

/// Applies one HC4-revise pass of `constraint` to `region`, narrowing the
/// variable domains in place.
///
/// Returns `false` if the constraint is proven infeasible on the box (some
/// domain became empty), `true` otherwise.
///
/// # Examples
///
/// ```
/// use nncps_deltasat::{hc4_revise, Constraint};
/// use nncps_expr::Expr;
/// use nncps_interval::IntervalBox;
///
/// // x + y <= 1 with x, y in [0, 10]: y's domain shrinks to [0, 1].
/// let c = Constraint::le(Expr::var(0) + Expr::var(1), 1.0);
/// let mut region = IntervalBox::from_bounds(&[(0.0, 10.0), (0.0, 10.0)]);
/// assert!(hc4_revise(&c, &mut region));
/// assert!(region[0].hi() <= 1.0 + 1e-9);
/// assert!(region[1].hi() <= 1.0 + 1e-9);
/// ```
pub fn hc4_revise(constraint: &Constraint, region: &mut IntervalBox) -> bool {
    let forward = forward(constraint.expr(), region);
    backward(
        constraint.expr(),
        &forward,
        region,
        constraint.admissible_interval(),
    )
}

/// Applies HC4-revise for every constraint in `clause` repeatedly, up to
/// `rounds` sweeps or until a fixpoint is (approximately) reached.
///
/// Returns `false` as soon as any constraint is proven infeasible.
pub fn contract_clause(clause: &[Constraint], region: &mut IntervalBox, rounds: usize) -> bool {
    for _ in 0..rounds {
        let before = total_width(region);
        for constraint in clause {
            if !hc4_revise(constraint, region) {
                return false;
            }
        }
        let after = total_width(region);
        // Stop iterating once a sweep no longer makes meaningful progress.
        if before - after <= 1e-12 * before.max(1.0) {
            break;
        }
    }
    true
}

pub(crate) fn total_width(region: &IntervalBox) -> f64 {
    region.iter().map(Interval::width).sum()
}

/// Recorded forward evaluation of one tree node: the node's interval
/// enclosure, whether its subtree is variable-free (treated atomically by the
/// backward pass), and the recorded children.
struct Forward {
    value: Interval,
    constant: bool,
    children: Vec<Forward>,
}

/// Forward pass: evaluates the expression bottom-up over the box, recording
/// every node's enclosure for the backward pass.
fn forward(expr: &Expr, region: &IntervalBox) -> Forward {
    match expr.view() {
        ExprView::Const(c) => Forward {
            value: Interval::singleton(c),
            constant: true,
            children: Vec::new(),
        },
        ExprView::Var(i) => {
            assert!(
                i < region.dim(),
                "expression references variable x{i} but the box has {} dimensions",
                region.dim()
            );
            Forward {
                value: region[i],
                constant: false,
                children: Vec::new(),
            }
        }
        ExprView::Unary(op, a) => {
            let a = forward(a, region);
            Forward {
                value: op.apply_interval(a.value),
                constant: a.constant,
                children: vec![a],
            }
        }
        ExprView::Binary(op, a, b) => {
            let a = forward(a, region);
            let b = forward(b, region);
            Forward {
                value: op.apply_interval(a.value, b.value),
                constant: a.constant && b.constant,
                children: vec![a, b],
            }
        }
        ExprView::Powi(a, n) => {
            let a = forward(a, region);
            Forward {
                value: a.value.powi(n),
                constant: a.constant,
                children: vec![a],
            }
        }
    }
}

/// Backward pass: narrows `region` so that `expr` can still take a value in
/// `required`, using the node values recorded by [`forward`].  Returns
/// `false` if that is impossible.
fn backward(expr: &Expr, fwd: &Forward, region: &mut IntervalBox, required: Interval) -> bool {
    let narrowed = fwd.value.intersect(&required);
    if narrowed.is_empty() {
        return false;
    }
    if fwd.constant {
        // A variable-free subtree carries no domains to narrow; its recorded
        // enclosure either meets the requirement (checked above) or the
        // constraint is infeasible.
        return true;
    }
    match expr.view() {
        ExprView::Const(_) => true,
        ExprView::Var(i) => {
            let dom = region[i].intersect(&narrowed);
            if dom.is_empty() {
                return false;
            }
            region[i] = dom;
            true
        }
        ExprView::Unary(op, a) => {
            let a_req = invert_unary(op, narrowed, fwd.children[0].value);
            backward(a, &fwd.children[0], region, a_req)
        }
        ExprView::Binary(op, a, b) => {
            let (a_req, b_req) =
                invert_binary(op, narrowed, fwd.children[0].value, fwd.children[1].value);
            backward(a, &fwd.children[0], region, a_req)
                && backward(b, &fwd.children[1], region, b_req)
        }
        ExprView::Powi(a, n) => {
            let a_req = invert_powi(n, narrowed, fwd.children[0].value);
            backward(a, &fwd.children[0], region, a_req)
        }
    }
}

/// Computes a sound requirement on the operand of a unary operator, given the
/// requirement `out` on the operator's result and the operand's current
/// enclosure `operand`.
pub(crate) fn invert_unary(op: UnaryOp, out: Interval, operand: Interval) -> Interval {
    match op {
        UnaryOp::Neg => -out,
        UnaryOp::Exp => out.ln(),
        UnaryOp::Ln => out.exp(),
        UnaryOp::Sqrt => {
            let non_negative = out.intersect(&Interval::new(0.0, f64::INFINITY));
            non_negative.square()
        }
        UnaryOp::Tanh => atanh_interval(out),
        UnaryOp::Sigmoid => logit_interval(out),
        UnaryOp::Atan => invert_atan(out),
        UnaryOp::Abs => {
            let positive = out.intersect(&Interval::new(0.0, f64::INFINITY));
            if positive.is_empty() {
                Interval::EMPTY
            } else {
                // a ∈ [-hi, -lo] ∪ [lo, hi]; the hull is sound, and we tighten
                // using the sign of the current operand enclosure.
                if operand.lo() >= 0.0 {
                    positive
                } else if operand.hi() <= 0.0 {
                    -positive
                } else {
                    Interval::new(-positive.hi(), positive.hi())
                }
            }
        }
        // sin, cos, tan are periodic/multivalued; narrowing them soundly
        // requires branch bookkeeping that rarely pays off for our queries, so
        // we simply keep the operand's current domain.
        UnaryOp::Sin | UnaryOp::Cos | UnaryOp::Tan => operand,
    }
}

/// Computes sound requirements on both operands of a binary operator.
pub(crate) fn invert_binary(
    op: BinaryOp,
    out: Interval,
    a_val: Interval,
    b_val: Interval,
) -> (Interval, Interval) {
    match op {
        BinaryOp::Add => (out - b_val, out - a_val),
        BinaryOp::Sub => (out + b_val, a_val - out),
        BinaryOp::Mul => {
            let a_req = if b_val.contains(0.0) {
                Interval::ENTIRE
            } else {
                out / b_val
            };
            let b_req = if a_val.contains(0.0) {
                Interval::ENTIRE
            } else {
                out / a_val
            };
            (a_req, b_req)
        }
        BinaryOp::Div => {
            // a / b = out  =>  a = out * b,  b = a / out.
            let a_req = out * b_val;
            let b_req = if out.contains(0.0) {
                Interval::ENTIRE
            } else {
                a_val / out
            };
            (a_req, b_req)
        }
        BinaryOp::Min => {
            // Decided branches invert exactly: when the operand enclosures
            // cannot overlap, the minimum *is* the winning operand, so the
            // requirement passes through to it unchanged, while the losing
            // operand keeps only the (vacuous) `>= out.lo` bound.
            if a_val.hi() < b_val.lo() {
                (out, Interval::new(out.lo(), f64::INFINITY))
            } else if b_val.hi() < a_val.lo() {
                (Interval::new(out.lo(), f64::INFINITY), out)
            } else {
                // Overlapping branches: min(a, b) ∈ out implies a >= out.lo
                // and b >= out.lo.
                (
                    Interval::new(out.lo(), f64::INFINITY),
                    Interval::new(out.lo(), f64::INFINITY),
                )
            }
        }
        BinaryOp::Max => {
            if a_val.lo() > b_val.hi() {
                (out, Interval::new(f64::NEG_INFINITY, out.hi()))
            } else if b_val.lo() > a_val.hi() {
                (Interval::new(f64::NEG_INFINITY, out.hi()), out)
            } else {
                (
                    Interval::new(f64::NEG_INFINITY, out.hi()),
                    Interval::new(f64::NEG_INFINITY, out.hi()),
                )
            }
        }
    }
}

/// Outward safety margin applied to approximately computed inversion
/// endpoints (`powf` roots, `tan`, `atanh`, logit): constant `1e-12` for
/// small magnitudes — where it dwarfs the few-ulp error of the underlying
/// libm call — switching to a relative `1e-14·|x|` (tens of ulps) beyond
/// `|x| = 100`, where a constant margin would be *smaller* than one ulp and
/// the inverted requirement could fail to envelop the true preimage.  An
/// enveloping margin is what makes a non-biting requirement a provable no-op
/// (the backward-subtree skip and the satisfied-atom drop rely on it), and
/// what keeps these inversions sound in the first place: an under-margined
/// root at `|x| ≈ 1e5` measurably clips domain points that satisfy the
/// constraint.  The `1e-12` constant below the threshold is exactly the
/// historical margin, so small-magnitude narrowing — everything the pinned
/// scenario artifacts exercise — keeps its bits.
fn outward_slop(x: f64) -> f64 {
    1e-12f64.max(x.abs() * 1e-14)
}

/// Inverse of an integer power: a requirement on `a` given `a^n ∈ out`.
pub(crate) fn invert_powi(n: i32, out: Interval, a_val: Interval) -> Interval {
    if n <= 0 {
        // a^0 carries no information; negative powers are rare in our models
        // and skipping the narrowing is always sound.
        return a_val;
    }
    if n % 2 == 1 {
        // Odd power: strictly monotone, invert endpoint-wise.
        let root = |x: f64| x.signum() * x.abs().powf(1.0 / f64::from(n));
        let lo = if out.lo().is_finite() {
            let r = root(out.lo());
            r - outward_slop(r)
        } else {
            f64::NEG_INFINITY
        };
        let hi = if out.hi().is_finite() {
            let r = root(out.hi());
            r + outward_slop(r)
        } else {
            f64::INFINITY
        };
        Interval::new(lo, hi)
    } else {
        // Even power: |a| ∈ nth-root of (out ∩ [0, ∞)).
        let non_negative = out.intersect(&Interval::new(0.0, f64::INFINITY));
        if non_negative.is_empty() {
            return Interval::EMPTY;
        }
        let root_hi = if non_negative.hi().is_finite() {
            let r = non_negative.hi().powf(1.0 / f64::from(n));
            r + outward_slop(r)
        } else {
            f64::INFINITY
        };
        let root_lo = {
            let r = (non_negative.lo().max(0.0)).powf(1.0 / f64::from(n));
            r - outward_slop(r)
        };
        if a_val.lo() >= 0.0 {
            Interval::new(root_lo.max(0.0), root_hi)
        } else if a_val.hi() <= 0.0 {
            Interval::new(-root_hi, (-root_lo).min(0.0))
        } else {
            Interval::new(-root_hi, root_hi)
        }
    }
}

/// Sound interval inverse of `tanh` (clips the output range to `(-1, 1)`).
fn atanh_interval(out: Interval) -> Interval {
    let clipped = out.intersect(&Interval::new(-1.0, 1.0));
    if clipped.is_empty() {
        return Interval::EMPTY;
    }
    let lo = if clipped.lo() <= -1.0 {
        f64::NEG_INFINITY
    } else {
        clipped.lo().atanh() - 1e-12
    };
    let hi = if clipped.hi() >= 1.0 {
        f64::INFINITY
    } else {
        clipped.hi().atanh() + 1e-12
    };
    Interval::new(lo, hi)
}

/// Sound interval inverse of the logistic sigmoid (clips to `(0, 1)`).
fn logit_interval(out: Interval) -> Interval {
    let clipped = out.intersect(&Interval::new(0.0, 1.0));
    if clipped.is_empty() {
        return Interval::EMPTY;
    }
    let logit = |p: f64| (p / (1.0 - p)).ln();
    let lo = if clipped.lo() <= 0.0 {
        f64::NEG_INFINITY
    } else {
        logit(clipped.lo()) - 1e-12
    };
    let hi = if clipped.hi() >= 1.0 {
        f64::INFINITY
    } else {
        logit(clipped.hi()) + 1e-12
    };
    Interval::new(lo, hi)
}

/// Sound interval inverse of `atan` (clips to `(-π/2, π/2)`).
fn invert_atan(out: Interval) -> Interval {
    let half_pi = std::f64::consts::FRAC_PI_2;
    let clipped = out.intersect(&Interval::new(-half_pi, half_pi));
    if clipped.is_empty() {
        return Interval::EMPTY;
    }
    let lo = if clipped.lo() <= -half_pi + 1e-12 {
        f64::NEG_INFINITY
    } else {
        // tan blows up toward the pole guard, so the margin must scale with
        // the result (see `outward_slop`).
        let t = clipped.lo().tan();
        t - outward_slop(t)
    };
    let hi = if clipped.hi() >= half_pi - 1e-12 {
        f64::INFINITY
    } else {
        let t = clipped.hi().tan();
        t + outward_slop(t)
    };
    Interval::new(lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nncps_expr::Expr;
    use proptest::prelude::*;

    fn x() -> Expr {
        Expr::var(0)
    }

    fn y() -> Expr {
        Expr::var(1)
    }

    #[test]
    fn linear_constraint_narrows_both_variables() {
        let c = Constraint::le(x() + y(), 1.0);
        let mut region = IntervalBox::from_bounds(&[(0.0, 10.0), (0.0, 10.0)]);
        assert!(hc4_revise(&c, &mut region));
        assert!(region[0].hi() <= 1.0 + 1e-9);
        assert!(region[1].hi() <= 1.0 + 1e-9);
        assert!(region[0].lo() >= -1e-9);
    }

    #[test]
    fn equality_pins_variable() {
        // 2 * x = 6 on x in [0, 10] narrows x to ~3.
        let c = Constraint::eq(Expr::constant(2.0) * x(), 6.0);
        let mut region = IntervalBox::from_bounds(&[(0.0, 10.0)]);
        assert!(hc4_revise(&c, &mut region));
        assert!((region[0].lo() - 3.0).abs() < 1e-6);
        assert!((region[0].hi() - 3.0).abs() < 1e-6);
    }

    #[test]
    fn infeasible_constraint_is_detected() {
        let c = Constraint::ge(x().powi(2), 100.0);
        let mut region = IntervalBox::from_bounds(&[(-2.0, 2.0)]);
        assert!(!hc4_revise(&c, &mut region));
    }

    #[test]
    fn exp_and_ln_inverses_narrow() {
        // exp(x) <= 1 on x in [-5, 5] forces x <= 0.
        let c = Constraint::le(x().exp(), 1.0);
        let mut region = IntervalBox::from_bounds(&[(-5.0, 5.0)]);
        assert!(hc4_revise(&c, &mut region));
        assert!(region[0].hi() <= 1e-9);
        // ln(x) >= 0 on x in (0, 10] forces x >= 1.
        let c = Constraint::ge(x().ln(), 0.0);
        let mut region = IntervalBox::from_bounds(&[(0.001, 10.0)]);
        assert!(hc4_revise(&c, &mut region));
        assert!(region[0].lo() >= 1.0 - 1e-6);
    }

    #[test]
    fn tanh_inverse_narrows() {
        // tanh(x) >= 0.5 forces x >= atanh(0.5) ≈ 0.549.
        let c = Constraint::ge(x().tanh(), 0.5);
        let mut region = IntervalBox::from_bounds(&[(-3.0, 3.0)]);
        assert!(hc4_revise(&c, &mut region));
        assert!(region[0].lo() >= 0.5_f64.atanh() - 1e-6);
        // tanh(x) >= 2 is impossible.
        let c = Constraint::ge(x().tanh(), 2.0);
        let mut region = IntervalBox::from_bounds(&[(-3.0, 3.0)]);
        assert!(!hc4_revise(&c, &mut region));
    }

    #[test]
    fn sigmoid_and_atan_inverses_narrow() {
        let c = Constraint::le(x().sigmoid(), 0.5);
        let mut region = IntervalBox::from_bounds(&[(-10.0, 10.0)]);
        assert!(hc4_revise(&c, &mut region));
        assert!(region[0].hi() <= 1e-6);

        let c = Constraint::ge(x().atan(), 0.0);
        let mut region = IntervalBox::from_bounds(&[(-10.0, 10.0)]);
        assert!(hc4_revise(&c, &mut region));
        assert!(region[0].lo() >= -1e-6);
    }

    #[test]
    fn abs_and_even_power_inverses() {
        // |x| <= 2 narrows x to [-2, 2].
        let c = Constraint::le(x().abs(), 2.0);
        let mut region = IntervalBox::from_bounds(&[(-10.0, 10.0)]);
        assert!(hc4_revise(&c, &mut region));
        assert!(region[0].lo() >= -2.0 - 1e-9 && region[0].hi() <= 2.0 + 1e-9);
        // x^2 <= 4 narrows x to [-2, 2].
        let c = Constraint::le(x().powi(2), 4.0);
        let mut region = IntervalBox::from_bounds(&[(-10.0, 10.0)]);
        assert!(hc4_revise(&c, &mut region));
        assert!(region[0].lo() >= -2.0 - 1e-6 && region[0].hi() <= 2.0 + 1e-6);
        // With a sign-definite starting domain the positive branch is kept.
        let c = Constraint::le(x().powi(2), 4.0);
        let mut region = IntervalBox::from_bounds(&[(0.5, 10.0)]);
        assert!(hc4_revise(&c, &mut region));
        assert!(region[0].hi() <= 2.0 + 1e-6);
        assert!(region[0].lo() >= 0.5 - 1e-9);
        // Odd powers are monotone: x^3 >= 8 forces x >= 2.
        let c = Constraint::ge(x().powi(3), 8.0);
        let mut region = IntervalBox::from_bounds(&[(-10.0, 10.0)]);
        assert!(hc4_revise(&c, &mut region));
        assert!(region[0].lo() >= 2.0 - 1e-6);
    }

    #[test]
    fn division_and_sqrt_inverses() {
        // x / 2 >= 3 forces x >= 6.
        let c = Constraint::ge(x() / 2.0, 3.0);
        let mut region = IntervalBox::from_bounds(&[(-10.0, 20.0)]);
        assert!(hc4_revise(&c, &mut region));
        assert!(region[0].lo() >= 6.0 - 1e-6);
        // sqrt(x) <= 2 forces x <= 4.
        let c = Constraint::le(x().sqrt(), 2.0);
        let mut region = IntervalBox::from_bounds(&[(0.0, 100.0)]);
        assert!(hc4_revise(&c, &mut region));
        assert!(region[0].hi() <= 4.0 + 1e-6);
    }

    #[test]
    fn min_max_partial_narrowing() {
        // min(x, y) >= 1 forces both x >= 1 and y >= 1.
        let c = Constraint::ge(x().min(y()), 1.0);
        let mut region = IntervalBox::from_bounds(&[(-5.0, 5.0), (-5.0, 5.0)]);
        assert!(hc4_revise(&c, &mut region));
        assert!(region[0].lo() >= 1.0 - 1e-9);
        assert!(region[1].lo() >= 1.0 - 1e-9);
        // max(x, y) <= 1 forces both x <= 1 and y <= 1.
        let c = Constraint::le(x().max(y()), 1.0);
        let mut region = IntervalBox::from_bounds(&[(-5.0, 5.0), (-5.0, 5.0)]);
        assert!(hc4_revise(&c, &mut region));
        assert!(region[0].hi() <= 1.0 + 1e-9);
        assert!(region[1].hi() <= 1.0 + 1e-9);
    }

    #[test]
    fn inversion_margins_envelop_at_large_magnitudes() {
        // Regression test: the inversion slop must scale with the result.
        // With the historical constant 1e-12 margin, `powf(1/3)` rounding at
        // |x| ≈ 1e5 exceeded the margin, so a requirement that should never
        // bite (x³ ≥ 0 on a positive box) clipped domain points that satisfy
        // the constraint — and diverged from the no-op-subtree-skipping
        // compiled path.
        for magnitude in [1e4, 1e5, 1e7, 1e9] {
            let c = Constraint::ge(x().powi(3), 0.0);
            let before = IntervalBox::from_bounds(&[(magnitude, magnitude + 1.0)]);
            let mut region = before.clone();
            assert!(hc4_revise(&c, &mut region));
            assert_eq!(
                region[0].lo().to_bits(),
                before[0].lo().to_bits(),
                "lo clipped at {magnitude}"
            );
            assert_eq!(
                region[0].hi().to_bits(),
                before[0].hi().to_bits(),
                "hi clipped at {magnitude}"
            );
            // The compiled contractor (which may skip the no-op subtree)
            // must agree bitwise with the tree reference.
            let compiled = crate::CompiledClause::compile(std::slice::from_ref(&c));
            let mut scratch = compiled.scratch();
            let mut tape_region = before.clone();
            assert!(compiled.contract(&mut tape_region, 1, &mut scratch));
            assert_eq!(region[0].lo().to_bits(), tape_region[0].lo().to_bits());
            assert_eq!(region[0].hi().to_bits(), tape_region[0].hi().to_bits());
        }
        // The margin still narrows correctly where it matters: x³ >= 8
        // forces x >= 2 regardless of the slop form.
        let c = Constraint::ge(x().powi(3), 8.0);
        let mut region = IntervalBox::from_bounds(&[(-10.0, 10.0)]);
        assert!(hc4_revise(&c, &mut region));
        assert!(region[0].lo() >= 2.0 - 1e-6);
    }

    #[test]
    fn decided_min_max_invert_exactly() {
        // min(x, 5) on x ∈ [-5, 0] is decided (x.hi < 5), so the requirement
        // passes through to x and the upper bound narrows — the overlap rule
        // `x >= out.lo` could not have done that.
        let c = Constraint::le(x().min(Expr::constant(5.0)), -1.0);
        let mut region = IntervalBox::from_bounds(&[(-5.0, 0.0)]);
        assert!(hc4_revise(&c, &mut region));
        assert!(region[0].hi() <= -1.0 + 1e-9);
        // Symmetrically for a decided max.
        let c = Constraint::ge(x().max(Expr::constant(-5.0)), -1.0);
        let mut region = IntervalBox::from_bounds(&[(-4.0, 0.0)]);
        assert!(hc4_revise(&c, &mut region));
        assert!(region[0].lo() >= -1.0 - 1e-9);
        // The losing branch is never narrowed beyond the vacuous bound.
        let c = Constraint::le(x().min(y()), 0.5);
        let mut region = IntervalBox::from_bounds(&[(-3.0, -2.0), (4.0, 5.0)]);
        assert!(hc4_revise(&c, &mut region));
        assert_eq!(region[1], Interval::new(4.0, 5.0));
        assert!(region[0].hi() <= 0.5 + 1e-9);
    }

    #[test]
    fn trigonometric_operands_are_left_unchanged() {
        let c = Constraint::le(x().sin(), 0.5);
        let mut region = IntervalBox::from_bounds(&[(-10.0, 10.0)]);
        assert!(hc4_revise(&c, &mut region));
        assert_eq!(region[0], Interval::new(-10.0, 10.0));
    }

    #[test]
    fn clause_contraction_reaches_tighter_fixpoint() {
        // y = 1 pins y in the first sweep; the second sweep then propagates
        // through x + y = 4 and pins x near 3, demonstrating that repeated
        // sweeps reach a tighter fixpoint than a single pass.
        let clause = vec![Constraint::eq(x() + y(), 4.0), Constraint::eq(y(), 1.0)];
        let mut region = IntervalBox::from_bounds(&[(-100.0, 100.0), (-100.0, 100.0)]);
        assert!(contract_clause(&clause, &mut region, 10));
        assert!(region[0].width() < 1e-6, "x width {}", region[0].width());
        assert!(region[1].width() < 1e-6, "y width {}", region[1].width());
        assert!(region[0].contains(3.0));
        assert!(region[1].contains(1.0));
    }

    #[test]
    fn clause_contraction_is_sound_on_coupled_equalities() {
        // x + y = 4 and x - y = 0: HC4 alone cannot isolate the solution
        // (that is what branch-and-prune is for), but it must never drop it.
        let clause = vec![
            Constraint::eq(x() + y(), 4.0),
            Constraint::eq(x() - y(), 0.0),
        ];
        let mut region = IntervalBox::from_bounds(&[(-100.0, 100.0), (-100.0, 100.0)]);
        assert!(contract_clause(&clause, &mut region, 10));
        assert!(region.contains_point(&[2.0, 2.0]));
    }

    #[test]
    fn clause_contraction_detects_conflict() {
        let clause = vec![Constraint::ge(x(), 5.0), Constraint::le(x(), 1.0)];
        let mut region = IntervalBox::from_bounds(&[(-100.0, 100.0)]);
        assert!(!contract_clause(&clause, &mut region, 10));
    }

    proptest! {
        #[test]
        fn prop_contraction_never_drops_solutions(
            a in -2.0f64..2.0, b in -2.0f64..2.0, bound in -2.0f64..2.0,
            px in -3.0f64..3.0, py in -3.0f64..3.0,
        ) {
            // Constraint: a*x + b*tanh(y) + x*y <= bound.
            let e = Expr::constant(a) * x() + Expr::constant(b) * y().tanh() + x() * y();
            let c = Constraint::le(e.clone(), bound);
            let satisfied = e.eval(&[px, py]) <= bound;
            let mut region = IntervalBox::from_bounds(&[(-3.0, 3.0), (-3.0, 3.0)]);
            let feasible = hc4_revise(&c, &mut region);
            if satisfied {
                // A real solution must survive contraction.
                prop_assert!(feasible);
                prop_assert!(region.contains_point(&[px, py]));
            }
        }
    }
}
