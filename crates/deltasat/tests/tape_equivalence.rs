//! Property tests: the compiled tape evaluator is bit-identical to the
//! tree-walking evaluator.
//!
//! Random expression trees (over every operator the pipeline uses, with
//! shared subtrees and constant subexpressions) are compiled to tapes and
//! checked against the tree on three levels:
//!
//! 1. scalar and interval evaluation produce the same bits,
//! 2. one HC4 revise and a full clause contraction narrow boxes to the same
//!    bits and reach the same fixpoint,
//! 3. the branch-and-prune solver explores the identical box tree (same
//!    stats), returns the same verdict, and the same witness box.

use nncps_deltasat::{
    contract_clause, hc4_revise, CompiledClause, Constraint, DeltaSolver, Formula, Relation,
    SatResult,
};
use nncps_expr::{Expr, Tape};
use nncps_interval::IntervalBox;
use proptest::prelude::*;

/// Decodes a token stream into a random expression over variables `x0`/`x1`.
///
/// A stack machine keeps the shape arbitrary (including deep sharing: pops
/// clone subtrees back as operands of several parents) while staying
/// deterministic in the sampled tokens.
fn decode_expr(tokens: &[usize], consts: &[f64]) -> Expr {
    let mut stack: Vec<Expr> = Vec::new();
    for &t in tokens {
        let arg = |stack: &mut Vec<Expr>| stack.pop().unwrap_or_else(|| Expr::var(t % 2));
        let e = match t % 24 {
            0 | 1 => Expr::var(t % 2),
            2 | 3 => Expr::constant(consts[t % consts.len()]),
            4 => arg(&mut stack).sin(),
            5 => arg(&mut stack).cos(),
            6 => arg(&mut stack).tanh(),
            7 => arg(&mut stack).sigmoid(),
            8 => arg(&mut stack).atan(),
            9 => arg(&mut stack).abs(),
            10 => -arg(&mut stack),
            11 => arg(&mut stack).sqrt(),
            12 => arg(&mut stack).ln(),
            13 => arg(&mut stack).exp(),
            14 => arg(&mut stack).powi((t / 24 % 4) as i32),
            15 => {
                // Re-share an existing subtree: both occurrences point at the
                // same Arc, exercising the tape's pointer-identity CSE.
                let top = arg(&mut stack);
                stack.push(top.clone());
                top
            }
            16 | 17 => {
                let b = arg(&mut stack);
                let a = arg(&mut stack);
                a + b
            }
            18 => {
                let b = arg(&mut stack);
                let a = arg(&mut stack);
                a - b
            }
            19 | 20 => {
                let b = arg(&mut stack);
                let a = arg(&mut stack);
                a * b
            }
            21 => {
                let b = arg(&mut stack);
                let a = arg(&mut stack);
                a / b
            }
            22 => {
                let b = arg(&mut stack);
                let a = arg(&mut stack);
                a.min(b)
            }
            _ => {
                let b = arg(&mut stack);
                let a = arg(&mut stack);
                a.max(b)
            }
        };
        stack.push(e);
    }
    stack
        .into_iter()
        .reduce(|a, b| a + b)
        .unwrap_or_else(|| Expr::var(0))
}

/// A `min`/`max`/`abs`-heavy decoder: roughly half the emitted nodes are
/// piecewise sites (including explicit ReLU clamps), stressing the
/// contractor's `min`/`max`/`abs` inversions much harder than the uniform
/// operator mix of [`decode_expr`].
fn decode_choosy_expr(tokens: &[usize], consts: &[f64]) -> Expr {
    let mut stack: Vec<Expr> = Vec::new();
    for &t in tokens {
        let arg = |stack: &mut Vec<Expr>| stack.pop().unwrap_or_else(|| Expr::var(t % 2));
        let e = match t % 10 {
            0 => Expr::var(t % 2),
            1 => Expr::constant(consts[t % consts.len()]),
            2 | 3 => arg(&mut stack).abs(),
            4 => {
                let b = arg(&mut stack);
                let a = arg(&mut stack);
                a.min(b)
            }
            5 => {
                let b = arg(&mut stack);
                let a = arg(&mut stack);
                a.max(b)
            }
            // ReLU: the clamp shape NN controllers compile to.
            6 => arg(&mut stack).max(Expr::constant(0.0)),
            7 => {
                // Re-share a subtree, so choice sites get multiple parents.
                let top = arg(&mut stack);
                stack.push(top.clone());
                top
            }
            8 => {
                let b = arg(&mut stack);
                let a = arg(&mut stack);
                a + b
            }
            _ => {
                let b = arg(&mut stack);
                let a = arg(&mut stack);
                a * b
            }
        };
        stack.push(e);
    }
    stack
        .into_iter()
        .reduce(|a, b| a.max(b))
        .unwrap_or_else(|| Expr::var(0))
}

fn assert_interval_bits(a: nncps_interval::Interval, b: nncps_interval::Interval, what: &str) {
    assert_eq!(a.lo().to_bits(), b.lo().to_bits(), "{what} lo");
    assert_eq!(a.hi().to_bits(), b.hi().to_bits(), "{what} hi");
}

fn assert_box_bits(a: &IntervalBox, b: &IntervalBox, what: &str) {
    assert_eq!(a.dim(), b.dim(), "{what} dim");
    for k in 0..a.dim() {
        assert_interval_bits(a[k], b[k], what);
    }
}

proptest! {
    #[test]
    fn prop_tape_scalar_eval_is_bit_identical(
        tokens in collection::vec(0usize..10_000, 1..50),
        consts in collection::vec(-2.5f64..2.5, 6),
        px in -3.0f64..3.0, py in -3.0f64..3.0,
    ) {
        let expr = decode_expr(&tokens, &consts);
        let tape = Tape::compile(&expr);
        prop_assert!(tape.num_slots() <= expr.node_count());
        prop_assert_eq!(tape.eval(&[px, py]).to_bits(), expr.eval(&[px, py]).to_bits());
    }

    #[test]
    fn prop_tape_interval_eval_is_bit_identical(
        tokens in collection::vec(0usize..10_000, 1..50),
        consts in collection::vec(-2.5f64..2.5, 6),
        ax in -3.0f64..3.0, ay in -3.0f64..3.0,
        wx in 0.0f64..2.0, wy in 0.0f64..2.0,
    ) {
        let expr = decode_expr(&tokens, &consts);
        let tape = Tape::compile(&expr);
        let region = IntervalBox::from_bounds(&[(ax, ax + wx), (ay, ay + wy)]);
        assert_interval_bits(tape.eval_box(&region), expr.eval_box(&region), "enclosure");
    }

    #[test]
    fn prop_tape_hc4_matches_tree_hc4_bitwise(
        tokens in collection::vec(0usize..10_000, 1..40),
        consts in collection::vec(-2.5f64..2.5, 6),
        bound in -3.0f64..3.0,
        relation in 0usize..5,
    ) {
        let expr = decode_expr(&tokens, &consts);
        let relation = [Relation::Le, Relation::Lt, Relation::Ge, Relation::Gt, Relation::Eq][relation];
        let constraint = Constraint::new(expr, relation, bound);
        let clause = std::slice::from_ref(&constraint);
        let compiled = CompiledClause::compile(clause);
        let mut scratch = compiled.scratch();

        // Single revise.
        let mut tree_region = IntervalBox::from_bounds(&[(-3.0, 3.0), (-3.0, 3.0)]);
        let mut tape_region = tree_region.clone();
        let tree_ok = hc4_revise(&constraint, &mut tree_region);
        let tape_ok = compiled.contract(&mut tape_region, 1, &mut scratch);
        prop_assert_eq!(tree_ok, tape_ok);
        if tree_ok {
            assert_box_bits(&tree_region, &tape_region, "after one revise");
        }

        // Contraction to the (approximate) fixpoint.
        let mut tree_region = IntervalBox::from_bounds(&[(-3.0, 3.0), (-3.0, 3.0)]);
        let mut tape_region = tree_region.clone();
        let tree_ok = contract_clause(clause, &mut tree_region, 10);
        let tape_ok = compiled.contract(&mut tape_region, 10, &mut scratch);
        prop_assert_eq!(tree_ok, tape_ok);
        if tree_ok {
            assert_box_bits(&tree_region, &tape_region, "at the fixpoint");
        }
    }

    #[test]
    fn prop_tape_hc4_never_drops_solutions(
        tokens in collection::vec(0usize..10_000, 1..40),
        consts in collection::vec(-2.5f64..2.5, 6),
        bound in -3.0f64..3.0,
        tx in 0.0f64..1.0, ty in 0.0f64..1.0,
    ) {
        // Soundness of the compiled contractor on its own terms: a concrete
        // solution always survives contraction.  The property holds where
        // the expression is a total real function of the point, so every
        // intermediate scalar value must be finite, and no subterm may be
        // undefined over the whole box (empty interval).  Outside those
        // conditions the scalar and interval semantics legitimately diverge
        // — e.g. IEEE `min` swallows the NaN of `sqrt(-0.15)` while interval
        // semantics correctly treats the term as nowhere defined — for the
        // tree contractor just as much as for the tape.
        let expr = decode_expr(&tokens, &consts);
        let px = -3.0 + 6.0 * tx;
        let py = -3.0 + 6.0 * ty;
        let tape = Tape::compile(&expr);
        let mut slots = Vec::new();
        tape.eval_scalar_into(&[px, py], &mut slots);
        prop_assume!(slots.iter().all(|v| v.is_finite()));
        let mut interval_slots = Vec::new();
        tape.eval_interval_into(
            &IntervalBox::from_bounds(&[(-3.0, 3.0), (-3.0, 3.0)]),
            &mut interval_slots,
        );
        prop_assume!(interval_slots.iter().all(|v| !v.is_empty()));
        let value = slots[tape.root_slot(0)];
        let constraint = Constraint::le(expr, bound);
        let satisfied = value <= bound;
        prop_assume!(satisfied);
        let compiled = CompiledClause::compile(std::slice::from_ref(&constraint));
        let mut scratch = compiled.scratch();
        let mut region = IntervalBox::from_bounds(&[(-3.0, 3.0), (-3.0, 3.0)]);
        let feasible = compiled.contract(&mut region, 10, &mut scratch);
        prop_assert!(feasible, "infeasible: {constraint} at ({px}, {py})");
        prop_assert!(
            region.contains_point(&[px, py]),
            "dropped ({px}, {py}) from {region} for {constraint}"
        );
    }

    #[test]
    fn prop_solver_box_tree_is_identical_across_evaluators(
        tokens in collection::vec(0usize..10_000, 1..30),
        consts in collection::vec(-2.5f64..2.5, 6),
        bound in -2.0f64..2.0,
        relation in 0usize..5,
    ) {
        let expr = decode_expr(&tokens, &consts);
        let relation = [Relation::Le, Relation::Lt, Relation::Ge, Relation::Gt, Relation::Eq][relation];
        let formula = Formula::atom(Constraint::new(expr, relation, bound));
        let domain = IntervalBox::from_bounds(&[(-2.0, 2.0), (-2.0, 2.0)]);
        // A budget keeps degenerate samples (e.g. equalities over flat
        // expressions) from dominating the run; Unknown-vs-Unknown is still
        // compared for identical statistics.
        let fast = DeltaSolver::new(1e-3).with_max_boxes(20_000);
        let reference = fast.clone().with_tree_evaluator();
        let (fast_result, fast_stats) = fast.solve_with_stats(&formula, &domain);
        let (ref_result, ref_stats) = reference.solve_with_stats(&formula, &domain);
        prop_assert_eq!(fast_stats, ref_stats);
        match (&fast_result, &ref_result) {
            (SatResult::DeltaSat(a), SatResult::DeltaSat(b)) => assert_box_bits(a, b, "witness"),
            (SatResult::Unsat, SatResult::Unsat) => {}
            (SatResult::Unknown(a), SatResult::Unknown(b)) => prop_assert_eq!(a, b),
            (a, b) => prop_assert!(false, "verdicts diverge: {} vs {}", a, b),
        }
    }

    /// Choice-heavy random DAGs (about half the nodes are `min`/`max`/`abs`
    /// sites) solved through compiled tapes must explore the identical box
    /// tree and return bitwise-identical witnesses as the tree-walking
    /// reference evaluator.
    #[test]
    fn prop_choice_heavy_solver_runs_match_tree_reference(
        tokens in collection::vec(0usize..10_000, 1..40),
        consts in collection::vec(-2.5f64..2.5, 6),
        bound in -2.0f64..2.0,
        relation in 0usize..5,
    ) {
        let expr = decode_choosy_expr(&tokens, &consts);
        let relation = [Relation::Le, Relation::Lt, Relation::Ge, Relation::Gt, Relation::Eq][relation];
        let formula = Formula::atom(Constraint::new(expr, relation, bound));
        let domain = IntervalBox::from_bounds(&[(-2.0, 2.0), (-2.0, 2.0)]);
        let fast = DeltaSolver::new(1e-3).with_max_boxes(20_000);
        let reference = fast.clone().with_tree_evaluator();
        let (fast_result, fast_stats) = fast.solve_with_stats(&formula, &domain);
        let (ref_result, ref_stats) = reference.solve_with_stats(&formula, &domain);
        prop_assert_eq!(fast_stats, ref_stats);
        match (&fast_result, &ref_result) {
            (SatResult::DeltaSat(a), SatResult::DeltaSat(b)) => assert_box_bits(a, b, "witness"),
            (SatResult::Unsat, SatResult::Unsat) => {}
            (SatResult::Unknown(a), SatResult::Unknown(b)) => prop_assert_eq!(a, b),
            (a, b) => prop_assert!(false, "verdicts diverge: {} vs {}", a, b),
        }
    }
}
