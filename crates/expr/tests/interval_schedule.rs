//! Property test: a tape's fused forward sweep writes every slot with the
//! bits a per-slot interval loop would.
//!
//! The per-slot loop below is the reference: it walks the tape's
//! instructions in slot order and applies the generic interval operators,
//! with no chains and no point×interval kernel.  The sweep under test runs
//! the tape's schedule, in which constant slots are loaded once and every
//! `b + c₀·s₀ + c₁·s₁ + …` chain runs as one step that records its products
//! and partial sums.  Clauses are random network exports (whose
//! pre-activations are exactly such chains), a Lie-derivative-shaped sum
//! over the outputs, and hand-built chains whose coefficients are folded
//! constants with wide or empty enclosures.  Every slot must match, not
//! only the roots; a partial sweep up to each root must leave that root's
//! whole dependency cone matching too, whatever stale values the buffer
//! held.

use nncps_expr::{Expr, Tape, TapeInstr};
use nncps_interval::{Interval, IntervalBox};
use nncps_nn::{Activation, FeedforwardNetwork};
use proptest::prelude::*;

const ACTIVATIONS: [Activation; 5] = [
    Activation::Tanh,
    Activation::Sigmoid,
    Activation::Relu,
    Activation::HardTanh,
    Activation::Linear,
];

/// The per-slot reference sweep.
fn reference_sweep(tape: &Tape, region: &IntervalBox) -> Vec<Interval> {
    let mut slots: Vec<Interval> = Vec::with_capacity(tape.num_slots());
    for i in 0..tape.num_slots() {
        let value = match tape.instr(i) {
            TapeInstr::Const(_, enclosure) => enclosure,
            TapeInstr::Var(v) => region[v],
            TapeInstr::Unary(op, a) => op.apply_interval(slots[a]),
            TapeInstr::Binary(op, a, b) => op.apply_interval(slots[a], slots[b]),
            TapeInstr::Powi(a, n) => slots[a].powi(n),
        };
        slots.push(value);
    }
    slots
}

/// The slots `root` depends on, itself included.
fn cone(tape: &Tape, root: usize) -> Vec<usize> {
    let mut seen = vec![false; tape.num_slots()];
    let mut stack = vec![root];
    while let Some(slot) = stack.pop() {
        if std::mem::replace(&mut seen[slot], true) {
            continue;
        }
        match tape.instr(slot) {
            TapeInstr::Const(..) | TapeInstr::Var(_) => {}
            TapeInstr::Unary(_, a) | TapeInstr::Powi(a, _) => stack.push(a),
            TapeInstr::Binary(_, a, b) => stack.extend([a, b]),
        }
    }
    (0..tape.num_slots()).filter(|&i| seen[i]).collect()
}

fn same_bits(a: Interval, b: Interval) -> bool {
    a.lo().to_bits() == b.lo().to_bits() && a.hi().to_bits() == b.hi().to_bits()
}

/// A parameter: mostly the sampled value, sometimes a signed zero, a
/// subnormal or NaN.
fn parameter(code: usize, value: f64) -> f64 {
    match code % 10 {
        0 => 0.0,
        1 => -0.0,
        2 => f64::from_bits(1 + code as u64) * value.signum(),
        3 if code.is_multiple_of(7) => f64::NAN,
        _ => value,
    }
}

/// An input range: mostly the sampled one, sometimes degenerate, signed
/// zero, subnormal or unbounded.
fn input_range(code: usize, lo: f64, width: f64) -> (f64, f64) {
    match code % 9 {
        0 => (lo, lo),
        1 => (-0.0, 0.0),
        2 => (-5e-324, f64::MIN_POSITIVE),
        3 => (f64::NEG_INFINITY, lo),
        4 => (lo, f64::INFINITY),
        _ => (lo, lo + width),
    }
}

proptest! {
    #[test]
    fn prop_fused_sweep_writes_every_slot_like_the_per_slot_loop(
        input_dim in 1usize..4,
        widths in collection::vec(1usize..7, 1..4),
        activations in collection::vec(0usize..5, 4),
        parameter_codes in collection::vec(0usize..1000, 64),
        parameter_values in collection::vec(-2.0f64..2.0, 64),
        range_codes in collection::vec(0usize..1000, 3),
        range_lows in collection::vec(-3.0f64..3.0, 3),
        range_widths in collection::vec(0.0f64..2.0, 3),
        gains in collection::vec(-2.0f64..2.0, 8),
    ) {
        let mut builder = FeedforwardNetwork::builder(input_dim);
        for (k, &width) in widths.iter().enumerate() {
            builder = builder.layer(width, ACTIVATIONS[activations[k]]);
        }
        let mut network = builder.build_zeroed();
        let params: Vec<f64> = (0..network.num_params())
            .map(|k| parameter(parameter_codes[k % 64] + k, parameter_values[k % 64]))
            .collect();
        network.set_params(&params);

        let vars: Vec<Expr> = (0..input_dim).map(Expr::var).collect();
        let outputs = network.forward_symbolic(&vars);
        // A Lie-derivative-shaped root: a constant-weighted sum over the
        // outputs and inputs.
        let mut lie = Expr::constant(gains[0]);
        for (k, e) in outputs.iter().chain(&vars).enumerate() {
            lie = lie + Expr::constant(gains[(k + 1) % 8]) * e.clone();
        }
        // Chains whose coefficients are folded constants: 2·3 folds to 6
        // with an outward-rounded enclosure, ln(−1) to NaN with an empty one.
        let wide = Expr::constant(2.0) * Expr::constant(3.0);
        let empty = Expr::constant(-1.0).ln();
        let c = Expr::constant;
        let folded = c(0.5) + wide * vars[0].clone() + c(gains[1]) * lie.clone();
        let nan_chain = c(gains[2]) * vars[0].clone() + empty * outputs[0].clone();
        let mut roots = outputs.clone();
        roots.extend([lie, folded, nan_chain]);
        let tape = Tape::compile_many(&roots);

        let bounds: Vec<(f64, f64)> = (0..input_dim)
            .map(|i| input_range(range_codes[i], range_lows[i], range_widths[i]))
            .collect();
        let region = IntervalBox::from_bounds(&bounds);
        let reference = reference_sweep(&tape, &region);

        let mut slots = Vec::new();
        tape.eval_interval_into(&region, &mut slots);
        prop_assert_eq!(slots.len(), tape.num_slots());
        for (i, (&fused, &expected)) in slots.iter().zip(&reference).enumerate() {
            prop_assert!(same_bits(fused, expected), "slot {}: {} vs {}", i, fused, expected);
        }
        for (k, root) in roots.iter().enumerate() {
            let tree = root.eval_box(&region);
            prop_assert!(same_bits(slots[tape.root_slot(k)], tree), "root {}", k);
        }

        // A partial sweep up to each root, over a buffer full of stale
        // values, computes the root's whole cone.
        for k in 0..tape.num_roots() {
            let root = tape.root_slot(k);
            let mut partial = vec![Interval::new(7.0, 7.0); tape.num_slots()];
            tape.load_constants(&mut partial);
            tape.eval_interval_steps(&region, &mut partial, 0..tape.steps_through(root));
            for slot in cone(&tape, root) {
                let (got, want) = (partial[slot], reference[slot]);
                prop_assert!(same_bits(got, want), "root {} slot {}", k, slot);
            }
        }
    }
}

#[test]
fn a_dense_pre_activation_is_one_step() {
    let (x, y) = (Expr::var(0), Expr::var(1));
    let pre = Expr::constant(0.1) + Expr::constant(0.5) * x + Expr::constant(-2.0) * y;
    let tape = Tape::compile(&pre.tanh());
    // Slots: 0.1, 0.5, x, 0.5·x, +, −2, y, −2·y, +, tanh.  Steps: x, y, the
    // chain, tanh.
    assert_eq!(tape.num_slots(), 10);
    assert_eq!(tape.num_steps(), 4);
    assert_eq!(tape.num_chain_terms(), 2);
    let region = IntervalBox::from_bounds(&[(-1.0, 0.5), (0.25, 2.0)]);
    let mut slots = Vec::new();
    tape.eval_interval_into(&region, &mut slots);
    let reference = reference_sweep(&tape, &region);
    assert!(slots.iter().zip(&reference).all(|(&a, &b)| same_bits(a, b)));
}
