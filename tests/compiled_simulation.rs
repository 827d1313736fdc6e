//! Differential test: simulating a closed loop through its compiled field is
//! bit-identical to simulating it through the expression trees.
//!
//! The reference dynamics is an [`FnDynamics`] that walks every component
//! with [`Expr::eval`] on each evaluation, integrated by an RK4 step
//! written out with a fresh vector per stage.  The system under test is the
//! [`ClosedLoopSystem`] itself, which evaluates `f` through one lazily
//! compiled scalar program and steps in place through the simulator's per-trace
//! workspace — the path the verification pipeline takes.  Every time stamp
//! and every state component must agree bit for bit, across
//!
//! * every plant of the built-in scenario registry,
//! * the paper's Dubins closed loop at widths 100 and 300,
//! * traces the domain predicate stops early (the trajectory leaves `D`),
//! * the budget-governed batch the pipeline runs, at 1 and 2 threads,
//!
//! plus a property test over random symbolic fields.

use nncps::barrier::{Budget, ClosedLoopSystem, GeneratorFunction, QueryBuilder};
use nncps::expr::{Expr, ScalarProgram, Tape};
use nncps::linalg::{Matrix, Vector};
use nncps::scenarios::Registry;
use nncps::sim::{Dynamics, ExprDynamics, FnDynamics, Integrator, Simulator, StepWorkspace, Trace};
use nncps_bench::paper_system;
use proptest::prelude::*;

/// The tree-walking reference for a symbolic field.
fn tree_reference(field: &[Expr]) -> FnDynamics<impl Fn(&[f64]) -> Vec<f64> + Sync + '_> {
    FnDynamics::new(field.len(), move |x: &[f64]| {
        field.iter().map(|c| c.eval(x)).collect()
    })
}

/// The classic RK4 step written out with a fresh vector per stage, in the
/// operation order the in-place integrator must keep.
fn reference_rk4_step<D: Dynamics>(dynamics: &D, x: &[f64], dt: f64) -> Vec<f64> {
    let axpy = |scale: f64, k: &[f64]| -> Vec<f64> {
        x.iter().zip(k).map(|(xi, ki)| xi + scale * ki).collect()
    };
    let k1 = dynamics.derivative(x);
    let k2 = dynamics.derivative(&axpy(dt / 2.0, &k1));
    let k3 = dynamics.derivative(&axpy(dt / 2.0, &k2));
    let k4 = dynamics.derivative(&axpy(dt, &k3));
    x.iter()
        .enumerate()
        .map(|(i, xi)| xi + dt / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]))
        .collect()
}

/// Integrates `dynamics` from `x0` with [`reference_rk4_step`] and the same
/// early-stop rule as [`Simulator::simulate_until`].
fn reference_trace<D: Dynamics>(
    simulator: &Simulator,
    dynamics: &D,
    x0: &[f64],
    stop: impl Fn(&[f64]) -> bool,
) -> Trace {
    let mut trace = Trace::new(dynamics.dim());
    let mut state = x0.to_vec();
    let mut time = 0.0;
    trace.push(time, &state);
    if stop(&state) {
        return trace;
    }
    for _ in 0..simulator.num_steps() {
        state = reference_rk4_step(dynamics, &state, simulator.dt());
        time += simulator.dt();
        trace.push(time, &state);
        if stop(&state) {
            break;
        }
    }
    trace
}

fn assert_bit_identical(compiled: &Trace, tree: &Trace, what: &str) {
    assert_eq!(compiled.len(), tree.len(), "{what}: trace length");
    for (k, ((tc, xc), (tt, xt))) in compiled.iter().zip(tree.iter()).enumerate() {
        assert_eq!(tc.to_bits(), tt.to_bits(), "{what}: time of sample {k}");
        let xc: Vec<u64> = xc.iter().map(|v| v.to_bits()).collect();
        let xt: Vec<u64> = xt.iter().map(|v| v.to_bits()).collect();
        assert_eq!(xc, xt, "{what}: state of sample {k}");
    }
}

/// Initial states spread over the domain: its centre, four interior points,
/// and two points hard against its corners (which tend to leave `D`).
fn starts(system: &ClosedLoopSystem) -> Vec<Vec<f64>> {
    let domain = system.spec().domain();
    let dim = domain.dim();
    let mut units: Vec<Vec<f64>> = vec![vec![0.5; dim]];
    for k in 0..4 {
        units.push(
            (0..dim)
                .map(|d| 0.2 + 0.15 * ((k + d) % 5) as f64)
                .collect(),
        );
    }
    units.push(vec![0.995; dim]);
    units.push(
        (0..dim)
            .map(|d| if d % 2 == 0 { 0.005 } else { 0.995 })
            .collect(),
    );
    units.iter().map(|u| domain.lerp_point(u)).collect()
}

/// Compares the compiled and tree traces of `system` from every start and
/// returns how many traces the domain predicate stopped early.
fn compare_system(system: &ClosedLoopSystem, simulator: &Simulator, name: &str) -> usize {
    let domain = system.spec().domain().clone();
    let outside = |s: &[f64]| !domain.contains_point(s);
    let tree = tree_reference(system.vector_field());
    let mut early = 0;
    for (i, x0) in starts(system).iter().enumerate() {
        let compiled = simulator.simulate_until(system, x0, |_, s| outside(s));
        let reference = reference_trace(simulator, &tree, x0, outside);
        assert_bit_identical(&compiled, &reference, &format!("{name} start {i}"));
        if compiled.len() < simulator.num_steps() + 1 {
            early += 1;
        }
    }
    early
}

#[test]
fn every_registry_plant_simulates_bit_identically() {
    let registry = Registry::builtin();
    let mut early = 0;
    for scenario in registry.iter() {
        let system = scenario.build_system();
        let config = scenario.config();
        let simulator = Simulator::new(Integrator::RungeKutta4, config.sim_dt, config.sim_duration);
        early += compare_system(&system, &simulator, scenario.name());
    }
    assert!(
        early > 0,
        "no registry trace left the domain: the early-stop path is not covered"
    );
}

#[test]
fn paper_system_at_widths_100_and_300_simulates_bit_identically() {
    // A shortened horizon keeps the debug-build tree walk affordable; the
    // starts hard against the domain corners still leave `D`.
    let simulator = Simulator::new(Integrator::RungeKutta4, 0.01, 2.0);
    let mut early = 0;
    for width in [100, 300] {
        early += compare_system(&paper_system(width), &simulator, &format!("width {width}"));
    }
    assert!(early > 0, "no paper-system trace left the domain");
}

#[test]
fn governed_batch_is_bit_identical_at_one_and_two_threads() {
    let system = paper_system(20);
    let domain = system.spec().domain().clone();
    let simulator = Simulator::new(Integrator::RungeKutta4, 0.01, 5.0);
    let tree = tree_reference(system.vector_field());
    let starts = starts(&system);
    let reference: Vec<Trace> = starts
        .iter()
        .map(|x0| reference_trace(&simulator, &tree, x0, |s| !domain.contains_point(s)))
        .collect();
    for threads in [1, 2] {
        let batch = simulator
            .simulate_until_batch_governed(
                &system,
                &starts,
                |_, s| !domain.contains_point(s),
                threads,
                &Budget::unlimited(),
            )
            .expect("an unlimited budget never trips");
        assert_eq!(batch.len(), reference.len());
        for (i, (compiled, tree)) in batch.iter().zip(&reference).enumerate() {
            assert_bit_identical(compiled, tree, &format!("{threads} threads, start {i}"));
        }
    }
}

/// Decodes a token stream into a random expression over `x0`/`x1`, with
/// shared subtrees and constant subexpressions (so the tape's CSE and
/// constant folding are exercised).
fn decode_expr(tokens: &[usize], consts: &[f64]) -> Expr {
    let mut stack: Vec<Expr> = Vec::new();
    for &t in tokens {
        let arg = |stack: &mut Vec<Expr>| stack.pop().unwrap_or_else(|| Expr::var(t % 2));
        let e = match t % 16 {
            0 | 1 => Expr::var(t % 2),
            2 | 3 => Expr::constant(consts[t % consts.len()]),
            4 => arg(&mut stack).sin(),
            5 => arg(&mut stack).tanh(),
            6 => arg(&mut stack).sigmoid(),
            7 => arg(&mut stack).abs(),
            8 => -arg(&mut stack),
            9 => arg(&mut stack).powi((t / 16 % 4) as i32),
            10 => {
                let top = arg(&mut stack);
                stack.push(top.clone());
                top
            }
            11 | 12 => {
                let b = arg(&mut stack);
                arg(&mut stack) + b
            }
            13 => {
                let b = arg(&mut stack);
                arg(&mut stack) * b
            }
            14 => {
                let b = arg(&mut stack);
                arg(&mut stack).max(b)
            }
            _ => {
                let b = arg(&mut stack);
                arg(&mut stack) - b
            }
        };
        stack.push(e);
    }
    stack
        .into_iter()
        .reduce(|a, b| a + b)
        .unwrap_or_else(|| Expr::var(0))
}

proptest! {
    #[test]
    fn prop_derivative_into_matches_the_tree_bit_for_bit(
        first in proptest::collection::vec(0usize..10_000, 1..40),
        second in proptest::collection::vec(0usize..10_000, 1..40),
        consts in proptest::collection::vec(-2.5f64..2.5, 5),
        px in -3.0f64..3.0, py in -3.0f64..3.0,
        qx in -3.0f64..3.0, qy in -3.0f64..3.0,
    ) {
        let field = vec![decode_expr(&first, &consts), decode_expr(&second, &consts)];
        let dynamics = ExprDynamics::new(field.clone());
        let mut out = [0.0; 2];
        let mut slots = Vec::new();
        // Two points through one scratch: the second evaluation reuses the
        // warm slot buffer.
        for point in [[px, py], [qx, qy]] {
            dynamics.derivative_into(&point, &mut out, &mut slots);
            for (k, component) in field.iter().enumerate() {
                prop_assert_eq!(out[k].to_bits(), component.eval(&point).to_bits());
            }
            let allocating: Vec<u64> = dynamics.derivative(&point).iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(allocating, out.map(f64::to_bits).to_vec());
        }

        // One in-place RK4 step through a workspace equals the written-out
        // step through the tree reference.
        let mut state = [px, py];
        let mut workspace = StepWorkspace::default();
        Integrator::RungeKutta4.step_in_place(&dynamics, &mut state, 0.01, &mut workspace);
        let reference = reference_rk4_step(&tree_reference(&field), &[px, py], 0.01);
        prop_assert_eq!(state.map(f64::to_bits).to_vec(), reference.iter().map(|v| v.to_bits()).collect::<Vec<_>>());
    }
}

/// The simulated fields compile to a pinned number of program instructions
/// (tape slots for comparison).  A change to either count means the fusion
/// or the tape's CSE/folding changed shape — for instance fusion silently
/// switching off, which keeps every result bit and only costs time — and
/// must be re-pinned on purpose.
#[test]
fn simulated_fields_compile_to_a_pinned_number_of_instructions() {
    let dubins = Registry::builtin()
        .get("dubins-paper")
        .expect("the registry ships dubins-paper")
        .build_system();
    for (name, system, slots, ops) in [
        ("paper_system(1000)", paper_system(1000), 9_007, 2_006),
        ("dubins-paper", dubins, 97, 26),
    ] {
        let field = system.vector_field();
        assert_eq!(
            Tape::compile_many(field).num_slots(),
            slots,
            "{name} tape slots"
        );
        assert_eq!(
            ScalarProgram::compile_many(field).num_ops(),
            ops,
            "{name} program ops"
        );
    }
}

/// The paper's width-1000 decrease query (5) compiles every DNF clause to
/// a pinned tape: slot count, forward-sweep steps and fused chain terms.
/// The steps are what a δ-SAT box sweep dispatches; a change to them (for
/// instance chain fusion switching off, which keeps every bit and only
/// costs time) must be re-pinned on purpose.  Fuel and
/// `instructions_executed` stay counted in slots.
#[test]
fn the_width_1000_decrease_clauses_compile_to_a_pinned_schedule() {
    let system = paper_system(1000);
    let generator = GeneratorFunction::new(
        Matrix::from_rows(&[&[2.0, 0.5], &[0.5, 1.0]]),
        Vector::from_slice(&[0.1, -0.2]),
        0.0,
    );
    let (query, _) = QueryBuilder::new(&system, 1e-6).compiled_decrease_query(&generator);
    let shapes: Vec<(usize, usize, usize)> = query
        .clauses()
        .iter()
        .map(|clause| {
            let tape = clause.tape();
            (tape.num_slots(), tape.num_steps(), tape.num_chain_terms())
        })
        .collect();
    // The 3,005 constants have no step, and the 3,000 constant-weighted
    // products of the controller's layers run inside chain steps together
    // with the sums that read them.
    assert_eq!(shapes, vec![(9_025, 2_022, 3_000); 4]);
}
