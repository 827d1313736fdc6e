//! Microbenchmarks of the substrates the verification pipeline is built on:
//! the LP solver, the δ-SAT solver, the symbolic expression layer, the neural
//! network forward pass, and the ODE integrators.  These locate where the
//! Table 1 time goes as the controller grows.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use nncps_deltasat::{
    contract_clause, CompiledClause, CompiledFormula, Constraint, DeltaSolver, Formula,
};
use nncps_dubins::{reference_controller, ErrorDynamics};
use nncps_expr::{Expr, Tape};
use nncps_interval::IntervalBox;
use nncps_lp::{Comparison, LpProblem};
use nncps_sim::{Integrator, Simulator};

/// The Lie derivative of the Table-1-style quadratic candidate along the
/// width-`width` closed loop — the expression the decrease query (5) hands
/// to the solver.
fn lie_derivative(width: usize) -> Expr {
    let x = Expr::var(0);
    let y = Expr::var(1);
    let dynamics = ErrorDynamics::new(reference_controller(width), 1.0);
    let field = dynamics.symbolic_vector_field();
    let w = (x.clone().powi(2) * 0.02 + (x.clone() * y.clone()) * 0.01 + y.clone().powi(2) * 0.13)
        .simplified();
    (w.differentiate(0) * field[0].clone() + w.differentiate(1) * field[1].clone()).simplified()
}

fn lp_bench(c: &mut Criterion) {
    // A generator-function-shaped LP: 7 variables (quadratic template in 2D
    // plus the margin), `rows` trace constraints.
    let mut group = c.benchmark_group("substrate/lp_solve");
    group.sample_size(10);
    for rows in [100usize, 400, 800] {
        group.bench_with_input(BenchmarkId::from_parameter(rows), &rows, |b, &rows| {
            let mut lp = LpProblem::new(7);
            lp.set_objective(&[0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -1.0]);
            for k in 0..rows {
                let t = k as f64 / rows as f64;
                let x = 4.0 * (1.0 - t) * (2.0 * std::f64::consts::PI * t).cos();
                let y = 1.4 * (1.0 - t) * (2.0 * std::f64::consts::PI * t).sin();
                // Positivity at (x, y).
                lp.add_constraint(&[x * x, x * y, y * y, x, y, 1.0, 0.0], Comparison::Ge, 1e-6);
                // Decrease toward a slightly contracted point.
                let (nx, ny) = (0.98 * x, 0.97 * y);
                lp.add_constraint(
                    &[
                        nx * nx - x * x,
                        nx * ny - x * y,
                        ny * ny - y * y,
                        nx - x,
                        ny - y,
                        0.0,
                        0.05,
                    ],
                    Comparison::Le,
                    -1e-6,
                );
            }
            lp.add_constraint(&[25.0, 7.8, 2.4, 5.0, 1.56, 1.0, 0.0], Comparison::Eq, 1.0);
            b.iter(|| lp.solve().map(|s| s.objective()));
        });
    }
    group.finish();
}

fn deltasat_bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate/deltasat");
    group.sample_size(20);
    let x = Expr::var(0);
    let y = Expr::var(1);
    let domain = IntervalBox::from_bounds(&[(-5.0, 5.0), (-1.6, 1.6)]);

    // An UNSAT polynomial/trigonometric query (full branch-and-prune pass).
    let unsat = Formula::atom(Constraint::ge(
        (x.clone().sin() * 2.0 + y.clone().powi(2)).simplified(),
        5.0,
    ));
    group.bench_function("unsat_poly_trig", |b| {
        let solver = DeltaSolver::new(1e-4);
        b.iter(|| solver.solve(&unsat, &domain));
    });

    // The paper-style decrease query for controllers of increasing width.
    for width in [10usize, 50] {
        let query = Formula::atom(Constraint::ge(lie_derivative(width), -1e-6));
        group.bench_with_input(
            BenchmarkId::new("decrease_query", width),
            &query,
            |b, query| {
                let solver = DeltaSolver::new(1e-4);
                b.iter(|| solver.solve(query, &domain));
            },
        );
    }
    group.finish();
}

/// Head-to-head microbenches of the compiled evaluation layer against the
/// tree-walking reference on the width-50 decrease-query expression:
/// interval evaluation, clause contraction (HC4), and the full δ-SAT solve.
fn tape_vs_tree_bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate/tape_vs_tree");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));

    let lie = lie_derivative(50);
    let constraint = Constraint::ge(lie.clone(), -1e-6);
    let clause = vec![constraint.clone()];
    let compiled = CompiledClause::compile(&clause);
    let tape = Tape::compile(&lie);
    let domain = IntervalBox::from_bounds(&[(-5.0, 5.0), (-1.6, 1.6)]);

    group.bench_function("eval_box/tree", |b| {
        b.iter(|| black_box(lie.eval_box(&domain)));
    });
    group.bench_function("eval_box/tape", |b| {
        let mut slots = Vec::new();
        b.iter(|| {
            tape.eval_interval_into(&domain, &mut slots);
            black_box(slots[tape.root_slot(0)])
        });
    });

    group.bench_function("hc4_contract/tree", |b| {
        b.iter(|| {
            let mut region = domain.clone();
            black_box(contract_clause(&clause, &mut region, 4))
        });
    });
    group.bench_function("hc4_contract/tape", |b| {
        let mut scratch = compiled.scratch();
        let mut region = domain.clone();
        b.iter(|| {
            region.clone_from(&domain);
            black_box(compiled.contract(&mut region, 4, &mut scratch))
        });
    });

    let query = Formula::atom(constraint);
    group.bench_function("decrease_query_50/tree", |b| {
        let solver = DeltaSolver::new(1e-4).with_tree_evaluator();
        b.iter(|| solver.solve(&query, &domain));
    });
    // The steady-state path the pipeline runs: compiled once, solved many
    // times (solve() would re-lower the query on every iteration).
    group.bench_function("decrease_query_50/tape", |b| {
        let solver = DeltaSolver::new(1e-4);
        let compiled = CompiledFormula::compile(&query);
        b.iter(|| solver.solve_compiled(&compiled, &domain));
    });
    group.finish();
}

/// A width-`width` clamped ("hardtanh") controller exported symbolically:
/// each neuron is `max(min(a·x + b·y + d, 1), −1)`.  This is the
/// `min`/`max`-rich workload region specialization thrives on — on regions
/// away from the switching surfaces the saturated neurons decide their
/// choices and their affine cones die.
fn clamped_lie_derivative(width: usize) -> Expr {
    let x = Expr::var(0);
    let y = Expr::var(1);
    let mut u = Expr::constant(0.0);
    for j in 0..width {
        let t = j as f64 / width as f64;
        let z =
            x.clone() * (2.0 * (t - 0.5)) + y.clone() * (1.5 * (0.5 - t).abs() + 0.1) + (t - 0.3);
        let neuron = z.min(Expr::constant(1.0)).max(Expr::constant(-1.0));
        u = u + neuron * (0.8 * (1.0 - t));
    }
    let w_dx = x.clone() * 0.04 + y.clone() * 0.01;
    let w_dy = x.clone() * 0.01 + y.clone() * 0.26;
    let f0 = y.clone();
    let f1 = u - y.clone() * 0.5;
    (w_dx * f0 + w_dy * f1).simplified()
}

/// Microbenches of the region-specialization layer: what one specialization
/// pass costs, what a shortened view saves per sweep, and the end-to-end
/// effect of specialization and derivative-guided cuts on the headline
/// decrease query.
fn specialize_bench(c: &mut Criterion) {
    use nncps_expr::SpecializeScratch;

    let mut group = c.benchmark_group("substrate/specialize");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));

    let clamped = clamped_lie_derivative(50);
    let tape = Tape::compile(&clamped);
    // A region away from the clamp switching surfaces: most neurons are
    // saturated, so their choices are decided and the view shrinks hard.
    let region = IntervalBox::from_bounds(&[(3.0, 3.5), (1.0, 1.25)]);
    let mut scratch = SpecializeScratch::default();
    let view = tape.specialize(&region, &mut scratch);
    assert!(
        view.len() < tape.num_slots(),
        "saturated clamps must shorten the tape ({} of {} slots left)",
        view.len(),
        tape.num_slots()
    );

    // Cost of one specialization pass (forward values precomputed, the
    // output view pooled — exactly the solver's steady-state shape).
    group.bench_function("derive_view", |b| {
        let mut slots = Vec::new();
        tape.eval_interval_into(&region, &mut slots);
        let keep = vec![true; tape.num_roots()];
        let mut out = nncps_expr::TapeView::default();
        b.iter(|| {
            black_box(tape.specialize_from_slots(&slots, &keep, &mut scratch, &mut out));
            black_box(out.len())
        });
    });

    group.bench_function("eval_box/full", |b| {
        let mut slots = Vec::new();
        b.iter(|| {
            tape.eval_interval_into(&region, &mut slots);
            black_box(slots[tape.root_slot(0)])
        });
    });
    group.bench_function("eval_box/specialized", |b| {
        let mut slots = Vec::new();
        let root = view.root_slot(0).expect("root kept");
        b.iter(|| {
            view.eval_interval_into(&tape, &region, &mut slots);
            black_box(slots[root])
        });
    });

    // The headline decrease query (width-50 tanh controller), solved with
    // the evaluation-layer accelerations peeled apart: full tape only,
    // + region specialization, + derivative-guided cuts (the default).
    let query = Formula::atom(Constraint::ge(lie_derivative(50), -1e-6));
    let compiled = CompiledFormula::compile(&query);
    compiled.ensure_gradients();
    let domain = IntervalBox::from_bounds(&[(-5.0, 5.0), (-1.6, 1.6)]);
    let configs: [(&str, DeltaSolver); 3] = [
        (
            "decrease_query_50/full",
            DeltaSolver::new(1e-4)
                .with_tape_specialization(false)
                .with_newton_cuts(false),
        ),
        (
            "decrease_query_50/specialized",
            DeltaSolver::new(1e-4).with_newton_cuts(false),
        ),
        (
            "decrease_query_50/specialized_newton",
            DeltaSolver::new(1e-4),
        ),
    ];
    for (name, solver) in configs {
        group.bench_function(name, |b| {
            b.iter(|| solver.solve_compiled(&compiled, &domain));
        });
    }

    // The same ablation on the clamped controller, where specialization has
    // choices to decide on every descent.
    let clamped_query = Formula::atom(Constraint::ge(clamped_lie_derivative(50), 0.05));
    let clamped_compiled = CompiledFormula::compile(&clamped_query);
    clamped_compiled.ensure_gradients();
    for (name, solver) in [
        (
            "clamped_query_50/full",
            DeltaSolver::new(1e-4)
                .with_tape_specialization(false)
                .with_newton_cuts(false),
        ),
        (
            "clamped_query_50/specialized",
            DeltaSolver::new(1e-4).with_newton_cuts(false),
        ),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| solver.solve_compiled(&clamped_compiled, &domain));
        });
    }
    group.finish();
}

/// A depth-`depth` ReLU ladder — the shape of a compiled NN controller after
/// symbolic export.  Unit-scale weights keep the signal alive through all
/// layers, so interval boxes away from the origin decide their `max(·, 0)`
/// branches one region at a time — the workload choice-trace-driven
/// respecialization exists for.
fn deep_relu_chain(depth: usize) -> Expr {
    let x = Expr::var(0);
    let y = Expr::var(1);
    let mut out = x * 0.9 + y * 0.1;
    for i in 0..depth {
        let w = 1.0 + 0.01 * (i % 5) as f64;
        let b = 0.01 * (i % 3) as f64;
        out = (out * w + b).max(Expr::constant(0.0)) - 0.01;
    }
    out
}

/// A depth-`depth` clipped-ReLU ("ReLU1") ladder with skip accumulation:
/// every layer gates `min(max(1.1·out + c, 0), 1)` and contributes to a
/// running sum, so every gate stays live at the root.  The branches decide
/// *progressively* with region size — on a region with positive lower bound
/// the `max(·, 0)` gates decide immediately, and the growing lower bound
/// saturates the `min(·, 1)` clips one layer at a time — so a specialization
/// descent shortens the view step by step instead of all at once, the shape
/// a real saturating controller produces.
fn clipped_relu_ladder(depth: usize) -> Expr {
    let x = Expr::var(0);
    let y = Expr::var(1);
    let mut out = x.clone() * 0.45 + y.clone() * 0.05;
    let mut acc = Expr::constant(0.0);
    for i in 0..depth {
        let c = 0.01 + 0.001 * (i % 3) as f64;
        // Input taps widen the pre-activation cone; the whole cone dies the
        // moment the layer's clip saturates.
        let z = out * 1.1
            + x.clone() * (0.015 + 0.001 * (i % 4) as f64)
            + y.clone() * (0.004 + 0.001 * (i % 2) as f64)
            + c;
        let gate = z.max(Expr::constant(0.0)).min(Expr::constant(1.0));
        // Tap the trunk every fourth layer: untapped decided layers reduce
        // to pure aliases and vanish from the specialized view entirely.
        if i % 4 == 0 {
            acc = acc + gate.clone() * (0.5 + 0.01 * (i % 7) as f64);
        }
        out = gate;
    }
    acc + out
}

/// Choice-trace-driven respecialization against the full three-pass
/// derivation it replaced.  `rederive` is what every descent step used to
/// cost: decide/mark/emit over the whole parent program from fresh interval
/// enclosures.  `delta` is the new steady-state step: the recorded choice
/// trace of the sweep the solver ran anyway, one delta check over the open
/// choices, and a single emit pass over the (already shortened) parent view.
/// `delta_noop` is the no-new-decisions case — the delta check alone, which
/// is what repeated descents through an already-specialized region pay.
/// ci.sh gates `delta` at >= 2x over `rederive`.
fn choice_spec_bench(c: &mut Criterion) {
    use nncps_expr::{Choice, ChoiceAnalysis, SpecializeScratch, TapeView};

    let mut group = c.benchmark_group("substrate/choice_spec");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));

    let expr = clipped_relu_ladder(96);
    let tape = Tape::compile(&expr);
    let analysis = ChoiceAnalysis::analyze(&tape);
    let keep = vec![true; tape.num_roots()];
    let mut scratch = SpecializeScratch::default();

    // The parent region decides the early `max` gates and the deep saturated
    // tail but leaves the mid-ladder `min` clips open — a mid-descent view,
    // already much shorter than the tape.  The child is a bisection-style
    // sub-region whose higher lower bound saturates the remaining clips, so
    // the recorded trace triggers a real emit pass.
    let parent_region = IntervalBox::from_bounds(&[(1.0, 4.0), (0.0, 1.0)]);
    let child_region = IntervalBox::from_bounds(&[(2.5, 4.0), (0.0, 1.0)]);
    let view = tape.specialize(&parent_region, &mut scratch);
    assert!(
        view.num_open_choices() > 0,
        "the parent region must leave choices open"
    );
    assert!(
        view.len() * 2 < tape.num_slots(),
        "the parent view must be mid-descent short ({} of {} slots)",
        view.len(),
        tape.num_slots()
    );

    // The solver's steady state: by the time respecialization runs, the
    // forward sweep over the child (and its choice trace) already exists.
    let mut slots = Vec::new();
    let mut choices = vec![Choice::Both; tape.num_choices()];
    view.eval_interval_extend_into_recording(
        &tape,
        &child_region,
        &mut slots,
        view.len(),
        &mut choices,
    );
    let mut full_slots = Vec::new();
    tape.eval_interval_into(&child_region, &mut full_slots);
    let mut parent_slots = Vec::new();
    let mut parent_choices = vec![Choice::Both; tape.num_choices()];
    view.eval_interval_extend_into_recording(
        &tape,
        &parent_region,
        &mut parent_slots,
        view.len(),
        &mut parent_choices,
    );

    {
        // Sanity: the child trace triggers a real emit pass and shortens the
        // view; the parent's own trace takes the early exit.
        let mut out = TapeView::default();
        assert!(view.respecialize_into(
            &tape,
            &analysis,
            &slots,
            &choices,
            &keep,
            &mut scratch,
            &mut out
        ));
        assert!(out.len() < view.len(), "the negative cone must specialize");
        assert!(!view.respecialize_into(
            &tape,
            &analysis,
            &parent_slots,
            &parent_choices,
            &keep,
            &mut scratch,
            &mut out
        ));
    }

    group.bench_function("deep_relu/rederive", |b| {
        let mut out = TapeView::default();
        b.iter(|| {
            black_box(tape.specialize_from_slots(&full_slots, &keep, &mut scratch, &mut out));
            black_box(out.len())
        });
    });
    group.bench_function("deep_relu/delta", |b| {
        let mut out = TapeView::default();
        b.iter(|| {
            black_box(view.respecialize_into(
                &tape,
                &analysis,
                &slots,
                &choices,
                &keep,
                &mut scratch,
                &mut out,
            ));
            black_box(out.len())
        });
    });
    group.bench_function("deep_relu/delta_noop", |b| {
        let mut out = TapeView::default();
        b.iter(|| {
            black_box(view.respecialize_into(
                &tape,
                &analysis,
                &parent_slots,
                &parent_choices,
                &keep,
                &mut scratch,
                &mut out,
            ))
        });
    });

    // End-to-end: the deep ReLU decrease-style query from the solver's
    // bit-identity test, with specialization on (the default path the
    // choice traces accelerate) and off.
    let query = Formula::atom(Constraint::ge(deep_relu_chain(24), 0.4));
    let compiled = CompiledFormula::compile(&query);
    let domain = IntervalBox::from_bounds(&[(-1.5, 1.5), (-1.5, 1.5)]);
    for (name, solver) in [
        (
            "deep_relu_query/specialized",
            DeltaSolver::new(1e-4).with_newton_cuts(false),
        ),
        (
            "deep_relu_query/full",
            DeltaSolver::new(1e-4)
                .with_tape_specialization(false)
                .with_newton_cuts(false),
        ),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| solver.solve_compiled(&compiled, &domain));
        });
    }
    group.finish();
}

fn nn_bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate/nn");
    for width in [10usize, 100, 1000] {
        let network = reference_controller(width);
        group.bench_with_input(
            BenchmarkId::new("forward", width),
            &network,
            |b, network| b.iter(|| network.forward(&[1.2, -0.4])[0]),
        );
    }
    let network = reference_controller(100);
    group.bench_function("symbolic_export_100", |b| {
        b.iter(|| {
            network
                .forward_symbolic(&[Expr::var(0), Expr::var(1)])
                .len()
        });
    });
    group.finish();
}

fn sim_bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate/sim");
    let dynamics = ErrorDynamics::new(reference_controller(10), 1.0);
    for (label, integrator) in [
        ("euler", Integrator::Euler),
        ("rk4", Integrator::RungeKutta4),
    ] {
        group.bench_with_input(
            BenchmarkId::new("closed_loop_10s", label),
            &integrator,
            |b, &integrator| {
                let simulator = Simulator::new(integrator, 0.05, 10.0);
                b.iter(|| simulator.simulate(&dynamics, &[0.9, 0.15]).len());
            },
        );
    }
    group.finish();
}

fn family_sweep_bench(c: &mut Criterion) {
    use nncps_scenarios::{builtin_families, run_sweep, Family, SweepOptions};

    // The CI family: 24 generated members over contraction rate × X0 ×
    // solver precision.  `warm_24` shares one fresh SweepCache across the
    // whole sweep (compiled queries, seed traces, LP candidates, built
    // dynamics); `cold_24` runs every member independently — the
    // per-scenario path a sweep engine without warm start would take.
    // Reports are byte-identical either way (asserted by
    // tests/family_warm_start.rs); the ratio of these two medians is the
    // warm-start speedup ci.sh records in BENCH_pr5.json.
    let family: Vec<Family> = builtin_families()
        .into_iter()
        .filter(|f| f.name() == "linear-ci-grid")
        .collect();
    assert_eq!(family.len(), 1, "the CI family exists");
    let mut group = c.benchmark_group("substrate/family_sweep");
    group.sample_size(10);
    for (name, warm_start) in [("warm_24", true), ("cold_24", false)] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let report = run_sweep(
                    &family,
                    &SweepOptions {
                        threads: 1,
                        warm_start,
                        ..SweepOptions::default()
                    },
                )
                .expect("the CI family expands");
                black_box(report.results.len())
            });
        });
    }
    group.finish();
}

/// PR 7: budget-poll overhead on the headline decrease query.  The
/// `ungoverned` lane re-measures the pinned headline in this run; the
/// `governed` lane runs the identical query under a fuel budget generous
/// enough to never trip, so the difference is pure governance overhead
/// (one charge + three relaxed atomic loads per box pop).  ci.sh holds the
/// governed lane to ≤2% over the ungoverned lane and anchors it against
/// the BENCH_pr6.json record of the ungoverned headline.
fn govern_bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate/govern");
    // Generous sampling: the ≤2% overhead gate compares best-case
    // (minimum) sample times, which converge with sample count even on a
    // noisy shared host where medians swing several percent.
    group.sample_size(40);
    let domain = IntervalBox::from_bounds(&[(-5.0, 5.0), (-1.6, 1.6)]);
    let query = Formula::atom(Constraint::ge(lie_derivative(50), -1e-6));
    group.bench_function("decrease_query_50/ungoverned", |b| {
        let solver = DeltaSolver::new(1e-4);
        b.iter(|| solver.solve(&query, &domain));
    });
    group.bench_function("decrease_query_50/governed", |b| {
        let budget = nncps_deltasat::Budget::unlimited().with_fuel(u64::MAX / 2);
        let solver = DeltaSolver::new(1e-4).with_budget(budget);
        b.iter(|| solver.solve(&query, &domain));
    });
    group.finish();
}

/// PR 8: request overhead of the verification service.  Both lanes perform
/// the same verification work — the two-member smoke family, fresh caches
/// every iteration, one scenario thread — but `served` routes it through the
/// full protocol path on a freshly built [`ServeEngine`] (request parse,
/// worker-pool dispatch, member-event serialization, report embedding),
/// while `direct` calls the sweep engine in process and serializes the same
/// deterministic report.  The difference between their best-case times is
/// pure service overhead; ci.sh holds it to ≤5%.
fn serve_bench(c: &mut Criterion) {
    use nncps_scenarios::{
        run_sweep, AxisParam, Family, ParamAxis, Registry, ServeEngine, ServeOptions, SweepOptions,
        SMOKE_MANIFEST,
    };

    let registry = Registry::from_toml_str(SMOKE_MANIFEST).expect("smoke manifest parses");
    let base = registry
        .get("smoke-stable-spiral")
        .expect("smoke scenario exists")
        .clone();
    let families = vec![Family::new("smoke-pair", "delta pair", base)
        .with_axis(ParamAxis::grid(AxisParam::Delta, vec![1e-3, 1e-4]))
        .with_counts(2, 0)];

    let mut group = c.benchmark_group("substrate/serve");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_secs(4));
    group.bench_function("direct", |b| {
        b.iter(|| {
            let report = run_sweep(
                &families,
                &SweepOptions {
                    threads: 1,
                    warm_start: true,
                    ..SweepOptions::default()
                },
            )
            .expect("smoke family expands");
            black_box(report.to_json(false).len())
        });
    });
    group.bench_function("served", |b| {
        b.iter(|| {
            let engine = ServeEngine::new(
                families.clone(),
                &ServeOptions {
                    threads: 1,
                    store: None,
                },
            )
            .expect("engine builds");
            let mut last = 0usize;
            engine.handle_line(
                "{\"op\": \"submit\", \"family\": \"smoke-pair\"}",
                &mut |r| {
                    last = r.len();
                },
            );
            black_box(last)
        });
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().measurement_time(std::time::Duration::from_secs(8));
    targets = lp_bench, deltasat_bench, tape_vs_tree_bench, specialize_bench,
        choice_spec_bench, nn_bench, sim_bench,
        family_sweep_bench, govern_bench, serve_bench
}
criterion_main!(benches);
