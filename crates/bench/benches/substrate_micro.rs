//! Microbenchmarks of the substrates the verification pipeline is built on:
//! the LP solver, the δ-SAT solver, the symbolic expression layer, the neural
//! network forward pass, and the ODE integrators.  These locate where the
//! Table 1 time goes as the controller grows.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use nncps_bench::paper_system;
use nncps_deltasat::{
    contract_clause, CompiledClause, CompiledFormula, Constraint, DeltaSolver, Formula,
};
use nncps_dubins::{reference_controller, ErrorDynamics};
use nncps_expr::{Expr, Tape};
use nncps_interval::IntervalBox;
use nncps_lp::{Comparison, LpProblem};
use nncps_sim::{FnDynamics, Integrator, Simulator};

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
    // The closed loop the pipeline simulates: the width-100 Dubins field
    // exported symbolically.  `tree` walks every component with `Expr::eval`
    // per evaluation (the reference the compiled path must match bit for
    // bit); `compiled` integrates the system itself, which evaluates its
    // field through one tape and steps through a per-trace workspace.
    let system = paper_system(100);
    let field = system.vector_field();
    let tree = FnDynamics::new(field.len(), |x: &[f64]| {
        field.iter().map(|component| component.eval(x)).collect()
    });
    let simulator = Simulator::new(Integrator::RungeKutta4, 0.01, 2.0);
    let mut group = c.benchmark_group("substrate/sim/closed_loop_w100");
    group.sample_size(20);
    group.bench_function("tree", |b| {
        b.iter(|| simulator.simulate(&tree, &[0.9, 0.15]).len());
    });
    group.bench_function("compiled", |b| {
        b.iter(|| simulator.simulate(&system, &[0.9, 0.15]).len());
    });
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
    targets = lp_bench, deltasat_bench, tape_vs_tree_bench, nn_bench, sim_bench,
        family_sweep_bench, govern_bench, serve_bench
}
criterion_main!(benches);
