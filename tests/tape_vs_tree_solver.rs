//! Differential test: the compiled-tape solver is observationally identical
//! to the tree-walking reference on the *actual* queries the pipeline issues
//! — the same query classes exercised by `solver_vs_simulation.rs` and
//! `cross_crate_consistency.rs`.
//!
//! "Identical" is strict: the same verdict, the same witness box bit for
//! bit, and the same search statistics (boxes explored / pruned /
//! bisections), i.e. both evaluators walk the same box tree.  The compiled
//! side is the default solver, exactly as the pipeline runs it.

use nncps_barrier::{
    ClosedLoopSystem, QuadraticTemplate, QueryBuilder, SafetySpec, VerificationRequest,
    VerificationSession,
};
use nncps_deltasat::{Constraint, DeltaSolver, Formula, SatResult};
use nncps_dubins::{reference_controller, ErrorDynamics};
use nncps_expr::Expr;
use nncps_interval::IntervalBox;
use nncps_scenarios::Registry;

fn paper_spec() -> SafetySpec {
    let eps = 0.01;
    let pi = std::f64::consts::PI;
    SafetySpec::rectangular(
        IntervalBox::from_bounds(&[(-1.0, 1.0), (-pi / 16.0, pi / 16.0)]),
        IntervalBox::from_bounds(&[(-5.0, 5.0), (-(pi / 2.0 - eps), pi / 2.0 - eps)]),
    )
}

/// Solves the query through the default (compiled) solver and through the
/// tree-walking reference, asserts both explore the same box tree, and
/// returns the shared verdict.
fn assert_identical(
    what: &str,
    formula: &Formula,
    domain: &IntervalBox,
    solver: DeltaSolver,
) -> SatResult {
    let reference = solver.clone().with_tree_evaluator();
    let (fast_result, fast_stats) = solver.solve_with_stats(formula, domain);
    let (ref_result, ref_stats) = reference.solve_with_stats(formula, domain);
    assert_eq!(fast_stats, ref_stats, "{what}: stats diverge");
    match (&fast_result, &ref_result) {
        (SatResult::DeltaSat(a), SatResult::DeltaSat(b)) => {
            assert_eq!(a, b, "{what}: witness boxes diverge");
        }
        (SatResult::Unsat, SatResult::Unsat) => {}
        (SatResult::Unknown(a), SatResult::Unknown(b)) => {
            assert_eq!(a, b, "{what}: unknown reasons diverge");
        }
        (a, b) => panic!("{what}: verdicts diverge: {a} vs {b}"),
    }
    fast_result
}

#[test]
fn decrease_queries_explore_identical_box_trees() {
    // The paper's query (5) over the symbolically exported NN controller,
    // both for a sound candidate (UNSAT path: the full search tree must
    // match) and an upside-down candidate (δ-SAT path: the witness and the
    // path to it must match).
    let spec = paper_spec();
    let dynamics = ErrorDynamics::new(reference_controller(10), 1.0);
    let system = ClosedLoopSystem::new(dynamics.symbolic_vector_field(), spec);
    let queries = QueryBuilder::new(&system, 1e-6);
    let template = QuadraticTemplate::new(2);

    let plausible = template.instantiate(&[0.02, 0.01, 0.13, 0.0, 0.0, 0.0]);
    let (formula, domain) = queries.decrease_query(&plausible);
    assert_identical(
        "decrease/plausible",
        &formula,
        &domain,
        DeltaSolver::new(1e-4),
    );

    let upside_down = template.instantiate(&[-1.0, 0.0, -1.0, 0.0, 0.0, 0.0]);
    let (formula, domain) = queries.decrease_query(&upside_down);
    assert_identical(
        "decrease/upside-down",
        &formula,
        &domain,
        DeltaSolver::new(1e-4),
    );
}

#[test]
fn level_set_queries_explore_identical_box_trees() {
    // Queries (6) and (7) at bracketing levels, matching the level-set
    // bisection the pipeline runs.
    let spec = paper_spec();
    let dynamics = ErrorDynamics::new(reference_controller(10), 1.0);
    let system = ClosedLoopSystem::new(dynamics.symbolic_vector_field(), spec);
    let queries = QueryBuilder::new(&system, 1e-6);
    let w = QuadraticTemplate::new(2).instantiate(&[1.0, 0.0, 1.0, 0.0, 0.0, 0.0]);

    for level in [0.3, 1.2, 9.0] {
        let (q6, x0_domain) = queries.initial_containment_query(&w, level);
        assert_identical(
            "initial containment",
            &q6,
            &x0_domain,
            DeltaSolver::new(1e-4),
        );
        if let Some((q7, unsafe_domain)) = queries.unsafe_disjointness_query(&w, level) {
            assert_identical(
                "unsafe disjointness",
                &q7,
                &unsafe_domain,
                DeltaSolver::new(1e-4),
            );
        }
    }
}

#[test]
fn nn_output_bound_query_explores_identical_box_tree() {
    // The cross-crate suite's bounded-activation query over a symbolically
    // exported controller.
    let controller = reference_controller(5);
    let symbolic = controller.forward_symbolic(&[Expr::var(0), Expr::var(1)])[0].clone();
    let query = Formula::atom(Constraint::ge(symbolic, 1.0001));
    let domain = IntervalBox::from_bounds(&[(-5.0, 5.0), (-2.0, 2.0)]);
    assert_identical("nn bound", &query, &domain, DeltaSolver::new(1e-4));
}

#[test]
fn registry_certificates_reprove_identically_through_both_evaluators() {
    // Every builtin scenario is verified cold; each certificate it produces
    // rests on three UNSAT answers, which are re-derived here through the
    // compiled solver and the tree reference with the scenario's own solver
    // settings: query (5) (decrease) for the final generator, and queries
    // (6) and (7) (level-set containment and disjointness) at its level.
    let registry = Registry::builtin();
    let mut certified = 0;
    for scenario in registry.iter() {
        let system = scenario.build_system();
        let config = scenario.config();
        let request = VerificationRequest::over(&system).with_config(config.clone());
        let outcome = VerificationSession::new().verify(&request.cold());
        let Some(certificate) = outcome.certificate() else {
            continue;
        };
        certified += 1;
        let name = scenario.name();
        let solver = DeltaSolver::new(config.delta).with_max_boxes(config.max_smt_boxes);
        let queries = QueryBuilder::new(&system, config.gamma);
        let generator = certificate.generator();
        let level = certificate.level();

        let (q5, domain) = queries.decrease_query(generator);
        let verdict = assert_identical(&format!("{name}: (5)"), &q5, &domain, solver.clone());
        assert!(verdict.is_unsat(), "{name}: (5) is {verdict}");
        let (q6, domain) = queries.initial_containment_query(generator, level);
        let verdict = assert_identical(&format!("{name}: (6)"), &q6, &domain, solver.clone());
        assert!(verdict.is_unsat(), "{name}: (6) is {verdict}");
        if let Some((q7, domain)) = queries.unsafe_disjointness_query(generator, level) {
            let verdict = assert_identical(&format!("{name}: (7)"), &q7, &domain, solver);
            assert!(verdict.is_unsat(), "{name}: (7) is {verdict}");
        }
    }
    assert_eq!(certified, 7, "the registry pins seven certified scenarios");
}
