//! Level-set selection: finding `ℓ` such that `X0 ⊆ {W ≤ ℓ}` and
//! `{W ≤ ℓ} ∩ U = ∅`.

use nncps_deltasat::{CompiledFormula, DeltaSolver, ExhaustionReason, SatResult, SolverStats};
use nncps_linalg::{Matrix, Vector};

use crate::{GeneratorFunction, QueryBuilder, SafetySpec};

/// Outcome of the level-set search.
#[derive(Debug, Clone, PartialEq)]
pub enum LevelSetResult {
    /// A level was found and both SMT queries (6) and (7) returned UNSAT.
    Found {
        /// The selected level `ℓ`.
        level: f64,
        /// Number of candidate levels examined.
        iterations: usize,
    },
    /// No admissible level exists for this generator function (the geometric
    /// bracket is empty) or the iteration budget was exhausted.
    NotFound {
        /// Human-readable explanation.
        reason: String,
        /// Number of candidate levels examined.
        iterations: usize,
    },
}

impl LevelSetResult {
    /// The selected level, if one was found.
    pub fn level(&self) -> Option<f64> {
        match self {
            LevelSetResult::Found { level, .. } => Some(*level),
            LevelSetResult::NotFound { .. } => None,
        }
    }
}

/// Selects a level-set size `ℓ` for a candidate generator function, following
/// Section 3 of the paper:
///
/// 1. geometrically bracket the admissible levels — `ℓ` must be at least the
///    maximum of `W` over the vertices of the rectangular `X0`, and at most
///    the minimum of `W` over each hyperplane bounding the unsafe halfspaces,
/// 2. pick a candidate in the bracket and confirm it with the two δ-SAT
///    queries (6) and (7), adjusting by bisection on a SAT answer.
#[derive(Debug, Clone)]
pub struct LevelSetSelector {
    max_iterations: usize,
    margin: f64,
}

impl LevelSetSelector {
    /// Creates a selector that tries at most `max_iterations` candidate levels.
    pub fn new(max_iterations: usize) -> Self {
        LevelSetSelector {
            max_iterations: max_iterations.max(1),
            margin: 1e-6,
        }
    }

    /// Geometric bracket `(ℓ_min, ℓ_max)` of admissible levels, or `None` when
    /// the generator function cannot separate `X0` from `U` (bracket empty or
    /// quadratic part not positive definite).
    pub fn bracket(&self, generator: &GeneratorFunction, spec: &SafetySpec) -> Option<(f64, f64)> {
        if !generator.is_positive_definite(1e-12) {
            return None;
        }
        // Lower bound: W is convex, so its maximum over the rectangle X0 is
        // attained at a vertex.
        let lower = spec
            .initial_set()
            .corners()
            .iter()
            .map(|corner| generator.evaluate(corner))
            .fold(f64::NEG_INFINITY, f64::max);
        // Upper bound: the sublevel set must not reach any unsafe halfspace.
        // For each halfspace {a·x >= b} the critical level is the minimum of W
        // on the bounding hyperplane {a·x = b} (if the global minimizer of W
        // already lies in the halfspace no level works).
        let mut upper = f64::INFINITY;
        for halfspace in spec.unsafe_halfspaces() {
            let minimizer = generator.minimizer()?;
            if halfspace.contains(&minimizer) {
                return None;
            }
            let critical = constrained_minimum(generator, halfspace.normal(), halfspace.offset())?;
            upper = upper.min(critical);
        }
        if upper <= lower + self.margin {
            None
        } else {
            Some((lower, upper))
        }
    }

    /// Runs the full selection: bracket, then bisection confirmed by the SMT
    /// queries (6) and (7).
    pub fn select(
        &self,
        generator: &GeneratorFunction,
        spec: &SafetySpec,
        queries: &QueryBuilder<'_>,
        solver: &DeltaSolver,
    ) -> LevelSetResult {
        self.select_with_stats(generator, spec, queries, solver).0
    }

    /// Like [`LevelSetSelector::select`], but also returns the accumulated
    /// δ-SAT search statistics of all confirmation queries (6) and (7), so
    /// the pipeline can surface the total solver effort in its run report.
    pub fn select_with_stats(
        &self,
        generator: &GeneratorFunction,
        spec: &SafetySpec,
        queries: &QueryBuilder<'_>,
        solver: &DeltaSolver,
    ) -> (LevelSetResult, SolverStats) {
        let mut stats = SolverStats::default();
        let Some((mut low, mut high)) = self.bracket(generator, spec) else {
            return (
                LevelSetResult::NotFound {
                    reason: "no admissible level separates X0 from the unsafe set".to_string(),
                    iterations: 0,
                },
                stats,
            );
        };
        // Start in the middle of the bracket: maximal slack on both sides.
        for iteration in 1..=self.max_iterations {
            // Cooperative governance poll at the bisection loop head: the
            // solver's budget is shared with the whole verification run, so
            // a cancellation, expired deadline, or fuel exhaustion from an
            // earlier query stops the search before issuing another one.
            if let Some(reason) = solver.budget().check() {
                return (
                    LevelSetResult::NotFound {
                        reason: format!("level-set search stopped: {reason}"),
                        iterations: iteration - 1,
                    },
                    stats,
                );
            }
            let level = 0.5 * (low + high);
            // Query (6): is some initial state outside the sublevel set?
            // Both confirmation queries are compiled to evaluation tapes
            // before solving, like every other query the pipeline issues.
            let (q6, x0_domain) = queries.initial_containment_query(generator, level);
            let q6 = CompiledFormula::compile(&q6);
            let (q6_result, q6_stats) = solver.solve_compiled_with_stats(&q6, &x0_domain);
            stats.merge(&q6_stats);
            if let Some(reason) = governed_exhaustion(&q6_result) {
                return (
                    LevelSetResult::NotFound {
                        reason: format!("level-set search stopped: {reason}"),
                        iterations: iteration,
                    },
                    stats,
                );
            }
            if !q6_result.is_unsat() {
                // Level too small: move up.
                low = level;
                continue;
            }
            // Query (7): does the sublevel set intersect the unsafe region?
            let Some((q7, unsafe_domain)) = queries.unsafe_disjointness_query(generator, level)
            else {
                return (
                    LevelSetResult::NotFound {
                        reason: "sublevel sets of the candidate are unbounded".to_string(),
                        iterations: iteration,
                    },
                    stats,
                );
            };
            let q7 = CompiledFormula::compile(&q7);
            let (q7_result, q7_stats) = solver.solve_compiled_with_stats(&q7, &unsafe_domain);
            stats.merge(&q7_stats);
            if let Some(reason) = governed_exhaustion(&q7_result) {
                return (
                    LevelSetResult::NotFound {
                        reason: format!("level-set search stopped: {reason}"),
                        iterations: iteration,
                    },
                    stats,
                );
            }
            if !q7_result.is_unsat() {
                // Level too large: move down.
                high = level;
                continue;
            }
            return (
                LevelSetResult::Found {
                    level,
                    iterations: iteration,
                },
                stats,
            );
        }
        (
            LevelSetResult::NotFound {
                reason: format!(
                    "no level confirmed within {} bisection iterations",
                    self.max_iterations
                ),
                iterations: self.max_iterations,
            },
            stats,
        )
    }
}

impl Default for LevelSetSelector {
    fn default() -> Self {
        LevelSetSelector::new(30)
    }
}

/// The run-global exhaustion carried by a confirmation-query answer, if any.
///
/// A per-query box-budget `Unknown` keeps the legacy bisection treatment
/// (indistinguishable from SAT, so the search adjusts the bracket and moves
/// on — later, easier queries can still confirm a level), while fuel,
/// deadline, and cancellation are properties of the *run*: every further
/// query would return the same answer, so the search stops immediately.
fn governed_exhaustion(result: &SatResult) -> Option<ExhaustionReason> {
    match result {
        SatResult::Unknown(reason) if !matches!(reason, ExhaustionReason::Boxes(_)) => {
            Some(*reason)
        }
        _ => None,
    }
}

/// Minimum of `W(x) = xᵀPx + qᵀx + c` subject to `a·x = b`, via the KKT
/// system `[2P  a; aᵀ 0] [x; λ] = [−q; b]`.
fn constrained_minimum(generator: &GeneratorFunction, a: &[f64], b: f64) -> Option<f64> {
    let n = generator.dim();
    let p = generator.quadratic_part();
    let q = generator.linear_part();
    let mut kkt = Matrix::zeros(n + 1, n + 1);
    for i in 0..n {
        for j in 0..n {
            kkt[(i, j)] = 2.0 * p[(i, j)];
        }
        kkt[(i, n)] = a[i];
        kkt[(n, i)] = a[i];
    }
    let rhs = Vector::from_fn(n + 1, |i| if i < n { -q[i] } else { b });
    let solution = kkt.solve(&rhs).ok()?;
    let x: Vec<f64> = (0..n).map(|i| solution[i]).collect();
    Some(generator.evaluate(&x))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ClosedLoopSystem;
    use nncps_expr::Expr;
    use nncps_interval::IntervalBox;

    fn spec() -> SafetySpec {
        SafetySpec::rectangular(
            IntervalBox::from_bounds(&[(-0.5, 0.5), (-0.5, 0.5)]),
            IntervalBox::from_bounds(&[(-3.0, 3.0), (-3.0, 3.0)]),
        )
    }

    fn system() -> ClosedLoopSystem {
        ClosedLoopSystem::new(vec![-Expr::var(0), -Expr::var(1)], spec())
    }

    fn circle() -> GeneratorFunction {
        GeneratorFunction::new(Matrix::identity(2), Vector::zeros(2), 0.0)
    }

    #[test]
    fn constrained_minimum_of_circle_on_line() {
        // min x^2 + y^2 s.t. x = 3  ->  9 at (3, 0).
        let value = constrained_minimum(&circle(), &[1.0, 0.0], 3.0).unwrap();
        assert!((value - 9.0).abs() < 1e-9);
        // min x^2 + y^2 s.t. x + y = 2 -> 2 at (1, 1).
        let value = constrained_minimum(&circle(), &[1.0, 1.0], 2.0).unwrap();
        assert!((value - 2.0).abs() < 1e-9);
    }

    #[test]
    fn bracket_for_circle_matches_geometry() {
        let selector = LevelSetSelector::default();
        let (low, high) = selector.bracket(&circle(), &spec()).unwrap();
        // Max of x^2+y^2 over the X0 corners (|x|=|y|=0.5) is 0.5.
        assert!((low - 0.5).abs() < 1e-9);
        // Min over each unsafe hyperplane (|x|=3 or |y|=3) is 9.
        assert!((high - 9.0).abs() < 1e-9);
    }

    #[test]
    fn bracket_rejects_indefinite_or_too_tight_generators() {
        let selector = LevelSetSelector::default();
        let indefinite = GeneratorFunction::new(
            Matrix::from_diagonal(&Vector::from_slice(&[1.0, -1.0])),
            Vector::zeros(2),
            0.0,
        );
        assert!(selector.bracket(&indefinite, &spec()).is_none());

        // A generator whose minimizer sits inside the unsafe set cannot work.
        let shifted = GeneratorFunction::new(
            Matrix::identity(2),
            Vector::from_slice(&[-8.0, 0.0]), // minimizer at (4, 0), unsafe
            0.0,
        );
        assert!(selector.bracket(&shifted, &spec()).is_none());
    }

    #[test]
    fn selection_confirms_level_with_smt() {
        let system = system();
        let queries = QueryBuilder::new(&system, 1e-6);
        let solver = DeltaSolver::new(1e-3);
        let selector = LevelSetSelector::default();
        let result = selector.select(&circle(), system.spec(), &queries, &solver);
        match result {
            LevelSetResult::Found { level, iterations } => {
                assert!(level > 0.5 && level < 9.0, "level {level}");
                assert!(iterations >= 1);
            }
            LevelSetResult::NotFound { reason, .. } => panic!("selection failed: {reason}"),
        }
    }

    #[test]
    fn cancelled_budget_stops_the_level_search() {
        let system = system();
        let queries = QueryBuilder::new(&system, 1e-6);
        let budget = nncps_deltasat::Budget::unlimited();
        budget.cancel();
        let solver = DeltaSolver::new(1e-3).with_budget(budget);
        let selector = LevelSetSelector::default();
        let result = selector.select(&circle(), system.spec(), &queries, &solver);
        match result {
            LevelSetResult::NotFound { reason, iterations } => {
                assert!(reason.contains("cancelled"), "{reason}");
                assert_eq!(iterations, 0);
            }
            other => panic!("expected NotFound, got {other:?}"),
        }
    }

    #[test]
    fn fuel_exhaustion_mid_search_stops_the_level_search() {
        let system = system();
        let queries = QueryBuilder::new(&system, 1e-6);
        // A tiny fuel allowance: the first confirmation query exhausts it
        // and the search must stop instead of bisecting forever on Unknowns.
        let solver =
            DeltaSolver::new(1e-3).with_budget(nncps_deltasat::Budget::unlimited().with_fuel(10));
        let selector = LevelSetSelector::default();
        let result = selector.select(&circle(), system.spec(), &queries, &solver);
        match result {
            LevelSetResult::NotFound { reason, iterations } => {
                assert!(reason.contains("fuel budget"), "{reason}");
                assert!(iterations <= 1, "iterations {iterations}");
            }
            other => panic!("expected NotFound, got {other:?}"),
        }
    }

    #[test]
    fn selection_reports_failure_for_hopeless_generator() {
        let system = system();
        let queries = QueryBuilder::new(&system, 1e-6);
        let solver = DeltaSolver::new(1e-3);
        let selector = LevelSetSelector::new(5);
        let shifted =
            GeneratorFunction::new(Matrix::identity(2), Vector::from_slice(&[-8.0, 0.0]), 0.0);
        let result = selector.select(&shifted, system.spec(), &queries, &solver);
        assert!(matches!(result, LevelSetResult::NotFound { .. }));
        assert_eq!(result.level(), None);
    }
}
