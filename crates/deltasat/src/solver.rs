//! Branch-and-prune δ-SAT search.

use std::fmt;

use nncps_interval::IntervalBox;
use nncps_parallel::{Budget, ExhaustionReason};

use crate::compiled::{ClauseFeasibility, ClauseScratch, CompiledClause, CompiledFormula};
use crate::contractor::contract_clause;
use crate::{Constraint, Feasibility, Formula};

/// Outcome of a δ-SAT query.
#[derive(Debug, Clone)]
pub enum SatResult {
    /// The δ-weakening of the formula is satisfiable; the returned box has
    /// width at most the solver precision and its midpoint is a witness.
    DeltaSat(IntervalBox),
    /// The formula is unsatisfiable (exact result — no real solution exists).
    Unsat,
    /// The solver exhausted a resource limit — its box budget, the
    /// governing [`Budget`]'s fuel or deadline, or a cooperative
    /// cancellation — before reaching a verdict.
    Unknown(ExhaustionReason),
}

impl SatResult {
    /// Returns `true` for [`SatResult::Unsat`].
    pub fn is_unsat(&self) -> bool {
        matches!(self, SatResult::Unsat)
    }

    /// Returns `true` for [`SatResult::DeltaSat`].
    pub fn is_delta_sat(&self) -> bool {
        matches!(self, SatResult::DeltaSat(_))
    }

    /// Returns the witness midpoint for a δ-SAT result, if any.
    pub fn witness(&self) -> Option<Vec<f64>> {
        match self {
            SatResult::DeltaSat(region) => Some(region.midpoint()),
            _ => None,
        }
    }
}

impl fmt::Display for SatResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SatResult::DeltaSat(region) => write!(f, "delta-sat {region}"),
            SatResult::Unsat => write!(f, "unsat"),
            SatResult::Unknown(reason) => write!(f, "unknown ({reason})"),
        }
    }
}

/// Statistics gathered during a solve call.
///
/// The first four counters describe the *shape of the search tree* and are
/// what [`PartialEq`] compares: two solves are considered equal when they
/// explored the same tree.  The remaining counters
/// ([`SolverStats::instructions_executed`],
/// [`SolverStats::specialized_tape_len_sum`], [`SolverStats::newton_cuts`])
/// are evaluation-cost instrumentation: they depend on which evaluation
/// backend ran (compiled tape or tree reference) even when the search tree
/// is bit-identical, so they are deliberately excluded from equality — and,
/// downstream, from the scenario-report fingerprints.
#[derive(Debug, Clone, Copy, Default)]
pub struct SolverStats {
    /// Number of boxes popped from the work stack across all clauses.
    pub boxes_explored: usize,
    /// Number of boxes discarded by contraction or feasibility checks.
    pub boxes_pruned: usize,
    /// Number of bisections performed.
    pub bisections: usize,
    /// Number of DNF clauses examined.
    pub clauses_examined: usize,
    /// Tape instructions covered by forward sweeps (feasibility and
    /// contraction), counted in tape *slots*: a constant slot (written once
    /// per solve) and every slot of a fused chain step count as one each,
    /// so the count does not depend on how the sweep schedules the tape.
    /// Fuel is charged the same amount.  `0` under the tree-walking
    /// reference evaluator.
    pub instructions_executed: usize,
    /// Sum over processed boxes of the clause's tape length.  `0` under the
    /// tree-walking reference evaluator.  The name predates the removal of
    /// region-specialized tapes; the field stays because the session store
    /// and the report JSON carry it.
    pub specialized_tape_len_sum: usize,
    /// Always `0`: the solver applies no derivative-guided cuts.  Kept
    /// because the session store and the report JSON carry it.
    pub newton_cuts: usize,
}

impl PartialEq for SolverStats {
    /// Search-tree shape only — see the type-level documentation.
    fn eq(&self, other: &Self) -> bool {
        self.boxes_explored == other.boxes_explored
            && self.boxes_pruned == other.boxes_pruned
            && self.bisections == other.bisections
            && self.clauses_examined == other.clauses_examined
    }
}

impl SolverStats {
    /// Accumulates another solve's statistics into this one, so callers that
    /// issue many queries (the verification pipeline, the batch runner) can
    /// report search effort per run instead of per query.
    ///
    /// # Examples
    ///
    /// ```
    /// use nncps_deltasat::SolverStats;
    ///
    /// let mut total = SolverStats::default();
    /// let one = SolverStats { boxes_explored: 7, clauses_examined: 1, ..Default::default() };
    /// total.merge(&one);
    /// total.merge(&one);
    /// assert_eq!(total.boxes_explored, 14);
    /// assert_eq!(total.clauses_examined, 2);
    /// ```
    pub fn merge(&mut self, other: &SolverStats) {
        self.boxes_explored += other.boxes_explored;
        self.boxes_pruned += other.boxes_pruned;
        self.bisections += other.bisections;
        self.clauses_examined += other.clauses_examined;
        self.instructions_executed += other.instructions_executed;
        self.specialized_tape_len_sum += other.specialized_tape_len_sum;
        self.newton_cuts += other.newton_cuts;
    }
}

/// A δ-complete decision procedure for existential nonlinear queries,
/// implemented with interval constraint propagation and branch & prune.
///
/// The search is one sequential depth-first branch-and-prune loop: each box
/// is contracted (HC4), classified, and then pruned, reported, or bisected.
/// Queries are compiled to flat evaluation tapes ([`CompiledClause`]) before
/// the search starts, so the per-box loop runs allocation-free over dense
/// instruction arrays.
///
/// The tree-walking reference evaluator
/// ([`DeltaSolver::with_tree_evaluator`]) explores exactly the same box
/// tree: verdicts, witnesses and search statistics are bit-identical.
///
/// See the [crate-level documentation](crate) for the semantics of the
/// returned verdicts and a usage example.
#[derive(Debug, Clone)]
pub struct DeltaSolver {
    precision: f64,
    max_boxes: usize,
    tree_eval: bool,
    budget: Budget,
}

/// What the branch-and-prune loop does with one box popped from the work
/// stack (the box itself is processed in place).
enum BoxOutcome {
    /// The box was emptied by contraction or certainly violates a constraint.
    Pruned,
    /// The (contracted) box certifies the δ-weakened formula.
    Sat,
    /// The box is undecided and wide enough to bisect.
    Split,
}

/// The clause evaluation backend: compiled tapes on the hot path, or the
/// recursive tree walkers as the bit-identical reference.
enum ClauseEngine<'a> {
    Compiled(&'a CompiledClause),
    Tree(&'a [Constraint]),
}

impl ClauseEngine<'_> {
    fn atom_count(&self) -> usize {
        match self {
            ClauseEngine::Compiled(clause) => clause.num_atoms(),
            ClauseEngine::Tree(clause) => clause.len(),
        }
    }

    fn scratch(&self) -> ClauseScratch {
        match self {
            ClauseEngine::Compiled(clause) => clause.scratch(),
            ClauseEngine::Tree(_) => ClauseScratch::default(),
        }
    }

    /// Instruction count of the compiled tape (`0` for the tree reference).
    fn program_len(&self) -> usize {
        match self {
            ClauseEngine::Compiled(clause) => clause.tape().num_slots(),
            ClauseEngine::Tree(_) => 0,
        }
    }

    /// Contraction plus classification of one box.  The compiled engine
    /// fuses both over a single shared forward sweep
    /// ([`CompiledClause::propagate`]); the tree reference runs them
    /// separately — the verdicts and the narrowed region are bit-identical.
    fn propagate(
        &self,
        region: &mut IntervalBox,
        rounds: usize,
        scratch: &mut ClauseScratch,
    ) -> ClauseFeasibility {
        match self {
            ClauseEngine::Compiled(clause) => clause.propagate(region, rounds, scratch),
            ClauseEngine::Tree(clause) => {
                if !contract_clause(clause, region, rounds) || region.is_empty() {
                    return ClauseFeasibility::Violated;
                }
                let mut all_satisfied = true;
                for constraint in *clause {
                    match constraint.feasibility(region) {
                        Feasibility::CertainlySatisfied => {}
                        Feasibility::CertainlyViolated => return ClauseFeasibility::Violated,
                        Feasibility::Unknown => all_satisfied = false,
                    }
                }
                if all_satisfied {
                    ClauseFeasibility::Satisfied
                } else {
                    ClauseFeasibility::Undecided
                }
            }
        }
    }
}

impl DeltaSolver {
    /// Default limit on the number of boxes explored per query.
    pub const DEFAULT_MAX_BOXES: usize = 2_000_000;

    /// Number of HC4 sweeps applied to each box.
    pub const DEFAULT_CONTRACTION_ROUNDS: usize = 4;

    /// Creates a solver with the given precision `δ`.
    ///
    /// # Panics
    ///
    /// Panics if `precision` is not strictly positive.
    pub fn new(precision: f64) -> Self {
        assert!(precision > 0.0, "precision must be positive");
        DeltaSolver {
            precision,
            max_boxes: Self::DEFAULT_MAX_BOXES,
            tree_eval: false,
            budget: Budget::unlimited(),
        }
    }

    /// Sets the maximum number of boxes explored before giving up.
    ///
    /// The limit is hard: `boxes_explored` in the returned statistics never
    /// exceeds it.
    pub fn with_max_boxes(mut self, max_boxes: usize) -> Self {
        self.max_boxes = max_boxes;
        self
    }

    /// Attaches a resource [`Budget`] governing this solver's searches.
    ///
    /// The budget is polled at the branch-and-prune loop head: fuel is
    /// charged from the tape instructions executed per box, and an
    /// exhausted limit (or a raised cancellation flag) returns
    /// [`SatResult::Unknown`] with the structured [`ExhaustionReason`].
    /// The instruction count is a pure function of the depth-first search
    /// tree, so the truncation point — and therefore the verdict and
    /// statistics of a fuel-exhausted solve — is deterministic.
    ///
    /// The handle's consumed fuel persists across solves: attach a fresh
    /// `Budget` per governed run.  Fuel is counted only by the compiled
    /// tape evaluators; the tree-walking reference executes no tape
    /// instructions and never consumes fuel.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// The governing budget handle (shared: cloning it yields another view
    /// of the same counters, usable e.g. to cancel from another thread).
    pub fn budget(&self) -> &Budget {
        &self.budget
    }

    /// No effect; kept only so the frozen benchmark compiles.  The search is
    /// always one sequential depth-first loop.
    #[deprecated(note = "no effect: the δ-SAT search is always sequential")]
    pub fn with_threads(self, _threads: usize) -> Self {
        self
    }

    /// Switches the solver to the recursive tree-walking evaluators
    /// ([`crate::hc4_revise`] / [`Constraint::feasibility`]) instead of
    /// compiled tapes.
    ///
    /// This is the slow reference path: it produces bit-identical verdicts,
    /// witnesses, and box statistics to the compiled solver, and exists for
    /// differential testing and benchmarking of the compiled evaluation
    /// layer.  Queries handed to [`DeltaSolver::solve_compiled`] always run
    /// compiled.
    ///
    /// # Examples
    ///
    /// ```
    /// use nncps_deltasat::{Constraint, DeltaSolver, Formula};
    /// use nncps_expr::Expr;
    /// use nncps_interval::IntervalBox;
    ///
    /// let query = Formula::atom(Constraint::ge(Expr::var(0).powi(2), 2.0));
    /// let domain = IntervalBox::from_bounds(&[(-3.0, 3.0)]);
    /// let (fast, fast_stats) = DeltaSolver::new(1e-4).solve_with_stats(&query, &domain);
    /// let (reference, reference_stats) = DeltaSolver::new(1e-4)
    ///     .with_tree_evaluator()
    ///     .solve_with_stats(&query, &domain);
    /// assert_eq!(fast.witness(), reference.witness());
    /// assert_eq!(fast_stats, reference_stats);
    /// ```
    pub fn with_tree_evaluator(mut self) -> Self {
        self.tree_eval = true;
        self
    }

    /// No effect; kept only so the frozen benchmark compiles.  There is no
    /// batched evaluation layer.
    #[deprecated(note = "no effect: there is no batched evaluation layer")]
    pub fn with_batched_evaluation(self, _enabled: bool) -> Self {
        self
    }

    /// The configured precision `δ`.
    pub fn precision(&self) -> f64 {
        self.precision
    }

    /// Decides `∃ x ∈ domain : formula(x)`.
    pub fn solve(&self, formula: &Formula, domain: &IntervalBox) -> SatResult {
        self.solve_with_stats(formula, domain).0
    }

    /// Decides the query and also returns search statistics.
    pub fn solve_with_stats(
        &self,
        formula: &Formula,
        domain: &IntervalBox,
    ) -> (SatResult, SolverStats) {
        if self.tree_eval {
            let clauses = formula.to_dnf();
            self.solve_clauses(clauses.iter().map(|c| ClauseEngine::Tree(c)), domain)
        } else {
            self.solve_compiled_with_stats(&CompiledFormula::compile(formula), domain)
        }
    }

    /// Decides a query pre-compiled with [`CompiledFormula::compile`].
    ///
    /// Equivalent to [`DeltaSolver::solve`] on the source formula, but the
    /// DNF conversion and tape lowering happened up front — callers that
    /// construct a query once and solve it (or hold it across solver
    /// configurations) skip the per-solve compilation cost.
    pub fn solve_compiled(&self, query: &CompiledFormula, domain: &IntervalBox) -> SatResult {
        self.solve_compiled_with_stats(query, domain).0
    }

    /// Decides a pre-compiled query and also returns search statistics.
    pub fn solve_compiled_with_stats(
        &self,
        query: &CompiledFormula,
        domain: &IntervalBox,
    ) -> (SatResult, SolverStats) {
        self.solve_clauses(query.clauses().iter().map(ClauseEngine::Compiled), domain)
    }

    /// Examines DNF clauses in order: the first δ-SAT clause wins, Unknown is
    /// remembered, and an empty clause list (the formula `false`) is UNSAT.
    fn solve_clauses<'a, I>(&self, engines: I, domain: &IntervalBox) -> (SatResult, SolverStats)
    where
        I: Iterator<Item = ClauseEngine<'a>>,
    {
        let mut stats = SolverStats::default();
        let mut any_unknown = None;
        for engine in engines {
            stats.clauses_examined += 1;
            match self.solve_clause(&engine, domain, &mut stats) {
                SatResult::DeltaSat(region) => return (SatResult::DeltaSat(region), stats),
                SatResult::Unsat => {}
                SatResult::Unknown(reason) => any_unknown = Some(reason),
            }
        }
        match any_unknown {
            Some(reason) => (SatResult::Unknown(reason), stats),
            None => (SatResult::Unsat, stats),
        }
    }

    /// The depth-first branch-and-prune search of one clause.
    fn solve_clause(
        &self,
        engine: &ClauseEngine<'_>,
        domain: &IntervalBox,
        stats: &mut SolverStats,
    ) -> SatResult {
        // An empty conjunction is trivially satisfied by any point of a
        // non-empty domain.
        if engine.atom_count() == 0 {
            return if domain.is_empty() {
                SatResult::Unsat
            } else {
                SatResult::DeltaSat(IntervalBox::from_point(&domain.midpoint()))
            };
        }
        if domain.is_empty() {
            return SatResult::Unsat;
        }

        let mut scratch = engine.scratch();
        let mut fuel_charged = 0;
        let boxes_before = stats.boxes_explored;
        let result = self.search(engine, domain, stats, &mut scratch, &mut fuel_charged);
        // Charge the tail executed since the last loop-head poll, so the
        // governing budget's fuel count stays exact across the many queries
        // of a verification run.
        self.budget
            .charge_fuel((scratch.instructions_executed - fuel_charged) as u64);
        stats.instructions_executed += scratch.instructions_executed;
        // Every explored box runs on the clause's full tape.
        stats.specialized_tape_len_sum +=
            (stats.boxes_explored - boxes_before) * engine.program_len();
        result
    }

    /// Contracts and classifies one box **in place**: the body of the
    /// branch-and-prune loop.
    fn process_box(
        &self,
        engine: &ClauseEngine<'_>,
        scratch: &mut ClauseScratch,
        region: &mut IntervalBox,
    ) -> BoxOutcome {
        match engine.propagate(region, Self::DEFAULT_CONTRACTION_ROUNDS, scratch) {
            ClauseFeasibility::Violated => BoxOutcome::Pruned,
            ClauseFeasibility::Satisfied => BoxOutcome::Sat,
            // δ-termination: the box can no longer be refuted by splitting
            // at the configured precision, so report the δ-weakened SAT
            // verdict.
            ClauseFeasibility::Undecided if region.max_width() <= self.precision => BoxOutcome::Sat,
            ClauseFeasibility::Undecided => BoxOutcome::Split,
        }
    }

    /// The loop of [`Self::solve_clause`]: pop a box, poll the budgets,
    /// process it, and prune, report, or split.
    fn search(
        &self,
        engine: &ClauseEngine<'_>,
        domain: &IntervalBox,
        stats: &mut SolverStats,
        scratch: &mut ClauseScratch,
        fuel_charged: &mut usize,
    ) -> SatResult {
        let mut stack: Vec<IntervalBox> = vec![domain.clone()];
        // Pruned boxes are recycled as the upper halves of later splits, so
        // the steady-state loop allocates nothing: popping moves a box out
        // of the stack, contraction narrows it in place, and
        // `split_widest_into` reuses pooled storage.
        let mut pool: Vec<IntervalBox> = Vec::new();
        while let Some(mut region) = stack.pop() {
            nncps_fault::panic_point(nncps_fault::SITE_SOLVER_BOX_POP);
            if nncps_fault::fuel_exhaustion(nncps_fault::SITE_SOLVER_BOX_POP) {
                self.budget.exhaust_fuel();
            }
            // Governance poll: charge the instructions executed since the
            // last pop, then check cancellation, fuel, and deadline (in
            // that order) before the solver's own box budget.
            let delta = (scratch.instructions_executed - *fuel_charged) as u64;
            *fuel_charged = scratch.instructions_executed;
            if let Some(reason) = self.budget.charge_and_check(delta) {
                return SatResult::Unknown(reason);
            }
            // Check-before-pop box budget: the reported `boxes_explored`
            // never exceeds `max_boxes`.
            if stats.boxes_explored >= self.max_boxes {
                return SatResult::Unknown(ExhaustionReason::Boxes(self.max_boxes));
            }
            stats.boxes_explored += 1;
            match self.process_box(engine, scratch, &mut region) {
                BoxOutcome::Pruned => {
                    stats.boxes_pruned += 1;
                    pool.push(region);
                }
                BoxOutcome::Sat => return SatResult::DeltaSat(region),
                BoxOutcome::Split => {
                    stats.bisections += 1;
                    let mut right = pool.pop().unwrap_or_default();
                    region.split_widest_into(&mut right);
                    // Depth-first exploration; pushing the halves in this
                    // order keeps the search biased toward the lower corner,
                    // which is as good as any deterministic choice.
                    stack.push(right);
                    stack.push(region);
                }
            }
        }
        SatResult::Unsat
    }
}

impl Default for DeltaSolver {
    fn default() -> Self {
        DeltaSolver::new(1e-3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nncps_expr::Expr;

    fn x() -> Expr {
        Expr::var(0)
    }

    fn y() -> Expr {
        Expr::var(1)
    }

    fn square_domain(half: f64) -> IntervalBox {
        IntervalBox::from_bounds(&[(-half, half), (-half, half)])
    }

    #[test]
    fn satisfiable_conjunction_returns_witness() {
        // x^2 + y^2 <= 1 and x >= 0.5 is satisfiable.
        let formula = Formula::all_of([
            Constraint::le(x().powi(2) + y().powi(2), 1.0),
            Constraint::ge(x(), 0.5),
        ]);
        let solver = DeltaSolver::new(1e-3);
        let result = solver.solve(&formula, &square_domain(2.0));
        let witness = result.witness().expect("should be delta-sat");
        assert!(witness[0] >= 0.5 - 1e-2);
        assert!(witness[0] * witness[0] + witness[1] * witness[1] <= 1.0 + 1e-2);
    }

    #[test]
    fn unsatisfiable_conjunction_is_refuted() {
        // x^2 + y^2 <= 0.25 and x >= 1 cannot hold on [-2, 2]^2.
        let formula = Formula::all_of([
            Constraint::le(x().powi(2) + y().powi(2), 0.25),
            Constraint::ge(x(), 1.0),
        ]);
        let solver = DeltaSolver::new(1e-3);
        let (result, stats) = solver.solve_with_stats(&formula, &square_domain(2.0));
        assert!(result.is_unsat(), "expected unsat, got {result}");
        assert!(stats.boxes_explored >= 1);
    }

    #[test]
    fn nonlinear_transcendental_queries() {
        // sin(x) >= 0.5 on [0, pi] is satisfiable.
        let sat = Formula::atom(Constraint::ge(x().sin(), 0.5));
        let domain = IntervalBox::from_bounds(&[(0.0, std::f64::consts::PI)]);
        let solver = DeltaSolver::new(1e-4);
        assert!(solver.solve(&sat, &domain).is_delta_sat());

        // tanh(x) >= 1.5 is unsatisfiable everywhere.
        let unsat = Formula::atom(Constraint::ge(x().tanh(), 1.5));
        let domain = IntervalBox::from_bounds(&[(-50.0, 50.0)]);
        assert!(solver.solve(&unsat, &domain).is_unsat());

        // exp(x) <= 0 is unsatisfiable.
        let unsat = Formula::atom(Constraint::le(x().exp(), 0.0));
        let domain = IntervalBox::from_bounds(&[(-10.0, 10.0)]);
        assert!(solver.solve(&unsat, &domain).is_unsat());
    }

    #[test]
    fn disjunction_finds_a_satisfiable_branch() {
        // (x <= -3) ∨ (x >= 3) on [-1, 5].
        let formula = Formula::any_of([Constraint::le(x(), -3.0), Constraint::ge(x(), 3.0)]);
        let domain = IntervalBox::from_bounds(&[(-1.0, 5.0)]);
        let solver = DeltaSolver::new(1e-3);
        let result = solver.solve(&formula, &domain);
        let witness = result.witness().expect("delta-sat");
        assert!(witness[0] >= 3.0 - 1e-2);
    }

    #[test]
    fn empty_formula_cases() {
        let solver = DeltaSolver::new(1e-3);
        let domain = square_domain(1.0);
        assert!(solver.solve(&Formula::falsum(), &domain).is_unsat());
        assert!(solver.solve(&Formula::verum(), &domain).is_delta_sat());
        let empty_domain = IntervalBox::from_bounds(&[(1.0, -1.0), (0.0, 1.0)]);
        assert!(solver.solve(&Formula::verum(), &empty_domain).is_unsat());
    }

    #[test]
    fn tight_equality_is_delta_decided() {
        // x^2 = 2 has the solution sqrt(2); the solver must find it to within delta.
        let formula = Formula::atom(Constraint::eq(x().powi(2), 2.0));
        let domain = IntervalBox::from_bounds(&[(0.0, 2.0)]);
        let solver = DeltaSolver::new(1e-6);
        let result = solver.solve(&formula, &domain);
        let witness = result.witness().expect("delta-sat");
        assert!((witness[0] - 2.0_f64.sqrt()).abs() < 1e-3);
    }

    #[test]
    fn box_budget_exhaustion_reports_unknown() {
        // A hard-to-refute query with an absurdly small budget.
        let formula = Formula::atom(Constraint::le(
            (x() * 37.0).sin() * (y() * 53.0).cos(),
            -0.999_999,
        ));
        let solver = DeltaSolver::new(1e-9).with_max_boxes(3);
        let (result, stats) = solver.solve_with_stats(&formula, &square_domain(10.0));
        assert!(matches!(
            result,
            SatResult::Unknown(ExhaustionReason::Boxes(3))
        ));
        // The box budget is a hard limit, reported exactly.
        assert_eq!(stats.boxes_explored, 3);
    }

    #[test]
    fn solve_conjunction_api() {
        let constraints = vec![
            Constraint::ge(x(), 0.0),
            Constraint::le(x(), 1.0),
            Constraint::eq(y() - x(), 0.0),
        ];
        let solver = DeltaSolver::new(1e-3);
        let (result, stats) =
            solver.solve_with_stats(&Formula::all_of(constraints), &square_domain(2.0));
        assert!(result.is_delta_sat());
        assert_eq!(stats.clauses_examined, 1);
        let w = result.witness().unwrap();
        assert!((w[0] - w[1]).abs() < 1e-2);
    }

    /// The queries the equivalence tests sweep: a mix of SAT, UNSAT, and
    /// deep-search shapes over the operators the pipeline uses, plus the
    /// paper's decrease condition on a stable linear system.
    fn differential_queries() -> Vec<(Formula, IntervalBox)> {
        let grad_dot_f = (x() * -2.0) * x() + (y() * -2.0) * y();
        let outside_x0 = Formula::or(vec![
            Formula::atom(Constraint::le(x(), -0.5)),
            Formula::atom(Constraint::ge(x(), 0.5)),
            Formula::atom(Constraint::le(y(), -0.5)),
            Formula::atom(Constraint::ge(y(), 0.5)),
        ]);
        vec![
            (
                Formula::all_of([
                    Constraint::le(x().powi(2) + y().powi(2), 1.0),
                    Constraint::ge(x(), 0.5),
                ]),
                square_domain(2.0),
            ),
            (
                Formula::all_of([
                    Constraint::le(x().powi(2) + y().powi(2), 0.25),
                    Constraint::ge(x(), 1.0),
                ]),
                square_domain(2.0),
            ),
            (
                Formula::atom(Constraint::eq(x().powi(2), 2.0)),
                IntervalBox::from_bounds(&[(0.0, 2.0), (0.0, 1.0)]),
            ),
            (
                Formula::atom(Constraint::ge(
                    (x().clone().tanh() * 2.0 + (y() * 0.5).sigmoid()).min(x() + y()),
                    0.75,
                )),
                square_domain(3.0),
            ),
            (
                Formula::any_of([
                    Constraint::le((x() * 3.0).sin() + y().powi(3), -4.0),
                    Constraint::ge(x().abs().sqrt() - y().exp(), 1.0),
                ]),
                square_domain(1.5),
            ),
            (
                Formula::and(vec![
                    outside_x0,
                    Formula::atom(Constraint::ge(grad_dot_f, -1e-6)),
                ]),
                square_domain(3.0),
            ),
        ]
    }

    #[test]
    fn compiled_and_tree_evaluators_explore_identical_box_trees() {
        // The compiled-tape engine must be observationally
        // indistinguishable from the tree-walking reference: same verdict,
        // same witness box (bitwise), same statistics — i.e. the same search
        // tree.
        for (formula, domain) in differential_queries() {
            let fast = DeltaSolver::new(1e-4);
            let reference = DeltaSolver::new(1e-4).with_tree_evaluator();
            let (fast_result, fast_stats) = fast.solve_with_stats(&formula, &domain);
            let (ref_result, ref_stats) = reference.solve_with_stats(&formula, &domain);
            assert_eq!(fast_stats, ref_stats, "stats diverge on {formula}");
            match (&fast_result, &ref_result) {
                (SatResult::DeltaSat(a), SatResult::DeltaSat(b)) => {
                    assert_eq!(a, b, "witness boxes diverge on {formula}");
                }
                (SatResult::Unsat, SatResult::Unsat) => {}
                (SatResult::Unknown(_), SatResult::Unknown(_)) => {}
                (a, b) => panic!("verdicts diverge on {formula}: {a} vs {b}"),
            }
        }
    }

    #[test]
    fn precompiled_queries_solve_identically() {
        for (formula, domain) in differential_queries() {
            let solver = DeltaSolver::new(1e-4);
            let compiled = CompiledFormula::compile(&formula);
            let (a, sa) = solver.solve_with_stats(&formula, &domain);
            let (b, sb) = solver.solve_compiled_with_stats(&compiled, &domain);
            assert_eq!(sa, sb);
            assert_eq!(a.witness(), b.witness());
            assert_eq!(a.is_unsat(), b.is_unsat());
        }
    }

    #[test]
    fn instrumentation_counters_are_populated_but_not_compared() {
        let formula = Formula::atom(Constraint::ge(x().tanh() + y(), 0.4));
        let domain = square_domain(1.0);
        let (result, stats) = DeltaSolver::new(1e-2).solve_with_stats(&formula, &domain);
        assert!(result.is_delta_sat());
        assert!(stats.instructions_executed > 0);
        assert!(stats.specialized_tape_len_sum > 0);
        // Equality deliberately ignores the instrumentation counters…
        let mut other = stats;
        other.instructions_executed += 1;
        other.specialized_tape_len_sum += 1;
        other.newton_cuts += 1;
        assert_eq!(stats, other);
        // …while merge accumulates them.
        let mut total = SolverStats::default();
        total.merge(&stats);
        total.merge(&stats);
        assert_eq!(total.instructions_executed, 2 * stats.instructions_executed);
        assert_eq!(
            total.specialized_tape_len_sum,
            2 * stats.specialized_tape_len_sum
        );
        // The tree reference executes no tape instructions.
        let (_, tree_stats) = DeltaSolver::new(1e-4)
            .with_tree_evaluator()
            .solve_with_stats(&formula, &domain);
        assert_eq!(tree_stats.instructions_executed, 0);
    }

    #[test]
    fn display_and_accessors() {
        let solver = DeltaSolver::default().with_max_boxes(10);
        assert_eq!(solver.precision(), 1e-3);
        assert_eq!(format!("{}", SatResult::Unsat), "unsat");
        // The Boxes display string is byte-compatible with the pre-governance
        // reason (scenario fingerprints hash it).
        assert_eq!(
            format!("{}", SatResult::Unknown(ExhaustionReason::Boxes(7))),
            "unknown (box budget of 7 exhausted)"
        );
        let sat = SatResult::DeltaSat(IntervalBox::from_point(&[1.0]));
        assert!(format!("{sat}").contains("delta-sat"));
        assert!(SatResult::Unsat.witness().is_none());
    }

    #[test]
    #[should_panic(expected = "precision must be positive")]
    fn zero_precision_panics() {
        let _ = DeltaSolver::new(0.0);
    }

    /// A deep-search δ-SAT query for the governance tests: enough boxes to
    /// burn nontrivial fuel before the witness is found.
    fn deep_query() -> (Formula, IntervalBox) {
        (
            Formula::atom(Constraint::eq((x() * 4.0).sin() * (y() * 4.0).cos(), 0.25)),
            square_domain(3.0),
        )
    }

    #[test]
    fn fuel_exhaustion_reports_unknown_with_the_limit() {
        // `deep_query` completes in 440 instructions; a fuel limit well
        // under that total is guaranteed to exhaust mid-search.
        let (formula, domain) = deep_query();
        let solver = DeltaSolver::new(1e-6).with_budget(Budget::unlimited().with_fuel(300));
        let (result, stats) = solver.solve_with_stats(&formula, &domain);
        assert!(
            matches!(result, SatResult::Unknown(ExhaustionReason::Fuel(300))),
            "got {result}"
        );
        assert!(solver.budget().fuel_used() >= 300);
        assert!(stats.instructions_executed > 0);
    }

    /// A governed query with `min`/`max`/`abs` sites, whose contraction
    /// takes the piecewise inversions.
    fn choosy_query() -> (Formula, IntervalBox) {
        let w = (x() * 3.0)
            .sin()
            .abs()
            .max((y() * 2.0).cos())
            .min(x() + y());
        (Formula::atom(Constraint::eq(w, 0.25)), square_domain(3.0))
    }

    #[test]
    fn fuel_truncation_points_are_pinned() {
        // Fuel is the instructions executed per logical box, so a
        // fuel-exhausted solve stops at one exact point of the depth-first
        // tree.  Unlimited, the two queries finish δ-SAT after 440 and 576
        // instructions; each limit below truncates its search mid-way, and
        // the expected `(boxes_explored, bisections, fuel_used)` triple pins
        // where.  The last box's sweep overshoots the limit, which is why
        // `fuel_used` exceeds it.
        let cases = [
            ("deep", deep_query(), 300, (38, 32, 304)),
            ("choosy", choosy_query(), 500, (21, 21, 504)),
        ];
        for (name, (formula, domain), fuel, expected) in cases {
            let solver = DeltaSolver::new(1e-6).with_budget(Budget::unlimited().with_fuel(fuel));
            let (result, stats) = solver.solve_with_stats(&formula, &domain);
            assert!(
                matches!(result, SatResult::Unknown(ExhaustionReason::Fuel(f)) if f == fuel),
                "{name}: got {result}"
            );
            let used = solver.budget().fuel_used();
            assert_eq!(
                (stats.boxes_explored, stats.bisections, used),
                expected,
                "{name}"
            );
            assert_eq!(stats.instructions_executed as u64, used, "{name}");
        }
    }

    #[test]
    fn generous_fuel_does_not_change_the_result() {
        let (formula, domain) = deep_query();
        let free = DeltaSolver::new(1e-6);
        let governed =
            DeltaSolver::new(1e-6).with_budget(Budget::unlimited().with_fuel(u64::MAX / 2));
        let (a, sa) = free.solve_with_stats(&formula, &domain);
        let (b, sb) = governed.solve_with_stats(&formula, &domain);
        assert_eq!(a.witness(), b.witness());
        assert_eq!(sa, sb);
        // The budget's fuel mirror agrees with the solver's own counter.
        assert_eq!(
            governed.budget().fuel_used(),
            sb.instructions_executed as u64
        );
    }

    #[test]
    fn cancellation_stops_the_search() {
        let (formula, domain) = deep_query();
        let budget = Budget::unlimited();
        budget.cancel();
        let solver = DeltaSolver::new(1e-6).with_budget(budget);
        let (result, stats) = solver.solve_with_stats(&formula, &domain);
        assert!(
            matches!(result, SatResult::Unknown(ExhaustionReason::Cancelled)),
            "got {result}"
        );
        assert_eq!(stats.boxes_explored, 0);
    }

    #[test]
    fn expired_deadline_reports_unknown() {
        let (formula, domain) = deep_query();
        let solver = DeltaSolver::new(1e-6)
            .with_budget(Budget::unlimited().with_deadline(std::time::Duration::ZERO));
        let (result, _) = solver.solve_with_stats(&formula, &domain);
        assert!(matches!(
            result,
            SatResult::Unknown(ExhaustionReason::Deadline)
        ));
    }

    #[test]
    fn unsat_of_barrier_style_query() {
        // A miniature version of the paper's query (5):
        // W(x) = x^2 + y^2, f = (-x, -y) (stable linear system).
        // ∃ (x, y) ∈ D \ X0 : ∇W · f >= -γ  should be UNSAT because
        // ∇W · f = -2(x^2 + y^2) < -γ outside a neighbourhood of the origin.
        let grad_dot_f = (x() * -2.0) * x() + (y() * -2.0) * y();
        let gamma = 1e-6;
        // D \ X0 where X0 = [-0.5, 0.5]^2 encoded as a disjunction of strips.
        let outside_x0 = Formula::or(vec![
            Formula::atom(Constraint::le(x(), -0.5)),
            Formula::atom(Constraint::ge(x(), 0.5)),
            Formula::atom(Constraint::le(y(), -0.5)),
            Formula::atom(Constraint::ge(y(), 0.5)),
        ]);
        let query = Formula::and(vec![
            outside_x0,
            Formula::atom(Constraint::ge(grad_dot_f, -gamma)),
        ]);
        let domain = square_domain(3.0);
        let solver = DeltaSolver::new(1e-3);
        let result = solver.solve(&query, &domain);
        assert!(result.is_unsat(), "expected unsat, got {result}");
    }
}
