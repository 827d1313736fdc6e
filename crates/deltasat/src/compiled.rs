//! Compiled δ-SAT queries: clauses lowered to evaluation tapes.
//!
//! The branch-and-prune loop touches every constraint of a clause at every
//! box — once inside the HC4 contractor and once for feasibility
//! classification.  [`CompiledClause`] lowers all constraint expressions of
//! one conjunction into a single [`Tape`] (sharing common subexpressions
//! across constraints), and runs both operations on it:
//!
//! * **feasibility** performs *one* forward tape sweep and classifies every
//!   constraint from its root slot, so subexpressions shared between
//!   constraints are evaluated once per box instead of once per constraint;
//! * **contraction** is the classic HC4 forward/backward scheme: the forward
//!   sweep records every slot's enclosure in a reusable buffer, and the
//!   backward pass walks the program once per occurrence using those
//!   recorded values — O(n) per revise instead of the O(n²) of re-evaluating
//!   subtrees at every node.
//!
//! The forward sweep runs the tape's fused schedule
//! ([`Tape::eval_interval_steps`]): constant slots are written once, when
//! the scratch is made, and each neuron pre-activation chain is one step
//! that still records every product and partial sum, so the backward pass
//! reads the same values a per-slot sweep would leave.  A revise grows the
//! sweep only to its root's step boundary, which is precomputed per
//! constraint; the instruction (fuel) counter charges the tape slots a
//! growth covers, not the steps it runs.
//!
//! All scratch state lives in a caller-owned [`ClauseScratch`], so the
//! steady-state per-box loop performs **zero heap allocations**.
//!
//! # Determinism
//!
//! Evaluation is bit-identical to the tree-walking reference: the same
//! verdicts, the same narrowed domains, in the same visit order as
//! [`hc4_revise`](crate::hc4_revise) /
//! [`contract_clause`](crate::contract_clause) and
//! [`Constraint::feasibility`].  The solver exploits this to offer a
//! differential-testing mode
//! ([`DeltaSolver::with_tree_evaluator`](crate::DeltaSolver::with_tree_evaluator))
//! that explores exactly the same box tree.

use nncps_expr::{Expr, Tape, TapeInstr};
use nncps_interval::{Interval, IntervalBox};

use crate::contractor::{invert_binary, invert_powi, invert_unary, total_width};
use crate::{Constraint, Feasibility, Formula};

/// A prefix of a clause's forward sweep: the tape slots it covers and the
/// schedule steps that compute them.
#[derive(Debug, Default, Clone, Copy)]
struct Prefix {
    slots: usize,
    steps: usize,
}

/// One constraint of a compiled clause: the tape slot of its expression plus
/// the data needed for classification and contraction.
#[derive(Debug, Clone)]
struct CompiledAtom {
    root: usize,
    /// The sweep prefix the root's revise reads: slots `0..=root`.
    prefix: Prefix,
    admissible: Interval,
    source: Constraint,
}

/// Joint feasibility of a clause (a conjunction of constraints) over a box.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClauseFeasibility {
    /// Every constraint holds at every point of the box.
    Satisfied,
    /// Some constraint holds at no point of the box.
    Violated,
    /// Interval reasoning cannot decide the box.
    Undecided,
}

/// Reusable scratch buffers for evaluating and contracting a compiled
/// clause.
///
/// Create one per worker with [`CompiledClause::scratch`] and pass it to
/// every call of *that* clause: the scratch holds the clause's constants,
/// written once when it is made.  The backward stack grows to a high-water
/// mark on first use and is reused allocation-free afterwards.
#[derive(Debug, Default, Clone)]
pub struct ClauseScratch {
    /// Forward interval value of every tape slot, full length; constant
    /// slots are written once by [`CompiledClause::scratch`].
    slots: Vec<Interval>,
    /// The prefix of the sweep that is valid for the *current* region bits
    /// — the forward-sweep cache: revises and the final classification of
    /// one propagation pass share a single incrementally grown sweep, reset
    /// whenever any variable domain changes.
    valid: Prefix,
    /// Backward work stack of `(slot, required)` pairs.
    stack: Vec<(usize, Interval)>,
    /// Instrumentation: tape slots covered by sweeps through this scratch.
    pub(crate) instructions_executed: usize,
}

/// Whether an instruction cannot clip variable domains: only `sqrt` and
/// `ln` have HC4 inversions that narrow their operand even when the
/// requirement envelops the recorded value (they clip to the function's
/// domain), so a slot is clip-free iff it is not one of those and all of its
/// operands are.
fn instr_clip_free(instr: TapeInstr, flags: &[bool]) -> bool {
    match instr {
        TapeInstr::Const(..) | TapeInstr::Var(_) => true,
        TapeInstr::Unary(op, a) => {
            !matches!(op, nncps_expr::UnaryOp::Sqrt | nncps_expr::UnaryOp::Ln) && flags[a]
        }
        TapeInstr::Binary(_, a, b) => flags[a] && flags[b],
        TapeInstr::Powi(a, _) => flags[a],
    }
}

/// What one backward revise did to the variable domains.
enum Revised {
    /// Some domain became empty: the constraint is infeasible on the box.
    Infeasible,
    /// At least one domain bound changed (bit-wise).
    Narrowed,
    /// No domain bit changed — the forward-sweep cache stays valid.
    Unchanged,
}

/// A conjunction of constraints compiled to one shared evaluation tape.
///
/// # Examples
///
/// ```
/// use nncps_deltasat::{CompiledClause, ClauseFeasibility, Constraint};
/// use nncps_expr::Expr;
/// use nncps_interval::IntervalBox;
///
/// let x = Expr::var(0);
/// let clause = CompiledClause::compile(&[
///     Constraint::le(x.clone().powi(2), 4.0),
///     Constraint::ge(x, 0.0),
/// ]);
/// let mut scratch = clause.scratch();
///
/// // One shared sweep decides both constraints.
/// let inside = IntervalBox::from_bounds(&[(0.5, 1.5)]);
/// assert_eq!(clause.feasibility(&inside, &mut scratch), ClauseFeasibility::Satisfied);
///
/// // Contraction narrows x to [0, 2] (same fixpoint as the tree contractor).
/// let mut region = IntervalBox::from_bounds(&[(-10.0, 10.0)]);
/// assert!(clause.contract(&mut region, 4, &mut scratch));
/// assert!(region[0].lo() >= -1e-9 && region[0].hi() <= 2.0 + 1e-6);
/// ```
#[derive(Debug, Clone)]
pub struct CompiledClause {
    tape: Tape,
    atoms: Vec<CompiledAtom>,
    /// The whole sweep, which classification reads.
    full: Prefix,
    /// Per-slot flag: the slot's dependency cone contains no `sqrt`/`ln`.
    /// Those are the only operators whose HC4 inversion can clip variable
    /// domains even when the requirement envelops the recorded value, so a
    /// clip-free subtree whose requirement does not bite is provably a
    /// backward no-op and the walk skips it wholesale.
    clip_free: Vec<bool>,
}

impl CompiledClause {
    /// Compiles a conjunction of constraints into one shared tape.
    pub fn compile(clause: &[Constraint]) -> Self {
        let exprs: Vec<Expr> = clause.iter().map(|c| c.expr().clone()).collect();
        let tape = Tape::compile_many(&exprs);
        let atoms = clause
            .iter()
            .enumerate()
            .map(|(k, c)| {
                let root = tape.root_slot(k);
                CompiledAtom {
                    root,
                    prefix: Prefix {
                        slots: root + 1,
                        steps: tape.steps_through(root),
                    },
                    admissible: c.admissible_interval(),
                    source: c.clone(),
                }
            })
            .collect();
        let full = Prefix {
            slots: tape.num_slots(),
            steps: tape.num_steps(),
        };
        let mut clip_free = Vec::with_capacity(tape.num_slots());
        for i in 0..tape.num_slots() {
            let flag = instr_clip_free(tape.instr(i), &clip_free);
            clip_free.push(flag);
        }
        CompiledClause {
            tape,
            atoms,
            full,
            clip_free,
        }
    }

    /// Number of constraints in the clause.
    pub fn num_atoms(&self) -> usize {
        self.atoms.len()
    }

    /// The constraints the clause was compiled from, in order.
    pub fn constraints(&self) -> impl Iterator<Item = &Constraint> {
        self.atoms.iter().map(|a| &a.source)
    }

    /// The shared evaluation tape.
    pub fn tape(&self) -> &Tape {
        &self.tape
    }

    /// Creates a scratch buffer for this clause, with its constant slots
    /// written.
    pub fn scratch(&self) -> ClauseScratch {
        let mut slots = Vec::with_capacity(self.tape.num_slots());
        self.tape.load_constants(&mut slots);
        ClauseScratch {
            slots,
            stack: Vec::with_capacity(16),
            ..ClauseScratch::default()
        }
    }

    /// Classifies the whole clause over a box with **one** forward tape
    /// sweep, deciding every constraint from its root slot.
    ///
    /// Bit-identical to calling [`Constraint::feasibility`] per constraint
    /// (first certain violation wins), but shared subexpressions are
    /// evaluated once instead of once per constraint.
    pub fn feasibility(
        &self,
        region: &IntervalBox,
        scratch: &mut ClauseScratch,
    ) -> ClauseFeasibility {
        // Standalone entry point: the caller may have changed the region
        // since the last call, so the sweep cache starts cold.
        scratch.valid = Prefix::default();
        self.classify(region, scratch)
    }

    /// Classification body shared by [`CompiledClause::feasibility`] and
    /// [`CompiledClause::propagate`]; reuses whatever prefix of the forward
    /// sweep is still valid for the current region bits.
    fn classify(&self, region: &IntervalBox, scratch: &mut ClauseScratch) -> ClauseFeasibility {
        self.ensure_prefix(region, scratch, self.full);
        let mut all_satisfied = true;
        for atom in &self.atoms {
            match atom.source.feasibility_of_value(scratch.slots[atom.root]) {
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

    /// Grows the shared forward sweep to cover at least `prefix`, running
    /// only the schedule steps it is missing.  `scratch.valid` tracks how
    /// much of the sweep matches the current region bits; callers reset it
    /// whenever the region may have changed.  Reused values are
    /// bit-identical by construction — they were computed on identical
    /// inputs.  The step boundaries are precomputed per atom, so no search
    /// runs here.
    ///
    /// `instructions_executed` (the fuel counter) is charged the tape
    /// *slots* the growth covers, constants and fused chain slots included,
    /// so fuel does not depend on how the schedule groups slots into steps.
    /// A prefix that ends inside a chain's slot span leaves that chain's
    /// interior slots stale: only the chain reads them, and it runs with a
    /// later prefix.
    fn ensure_prefix(&self, region: &IntervalBox, scratch: &mut ClauseScratch, prefix: Prefix) {
        if prefix.slots > scratch.valid.slots {
            self.tape.eval_interval_steps(
                region,
                &mut scratch.slots,
                scratch.valid.steps..prefix.steps,
            );
            scratch.instructions_executed += prefix.slots - scratch.valid.slots;
            scratch.valid = prefix;
        }
    }

    /// Applies HC4-revise for every constraint repeatedly, up to `rounds`
    /// sweeps or until a fixpoint is (approximately) reached — the compiled
    /// counterpart of [`contract_clause`](crate::contract_clause), reaching
    /// bit-identical fixpoints.
    ///
    /// Returns `false` as soon as any constraint is proven infeasible.
    pub fn contract(
        &self,
        region: &mut IntervalBox,
        rounds: usize,
        scratch: &mut ClauseScratch,
    ) -> bool {
        scratch.valid = Prefix::default();
        self.contract_inner(region, rounds, scratch)
    }

    /// One full propagation of the clause over a box: contraction to the
    /// (approximate) fixpoint followed by feasibility classification, all
    /// sharing a single incrementally grown forward sweep — a revise that
    /// changes no domain bit leaves the sweep valid for the next revise and
    /// for the classification, so fixpointed boxes cost one sweep instead of
    /// one per revise plus one for classification.
    ///
    /// Returns [`ClauseFeasibility::Violated`] both when classification
    /// certainly refutes the box and when contraction empties it; results
    /// (narrowed region and verdict) are bit-identical to
    /// [`CompiledClause::contract`] followed by
    /// [`CompiledClause::feasibility`].
    pub fn propagate(
        &self,
        region: &mut IntervalBox,
        rounds: usize,
        scratch: &mut ClauseScratch,
    ) -> ClauseFeasibility {
        scratch.valid = Prefix::default();
        if !self.contract_inner(region, rounds, scratch) || region.is_empty() {
            return ClauseFeasibility::Violated;
        }
        self.classify(region, scratch)
    }

    fn contract_inner(
        &self,
        region: &mut IntervalBox,
        rounds: usize,
        scratch: &mut ClauseScratch,
    ) -> bool {
        for _ in 0..rounds {
            let before = total_width(region);
            for atom in &self.atoms {
                // Roots are emitted in atom order, so the shared sweep only
                // ever grows within a pass; after a fixpointed pass every
                // revise runs on cached forward values.
                self.ensure_prefix(region, scratch, atom.prefix);
                match self.revise_backward(atom.root, atom.admissible, region, scratch) {
                    Revised::Infeasible => return false,
                    Revised::Narrowed => scratch.valid = Prefix::default(),
                    Revised::Unchanged => {}
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

    /// The backward half of one HC4-revise: a non-recursive walk from the
    /// constraint's root using the recorded forward values (the caller
    /// guarantees the shared sweep covers the root's dependency-cone prefix
    /// — topological slot order makes that the prefix `0..=root`).
    ///
    /// The walk visits shared slots once per *occurrence* (once per
    /// incoming edge in the expression DAG), exactly mirroring the
    /// tree-walking reference; requirements depend only on the recorded
    /// forward values, so the accumulated variable narrowing is identical.
    /// Domain updates that change no bit are skipped, which both reports
    /// `Unchanged` exactly and leaves the region bit-for-bit as the
    /// always-assigning reference would.
    fn revise_backward(
        &self,
        root: usize,
        admissible: Interval,
        region: &mut IntervalBox,
        scratch: &mut ClauseScratch,
    ) -> Revised {
        let mut narrowed_any = false;
        scratch.stack.clear();
        scratch.stack.push((root, admissible));
        while let Some((slot, required)) = scratch.stack.pop() {
            let narrowed = scratch.slots[slot].intersect(&required);
            if narrowed.is_empty() {
                return Revised::Infeasible;
            }
            // When the requirement does not bite (the recorded value
            // survives bit-for-bit) and the slot's cone is free of the
            // domain-clipping `sqrt`/`ln` inversions, every inversion below
            // produces a requirement enveloping its recorded value, so the
            // whole subtree walk is a proven no-op — skip it.  Fixpointed
            // contraction rounds collapse from full DAG walks to the thin
            // spine where requirements still cut.
            if self.clip_free[slot]
                && narrowed.lo().to_bits() == scratch.slots[slot].lo().to_bits()
                && narrowed.hi().to_bits() == scratch.slots[slot].hi().to_bits()
            {
                continue;
            }
            match self.tape.instr(slot) {
                // Variable-free slots (literal or folded constants) carry no
                // domains to narrow.
                TapeInstr::Const(..) => {}
                TapeInstr::Var(i) => {
                    let dom = region[i].intersect(&narrowed);
                    if dom.is_empty() {
                        return Revised::Infeasible;
                    }
                    if dom.lo().to_bits() != region[i].lo().to_bits()
                        || dom.hi().to_bits() != region[i].hi().to_bits()
                    {
                        region[i] = dom;
                        narrowed_any = true;
                    }
                }
                TapeInstr::Unary(op, a) => {
                    let a_req = invert_unary(op, narrowed, scratch.slots[a]);
                    scratch.stack.push((a, a_req));
                }
                TapeInstr::Binary(op, a, b) => {
                    let (a_req, b_req) =
                        invert_binary(op, narrowed, scratch.slots[a], scratch.slots[b]);
                    // LIFO order makes the walk a depth-first pre-order:
                    // push the right operand first so the left is processed
                    // first, matching the recursive reference.
                    scratch.stack.push((b, b_req));
                    scratch.stack.push((a, a_req));
                }
                TapeInstr::Powi(a, n) => {
                    let a_req = invert_powi(n, narrowed, scratch.slots[a]);
                    scratch.stack.push((a, a_req));
                }
            }
        }
        if narrowed_any {
            Revised::Narrowed
        } else {
            Revised::Unchanged
        }
    }
}

/// A formula compiled once — DNF conversion plus per-clause tape lowering —
/// for repeated solving.
///
/// Build with [`CompiledFormula::compile`] and hand to
/// [`DeltaSolver::solve_compiled`](crate::DeltaSolver::solve_compiled); the
/// verification pipeline compiles each query up front so no per-solve
/// lowering happens inside timed sections.
///
/// # Examples
///
/// ```
/// use nncps_deltasat::{CompiledFormula, Constraint, DeltaSolver, Formula};
/// use nncps_expr::Expr;
/// use nncps_interval::IntervalBox;
///
/// let x = Expr::var(0);
/// let query = CompiledFormula::compile(&Formula::atom(Constraint::ge(x.powi(2), 2.0)));
/// let solver = DeltaSolver::new(1e-4);
/// let domain = IntervalBox::from_bounds(&[(-3.0, 3.0)]);
/// assert!(solver.solve_compiled(&query, &domain).is_delta_sat());
/// ```
#[derive(Debug, Clone)]
pub struct CompiledFormula {
    clauses: Vec<CompiledClause>,
}

impl CompiledFormula {
    /// Converts the formula to DNF and compiles each clause.
    pub fn compile(formula: &Formula) -> Self {
        CompiledFormula {
            clauses: formula
                .to_dnf()
                .iter()
                .map(|c| CompiledClause::compile(c))
                .collect(),
        }
    }

    /// The compiled DNF clauses, in solver examination order.
    pub fn clauses(&self) -> &[CompiledClause] {
        &self.clauses
    }

    /// No effect; kept only so the frozen benchmark compiles.  Compiling a
    /// formula does all the work its solves need.
    #[deprecated(note = "no effect: there are no gradient bundles to compile")]
    pub fn ensure_gradients(&self) {}
}

impl From<&Formula> for CompiledFormula {
    fn from(formula: &Formula) -> Self {
        CompiledFormula::compile(formula)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{contract_clause, hc4_revise};
    use nncps_expr::Expr;

    fn x() -> Expr {
        Expr::var(0)
    }

    fn y() -> Expr {
        Expr::var(1)
    }

    fn assert_boxes_bit_equal(a: &IntervalBox, b: &IntervalBox) {
        assert_eq!(a.dim(), b.dim());
        for k in 0..a.dim() {
            assert_eq!(a[k].lo().to_bits(), b[k].lo().to_bits(), "dimension {k} lo");
            assert_eq!(a[k].hi().to_bits(), b[k].hi().to_bits(), "dimension {k} hi");
        }
    }

    #[test]
    fn single_revise_matches_tree_reference_bitwise() {
        let constraints = [
            Constraint::le(x() + y(), 1.0),
            Constraint::eq(Expr::constant(2.0) * x(), 6.0),
            Constraint::ge(x().tanh() + y().powi(2), 0.5),
            Constraint::le((x() * y()).exp() - y().sqrt(), 2.0),
            Constraint::ge(x().abs().min(y().max(Expr::constant(0.5))), 0.25),
        ];
        for c in &constraints {
            let clause = CompiledClause::compile(std::slice::from_ref(c));
            let mut scratch = clause.scratch();
            let mut tree_region = IntervalBox::from_bounds(&[(-4.0, 10.0), (0.0, 10.0)]);
            let mut tape_region = tree_region.clone();
            let tree_ok = hc4_revise(c, &mut tree_region);
            // One round over a single atom is exactly one revise.
            let tape_ok = clause.contract(&mut tape_region, 1, &mut scratch);
            assert_eq!(tree_ok, tape_ok, "constraint {c}");
            if tree_ok {
                assert_boxes_bit_equal(&tree_region, &tape_region);
            }
        }
    }

    #[test]
    fn clause_contraction_matches_tree_reference_bitwise() {
        let clause_src = vec![
            Constraint::eq(x() + y(), 4.0),
            Constraint::eq(y(), 1.0),
            Constraint::le(x() * y(), 10.0),
        ];
        let compiled = CompiledClause::compile(&clause_src);
        let mut scratch = compiled.scratch();
        for rounds in [1usize, 2, 10] {
            let mut tree_region = IntervalBox::from_bounds(&[(-100.0, 100.0), (-100.0, 100.0)]);
            let mut tape_region = tree_region.clone();
            let tree_ok = contract_clause(&clause_src, &mut tree_region, rounds);
            let tape_ok = compiled.contract(&mut tape_region, rounds, &mut scratch);
            assert_eq!(tree_ok, tape_ok);
            assert_boxes_bit_equal(&tree_region, &tape_region);
        }
    }

    #[test]
    fn a_root_inside_a_chain_span_revises_from_a_partial_prefix() {
        // The chain 0.1 + 0.5·x + 2·tanh(y) is lowered first; the second
        // root, tanh(y), lands between its first add and its top, so the
        // second atom's prefix stops short of the chain.
        let c = Expr::constant;
        let clause = vec![
            Constraint::le(c(0.1) + c(0.5) * x() + c(2.0) * y().tanh(), -1.0),
            Constraint::ge(y().tanh(), 0.5),
        ];
        let compiled = CompiledClause::compile(&clause);
        let tape = compiled.tape();
        assert_eq!(tape.num_chain_terms(), 2);
        let (chain_top, inner_root) = (tape.root_slot(0), tape.root_slot(1));
        assert!(inner_root < chain_top);
        let inner = compiled.atoms[1].prefix;
        assert!(inner.steps < compiled.full.steps);

        // Fill every slot from another box, then sweep only the inner
        // root's prefix: the chain's interior keeps the other box's values.
        let mut scratch = compiled.scratch();
        let stale = IntervalBox::from_bounds(&[(10.0, 20.0), (-3.0, -2.0)]);
        compiled.ensure_prefix(&stale, &mut scratch, compiled.full);
        let TapeInstr::Binary(_, first_add, _) = tape.instr(chain_top) else {
            panic!("the chain's top is an add");
        };
        assert!(first_add < inner_root);
        let stale_add = scratch.slots[first_add];

        let region = IntervalBox::from_bounds(&[(-4.0, 4.0), (-1.0, 1.0)]);
        scratch.valid = Prefix::default();
        compiled.ensure_prefix(&region, &mut scratch, inner);
        assert_eq!(scratch.slots[first_add], stale_add, "interior left stale");
        let mut tape_region = region.clone();
        let revised = compiled.revise_backward(
            inner_root,
            compiled.atoms[1].admissible,
            &mut tape_region,
            &mut scratch,
        );
        let mut tree_region = region.clone();
        assert!(hc4_revise(&clause[1], &mut tree_region));
        assert!(matches!(revised, Revised::Narrowed));
        assert_boxes_bit_equal(&tree_region, &tape_region);

        // Through the contractor: the first revise narrows x, resetting the
        // sweep, so the second runs from the partial prefix.
        for rounds in [1usize, 4] {
            let mut tape_region = region.clone();
            let mut tree_region = region.clone();
            let tape_ok = compiled.contract(&mut tape_region, rounds, &mut scratch);
            assert_eq!(contract_clause(&clause, &mut tree_region, rounds), tape_ok);
            assert_boxes_bit_equal(&tree_region, &tape_region);
        }
    }

    #[test]
    fn shared_subexpressions_are_deduplicated_across_atoms() {
        let shared = (x() * 2.0 + y()).tanh();
        let clause = vec![
            Constraint::le(shared.clone() + y(), 1.0),
            Constraint::ge(shared.clone() * x(), -1.0),
            Constraint::eq(shared, 0.25),
        ];
        let compiled = CompiledClause::compile(&clause);
        let separate: usize = clause.iter().map(|c| c.expr().node_count()).sum();
        assert!(compiled.tape().num_slots() < separate);
        assert_eq!(compiled.num_atoms(), 3);
        assert_eq!(compiled.constraints().count(), 3);
    }

    #[test]
    fn clause_feasibility_matches_per_constraint_classification() {
        let clause = vec![
            Constraint::le(x().powi(2) + y().powi(2), 1.0),
            Constraint::ge(x(), 0.5),
        ];
        let compiled = CompiledClause::compile(&clause);
        let mut scratch = compiled.scratch();
        let boxes = [
            IntervalBox::from_bounds(&[(0.55, 0.6), (0.0, 0.1)]),
            IntervalBox::from_bounds(&[(2.0, 3.0), (0.0, 0.1)]),
            IntervalBox::from_bounds(&[(0.0, 0.6), (0.0, 0.1)]),
        ];
        for region in &boxes {
            let mut all = true;
            let mut reference = ClauseFeasibility::Undecided;
            let mut decided = false;
            for c in &clause {
                match c.feasibility(region) {
                    Feasibility::CertainlySatisfied => {}
                    Feasibility::CertainlyViolated => {
                        reference = ClauseFeasibility::Violated;
                        decided = true;
                        break;
                    }
                    Feasibility::Unknown => all = false,
                }
            }
            if !decided {
                reference = if all {
                    ClauseFeasibility::Satisfied
                } else {
                    ClauseFeasibility::Undecided
                };
            }
            assert_eq!(
                compiled.feasibility(region, &mut scratch),
                reference,
                "{region}"
            );
        }
    }

    #[test]
    fn compiled_formula_exposes_dnf_clauses() {
        let f = Formula::and(vec![
            Formula::atom(Constraint::le(x(), 1.0)),
            Formula::or(vec![
                Formula::atom(Constraint::ge(y(), 2.0)),
                Formula::atom(Constraint::le(y(), -2.0)),
            ]),
        ]);
        let compiled = CompiledFormula::compile(&f);
        assert_eq!(compiled.clauses().len(), 2);
        assert!(compiled.clauses().iter().all(|c| c.num_atoms() == 2));
        let via_from: CompiledFormula = (&f).into();
        assert_eq!(via_from.clauses().len(), 2);
        assert!(CompiledFormula::compile(&Formula::falsum())
            .clauses()
            .is_empty());
    }
}
