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
//! Both operations can also run over a region-specialized [`TapeView`]
//! (see [`nncps_expr::specialize`]): the solver derives shortened views on
//! descent, so the per-box cost shrinks as boxes shrink, and constraints
//! proven satisfied on a region are dropped from the sweep entirely.
//!
//! On top of the value tape, a clause can lazily compile a **gradient
//! bundle** — the partial derivatives of every constraint expression,
//! produced by [`Expr::differentiate`] and lowered through the same CSE tape
//! compiler — which powers the solver's derivative-guided contraction
//! ([`CompiledClause::derivative_cuts`]): monotonicity cuts collapse
//! dimensions on which every undecided constraint is monotone, and an
//! interval-Newton step narrows equality constraints.
//!
//! All scratch state lives in a caller-owned [`ClauseScratch`], so the
//! steady-state per-box loop performs **zero heap allocations**.
//!
//! # Determinism
//!
//! Plain evaluation (with or without a specialized view) is bit-identical to
//! the tree-walking reference: the same verdicts, the same narrowed domains,
//! in the same visit order as [`hc4_revise`](crate::hc4_revise) /
//! [`contract_clause`](crate::contract_clause) and
//! [`Constraint::feasibility`].  The solver exploits this to offer a
//! differential-testing mode
//! ([`DeltaSolver::with_tree_evaluator`](crate::DeltaSolver::with_tree_evaluator))
//! that explores exactly the same box tree.  Derivative-guided cuts *do*
//! change the search tree (that is their point — fewer boxes); they are a
//! solver-level option with a bit-identical opt-out
//! ([`DeltaSolver::with_newton_cuts`](crate::DeltaSolver::with_newton_cuts)).

use std::sync::OnceLock;

use nncps_expr::{Choice, ChoiceAnalysis, Expr, SpecializeScratch, Tape, TapeInstr, TapeView};
use nncps_interval::{Interval, IntervalBox};

use crate::contractor::{invert_binary, invert_powi, invert_unary, total_width};
use crate::{Constraint, Feasibility, Formula, Relation};

/// One constraint of a compiled clause: the tape slot of its expression plus
/// the data needed for classification and contraction.
#[derive(Debug, Clone)]
struct CompiledAtom {
    root: usize,
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

/// Outcome of one derivative-guided contraction attempt
/// ([`CompiledClause::derivative_cuts`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CutOutcome {
    /// No cut applied; the box (and all recorded scratch state) is unchanged.
    Unchanged,
    /// At least one dimension was narrowed or collapsed.
    Narrowed,
    /// A Newton step proved an equality constraint has no solution in the
    /// box.
    Infeasible,
}

/// Reusable scratch buffers for evaluating, contracting, and cutting a
/// compiled clause.
///
/// Create one per worker with [`CompiledClause::scratch`] and pass it to
/// every call; the buffers grow to a high-water mark on first use and are
/// reused allocation-free afterwards.
#[derive(Debug, Default, Clone)]
pub struct ClauseScratch {
    /// Forward interval value of every program slot (tape or view).
    slots: Vec<Interval>,
    /// How many leading `slots` are valid for the *current* region bits —
    /// the forward-sweep cache: revises and the final classification of one
    /// propagation pass share a single incrementally grown sweep, reset
    /// whenever any variable domain changes.
    valid: usize,
    /// Choice trace of the current forward sweep: per choice-site id of the
    /// parent tape, the `min`/`max`/`abs` resolution last observed
    /// (recorded at zero marginal cost by the recording sweep; consumed by
    /// [`CompiledClause::respecialize`]).
    choices: Vec<Choice>,
    /// Backward work stack of `(slot, required)` pairs.
    stack: Vec<(usize, Interval)>,
    /// Per-atom verdict recorded by the last feasibility sweep.
    atom_status: Vec<Feasibility>,
    /// Root-keep mask assembled for re-specialization.
    keep_roots: Vec<bool>,
    /// Forward values of the gradient-bundle tape.
    grad_slots: Vec<Interval>,
    /// Forward values of the value tape at the box midpoint (Newton step).
    point_slots: Vec<Interval>,
    /// The box midpoint (Newton step).
    mid: Vec<f64>,
    /// Degenerate box at the midpoint (Newton step).
    point_box: IntervalBox,
    /// Instrumentation: tape instructions executed through this scratch.
    pub(crate) instructions_executed: usize,
    /// Instrumentation: Σ of active program lengths over processed boxes.
    pub(crate) specialized_tape_len_sum: usize,
    /// Instrumentation: derivative-guided cuts applied.
    pub(crate) newton_cuts: usize,
}

impl ClauseScratch {
    /// Moves the instrumentation counters out of the scratch (resetting
    /// them), so the solver can fold them into its statistics.
    pub(crate) fn take_counters(&mut self) -> (usize, usize, usize) {
        let counters = (
            self.instructions_executed,
            self.specialized_tape_len_sum,
            self.newton_cuts,
        );
        self.instructions_executed = 0;
        self.specialized_tape_len_sum = 0;
        self.newton_cuts = 0;
        counters
    }
}

/// The active evaluation program: the full tape or a specialized view of it.
#[derive(Clone, Copy)]
enum Prog<'a> {
    Tape(&'a Tape),
    View(&'a Tape, &'a TapeView),
}

impl Prog<'_> {
    fn len(self) -> usize {
        match self {
            Prog::Tape(tape) => tape.num_slots(),
            Prog::View(_, view) => view.len(),
        }
    }

    fn instr(self, slot: usize) -> TapeInstr {
        match self {
            Prog::Tape(tape) => tape.instr(slot),
            Prog::View(tape, view) => view.instr(tape, slot),
        }
    }

    fn root_slot(self, k: usize) -> Option<usize> {
        match self {
            Prog::Tape(tape) => Some(tape.root_slot(k)),
            Prog::View(_, view) => view.root_slot(k),
        }
    }

    fn num_choices(self) -> usize {
        match self {
            Prog::Tape(tape) | Prog::View(tape, _) => tape.num_choices(),
        }
    }

    fn extend(self, region: &IntervalBox, slots: &mut Vec<Interval>, count: usize) {
        match self {
            Prog::Tape(tape) => tape.eval_interval_extend_into(region, slots, count),
            Prog::View(tape, view) => view.eval_interval_extend_into(tape, region, slots, count),
        }
    }

    fn extend_recording(
        self,
        region: &IntervalBox,
        slots: &mut Vec<Interval>,
        count: usize,
        choices: &mut [Choice],
    ) {
        match self {
            Prog::Tape(tape) => {
                tape.eval_interval_extend_into_recording(region, slots, count, choices)
            }
            Prog::View(tape, view) => {
                view.eval_interval_extend_into_recording(tape, region, slots, count, choices)
            }
        }
    }
}

/// The single definition of "this instruction cannot clip variable
/// domains": only `sqrt` and `ln` have HC4 inversions that narrow their
/// operand even when the requirement envelops the recorded value (they clip
/// to the function's domain), so a slot is clip-free iff it is not one of
/// those and all of its operands are.  Both the full-tape analysis at
/// compile time and the per-view recomputation call this — keep the
/// operator list in exactly one place.
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

/// The gradient bundle of a clause: one tape holding every
/// `∂(constraint k)/∂x_i`, compiled with shared CSE slots.
#[derive(Debug, Clone)]
struct GradientBundle {
    tape: Tape,
    /// Variables differentiated against (`tape.num_vars()` of the value
    /// tape); gradients with respect to later dimensions are identically 0.
    num_vars: usize,
}

impl GradientBundle {
    /// The gradient root index of `(atom, var)`.
    fn root(&self, atom: usize, var: usize) -> usize {
        self.tape.root_slot(atom * self.num_vars + var)
    }
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
    /// Whether the tape contains any `min`/`max`/`abs` instruction — the
    /// only instructions region specialization can decide besides dropped
    /// atoms, so choice-free clauses skip speculative re-specialization.
    has_choices: bool,
    /// Per-slot flag: the slot's dependency cone contains no `sqrt`/`ln`.
    /// Those are the only operators whose HC4 inversion can clip variable
    /// domains even when the requirement envelops the recorded value, so a
    /// clip-free subtree whose requirement does not bite is provably a
    /// backward no-op and the walk skips it wholesale.
    clip_free: Vec<bool>,
    /// Lazily compiled gradient bundle (symbolic differentiation + tape
    /// lowering happen on first use, or eagerly via
    /// [`CompiledClause::ensure_gradients`]).
    grad: OnceLock<GradientBundle>,
    /// Lazily computed choice-group partition of the tape (one backward
    /// pass; built on the first view respecialization and shared by every
    /// consumer of this clause, including all family-sweep members holding
    /// the compiled formula through the warm-start cache).
    analysis: OnceLock<ChoiceAnalysis>,
}

impl CompiledClause {
    /// Compiles a conjunction of constraints into one shared tape.
    pub fn compile(clause: &[Constraint]) -> Self {
        let exprs: Vec<Expr> = clause.iter().map(|c| c.expr().clone()).collect();
        let tape = Tape::compile_many(&exprs);
        let atoms = clause
            .iter()
            .enumerate()
            .map(|(k, c)| CompiledAtom {
                root: tape.root_slot(k),
                admissible: c.admissible_interval(),
                source: c.clone(),
            })
            .collect();
        let has_choices = tape.num_choices() > 0;
        let mut clip_free = Vec::with_capacity(tape.num_slots());
        for i in 0..tape.num_slots() {
            let flag = instr_clip_free(tape.instr(i), &clip_free);
            clip_free.push(flag);
        }
        CompiledClause {
            tape,
            atoms,
            has_choices,
            clip_free,
            grad: OnceLock::new(),
            analysis: OnceLock::new(),
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

    /// Creates a scratch buffer sized for this clause.
    pub fn scratch(&self) -> ClauseScratch {
        ClauseScratch {
            slots: Vec::with_capacity(self.tape.num_slots()),
            stack: Vec::with_capacity(16),
            atom_status: Vec::with_capacity(self.atoms.len()),
            keep_roots: Vec::with_capacity(self.atoms.len()),
            ..ClauseScratch::default()
        }
    }

    /// Compiles the gradient bundle now instead of lazily on the first
    /// derivative-guided cut, so callers can keep symbolic differentiation
    /// and tape lowering out of timed solver sections.
    ///
    /// # Examples
    ///
    /// ```
    /// use nncps_deltasat::{CompiledClause, Constraint};
    /// use nncps_expr::Expr;
    ///
    /// let clause = CompiledClause::compile(&[Constraint::ge(Expr::var(0).tanh(), 0.5)]);
    /// clause.ensure_gradients(); // d tanh(x)/dx compiled here, not mid-search
    /// ```
    pub fn ensure_gradients(&self) {
        let _ = self.gradient_bundle();
    }

    /// The memoized choice-group partition of the tape (see
    /// [`ChoiceAnalysis`]), built on first use — one backward pass per
    /// clause, amortized over every respecialization of every view.
    pub(crate) fn choice_analysis(&self) -> &ChoiceAnalysis {
        self.analysis
            .get_or_init(|| ChoiceAnalysis::analyze(&self.tape))
    }

    fn gradient_bundle(&self) -> &GradientBundle {
        self.grad.get_or_init(|| {
            let num_vars = self.tape.num_vars();
            let mut roots = Vec::with_capacity(self.atoms.len() * num_vars);
            for atom in &self.atoms {
                for var in 0..num_vars {
                    roots.push(atom.source.expr().differentiate(var).simplified());
                }
            }
            GradientBundle {
                tape: Tape::compile_many(&roots),
                num_vars,
            }
        })
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
        self.feasibility_with_view(None, region, scratch)
    }

    /// [`CompiledClause::feasibility`] over a specialized view.
    ///
    /// Constraints whose root the view dropped were proven satisfied on an
    /// enclosing region and are counted satisfied without evaluation; the
    /// verdict is bit-identical to the full-tape sweep on every sub-box of
    /// the view's region.
    pub fn feasibility_with_view(
        &self,
        view: Option<&TapeView>,
        region: &IntervalBox,
        scratch: &mut ClauseScratch,
    ) -> ClauseFeasibility {
        // Standalone entry point: the caller may have changed the region
        // since the last call, so the sweep cache starts cold.
        scratch.valid = 0;
        self.classify(self.program(view), region, scratch)
    }

    /// Classification body shared by [`CompiledClause::feasibility_with_view`]
    /// and [`CompiledClause::propagate`]; reuses whatever prefix of the
    /// forward sweep is still valid for the current region bits.
    fn classify(
        &self,
        prog: Prog<'_>,
        region: &IntervalBox,
        scratch: &mut ClauseScratch,
    ) -> ClauseFeasibility {
        Self::ensure_prefix(prog, region, scratch, prog.len());
        scratch.atom_status.clear();
        scratch
            .atom_status
            .resize(self.atoms.len(), Feasibility::CertainlySatisfied);
        let mut all_satisfied = true;
        for (k, atom) in self.atoms.iter().enumerate() {
            let Some(root) = prog.root_slot(k) else {
                continue;
            };
            match atom.source.feasibility_of_value(scratch.slots[root]) {
                Feasibility::CertainlySatisfied => {}
                Feasibility::CertainlyViolated => return ClauseFeasibility::Violated,
                Feasibility::Unknown => {
                    scratch.atom_status[k] = Feasibility::Unknown;
                    all_satisfied = false;
                }
            }
        }
        if all_satisfied {
            ClauseFeasibility::Satisfied
        } else {
            ClauseFeasibility::Undecided
        }
    }

    /// Grows the shared forward sweep to cover at least `count` slots of the
    /// active program, evaluating only the missing suffix.  `scratch.valid`
    /// tracks how much of the sweep matches the current region bits; callers
    /// reset it to `0` whenever the region (or the program) may have
    /// changed.  Reused values are bit-identical by construction — they were
    /// computed on identical inputs.  Only the evaluated suffix is charged
    /// to `instructions_executed` (the fuel counter), so fuel is exactly
    /// the instructions executed per logical box.
    fn ensure_prefix(
        prog: Prog<'_>,
        region: &IntervalBox,
        scratch: &mut ClauseScratch,
        count: usize,
    ) {
        if count > scratch.valid {
            let mut slots = std::mem::take(&mut scratch.slots);
            slots.truncate(scratch.valid);
            let num_choices = prog.num_choices();
            if num_choices > 0 {
                // Record the choice trace as the sweep grows: the recording
                // twin is bit-identical and the trace feeds the delta-driven
                // respecialization after classification.
                if scratch.choices.len() != num_choices {
                    scratch.choices.clear();
                    scratch.choices.resize(num_choices, Choice::Both);
                }
                prog.extend_recording(region, &mut slots, count, &mut scratch.choices);
            } else {
                prog.extend(region, &mut slots, count);
            }
            scratch.slots = slots;
            scratch.instructions_executed += count - scratch.valid;
            scratch.valid = count;
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
        self.contract_with_view(None, region, rounds, scratch)
    }

    /// [`CompiledClause::contract`] over a specialized view.
    ///
    /// Dropped constraints are skipped: their revise is a proven no-op on
    /// every sub-box of the view's region (the recorded forward value of a
    /// certainly-satisfied constraint already lies inside its admissible
    /// interval, so every backward requirement envelops the recorded values
    /// and no domain changes), keeping the narrowing bit-identical to the
    /// full-tape contraction.
    pub fn contract_with_view(
        &self,
        view: Option<&TapeView>,
        region: &mut IntervalBox,
        rounds: usize,
        scratch: &mut ClauseScratch,
    ) -> bool {
        scratch.valid = 0;
        let clip_free = view.is_none().then_some(self.clip_free.as_slice());
        self.contract_inner(self.program(view), clip_free, region, rounds, scratch)
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
    /// (narrowed region, verdict, recorded per-atom statuses) are
    /// bit-identical to [`CompiledClause::contract_with_view`] followed by
    /// [`CompiledClause::feasibility_with_view`].
    pub fn propagate(
        &self,
        view: Option<&TapeView>,
        region: &mut IntervalBox,
        rounds: usize,
        scratch: &mut ClauseScratch,
    ) -> ClauseFeasibility {
        // Without caller-provided per-view flags, only the full tape can
        // skip no-op subtrees (views renumber slots).
        let clip_free = view.is_none().then_some(self.clip_free.as_slice());
        self.propagate_flagged(view, clip_free, region, rounds, scratch)
    }

    /// [`CompiledClause::propagate`] with caller-provided clip-free flags
    /// for the active program — the solver derives them once per view
    /// ([`CompiledClause::view_clip_free`]) so specialized programs keep the
    /// no-op subtree skipping of the full tape.
    pub(crate) fn propagate_flagged(
        &self,
        view: Option<&TapeView>,
        clip_free: Option<&[bool]>,
        region: &mut IntervalBox,
        rounds: usize,
        scratch: &mut ClauseScratch,
    ) -> ClauseFeasibility {
        let prog = self.program(view);
        scratch.valid = 0;
        if !self.contract_inner(prog, clip_free, region, rounds, scratch) || region.is_empty() {
            return ClauseFeasibility::Violated;
        }
        self.classify(prog, region, scratch)
    }

    /// Recomputes the clip-free cone flags (no `sqrt`/`ln` below the slot;
    /// see the field documentation) for a specialized view, into a reusable
    /// buffer.
    pub(crate) fn view_clip_free(&self, view: &TapeView, out: &mut Vec<bool>) {
        out.clear();
        out.reserve(view.len());
        for i in 0..view.len() {
            let flag = instr_clip_free(view.instr(&self.tape, i), out);
            out.push(flag);
        }
    }

    fn contract_inner(
        &self,
        prog: Prog<'_>,
        clip_free: Option<&[bool]>,
        region: &mut IntervalBox,
        rounds: usize,
        scratch: &mut ClauseScratch,
    ) -> bool {
        for _ in 0..rounds {
            let before = total_width(region);
            for (k, atom) in self.atoms.iter().enumerate() {
                let Some(root) = prog.root_slot(k) else {
                    continue;
                };
                // Roots are emitted in atom order, so the shared sweep only
                // ever grows within a pass; after a fixpointed pass every
                // revise runs on cached forward values.
                Self::ensure_prefix(prog, region, scratch, root + 1);
                match self.revise_backward(prog, root, atom.admissible, region, scratch, clip_free)
                {
                    Revised::Infeasible => return false,
                    Revised::Narrowed => scratch.valid = 0,
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

    fn program<'a>(&'a self, view: Option<&'a TapeView>) -> Prog<'a> {
        match view {
            Some(view) => Prog::View(&self.tape, view),
            None => Prog::Tape(&self.tape),
        }
    }

    /// The instruction count of the active program (full tape or view).
    pub fn program_len(&self, view: Option<&TapeView>) -> usize {
        self.program(view).len()
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
        prog: Prog<'_>,
        root: usize,
        admissible: Interval,
        region: &mut IntervalBox,
        scratch: &mut ClauseScratch,
        clip_free: Option<&[bool]>,
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
            if let Some(clip_free) = clip_free {
                if clip_free[slot]
                    && narrowed.lo().to_bits() == scratch.slots[slot].lo().to_bits()
                    && narrowed.hi().to_bits() == scratch.slots[slot].hi().to_bits()
                {
                    continue;
                }
            }
            match prog.instr(slot) {
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

    /// Derives a further-specialized view for the current region, using the
    /// forward values, choice trace, and per-atom verdicts recorded by the
    /// last [`CompiledClause::feasibility_with_view`] sweep.
    ///
    /// Returns `true` (and fills `out`) when the derived view is worthwhile
    /// — a choice was decided or an atom dropped; returns `false` without
    /// touching `out`'s contents otherwise.  Descending from an existing
    /// view consumes the recorded choice *delta*: an unchanged trace costs
    /// `O(open choices + roots)` and exits without walking the program.
    /// Choice-free clauses skip the scan entirely unless an atom became
    /// droppable.
    pub fn respecialize(
        &self,
        view: Option<&TapeView>,
        scratch: &mut ClauseScratch,
        spec_scratch: &mut SpecializeScratch,
        out: &mut TapeView,
    ) -> bool {
        debug_assert_eq!(scratch.atom_status.len(), self.atoms.len());
        let prog = self.program(view);
        let mut newly_droppable = false;
        scratch.keep_roots.clear();
        for (k, &status) in scratch.atom_status.iter().enumerate() {
            let keep = status == Feasibility::Unknown;
            scratch.keep_roots.push(keep);
            if !keep && prog.root_slot(k).is_some() {
                newly_droppable = true;
            }
        }
        if !newly_droppable && !self.has_choices {
            return false;
        }
        match view {
            // Delta-driven descent: `respecialize_into` reports whether the
            // child differs (its delta check already accounts for droppable
            // roots), so its verdict is the final word.
            Some(view) => view.respecialize_into(
                &self.tape,
                self.choice_analysis(),
                &scratch.slots,
                &scratch.choices,
                &scratch.keep_roots,
                spec_scratch,
                out,
            ),
            // Descent root: the full three-pass derivation always fills
            // `out`; a dropped atom is worthwhile even when no instruction
            // was pruned.
            None => {
                let shortened = self.tape.specialize_from_slots(
                    &scratch.slots,
                    &scratch.keep_roots,
                    spec_scratch,
                    out,
                );
                shortened || newly_droppable
            }
        }
    }

    /// Derivative-guided contraction of one box: a **monotonicity cut**
    /// collapses every dimension on which each undecided constraint is
    /// monotone in its favorable direction (satisfiability over the box is
    /// then equivalent to satisfiability over the face, so the search loses
    /// no solutions and skips the subdivision of that dimension entirely),
    /// and an **interval-Newton step** narrows equality constraints through
    /// the mean-value form `g(x) ∈ g(m) + Σ ∂g·(x − m)`.
    ///
    /// Gradients come from the lazily compiled bundle
    /// ([`CompiledClause::ensure_gradients`]); enclosures that straddle zero
    /// or are undefined (kinks of `abs`/`min`/`max`, division by a range
    /// containing zero) safely disable the cut for that dimension.
    ///
    /// Uses the per-atom verdicts recorded by the last feasibility sweep;
    /// call only after a sweep returned
    /// [`ClauseFeasibility::Undecided`].
    pub fn derivative_cuts(
        &self,
        region: &mut IntervalBox,
        scratch: &mut ClauseScratch,
    ) -> CutOutcome {
        debug_assert_eq!(scratch.atom_status.len(), self.atoms.len());
        let grads = self.gradient_bundle();
        let dim = region.dim();
        let mut grad_slots = std::mem::take(&mut scratch.grad_slots);
        grads.tape.eval_interval_into(region, &mut grad_slots);
        scratch.grad_slots = grad_slots;
        scratch.instructions_executed += grads.tape.num_slots();
        let grad = |atom: usize, var: usize| -> Interval {
            if var < grads.num_vars {
                scratch.grad_slots[grads.root(atom, var)]
            } else {
                // The value tape never reads this dimension.
                Interval::singleton(0.0)
            }
        };

        let mut changed = false;

        // --- monotonicity cuts ------------------------------------------
        for i in 0..dim {
            if region[i].is_singleton() {
                continue;
            }
            let mut up_ok = true;
            let mut down_ok = true;
            for (k, atom) in self.atoms.iter().enumerate() {
                if scratch.atom_status[k] != Feasibility::Unknown {
                    continue;
                }
                let d = grad(k, i);
                if d.is_empty() {
                    up_ok = false;
                    down_ok = false;
                    break;
                }
                match atom.source.relation() {
                    Relation::Ge | Relation::Gt => {
                        up_ok &= d.lo() >= 0.0;
                        down_ok &= d.hi() <= 0.0;
                    }
                    Relation::Le | Relation::Lt => {
                        up_ok &= d.hi() <= 0.0;
                        down_ok &= d.lo() >= 0.0;
                    }
                    // An equality only tolerates a collapse when it provably
                    // does not depend on the dimension at all.
                    Relation::Eq => {
                        let independent = d.lo() == 0.0 && d.hi() == 0.0;
                        up_ok &= independent;
                        down_ok &= independent;
                    }
                }
                if !up_ok && !down_ok {
                    break;
                }
            }
            if up_ok {
                region[i] = Interval::singleton(region[i].hi());
                changed = true;
            } else if down_ok {
                region[i] = Interval::singleton(region[i].lo());
                changed = true;
            }
        }

        // --- interval Newton on equality constraints --------------------
        let has_eq = self
            .atoms
            .iter()
            .zip(&scratch.atom_status)
            .any(|(a, &s)| a.source.relation() == Relation::Eq && s == Feasibility::Unknown);
        if has_eq {
            scratch.mid.clear();
            for i in 0..dim {
                scratch.mid.push(region[i].midpoint());
            }
            scratch.point_box.clone_from(region);
            for i in 0..dim {
                scratch.point_box[i] = Interval::singleton(scratch.mid[i]);
            }
            scratch.point_slots.clear();
            for (k, atom) in self.atoms.iter().enumerate() {
                if atom.source.relation() != Relation::Eq
                    || scratch.atom_status[k] != Feasibility::Unknown
                {
                    continue;
                }
                // Enclosure of g at the midpoint (a point box keeps the
                // evaluation outward-rounded, hence sound).  Atom roots
                // ascend, so one midpoint sweep grows incrementally across
                // the clause's equality atoms.
                let mut point_slots = std::mem::take(&mut scratch.point_slots);
                let already = point_slots.len();
                self.tape.eval_interval_extend_into(
                    &scratch.point_box,
                    &mut point_slots,
                    (atom.root + 1).max(already),
                );
                let g_mid = point_slots[atom.root];
                scratch.instructions_executed += point_slots.len() - already;
                scratch.point_slots = point_slots;
                if g_mid.is_empty() {
                    continue;
                }
                for i in 0..dim.min(grads.num_vars) {
                    if region[i].is_singleton() {
                        continue;
                    }
                    let d_i = grad(k, i);
                    if d_i.is_empty() || d_i.contains(0.0) {
                        continue;
                    }
                    // rest = Σ_{j≠i} ∂g/∂x_j · (X_j − m_j)
                    let mut rest = Interval::singleton(0.0);
                    let mut sound = true;
                    for j in 0..dim {
                        if j == i {
                            continue;
                        }
                        let d_j = grad(k, j);
                        if d_j.is_empty() {
                            sound = false;
                            break;
                        }
                        rest = rest + d_j * (region[j] - Interval::singleton(scratch.mid[j]));
                    }
                    if !sound {
                        continue;
                    }
                    let newton = Interval::singleton(scratch.mid[i])
                        + (atom.admissible - g_mid - rest) / d_i;
                    let narrowed = region[i].intersect(&newton);
                    if narrowed.is_empty() {
                        return CutOutcome::Infeasible;
                    }
                    if narrowed != region[i] {
                        region[i] = narrowed;
                        changed = true;
                    }
                }
            }
        }

        if changed {
            CutOutcome::Narrowed
        } else {
            CutOutcome::Unchanged
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

    /// Eagerly compiles every clause's gradient bundle (see
    /// [`CompiledClause::ensure_gradients`]), so derivative-guided solving
    /// pays no symbolic differentiation inside timed sections.
    pub fn ensure_gradients(&self) {
        for clause in &self.clauses {
            clause.ensure_gradients();
        }
    }
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
    fn view_evaluation_drops_satisfied_atoms_and_stays_bit_identical() {
        // Two atoms: on the region the first is certainly satisfied, the
        // second undecided.  The respecialized view must drop the first
        // atom's exclusive cone and contract bit-identically to the full
        // tape.
        let clause = vec![
            Constraint::le(y().sin() * 0.25 - 10.0, 0.0), // always satisfied
            Constraint::ge(x().tanh() + y() * 0.5, 0.4),
        ];
        let compiled = CompiledClause::compile(&clause);
        let mut scratch = compiled.scratch();
        let region = IntervalBox::from_bounds(&[(-1.0, 1.0), (-1.0, 1.0)]);
        assert_eq!(
            compiled.feasibility(&region, &mut scratch),
            ClauseFeasibility::Undecided
        );

        let mut spec_scratch = SpecializeScratch::default();
        let mut view = TapeView::default();
        assert!(compiled.respecialize(None, &mut scratch, &mut spec_scratch, &mut view));
        assert!(view.root_slot(0).is_none(), "satisfied atom dropped");
        assert!(view.root_slot(1).is_some());
        assert!(view.len() < compiled.tape().num_slots());

        for sub in [
            IntervalBox::from_bounds(&[(-0.5, 0.5), (-0.25, 0.75)]),
            IntervalBox::from_bounds(&[(0.0, 1.0), (-1.0, 0.0)]),
        ] {
            // Feasibility verdicts agree.
            let mut view_scratch = compiled.scratch();
            let full = compiled.feasibility(&sub, &mut scratch);
            let short = compiled.feasibility_with_view(Some(&view), &sub, &mut view_scratch);
            assert_eq!(full, short, "{sub}");
            // Contraction narrows to identical bits.
            let mut full_region = sub.clone();
            let mut view_region = sub.clone();
            let full_ok = compiled.contract(&mut full_region, 4, &mut scratch);
            let view_ok =
                compiled.contract_with_view(Some(&view), &mut view_region, 4, &mut view_scratch);
            assert_eq!(full_ok, view_ok, "{sub}");
            if full_ok {
                assert_boxes_bit_equal(&full_region, &view_region);
            }
        }
    }

    #[test]
    fn choice_free_clause_skips_speculative_respecialization() {
        let clause = vec![Constraint::ge(x().tanh() + y().powi(2), 0.25)];
        let compiled = CompiledClause::compile(&clause);
        assert!(!compiled.has_choices);
        let mut scratch = compiled.scratch();
        let region = IntervalBox::from_bounds(&[(-1.0, 1.0), (-1.0, 1.0)]);
        assert_eq!(
            compiled.feasibility(&region, &mut scratch),
            ClauseFeasibility::Undecided
        );
        let mut spec_scratch = SpecializeScratch::default();
        let mut view = TapeView::default();
        // Nothing droppable, no choices: the scan is skipped.
        assert!(!compiled.respecialize(None, &mut scratch, &mut spec_scratch, &mut view));
    }

    #[test]
    fn monotone_collapse_pins_decided_dimensions() {
        // g = tanh(x) + y is strictly increasing in both variables; for
        // `g >= 0.4` both dimensions collapse to their upper faces.
        let clause = vec![Constraint::ge(x().tanh() + y(), 0.4)];
        let compiled = CompiledClause::compile(&clause);
        let mut scratch = compiled.scratch();
        let mut region = IntervalBox::from_bounds(&[(-1.0, 1.0), (-1.0, 1.0)]);
        assert_eq!(
            compiled.feasibility(&region, &mut scratch),
            ClauseFeasibility::Undecided
        );
        assert_eq!(
            compiled.derivative_cuts(&mut region, &mut scratch),
            CutOutcome::Narrowed
        );
        assert!(region[0].is_singleton());
        assert_eq!(region[0].lo(), 1.0);
        assert!(region[1].is_singleton());
        assert_eq!(region[1].lo(), 1.0);
    }

    #[test]
    fn monotone_collapse_respects_relation_direction() {
        // `x + y <= c` prefers the lower faces.
        let clause = vec![Constraint::le(x() + y(), 0.0)];
        let compiled = CompiledClause::compile(&clause);
        let mut scratch = compiled.scratch();
        let mut region = IntervalBox::from_bounds(&[(-1.0, 1.0), (-1.0, 1.0)]);
        assert_eq!(
            compiled.feasibility(&region, &mut scratch),
            ClauseFeasibility::Undecided
        );
        assert_eq!(
            compiled.derivative_cuts(&mut region, &mut scratch),
            CutOutcome::Narrowed
        );
        assert_eq!(region[0].lo(), -1.0);
        assert!(region[0].is_singleton());
        assert_eq!(region[1].lo(), -1.0);
        assert!(region[1].is_singleton());
    }

    #[test]
    fn conflicting_monotonicity_blocks_the_collapse() {
        // Two undecided constraints pulling x in opposite directions.
        let clause = vec![
            Constraint::ge(x() + y(), 0.0),
            Constraint::le(x() - y(), 0.0),
        ];
        let compiled = CompiledClause::compile(&clause);
        let mut scratch = compiled.scratch();
        let mut region = IntervalBox::from_bounds(&[(-1.0, 1.0), (-4.0, 4.0)]);
        assert_eq!(
            compiled.feasibility(&region, &mut scratch),
            ClauseFeasibility::Undecided
        );
        // x cannot collapse (conflict); y CAN: up helps `x + y >= 0` and
        // also helps `x - y <= 0`.
        let outcome = compiled.derivative_cuts(&mut region, &mut scratch);
        assert_eq!(outcome, CutOutcome::Narrowed);
        assert!(!region[0].is_singleton(), "conflicted dimension untouched");
        assert!(region[1].is_singleton());
        assert_eq!(region[1].lo(), 4.0);
    }

    #[test]
    fn newton_step_narrows_equalities() {
        // x² = 2 on [1, 2]: the derivative 2x ∈ [2, 4] has fixed sign, so a
        // single Newton step contracts hard around √2.
        let clause = vec![Constraint::eq(x().powi(2), 2.0)];
        let compiled = CompiledClause::compile(&clause);
        let mut scratch = compiled.scratch();
        let mut region = IntervalBox::from_bounds(&[(1.0, 2.0)]);
        assert_eq!(
            compiled.feasibility(&region, &mut scratch),
            ClauseFeasibility::Undecided
        );
        assert_eq!(
            compiled.derivative_cuts(&mut region, &mut scratch),
            CutOutcome::Narrowed
        );
        assert!(region[0].contains(2.0_f64.sqrt()), "root kept: {region}");
        assert!(region[0].width() < 0.5, "meaningful contraction: {region}");
    }

    #[test]
    fn newton_step_proves_infeasibility_the_direct_sweep_misses() {
        // g = x − x·x = 0.3 on [0.7, 0.9]: interval dependency widens the
        // direct enclosure to [−0.11, 0.41] ∋ 0.3 (undecided), but the true
        // range [0.09, 0.21] misses 0.3 — the mean-value form sees it.
        let clause = vec![Constraint::eq(x() - x() * x(), 0.3)];
        let compiled = CompiledClause::compile(&clause);
        let mut scratch = compiled.scratch();
        let mut region = IntervalBox::from_bounds(&[(0.7, 0.9)]);
        assert_eq!(
            compiled.feasibility(&region, &mut scratch),
            ClauseFeasibility::Undecided
        );
        assert_eq!(
            compiled.derivative_cuts(&mut region, &mut scratch),
            CutOutcome::Infeasible
        );
    }

    #[test]
    fn unusable_gradients_leave_the_box_unchanged() {
        // |x| has a kink at 0: over a straddling box the derivative
        // enclosure is unusable, so no cut may fire.
        let clause = vec![Constraint::ge(x().abs(), 0.5)];
        let compiled = CompiledClause::compile(&clause);
        let mut scratch = compiled.scratch();
        let mut region = IntervalBox::from_bounds(&[(-1.0, 1.0)]);
        assert_eq!(
            compiled.feasibility(&region, &mut scratch),
            ClauseFeasibility::Undecided
        );
        assert_eq!(
            compiled.derivative_cuts(&mut region, &mut scratch),
            CutOutcome::Unchanged
        );
        assert_eq!(region[0], Interval::new(-1.0, 1.0));
    }

    #[test]
    fn dimensions_beyond_the_tape_collapse_for_free() {
        // The clause only mentions x0; x1 is unconstrained and collapses.
        let clause = vec![Constraint::ge(x().powi(2), 0.5)];
        let compiled = CompiledClause::compile(&clause);
        let mut scratch = compiled.scratch();
        let mut region = IntervalBox::from_bounds(&[(-1.0, 1.0), (-7.0, 7.0)]);
        assert_eq!(
            compiled.feasibility(&region, &mut scratch),
            ClauseFeasibility::Undecided
        );
        assert_eq!(
            compiled.derivative_cuts(&mut region, &mut scratch),
            CutOutcome::Narrowed
        );
        assert!(region[1].is_singleton());
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
        compiled.ensure_gradients();
        let via_from: CompiledFormula = (&f).into();
        assert_eq!(via_from.clauses().len(), 2);
        assert!(CompiledFormula::compile(&Formula::falsum())
            .clauses()
            .is_empty());
    }
}
