//! Region specialization: shortening a compiled [`Tape`] for a sub-region.
//!
//! The δ-SAT branch-and-prune search evaluates the same tape thousands of
//! times over a shrinking tree of boxes.  Deep in that tree most of the
//! program is already decided: a `min`/`max` whose branches no longer
//! overlap always selects the same operand, a sign-decided `abs` is a plain
//! copy or negation, and the losing branch's whole dependency cone is dead
//! weight.  A [`TapeView`] is a shortened, renumbered view of a tape that
//! drops exactly those instructions for one region — the fidget-style
//! "shorten on descent" idea — so work per box shrinks as boxes shrink.
//!
//! # Choice traces
//!
//! Every `min`/`max`/`abs` instruction is a *choice site* (see
//! [`Tape::num_choices`]).  The forward interval sweeps the solver already
//! performs can record a [`Choice`] byte per site at essentially zero cost
//! (one branch per site; see
//! [`Tape::eval_interval_extend_into_recording`]), capturing whether the
//! site's operands separated on the current region.  Specialization then
//! works from the recorded trace instead of re-deriving decisions:
//!
//! * **Compile time** ([`ChoiceAnalysis::analyze`], memoized per compiled
//!   clause): instructions are partitioned into *groups* enabled by the same
//!   choice-condition set, plus a per-slot root-reachability mask, so a
//!   decided choice maps to its dead group without re-walking the tape.
//! * **Descent time** ([`TapeView::respecialize_into`]): the view keeps the
//!   set of still-open choice ids; comparing it against the recorded trace
//!   costs `O(open choices)`.  When nothing newly separated and no root
//!   became droppable — the overwhelmingly common case deep in the search —
//!   respecialization exits there, paying nothing proportional to the view
//!   length.  Only when the delta is non-empty does a single forward pass
//!   re-emit the shortened child view, consulting the precomputed groups for
//!   liveness.
//!
//! # Bit-identity
//!
//! Specialization is *bit-invisible*: for every point of the region and for
//! every sub-box of the region, evaluating a [`TapeView`] produces exactly
//! the same bits as evaluating the full tape (for the roots the view keeps).
//! Only rewrites with that property are performed:
//!
//! * `min(a, b)` where the recorded enclosures satisfy `a.hi < b.lo` is an
//!   alias of `a`: on any sub-box the operand enclosures can only shrink, so
//!   the comparison stays strict and both the interval result
//!   (`[min(lo), min(hi)] = a`) and the scalar result (`pa < pb`) are
//!   bitwise `a`.  Symmetrically for `max`.
//! * `abs(a)` with `a.lo > 0` is an alias of `a`; with `a.hi < 0` it is
//!   rewritten to `neg(a)` ([`Interval::abs`] returns exactly `-a` there,
//!   and IEEE `abs`/negation agree bit-for-bit on negative values).
//! * Instructions reachable only from dropped roots are removed.
//!
//! A recorded separation is only *applied* when the NaN/clip taint veto
//! passes: IEEE `min`/`max` swallow a NaN operand, so aliasing a NaN-able
//! branch would change scalar results, and dropping a cone containing a
//! partial function (`sqrt`/`ln` over a sign-straddling operand) would skip
//! HC4 domain clips.  The taint pass runs at emission time only — recording
//! stays branch-cheap and taint-free.
//!
//! Saturated monotone activations (`tanh`, `sigmoid`) are *not* folded to
//! constants: their interval enclosure keeps an outward-rounded width (for
//! example `[1 − ulp, 1]`) whose exact bits on a sub-box depend on the
//! underlying libm, so folding them could not guarantee bit-identity.  Their
//! cost is one instruction; the pay-off of specialization is in the dead
//! cones of decided choices and decided constraint atoms.
//!
//! # Examples
//!
//! ```
//! use nncps_expr::{Expr, SpecializeScratch, Tape};
//! use nncps_interval::IntervalBox;
//!
//! let x = Expr::var(0);
//! // max(x², −x²) and the dead branch's extra work.
//! let f = x.clone().powi(2).max(-(x.clone().powi(2))) + x.clone().sin();
//! let tape = Tape::compile(&f);
//!
//! // On [1, 2] the two branches cannot overlap: x² ∈ [1, 4], −x² ∈ [−4, −1].
//! let region = IntervalBox::from_bounds(&[(1.0, 2.0)]);
//! let mut scratch = SpecializeScratch::default();
//! let view = tape.specialize(&region, &mut scratch);
//! assert!(view.len() < tape.num_slots());
//!
//! // Bit-identical on any sub-box and point of the region.
//! let sub = IntervalBox::from_bounds(&[(1.25, 1.5)]);
//! let mut full = Vec::new();
//! let mut short = Vec::new();
//! tape.eval_interval_into(&sub, &mut full);
//! view.eval_interval_into(&tape, &sub, &mut short);
//! let root = view.root_slot(0).unwrap();
//! assert_eq!(short[root].lo().to_bits(), full[tape.root_slot(0)].lo().to_bits());
//! assert_eq!(short[root].hi().to_bits(), full[tape.root_slot(0)].hi().to_bits());
//! ```

use std::collections::HashMap;

use nncps_interval::{Interval, IntervalBox};

use crate::tape::{OpCode, NO_CHOICE};
use crate::{BinaryOp, Choice, Tape, TapeInstr, UnaryOp};

/// Sentinel for a dropped root in [`TapeView::roots`].
const DROPPED: u32 = u32::MAX;

/// Condition-set size cap in [`ChoiceAnalysis`]: a slot gated by more than
/// this many distinct choice conditions is treated as unconditionally
/// enabled (sound — it is merely kept when it could have been dropped).
const MAX_CONDS: usize = 8;

/// What specialization does with one source instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Action {
    /// Emit the instruction unchanged (operands renumbered).
    Keep,
    /// The instruction always equals its left operand; emit nothing.
    AliasLhs,
    /// The instruction always equals its right operand; emit nothing.
    AliasRhs,
    /// A sign-decided `abs` of a negative operand: emit `neg` instead.
    RewriteNeg,
}

/// Reusable buffers for [`Tape::specialize`] / [`TapeView::respecialize_into`].
///
/// Create one per worker and pass it to every call; the buffers grow to a
/// high-water mark on first use and are reused allocation-free afterwards.
#[derive(Debug, Default, Clone)]
pub struct SpecializeScratch {
    /// Forward interval values (used by [`Tape::specialize`] only).
    slots: Vec<Interval>,
    /// Per-slot "scalar evaluation may be NaN" flag.
    taint: Vec<bool>,
    /// Per-slot rewrite decision (tape-level pass only).
    action: Vec<Action>,
    /// Per-slot liveness under the kept roots (tape-level pass only).
    live: Vec<bool>,
    /// Source slot → view slot renumbering.
    slot_map: Vec<u32>,
    /// Per-group enablement under the child's choice state.
    enabled: Vec<bool>,
    /// Respecializations that exited at the O(open choices) delta check.
    delta_exits: usize,
    /// Respecializations that ran the full taint + emission pass.
    emit_passes: usize,
}

impl SpecializeScratch {
    /// Number of [`TapeView::respecialize_into`] calls that exited at the
    /// cheap choice-delta check (cost proportional to the open choices, not
    /// the view length).
    pub fn delta_exits(&self) -> usize {
        self.delta_exits
    }

    /// Number of [`TapeView::respecialize_into`] calls that ran the full
    /// emission pass because a choice newly separated or a root became
    /// droppable.  Over one descent this is bounded by the number of choice
    /// sites plus roots — each can change at most once — independent of
    /// depth.
    pub fn emit_passes(&self) -> usize {
        self.emit_passes
    }
}

/// Compile-time partition of a tape into groups of instructions enabled by
/// the same set of choice conditions, plus per-slot root reachability.
///
/// Computed once per tape ([`ChoiceAnalysis::analyze`]; the δ-SAT layer
/// memoizes it per compiled clause) and consulted by
/// [`TapeView::respecialize_into`] so a decided choice maps to its dead
/// instruction group without re-walking the tape.
///
/// A slot's *condition set* is the set of `(choice id, side)` pairs such
/// that every use-path from the slot to a root passes through that side of
/// that `min`/`max` site; the slot is enabled for a choice state iff every
/// condition's choice is still open or decided to that side.  Sets are
/// intersected over use-paths (an over-approximation of liveness — extra
/// kept slots are bit-invisible) and capped at a small size.  `abs` sites
/// contribute no conditions: both their resolutions keep the operand alive.
#[derive(Debug, Clone)]
pub struct ChoiceAnalysis {
    /// Per original slot: group id.
    group_of: Vec<u32>,
    /// Per group: range into `conds` (length `num_groups + 1`).
    cond_start: Vec<u32>,
    /// Flattened `(choice id, required side)` conditions.
    conds: Vec<(u16, Choice)>,
    /// Per original slot: bitmask of roots that can reach it (bit
    /// `min(k, 63)`; roots beyond 63 share the last bit, which only ever
    /// keeps extra slots).
    root_mask: Vec<u64>,
}

impl ChoiceAnalysis {
    /// Analyzes `tape` in one backward pass over its instructions.
    pub fn analyze(tape: &Tape) -> ChoiceAnalysis {
        let n = tape.ops.len();
        // Condition set per slot: `None` until first reached from a root.
        let mut sets: Vec<Option<Vec<(u16, Choice)>>> = vec![None; n];
        let mut root_mask = vec![0u64; n];
        for (k, &root) in tape.roots.iter().enumerate() {
            sets[root as usize] = Some(Vec::new());
            root_mask[root as usize] |= 1u64 << k.min(63);
        }
        // `merge` intersects a new use-path contribution into a slot's set,
        // capping oversized sets to the empty (always-enabled) set *before*
        // they propagate further, which preserves the closure invariant
        // `S(operand) ⊆ S(user) ∪ edge condition` that emission relies on.
        fn merge(slot: &mut Option<Vec<(u16, Choice)>>, contribution: &[(u16, Choice)]) {
            match slot {
                None => {
                    let mut s = contribution.to_vec();
                    if s.len() > MAX_CONDS {
                        s.clear();
                    }
                    *slot = Some(s);
                }
                Some(existing) => existing.retain(|c| contribution.contains(c)),
            }
        }
        let mut with_edge = Vec::new();
        for i in (0..n).rev() {
            let Some(si) = sets[i].take() else {
                continue;
            };
            let a = tape.lhs[i] as usize;
            let b = tape.rhs[i] as usize;
            let mask = root_mask[i];
            match tape.ops[i] {
                OpCode::Const | OpCode::Var => {}
                OpCode::Unary(_) | OpCode::Powi => {
                    // `abs` keeps its operand under both resolutions, so no
                    // condition is attached even at an abs choice site.
                    merge(&mut sets[a], &si);
                    root_mask[a] |= mask;
                }
                OpCode::Binary(op) => {
                    let id = tape.choice_index[i];
                    if id != NO_CHOICE && matches!(op, BinaryOp::Min | BinaryOp::Max) {
                        for (operand, side) in [(a, Choice::Left), (b, Choice::Right)] {
                            with_edge.clear();
                            with_edge.extend_from_slice(&si);
                            if !with_edge.contains(&(id, side)) {
                                with_edge.push((id, side));
                            }
                            if with_edge.len() > MAX_CONDS {
                                with_edge.clear();
                            }
                            merge(&mut sets[operand], &with_edge);
                            root_mask[operand] |= mask;
                        }
                    } else {
                        merge(&mut sets[a], &si);
                        merge(&mut sets[b], &si);
                        root_mask[a] |= mask;
                        root_mask[b] |= mask;
                    }
                }
            }
            sets[i] = Some(si);
        }
        // Dedupe condition sets into groups.
        let mut group_of = vec![0u32; n];
        let mut cond_start = vec![0u32];
        let mut conds = Vec::new();
        let mut group_ids: HashMap<Vec<(u16, Choice)>, u32> = HashMap::new();
        for i in 0..n {
            let mut set = sets[i].take().unwrap_or_default();
            set.sort_unstable_by_key(|&(id, side)| (id, side as u8));
            let g = match group_ids.get(&set) {
                Some(&g) => g,
                None => {
                    let g = group_ids.len() as u32;
                    conds.extend_from_slice(&set);
                    cond_start.push(conds.len() as u32);
                    group_ids.insert(set, g);
                    g
                }
            };
            group_of[i] = g;
        }
        ChoiceAnalysis {
            group_of,
            cond_start,
            conds,
            root_mask,
        }
    }

    /// Number of distinct condition-set groups.
    pub fn num_groups(&self) -> usize {
        self.cond_start.len() - 1
    }

    /// Whether group `g` is enabled under `state` (every condition's choice
    /// open or decided to the required side).
    fn enabled(&self, g: usize, state: &[Choice]) -> bool {
        let lo = self.cond_start[g] as usize;
        let hi = self.cond_start[g + 1] as usize;
        self.conds[lo..hi].iter().all(|&(id, side)| {
            let s = state[id as usize];
            s == Choice::Both || s == side
        })
    }
}

/// A shortened, renumbered view of a [`Tape`], specialized to a region.
///
/// A view borrows nothing: it stores its own instruction columns (constants
/// keep indexing the parent tape's pools), so views can be pooled and reused
/// by the solver without lifetime entanglement.  All evaluation entry points
/// take the parent tape explicitly.
///
/// Views can be re-specialized from views ([`TapeView::respecialize_into`]),
/// so a descent keeps shortening.  Each view carries its choice state — the
/// sides already decided for `min`/`max`/`abs` sites and the ids still open
/// — so deriving a child costs `O(open choices)` when the recorded trace
/// shows no new separation, and one forward pass only when it does.
#[derive(Debug, Default, Clone)]
pub struct TapeView {
    ops: Vec<OpCode>,
    lhs: Vec<u32>,
    rhs: Vec<u32>,
    /// Per original root: slot in this view, or [`DROPPED`].
    roots: Vec<u32>,
    /// Per view slot: the originating slot in the parent tape.
    src: Vec<u32>,
    /// Per view slot: choice id (original tape numbering) or `NO_CHOICE`.
    choice_ids: Vec<u16>,
    /// Per original choice id: decided side, or `Both` while open (or when
    /// the site's cone is dead — then the value is simply never consulted).
    choice_state: Vec<Choice>,
    /// Choice ids still undecided *and* present in this view, in slot order.
    open_choices: Vec<u16>,
}

impl Tape {
    /// Specializes the tape to `region`: performs one forward interval sweep
    /// and prunes every instruction that is decided on the region (see the
    /// [module documentation](crate::specialize) for the exact — and
    /// bit-invisible — rewrite rules).  All roots are kept.
    ///
    /// The forward sweep is the same work [`Tape::eval_interval_into`] does,
    /// so callers that already hold the forward slot values of a region
    /// should prefer [`Tape::specialize_from_slots`] and pay nothing extra.
    ///
    /// # Panics
    ///
    /// Panics if the tape references a variable index out of bounds for the
    /// box.
    pub fn specialize(&self, region: &IntervalBox, scratch: &mut SpecializeScratch) -> TapeView {
        let mut slots = std::mem::take(&mut scratch.slots);
        self.eval_interval_into(region, &mut slots);
        let mut out = TapeView::default();
        let keep = vec![true; self.num_roots()];
        self.specialize_from_slots(&slots, &keep, scratch, &mut out);
        scratch.slots = slots;
        out
    }

    /// Specializes the tape given the forward interval values `slots` of a
    /// region (as produced by [`Tape::eval_interval_into`]), keeping only the
    /// roots with `keep_root[k] == true`, writing the shortened view into
    /// `out` (cleared and refilled; no allocation once warm).
    ///
    /// This is the full three-pass derivation (decide from enclosures, mark
    /// liveness, emit) — the entry point of a specialization descent and the
    /// reference against which the incremental
    /// [`TapeView::respecialize_into`] is benchmarked.
    ///
    /// Returns `true` when the view is strictly shorter than the source (an
    /// instruction was pruned or a root dropped), `false` when specialization
    /// found nothing to do.
    ///
    /// # Panics
    ///
    /// Panics if `slots.len() < self.num_slots()` or
    /// `keep_root.len() != self.num_roots()`.
    pub fn specialize_from_slots(
        &self,
        slots: &[Interval],
        keep_root: &[bool],
        scratch: &mut SpecializeScratch,
        out: &mut TapeView,
    ) -> bool {
        specialize_program(self, slots, keep_root, scratch, out)
    }
}

impl TapeView {
    /// The identity view of a tape: every instruction, every root, every
    /// choice open.
    ///
    /// This is the root of a specialization descent; derive shorter views
    /// from it with [`TapeView::respecialize_into`].
    pub fn full(tape: &Tape) -> TapeView {
        TapeView {
            ops: tape.ops.clone(),
            lhs: tape.lhs.clone(),
            rhs: tape.rhs.clone(),
            roots: tape.roots.clone(),
            src: (0..tape.ops.len() as u32).collect(),
            choice_ids: tape.choice_index.clone(),
            choice_state: vec![Choice::Both; tape.num_choices()],
            open_choices: (0..tape.num_choices() as u16).collect(),
        }
    }

    /// Number of instructions in the view.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Returns `true` if the view contains no instructions.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Number of root entries (equal to the parent tape's
    /// [`Tape::num_roots`]; dropped roots keep their index).
    pub fn num_roots(&self) -> usize {
        self.roots.len()
    }

    /// Number of choice sites still undecided and present in this view —
    /// the cost of the delta check a no-change
    /// [`TapeView::respecialize_into`] pays.
    pub fn num_open_choices(&self) -> usize {
        self.open_choices.len()
    }

    /// The view slot holding root `k`, or `None` when that root was dropped
    /// by specialization.
    ///
    /// # Panics
    ///
    /// Panics if `k >= self.num_roots()`.
    pub fn root_slot(&self, k: usize) -> Option<usize> {
        let slot = self.roots[k];
        (slot != DROPPED).then_some(slot as usize)
    }

    /// Returns a view of instruction `slot`, resolving constants through the
    /// parent tape's pools.
    ///
    /// Instructions stay topologically ordered, so — exactly as for
    /// [`Tape::instr`] — iterating `0..len()` is a valid forward schedule.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= self.len()` or `tape` is not the view's parent.
    pub fn instr(&self, tape: &Tape, slot: usize) -> TapeInstr {
        let lhs = self.lhs[slot] as usize;
        match self.ops[slot] {
            OpCode::Const => TapeInstr::Const(tape.const_scalars[lhs], tape.const_intervals[lhs]),
            OpCode::Var => TapeInstr::Var(lhs),
            OpCode::Unary(op) => TapeInstr::Unary(op, lhs),
            OpCode::Binary(op) => TapeInstr::Binary(op, lhs, self.rhs[slot] as usize),
            OpCode::Powi => TapeInstr::Powi(lhs, self.rhs[slot] as i32),
        }
    }

    /// Evaluates every view slot over an interval box, reusing `slots` as
    /// the register file (cleared and refilled; no allocation once warm).
    ///
    /// Bit-identical to evaluating the parent tape on any sub-box of the
    /// region the view was specialized to.
    ///
    /// # Panics
    ///
    /// Panics if the view references a variable index out of bounds for the
    /// box or `tape` is not the view's parent.
    pub fn eval_interval_into(&self, tape: &Tape, region: &IntervalBox, slots: &mut Vec<Interval>) {
        self.eval_interval_prefix_into(tape, region, slots, self.ops.len());
    }

    /// Evaluates only the first `count` view slots over an interval box.
    ///
    /// As with [`Tape::eval_interval_prefix_into`], topological order means
    /// the prefix `0..=root` contains everything a root depends on.
    ///
    /// # Panics
    ///
    /// Panics if `count > self.len()`, the evaluated prefix references an
    /// out-of-bounds variable, or `tape` is not the view's parent.
    pub fn eval_interval_prefix_into(
        &self,
        tape: &Tape,
        region: &IntervalBox,
        slots: &mut Vec<Interval>,
        count: usize,
    ) {
        slots.clear();
        self.eval_interval_extend_into(tape, region, slots, count);
    }

    /// Extends a partial forward evaluation of the view (the incremental
    /// form of [`TapeView::eval_interval_prefix_into`]; see
    /// [`Tape::eval_interval_extend_into`]).
    ///
    /// # Panics
    ///
    /// Panics if `count > self.len()`, the evaluated range references an
    /// out-of-bounds variable, or `tape` is not the view's parent.
    pub fn eval_interval_extend_into(
        &self,
        tape: &Tape,
        region: &IntervalBox,
        slots: &mut Vec<Interval>,
        count: usize,
    ) {
        assert!(count <= self.ops.len(), "prefix exceeds view length");
        slots.reserve(count.saturating_sub(slots.len()));
        for i in slots.len()..count {
            let lhs = self.lhs[i] as usize;
            let v = match self.ops[i] {
                OpCode::Const => tape.const_intervals[lhs],
                OpCode::Var => region[lhs],
                OpCode::Unary(op) => op.apply_interval(slots[lhs]),
                OpCode::Binary(op) => op.apply_interval(slots[lhs], slots[self.rhs[i] as usize]),
                OpCode::Powi => slots[lhs].powi(self.rhs[i] as i32),
            };
            slots.push(v);
        }
    }

    /// Recording twin of [`TapeView::eval_interval_extend_into`]: also
    /// writes a [`Choice`] byte per evaluated choice site into `choices`,
    /// indexed by *original* choice id ([`Tape::num_choices`] entries).
    ///
    /// Computed slot values are bit-identical to the non-recording sweep.
    ///
    /// # Panics
    ///
    /// Panics if `count > self.len()`, `choices` is shorter than
    /// [`Tape::num_choices`], the evaluated range references an
    /// out-of-bounds variable, or `tape` is not the view's parent.
    pub fn eval_interval_extend_into_recording(
        &self,
        tape: &Tape,
        region: &IntervalBox,
        slots: &mut Vec<Interval>,
        count: usize,
        choices: &mut [Choice],
    ) {
        assert!(count <= self.ops.len(), "prefix exceeds view length");
        slots.reserve(count.saturating_sub(slots.len()));
        for i in slots.len()..count {
            let lhs = self.lhs[i] as usize;
            let v = match self.ops[i] {
                OpCode::Const => tape.const_intervals[lhs],
                OpCode::Var => region[lhs],
                OpCode::Unary(op) => {
                    let va = slots[lhs];
                    let id = self.choice_ids[i];
                    if id != NO_CHOICE {
                        choices[id as usize] = Choice::of_abs(va);
                    }
                    op.apply_interval(va)
                }
                OpCode::Binary(op) => {
                    let va = slots[lhs];
                    let vb = slots[self.rhs[i] as usize];
                    let id = self.choice_ids[i];
                    if id != NO_CHOICE {
                        choices[id as usize] = match op {
                            BinaryOp::Min => Choice::of_min(va, vb),
                            _ => Choice::of_max(va, vb),
                        };
                    }
                    op.apply_interval(va, vb)
                }
                OpCode::Powi => slots[lhs].powi(self.rhs[i] as i32),
            };
            slots.push(v);
        }
    }

    /// Evaluates every view slot at a point, reusing `slots` as the register
    /// file.
    ///
    /// Bit-identical to evaluating the parent tape at any point of the
    /// region the view was specialized to.
    ///
    /// # Panics
    ///
    /// Panics if the view references a variable index out of bounds for
    /// `values` or `tape` is not the view's parent.
    pub fn eval_scalar_into(&self, tape: &Tape, values: &[f64], slots: &mut Vec<f64>) {
        slots.clear();
        slots.reserve(self.ops.len());
        for i in 0..self.ops.len() {
            let lhs = self.lhs[i] as usize;
            let v = match self.ops[i] {
                OpCode::Const => tape.const_scalars[lhs],
                OpCode::Var => values[lhs],
                OpCode::Unary(op) => op.apply(slots[lhs]),
                OpCode::Binary(op) => op.apply(slots[lhs], slots[self.rhs[i] as usize]),
                OpCode::Powi => slots[lhs].powi(self.rhs[i] as i32),
            };
            slots.push(v);
        }
    }

    /// Specializes this view further from the recorded choice trace of a
    /// sub-region, keeping only the roots with `keep_root[k] == true` (roots
    /// already dropped stay dropped), writing into `out`.
    ///
    /// `slots` are this view's forward interval values on the sub-region and
    /// `recorded` the choice trace of the same sweep (both as produced by
    /// [`TapeView::eval_interval_extend_into_recording`]); `analysis` is the
    /// parent tape's memoized [`ChoiceAnalysis`].
    ///
    /// The call first compares `recorded` against this view's open choices —
    /// `O(open choices + roots)`.  When no open choice newly separated and
    /// no kept root became droppable it returns `false` without touching
    /// `out`.  Otherwise one taint pass applies the NaN/clip veto, the new
    /// choice state maps to enabled groups via `analysis`, and a single
    /// forward pass emits the child view.
    ///
    /// Returns `true` when `out` was written (some choice was decided or a
    /// root dropped), `false` when this view is already fully specialized
    /// for the sub-region.
    ///
    /// # Panics
    ///
    /// Panics if `slots.len() < self.len()`,
    /// `recorded.len() < tape.num_choices()`,
    /// `keep_root.len() != self.num_roots()`, or `tape`/`analysis` are not
    /// the view's parents.
    // Every parameter is a distinct pooled buffer the allocation-free solver
    // loop owns; bundling them would force per-call moves or a borrow knot.
    #[allow(clippy::too_many_arguments)]
    pub fn respecialize_into(
        &self,
        tape: &Tape,
        analysis: &ChoiceAnalysis,
        slots: &[Interval],
        recorded: &[Choice],
        keep_root: &[bool],
        scratch: &mut SpecializeScratch,
        out: &mut TapeView,
    ) -> bool {
        let n = self.ops.len();
        assert!(slots.len() >= n, "forward slot values missing");
        assert!(
            recorded.len() >= tape.num_choices(),
            "choice trace shorter than the tape's choice count"
        );
        assert_eq!(
            keep_root.len(),
            self.roots.len(),
            "root mask length mismatch"
        );

        // --- delta check: O(open choices + roots) -----------------------
        let changed = self
            .open_choices
            .iter()
            .any(|&id| recorded[id as usize] != Choice::Both);
        let droppable = self
            .roots
            .iter()
            .zip(keep_root)
            .any(|(&root, &keep)| root != DROPPED && !keep);
        if !changed && !droppable {
            scratch.delta_exits += 1;
            return false;
        }
        scratch.emit_passes += 1;

        // --- taint pass + choice resolution: O(view length) -------------
        // Taint is only needed now that something may actually change; the
        // rules are identical to the tape-level decide pass.
        scratch.taint.clear();
        scratch.taint.resize(n, false);
        out.choice_state.clear();
        out.choice_state.extend_from_slice(&self.choice_state);
        let mut decided_any = false;
        for i in 0..n {
            let a = self.lhs[i] as usize;
            let b = self.rhs[i] as usize;
            scratch.taint[i] = instr_taint(tape, self.ops[i], a, b, slots, &scratch.taint);
            let id = self.choice_ids[i];
            if id == NO_CHOICE {
                continue;
            }
            let rec = recorded[id as usize];
            if rec == Choice::Both {
                continue;
            }
            // The veto mirrors the decide pass: aliasing a NaN-able branch
            // (or dropping a clip-bearing cone) would not be bit-invisible.
            let vetoed = match self.ops[i] {
                OpCode::Unary(_) => scratch.taint[a],
                _ => scratch.taint[a] || scratch.taint[b],
            };
            if !vetoed {
                out.choice_state[id as usize] = rec;
                decided_any = true;
            }
        }

        // Effective kept roots: a caller-requested drop is vetoed when the
        // root's cone is tainted — dropping it would skip the partial-
        // function domain clips its HC4 backward pass performs.
        let mut kept_mask = 0u64;
        let mut dropped_now = false;
        for (k, &root) in self.roots.iter().enumerate() {
            if root == DROPPED {
                continue;
            }
            if keep_root[k] || scratch.taint[root as usize] {
                kept_mask |= 1u64 << k.min(63);
            } else {
                dropped_now = true;
            }
        }
        if !decided_any && !dropped_now {
            // Every separation and every drop was taint-vetoed: the child
            // would be identical, so keep the parent view.
            return false;
        }

        // --- group enablement under the child state: O(groups) ----------
        scratch.enabled.clear();
        scratch.enabled.resize(analysis.num_groups(), false);
        for g in 0..analysis.num_groups() {
            scratch.enabled[g] = analysis.enabled(g, &out.choice_state);
        }

        // --- emission: one forward pass over the parent view ------------
        scratch.slot_map.clear();
        scratch.slot_map.resize(n, DROPPED);
        out.ops.clear();
        out.lhs.clear();
        out.rhs.clear();
        out.roots.clear();
        out.src.clear();
        out.choice_ids.clear();
        out.open_choices.clear();
        for i in 0..n {
            let s = self.src[i] as usize;
            if !scratch.enabled[analysis.group_of[s] as usize]
                || (analysis.root_mask[s] & kept_mask) == 0
            {
                continue;
            }
            let id = self.choice_ids[i];
            let state = if id != NO_CHOICE {
                out.choice_state[id as usize]
            } else {
                Choice::Both
            };
            if state != Choice::Both {
                match self.ops[i] {
                    OpCode::Binary(_) => {
                        let winner = if state == Choice::Left {
                            self.lhs[i]
                        } else {
                            self.rhs[i]
                        };
                        scratch.slot_map[i] = scratch.slot_map[winner as usize];
                    }
                    // A sign-decided abs: identity on the positive side,
                    // negation on the negative side.
                    OpCode::Unary(_) if state == Choice::Left => {
                        scratch.slot_map[i] = scratch.slot_map[self.lhs[i] as usize];
                    }
                    OpCode::Unary(_) => {
                        scratch.slot_map[i] = out.ops.len() as u32;
                        out.ops.push(OpCode::Unary(UnaryOp::Neg));
                        out.lhs.push(scratch.slot_map[self.lhs[i] as usize]);
                        out.rhs.push(0);
                        out.src.push(self.src[i]);
                        out.choice_ids.push(NO_CHOICE);
                    }
                    _ => unreachable!("only min/max/abs carry choice ids"),
                }
                continue;
            }
            scratch.slot_map[i] = out.ops.len() as u32;
            let (new_lhs, new_rhs) = match self.ops[i] {
                // Constant-pool and variable indices pass through.
                OpCode::Const | OpCode::Var => (self.lhs[i], self.rhs[i]),
                OpCode::Unary(_) | OpCode::Powi => {
                    (scratch.slot_map[self.lhs[i] as usize], self.rhs[i])
                }
                OpCode::Binary(_) => (
                    scratch.slot_map[self.lhs[i] as usize],
                    scratch.slot_map[self.rhs[i] as usize],
                ),
            };
            out.ops.push(self.ops[i]);
            out.lhs.push(new_lhs);
            out.rhs.push(new_rhs);
            out.src.push(self.src[i]);
            out.choice_ids.push(id);
            if id != NO_CHOICE {
                out.open_choices.push(id);
            }
        }
        for (k, &root) in self.roots.iter().enumerate() {
            if root == DROPPED || !(keep_root[k] || scratch.taint[root as usize]) {
                out.roots.push(DROPPED);
            } else {
                out.roots.push(scratch.slot_map[root as usize]);
            }
        }
        true
    }
}

/// NaN/clip taint of one instruction, given operand taints and the recorded
/// forward enclosures.  Shared verbatim by the tape-level decide pass and
/// the view-level emission pass.
#[inline]
fn instr_taint(
    tape: &Tape,
    op: OpCode,
    a: usize,
    b: usize,
    slots: &[Interval],
    taint: &[bool],
) -> bool {
    match op {
        // A folded constant can carry a scalar its enclosure does not
        // contain (IEEE min/max swallow the NaN of a nowhere-defined
        // operand at fold time, interval semantics keeps EMPTY); every
        // such scalar/interval-divergent constant poisons downstream
        // decisions exactly like a runtime NaN.
        OpCode::Const => {
            tape.const_scalars[a].is_nan()
                || !tape.const_intervals[a].contains(tape.const_scalars[a])
        }
        OpCode::Var => false,
        OpCode::Unary(op) => {
            let va = slots[a];
            taint[a]
                || match op {
                    // NaN only for an infinite operand point.
                    UnaryOp::Sin | UnaryOp::Cos | UnaryOp::Tan => !va.is_bounded(),
                    // NaN for a negative operand point.
                    UnaryOp::Ln | UnaryOp::Sqrt => va.lo() < 0.0,
                    // NaN-transparent.
                    UnaryOp::Neg
                    | UnaryOp::Exp
                    | UnaryOp::Abs
                    | UnaryOp::Tanh
                    | UnaryOp::Sigmoid
                    | UnaryOp::Atan => false,
                }
        }
        OpCode::Binary(op) => {
            let (va, vb) = (slots[a], slots[b]);
            taint[a]
                || taint[b]
                || match op {
                    // +inf + -inf (and the subtraction analogue).
                    BinaryOp::Add | BinaryOp::Sub => !va.is_bounded() && !vb.is_bounded(),
                    // 0 · ±inf.
                    BinaryOp::Mul => {
                        (va.contains(0.0) && !vb.is_bounded())
                            || (vb.contains(0.0) && !va.is_bounded())
                    }
                    // 0 / 0 or ±inf / ±inf.
                    BinaryOp::Div => vb.contains(0.0) || (!va.is_bounded() && !vb.is_bounded()),
                    // IEEE min/max swallow single-NaN operands.
                    BinaryOp::Min | BinaryOp::Max => false,
                }
        }
        OpCode::Powi => taint[a],
    }
}

/// The full three-pass shortening of a tape: decide (taint + rewrite
/// actions from the recorded enclosures), mark (liveness backward from the
/// kept roots, following alias decisions so dead branches stay dead), emit
/// (renumber forward, seeding the emitted view's choice state so descents
/// can continue with [`TapeView::respecialize_into`]).
fn specialize_program(
    tape: &Tape,
    slots: &[Interval],
    keep_root: &[bool],
    scratch: &mut SpecializeScratch,
    out: &mut TapeView,
) -> bool {
    let ops = &tape.ops;
    let lhs = &tape.lhs;
    let rhs = &tape.rhs;
    let roots = &tape.roots;
    let n = ops.len();
    assert!(slots.len() >= n, "forward slot values missing");
    assert_eq!(keep_root.len(), roots.len(), "root mask length mismatch");

    // --- decide ---------------------------------------------------------
    scratch.taint.clear();
    scratch.taint.resize(n, false);
    scratch.action.clear();
    scratch.action.resize(n, Action::Keep);
    out.choice_state.clear();
    out.choice_state.resize(tape.num_choices(), Choice::Both);
    for i in 0..n {
        let a = lhs[i] as usize;
        let b = rhs[i] as usize;
        scratch.taint[i] = instr_taint(tape, ops[i], a, b, slots, &scratch.taint);
        let action = match ops[i] {
            OpCode::Unary(UnaryOp::Abs) => {
                // A NaN-able operand blocks the abs rewrites too: IEEE `abs`
                // clears the sign bit of a NaN where a plain copy (or
                // negation) would not.
                if scratch.taint[a] {
                    Action::Keep
                } else {
                    match Choice::of_abs(slots[a]) {
                        Choice::Left => Action::AliasLhs,
                        Choice::Right => Action::RewriteNeg,
                        Choice::Both => Action::Keep,
                    }
                }
            }
            OpCode::Binary(op @ (BinaryOp::Min | BinaryOp::Max)) => {
                // Strict separation keeps scalar comparisons strict on
                // every sub-box, so the winning operand's bits survive
                // IEEE min/max ties.  Both branches must be untainted:
                // the chosen one must not produce a NaN the full program
                // would swallow, and the dead one must not contain a
                // partial function (`sqrt`/`ln` over a sign-straddling
                // operand) whose HC4 inversion clips variable domains —
                // skipping that cone in a backward pass would change the
                // contraction.
                if scratch.taint[a] || scratch.taint[b] {
                    Action::Keep
                } else {
                    let choice = match op {
                        BinaryOp::Min => Choice::of_min(slots[a], slots[b]),
                        _ => Choice::of_max(slots[a], slots[b]),
                    };
                    match choice {
                        Choice::Left => Action::AliasLhs,
                        Choice::Right => Action::AliasRhs,
                        Choice::Both => Action::Keep,
                    }
                }
            }
            _ => Action::Keep,
        };
        scratch.action[i] = action;
        // Seed the emitted view's choice state (harmless for sites whose
        // cone turns out dead: the state is then never consulted).
        let id = tape.choice_index[i];
        if id != NO_CHOICE {
            out.choice_state[id as usize] = match action {
                Action::Keep => Choice::Both,
                Action::AliasLhs => Choice::Left,
                Action::AliasRhs | Action::RewriteNeg => Choice::Right,
            };
        }
    }

    // --- mark -----------------------------------------------------------
    // A caller-requested root drop is vetoed when the root's cone is
    // tainted: dropping it would also skip the partial-function domain
    // clips (`sqrt`/`ln`) its HC4 backward pass performs, changing the
    // contraction.  The veto keeps specialization bit-invisible; the root
    // merely stays evaluated.
    scratch.live.clear();
    scratch.live.resize(n, false);
    for (k, &root) in roots.iter().enumerate() {
        if root != DROPPED && (keep_root[k] || scratch.taint[root as usize]) {
            scratch.live[root as usize] = true;
        }
    }
    for i in (0..n).rev() {
        if !scratch.live[i] {
            continue;
        }
        match scratch.action[i] {
            Action::AliasLhs => scratch.live[lhs[i] as usize] = true,
            Action::AliasRhs => scratch.live[rhs[i] as usize] = true,
            Action::RewriteNeg => scratch.live[lhs[i] as usize] = true,
            Action::Keep => match ops[i] {
                OpCode::Const | OpCode::Var => {}
                OpCode::Unary(_) | OpCode::Powi => scratch.live[lhs[i] as usize] = true,
                OpCode::Binary(_) => {
                    scratch.live[lhs[i] as usize] = true;
                    scratch.live[rhs[i] as usize] = true;
                }
            },
        }
    }

    // --- emit -----------------------------------------------------------
    scratch.slot_map.clear();
    scratch.slot_map.resize(n, DROPPED);
    out.ops.clear();
    out.lhs.clear();
    out.rhs.clear();
    out.roots.clear();
    out.src.clear();
    out.choice_ids.clear();
    out.open_choices.clear();
    for i in 0..n {
        if !scratch.live[i] {
            continue;
        }
        match scratch.action[i] {
            Action::AliasLhs => scratch.slot_map[i] = scratch.slot_map[lhs[i] as usize],
            Action::AliasRhs => scratch.slot_map[i] = scratch.slot_map[rhs[i] as usize],
            Action::RewriteNeg => {
                scratch.slot_map[i] = out.ops.len() as u32;
                out.ops.push(OpCode::Unary(UnaryOp::Neg));
                out.lhs.push(scratch.slot_map[lhs[i] as usize]);
                out.rhs.push(0);
                out.src.push(i as u32);
                out.choice_ids.push(NO_CHOICE);
            }
            Action::Keep => {
                scratch.slot_map[i] = out.ops.len() as u32;
                let (new_lhs, new_rhs) = match ops[i] {
                    // Constant-pool and variable indices pass through.
                    OpCode::Const | OpCode::Var => (lhs[i], rhs[i]),
                    OpCode::Unary(_) | OpCode::Powi => (scratch.slot_map[lhs[i] as usize], rhs[i]),
                    OpCode::Binary(_) => (
                        scratch.slot_map[lhs[i] as usize],
                        scratch.slot_map[rhs[i] as usize],
                    ),
                };
                out.ops.push(ops[i]);
                out.lhs.push(new_lhs);
                out.rhs.push(new_rhs);
                out.src.push(i as u32);
                let id = tape.choice_index[i];
                out.choice_ids.push(id);
                if id != NO_CHOICE {
                    out.open_choices.push(id);
                }
            }
        }
    }
    for (k, &root) in roots.iter().enumerate() {
        if root == DROPPED || !(keep_root[k] || scratch.taint[root as usize]) {
            out.roots.push(DROPPED);
        } else {
            out.roots.push(scratch.slot_map[root as usize]);
        }
    }
    out.ops.len() < n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Expr;

    fn x() -> Expr {
        Expr::var(0)
    }

    fn y() -> Expr {
        Expr::var(1)
    }

    fn assert_view_matches(
        tape: &Tape,
        view: &TapeView,
        region: &IntervalBox,
        points: &[Vec<f64>],
    ) {
        let mut full_i = Vec::new();
        let mut view_i = Vec::new();
        tape.eval_interval_into(region, &mut full_i);
        view.eval_interval_into(tape, region, &mut view_i);
        for k in 0..tape.num_roots() {
            let Some(root) = view.root_slot(k) else {
                continue;
            };
            let a = view_i[root];
            let b = full_i[tape.root_slot(k)];
            assert_eq!(
                a.lo().to_bits(),
                b.lo().to_bits(),
                "root {k} lo on {region}"
            );
            assert_eq!(
                a.hi().to_bits(),
                b.hi().to_bits(),
                "root {k} hi on {region}"
            );
        }
        let mut full_s = Vec::new();
        let mut view_s = Vec::new();
        for p in points {
            tape.eval_scalar_into(p, &mut full_s);
            view.eval_scalar_into(tape, p, &mut view_s);
            for k in 0..tape.num_roots() {
                let Some(root) = view.root_slot(k) else {
                    continue;
                };
                assert_eq!(
                    view_s[root].to_bits(),
                    full_s[tape.root_slot(k)].to_bits(),
                    "root {k} at {p:?}"
                );
            }
        }
    }

    /// Records this view's choice trace on `region` into a fresh buffer.
    fn record(view: &TapeView, tape: &Tape, region: &IntervalBox) -> (Vec<Interval>, Vec<Choice>) {
        let mut slots = Vec::new();
        let mut choices = vec![Choice::Both; tape.num_choices()];
        view.eval_interval_extend_into_recording(
            tape,
            region,
            &mut slots,
            view.len(),
            &mut choices,
        );
        (slots, choices)
    }

    #[test]
    fn decided_min_drops_the_losing_cone() {
        // On [2, 3]: x² ∈ [4, 9] and sin(y) − 5 ≤ −4, so the min always
        // takes the right branch and the x² cone dies.
        let f = (x().powi(2)).min(y().sin() - 5.0);
        let tape = Tape::compile(&f);
        let region = IntervalBox::from_bounds(&[(2.0, 3.0), (-1.0, 1.0)]);
        let mut scratch = SpecializeScratch::default();
        let view = tape.specialize(&region, &mut scratch);
        assert!(
            view.len() < tape.num_slots(),
            "{} vs {}",
            view.len(),
            tape.num_slots()
        );
        assert_view_matches(
            &tape,
            &view,
            &IntervalBox::from_bounds(&[(2.25, 2.75), (0.0, 0.5)]),
            &[vec![2.5, 0.25], vec![2.0, -1.0], vec![3.0, 1.0]],
        );
    }

    #[test]
    fn sign_decided_abs_aliases_or_negates() {
        let f = (x().abs() + 1.0) * y().abs();
        let tape = Tape::compile(&f);
        let mut scratch = SpecializeScratch::default();
        // x > 0, y < 0: |x| aliases to x, |y| rewrites to −y.
        let region = IntervalBox::from_bounds(&[(0.5, 2.0), (-3.0, -0.25)]);
        let view = tape.specialize(&region, &mut scratch);
        assert!(view.len() < tape.num_slots());
        assert_view_matches(
            &tape,
            &view,
            &IntervalBox::from_bounds(&[(1.0, 1.5), (-2.0, -1.0)]),
            &[vec![1.2, -1.5], vec![0.5, -0.25]],
        );
        // Straddling zero: nothing is decided.
        let wide = IntervalBox::from_bounds(&[(-1.0, 1.0), (-1.0, 1.0)]);
        let view = tape.specialize(&wide, &mut scratch);
        assert_eq!(view.len(), tape.num_slots());
    }

    #[test]
    fn dropped_roots_remove_their_exclusive_cone() {
        let shared = (x() * 0.5).tanh();
        let a = shared.clone() + y().exp();
        let b = shared.clone() * 2.0;
        let tape = Tape::compile_many(&[a, b]);
        let region = IntervalBox::from_bounds(&[(-1.0, 1.0), (-1.0, 1.0)]);
        let mut slots = Vec::new();
        tape.eval_interval_into(&region, &mut slots);
        let mut scratch = SpecializeScratch::default();
        let mut view = TapeView::default();
        // Dropping root 0 kills the exp(y) cone but keeps the shared tanh.
        let shortened = tape.specialize_from_slots(&slots, &[false, true], &mut scratch, &mut view);
        assert!(shortened);
        assert!(view.root_slot(0).is_none());
        assert!(view.root_slot(1).is_some());
        assert!(view.len() < tape.num_slots());
        assert_view_matches(&tape, &view, &region, &[vec![0.3, -0.4]]);
    }

    #[test]
    fn respecialization_keeps_shortening_on_descent() {
        // min(x, y) over a region where it is undecided, then decided on the
        // child region: the second specialization must shorten further.
        let f = x().min(y()) + (x() + y()).tanh();
        let tape = Tape::compile(&f);
        let analysis = ChoiceAnalysis::analyze(&tape);
        let parent_region = IntervalBox::from_bounds(&[(-1.0, 1.0), (0.0, 2.0)]);
        let mut scratch = SpecializeScratch::default();
        let parent = tape.specialize(&parent_region, &mut scratch);
        assert_eq!(parent.len(), tape.num_slots(), "undecided on the parent");
        assert_eq!(parent.num_open_choices(), 1);

        let child_region = IntervalBox::from_bounds(&[(-1.0, -0.5), (0.0, 2.0)]);
        let (slots, choices) = record(&parent, &tape, &child_region);
        let mut child = TapeView::default();
        let shortened = parent.respecialize_into(
            &tape,
            &analysis,
            &slots,
            &choices,
            &[true],
            &mut scratch,
            &mut child,
        );
        assert!(shortened, "x < y is decided on the child");
        assert!(child.len() < parent.len());
        assert_eq!(child.num_open_choices(), 0);
        assert_view_matches(
            &tape,
            &child,
            &IntervalBox::from_bounds(&[(-0.9, -0.6), (0.5, 1.0)]),
            &[vec![-0.75, 0.8], vec![-1.0, 0.0]],
        );
    }

    #[test]
    fn unchanged_choices_exit_at_the_delta_check() {
        let f = x().min(y()) + x().max(y()) + (x() * y()).abs();
        let tape = Tape::compile(&f);
        assert_eq!(tape.num_choices(), 3);
        let analysis = ChoiceAnalysis::analyze(&tape);
        let mut scratch = SpecializeScratch::default();
        // Nothing separates on a zero-straddling region…
        let region = IntervalBox::from_bounds(&[(-1.0, 1.0), (-1.0, 1.0)]);
        let parent = tape.specialize(&region, &mut scratch);
        assert_eq!(parent.num_open_choices(), 3);
        // …nor on this sub-region, so respecialization must refuse in O(C).
        let sub = IntervalBox::from_bounds(&[(-0.5, 0.5), (-0.5, 0.5)]);
        let (slots, choices) = record(&parent, &tape, &sub);
        let mut child = TapeView::default();
        let wrote = parent.respecialize_into(
            &tape,
            &analysis,
            &slots,
            &choices,
            &[true],
            &mut scratch,
            &mut child,
        );
        assert!(!wrote);
        assert_eq!(scratch.delta_exits(), 1);
        assert_eq!(scratch.emit_passes(), 0);
    }

    #[test]
    fn emit_passes_stay_bounded_on_a_deep_descent() {
        // A ReLU-style chain: each layer is max(w·prev + b, 0).  Descend 40
        // times toward a point; every site decides at most once, so the
        // number of full emission passes is bounded by the choice count
        // (plus nothing for the depth).
        let mut z = x();
        for k in 0..12 {
            let w = 0.7 + 0.05 * k as f64;
            z = (z * w + 0.3).max(Expr::constant(0.0));
        }
        let z = z + y().min(x());
        let tape = Tape::compile(&z);
        let nc = tape.num_choices();
        assert!(nc >= 13);
        let analysis = ChoiceAnalysis::analyze(&tape);
        let mut scratch = SpecializeScratch::default();

        let mut lo = [-8.0, -8.0];
        let mut hi = [8.0, 8.0];
        let region = IntervalBox::from_bounds(&[(lo[0], hi[0]), (lo[1], hi[1])]);
        let mut view = tape.specialize(&region, &mut scratch);
        let mut next = TapeView::default();
        let depth = 40;
        for _ in 0..depth {
            // Halve toward the point (1.7, -3.1).
            for d in 0..2 {
                let target = [1.7, -3.1][d];
                let mid = 0.5 * (lo[d] + hi[d]);
                if target <= mid {
                    hi[d] = mid;
                } else {
                    lo[d] = mid;
                }
            }
            let sub = IntervalBox::from_bounds(&[(lo[0], hi[0]), (lo[1], hi[1])]);
            let (slots, choices) = record(&view, &tape, &sub);
            if view.respecialize_into(
                &tape,
                &analysis,
                &slots,
                &choices,
                &vec![true; tape.num_roots()],
                &mut scratch,
                &mut next,
            ) {
                std::mem::swap(&mut view, &mut next);
            }
            assert_view_matches(&tape, &view, &sub, &[vec![1.7, -3.1]]);
        }
        assert!(
            scratch.emit_passes() <= nc,
            "{} emission passes for {nc} choice sites over {depth} levels",
            scratch.emit_passes()
        );
        assert!(
            scratch.delta_exits() >= depth - nc,
            "most levels must exit at the delta check"
        );
        // Deep in the descent everything is decided: every site was
        // aliased away (for a positive ReLU chain the winning affine cone
        // stays — the saving per site is the site instruction itself).
        assert_eq!(view.num_open_choices(), 0);
        assert!(view.len() <= tape.num_slots() - nc);
    }

    #[test]
    fn nan_able_branches_are_not_aliased() {
        // sqrt(x) over a partially negative region can be NaN at points even
        // though its enclosure [0, 1] beats the other branch; IEEE min would
        // swallow that NaN, so aliasing must be refused.
        let f = x().sqrt().min(y() + 10.0);
        let tape = Tape::compile(&f);
        let region = IntervalBox::from_bounds(&[(-1.0, 1.0), (0.0, 1.0)]);
        let mut scratch = SpecializeScratch::default();
        let view = tape.specialize(&region, &mut scratch);
        assert_eq!(view.len(), tape.num_slots(), "tainted branch must be kept");
        // The scalar results at a NaN point agree because nothing changed.
        let mut full = Vec::new();
        let mut short = Vec::new();
        tape.eval_scalar_into(&[-0.5, 0.0], &mut full);
        view.eval_scalar_into(&tape, &[-0.5, 0.0], &mut short);
        assert_eq!(
            short[view.root_slot(0).unwrap()].to_bits(),
            full[tape.root_slot(0)].to_bits()
        );
    }

    #[test]
    fn taint_vetoes_recorded_separations_in_respecialization() {
        // The same NaN-able separation, but arriving through the recorded
        // trace of a respecialization: the veto must hold there too.
        let f = x().sqrt().min(y() + 10.0);
        let tape = Tape::compile(&f);
        let analysis = ChoiceAnalysis::analyze(&tape);
        let mut scratch = SpecializeScratch::default();
        let region = IntervalBox::from_bounds(&[(-1.0, 1.0), (0.0, 1.0)]);
        let parent = tape.specialize(&region, &mut scratch);
        let sub = IntervalBox::from_bounds(&[(-1.0, 0.5), (0.0, 1.0)]);
        let (slots, choices) = record(&parent, &tape, &sub);
        // The trace *does* show separation (sqrt enclosure beats y + 10)…
        assert_ne!(choices[0], Choice::Both);
        let mut child = TapeView::default();
        let wrote = parent.respecialize_into(
            &tape,
            &analysis,
            &slots,
            &choices,
            &[true],
            &mut scratch,
            &mut child,
        );
        // …but the tainted branch blocks it, and with nothing else to do
        // the parent view is kept as-is.
        assert!(!wrote);
    }

    #[test]
    fn full_view_is_the_identity() {
        let f = x().tanh() * y() + x().powi(3);
        let tape = Tape::compile(&f);
        let view = TapeView::full(&tape);
        assert_eq!(view.len(), tape.num_slots());
        assert_eq!(view.num_roots(), 1);
        let region = IntervalBox::from_bounds(&[(-2.0, 2.0), (-2.0, 2.0)]);
        assert_view_matches(&tape, &view, &region, &[vec![0.5, -1.5]]);
        // Instruction views resolve through the parent tape.
        for i in 0..view.len() {
            match view.instr(&tape, i) {
                TapeInstr::Binary(_, a, b) => assert!(a < i && b < i),
                TapeInstr::Unary(_, a) | TapeInstr::Powi(a, _) => assert!(a < i),
                TapeInstr::Const(..) | TapeInstr::Var(_) => {}
            }
        }
    }

    #[test]
    fn recording_sweeps_match_plain_sweeps_bitwise() {
        let f = (x().min(y()) * 2.0).abs().max(x() * y());
        let tape = Tape::compile(&f);
        let region = IntervalBox::from_bounds(&[(-2.0, 3.0), (-1.0, 4.0)]);
        let mut plain = Vec::new();
        tape.eval_interval_into(&region, &mut plain);
        let mut recorded = Vec::new();
        let mut choices = vec![Choice::Both; tape.num_choices()];
        tape.eval_interval_extend_into_recording(
            &region,
            &mut recorded,
            tape.num_slots(),
            &mut choices,
        );
        for (p, r) in plain.iter().zip(&recorded) {
            assert_eq!(p.lo().to_bits(), r.lo().to_bits());
            assert_eq!(p.hi().to_bits(), r.hi().to_bits());
        }
    }
}
