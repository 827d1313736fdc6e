//! Compiled evaluation tapes: flat SSA programs lowered from [`Expr`] trees.
//!
//! The δ-SAT hot loop evaluates the same expressions millions of times — once
//! per box for feasibility, and once per node per box inside the HC4
//! contractor.  Walking the `Arc`-linked tree is cache-hostile and repeats
//! every shared subexpression per occurrence.  A [`Tape`] fixes both problems
//! at compile time:
//!
//! * **Lowering** flattens the tree into a topologically ordered instruction
//!   list (children always precede parents), stored struct-of-arrays, so a
//!   forward evaluation is one linear sweep over dense memory.
//! * **Common-subexpression elimination** hash-conses structurally identical
//!   subtrees (and `Arc`-shared ones in O(1) via pointer identity) into a
//!   single slot: a neural-network pre-activation referenced by the network
//!   output *and* by its symbolic derivative is computed once.
//! * **Constant folding** collapses variable-free subtrees into `Const`
//!   instructions.  A folded constant stores both its scalar value and the
//!   *interval enclosure* the runtime interval evaluation of the subtree
//!   would have produced, so folding is bit-invisible: scalar and interval
//!   results are identical to evaluating the original tree.
//! * Evaluation is a non-recursive register machine writing into a
//!   caller-owned slot buffer, so steady-state evaluation performs **zero
//!   heap allocations** — the buffers are reused across calls.
//!
//! Several expressions (for example every constraint of a δ-SAT clause) can
//! be compiled into one tape with [`Tape::compile_many`], sharing slots
//! across roots.
//!
//! # Determinism
//!
//! For any expression and input, [`Tape::eval`] is bit-identical to
//! [`Expr::eval`] and [`Tape::eval_box`] is bit-identical to
//! [`Expr::eval_box`]: the tape performs the same floating-point operations
//! in the same dependency order, merely skipping redundant recomputation of
//! shared subexpressions (which would produce the same bits) and
//! pre-computing variable-free subexpressions (storing exactly the bits the
//! runtime would produce).
//!
//! # Examples
//!
//! ```
//! use nncps_expr::{Expr, Tape};
//!
//! let x = Expr::var(0);
//! let shared = (x.clone() * 2.0).tanh();
//! // `shared` appears twice; the tape computes it once.
//! let f = shared.clone() + shared.clone() * x.clone();
//! let tape = Tape::compile(&f);
//! assert!(tape.num_slots() < f.node_count());
//! assert_eq!(tape.eval(&[0.3]).to_bits(), f.eval(&[0.3]).to_bits());
//! ```

use std::collections::HashMap;
use std::sync::Arc;

use nncps_interval::{Interval, IntervalBox};

use crate::expr::Node;
use crate::{BinaryOp, Expr, UnaryOp};

/// Operation tag of one tape instruction (the struct-of-arrays "opcode"
/// column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum OpCode {
    /// Load a (possibly folded) constant; `lhs` indexes the constant pools.
    Const,
    /// Load variable `lhs`.
    Var,
    /// Apply a unary operator to slot `lhs`.
    Unary(UnaryOp),
    /// Apply a binary operator to slots `lhs` and `rhs`.
    Binary(BinaryOp),
    /// Raise slot `lhs` to the integer power bit-stored in `rhs`.
    Powi,
}

/// Structural hash-consing key of a non-constant instruction: two subtrees
/// with the same key always evaluate to the same value, so they share one
/// slot.  (Constants have their own table, keyed by [`ConstKey`], which keeps
/// this key — and the table that holds one entry per instruction — small.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum CseKey {
    Var(u32),
    Unary(UnaryOp, u32),
    Binary(BinaryOp, u32, u32),
    Powi(u32, i32),
}

/// Identity of a constant: the exact bits of its scalar value and of its
/// interval enclosure (a folded constant's enclosure can be wider than a
/// literal's singleton, so all three participate in identity).
type ConstKey = (u64, u64, u64);

/// A pattern-matchable view of one tape instruction, analogous to
/// [`ExprView`](crate::ExprView) but with operands given as slot indices.
///
/// External consumers (such as the δ-SAT contractor's backward pass) use this
/// to walk the compiled program without the crate exposing its internal
/// encoding.
#[derive(Debug, Clone, Copy)]
pub enum TapeInstr {
    /// A constant: scalar value and interval enclosure.  For literal
    /// constants the enclosure is the singleton interval; for folded
    /// subtrees it is the enclosure interval arithmetic would have produced
    /// at runtime.
    Const(f64, Interval),
    /// A variable identified by its index.
    Var(usize),
    /// A unary operation applied to the value in the given slot.
    Unary(UnaryOp, usize),
    /// A binary operation applied to the values in the given slots.
    Binary(BinaryOp, usize, usize),
    /// An integer power of the value in the given slot.
    Powi(usize, i32),
}

/// A compiled, immutable evaluation program shared by scalar and interval
/// evaluation (and by the δ-SAT solver's HC4 contractor).
///
/// Lowering performs common-subexpression elimination and constant folding;
/// evaluation is a non-recursive register machine over caller-owned slot
/// buffers whose scalar and interval results are bit-identical to
/// [`Expr::eval`] / [`Expr::eval_box`] on the compiled expressions.
///
/// # Examples
///
/// Compiling a clause of expressions into one shared tape:
///
/// ```
/// use nncps_expr::{Expr, Tape};
/// use nncps_interval::IntervalBox;
///
/// let x = Expr::var(0);
/// let u = (x.clone() * 0.5).tanh();
/// // Two constraints over the same controller output `u`.
/// let tape = Tape::compile_many(&[u.clone() + 1.0, u.clone() * 2.0]);
/// assert_eq!(tape.num_roots(), 2);
///
/// let mut slots = Vec::new();
/// tape.eval_interval_into(&IntervalBox::from_bounds(&[(-1.0, 1.0)]), &mut slots);
/// let first = slots[tape.root_slot(0)];
/// assert!(first.contains((0.25f64).tanh() + 1.0));
/// ```
#[derive(Debug, Clone)]
pub struct Tape {
    /// Opcode column (struct-of-arrays with `lhs`/`rhs`).
    ops: Vec<OpCode>,
    /// First operand column: slot index, variable index, or constant index.
    lhs: Vec<u32>,
    /// Second operand column: slot index or `powi` exponent bits.
    rhs: Vec<u32>,
    /// Scalar constant pool.
    const_scalars: Vec<f64>,
    /// Interval constant pool (same indexing as `const_scalars`).
    const_intervals: Vec<Interval>,
    /// Root slots, one per compiled expression, in compilation order.
    roots: Vec<u32>,
    /// `1 + max variable index`, or `0` when no variables occur.
    num_vars: usize,
}

/// Hash-consing state used during lowering.
#[derive(Default)]
struct Builder {
    ops: Vec<OpCode>,
    lhs: Vec<u32>,
    rhs: Vec<u32>,
    const_scalars: Vec<f64>,
    const_intervals: Vec<Interval>,
    /// Structural CSE table of the non-constant instructions.
    cse: HashMap<CseKey, u32>,
    /// CSE table of the constants.
    consts: HashMap<ConstKey, u32>,
    /// `Arc` pointer identity cache: shared subtrees resolve in O(1) without
    /// re-walking them.
    by_ptr: HashMap<usize, u32>,
    num_vars: usize,
}

impl Builder {
    fn lower(&mut self, expr: &Expr) -> u32 {
        // Only a node with several owners can be reached twice, so only such
        // nodes enter the pointer cache (a repeat visit of any other node
        // would resolve to the same slot through structural CSE anyway).
        // Keeping uniquely owned nodes out keeps the map small.
        let shared = Arc::strong_count(expr.arc_node()) > 1;
        let ptr = expr.node() as *const Node as usize;
        if shared {
            if let Some(&slot) = self.by_ptr.get(&ptr) {
                return slot;
            }
        }
        let slot = match expr.node() {
            Node::Const(c) => self.add_const(*c, Interval::singleton(*c)),
            Node::Var(i) => {
                self.num_vars = self.num_vars.max(i + 1);
                self.add(CseKey::Var(*i as u32), OpCode::Var, *i as u32, 0)
            }
            Node::Unary(op, a) => {
                let a = self.lower(a);
                self.add_unary(*op, a)
            }
            Node::Binary(op, a, b) => {
                let a = self.lower(a);
                let b = self.lower(b);
                self.add_binary(*op, a, b)
            }
            Node::Powi(a, n) => {
                let a = self.lower(a);
                self.add_powi(a, *n)
            }
        };
        if shared {
            self.by_ptr.insert(ptr, slot);
        }
        slot
    }

    /// Returns the constant-pool index of `slot` when it holds a constant.
    fn const_index(&self, slot: u32) -> Option<usize> {
        if self.ops[slot as usize] == OpCode::Const {
            Some(self.lhs[slot as usize] as usize)
        } else {
            None
        }
    }

    fn add_const(&mut self, scalar: f64, enclosure: Interval) -> u32 {
        let key = (
            scalar.to_bits(),
            enclosure.lo().to_bits(),
            enclosure.hi().to_bits(),
        );
        if let Some(&slot) = self.consts.get(&key) {
            return slot;
        }
        let index = self.const_scalars.len() as u32;
        self.const_scalars.push(scalar);
        self.const_intervals.push(enclosure);
        let slot = self.push(OpCode::Const, index, 0);
        self.consts.insert(key, slot);
        slot
    }

    fn add_unary(&mut self, op: UnaryOp, a: u32) -> u32 {
        if let Some(ci) = self.const_index(a) {
            // Variable-free subtree: fold both the scalar value and the
            // interval enclosure exactly as runtime evaluation would.
            return self.add_const(
                op.apply(self.const_scalars[ci]),
                op.apply_interval(self.const_intervals[ci]),
            );
        }
        self.add(CseKey::Unary(op, a), OpCode::Unary(op), a, 0)
    }

    fn add_binary(&mut self, op: BinaryOp, a: u32, b: u32) -> u32 {
        if let (Some(ca), Some(cb)) = (self.const_index(a), self.const_index(b)) {
            return self.add_const(
                op.apply(self.const_scalars[ca], self.const_scalars[cb]),
                op.apply_interval(self.const_intervals[ca], self.const_intervals[cb]),
            );
        }
        self.add(CseKey::Binary(op, a, b), OpCode::Binary(op), a, b)
    }

    fn add_powi(&mut self, a: u32, n: i32) -> u32 {
        if let Some(ci) = self.const_index(a) {
            return self.add_const(
                self.const_scalars[ci].powi(n),
                self.const_intervals[ci].powi(n),
            );
        }
        self.add(CseKey::Powi(a, n), OpCode::Powi, a, n as u32)
    }

    fn add(&mut self, key: CseKey, op: OpCode, lhs: u32, rhs: u32) -> u32 {
        if let Some(&slot) = self.cse.get(&key) {
            return slot;
        }
        let slot = self.push(op, lhs, rhs);
        self.cse.insert(key, slot);
        slot
    }

    fn push(&mut self, op: OpCode, lhs: u32, rhs: u32) -> u32 {
        let slot = self.ops.len() as u32;
        self.ops.push(op);
        self.lhs.push(lhs);
        self.rhs.push(rhs);
        slot
    }

    /// Dead-code elimination: constant folding can orphan the instructions
    /// it folded away (and their pool entries), so keep only slots reachable
    /// from the roots, preserving their relative (topological) order.
    fn compact(self, roots: Vec<u32>) -> Tape {
        let mut live = vec![false; self.ops.len()];
        for &root in &roots {
            live[root as usize] = true;
        }
        for i in (0..self.ops.len()).rev() {
            if !live[i] {
                continue;
            }
            match self.ops[i] {
                OpCode::Const | OpCode::Var => {}
                OpCode::Unary(_) | OpCode::Powi => live[self.lhs[i] as usize] = true,
                OpCode::Binary(_) => {
                    live[self.lhs[i] as usize] = true;
                    live[self.rhs[i] as usize] = true;
                }
            }
        }
        let mut slot_map = vec![u32::MAX; self.ops.len()];
        let mut const_map: HashMap<u32, u32> = HashMap::new();
        // Exact capacities: the tape lives as long as its owner, so it
        // carries no growth slack.
        let slots = live.iter().filter(|&&l| l).count();
        let consts = (0..self.ops.len())
            .filter(|&i| live[i] && self.ops[i] == OpCode::Const)
            .count();
        let mut tape = Tape {
            ops: Vec::with_capacity(slots),
            lhs: Vec::with_capacity(slots),
            rhs: Vec::with_capacity(slots),
            const_scalars: Vec::with_capacity(consts),
            const_intervals: Vec::with_capacity(consts),
            roots: Vec::new(),
            num_vars: self.num_vars,
        };
        for i in 0..self.ops.len() {
            if !live[i] {
                continue;
            }
            slot_map[i] = tape.ops.len() as u32;
            let (lhs, rhs) = match self.ops[i] {
                OpCode::Const => {
                    let old = self.lhs[i];
                    let new = *const_map.entry(old).or_insert_with(|| {
                        let idx = tape.const_scalars.len() as u32;
                        tape.const_scalars.push(self.const_scalars[old as usize]);
                        tape.const_intervals
                            .push(self.const_intervals[old as usize]);
                        idx
                    });
                    (new, 0)
                }
                OpCode::Var => (self.lhs[i], 0),
                OpCode::Unary(_) | OpCode::Powi => (slot_map[self.lhs[i] as usize], self.rhs[i]),
                OpCode::Binary(_) => (
                    slot_map[self.lhs[i] as usize],
                    slot_map[self.rhs[i] as usize],
                ),
            };
            tape.ops.push(self.ops[i]);
            tape.lhs.push(lhs);
            tape.rhs.push(rhs);
        }
        tape.roots = roots.iter().map(|&r| slot_map[r as usize]).collect();
        tape
    }
}

impl Tape {
    /// Compiles a single expression.
    pub fn compile(root: &Expr) -> Tape {
        Tape::compile_many(std::slice::from_ref(root))
    }

    /// Compiles several expressions into one tape with shared slots.
    ///
    /// Root `k` of the result corresponds to `roots[k]`; subexpressions
    /// common to several roots are computed once per evaluation.
    pub fn compile_many(roots: &[Expr]) -> Tape {
        nncps_fault::panic_point(nncps_fault::SITE_TAPE_COMPILE);
        let mut builder = Builder::default();
        let root_slots: Vec<u32> = roots.iter().map(|r| builder.lower(r)).collect();
        builder.compact(root_slots)
    }

    /// Number of instructions (equivalently, slots) in the tape.
    ///
    /// After CSE this is at most — and for expressions with sharing strictly
    /// less than — the total [`Expr::node_count`] of the compiled roots.
    pub fn num_slots(&self) -> usize {
        self.ops.len()
    }

    /// Number of compiled root expressions.
    pub fn num_roots(&self) -> usize {
        self.roots.len()
    }

    /// The slot holding the value of root `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k >= self.num_roots()`.
    pub fn root_slot(&self, k: usize) -> usize {
        self.roots[k] as usize
    }

    /// `1 + max variable index` referenced by the tape (the minimum input
    /// length accepted by the evaluators), or `0` for variable-free tapes.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Returns a view of instruction `slot`.
    ///
    /// Instructions are topologically ordered: operands always refer to
    /// strictly smaller slots, so iterating `0..num_slots()` is a valid
    /// forward schedule and iterating in reverse is a valid backward one.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= self.num_slots()`.
    pub fn instr(&self, slot: usize) -> TapeInstr {
        let lhs = self.lhs[slot] as usize;
        match self.ops[slot] {
            OpCode::Const => TapeInstr::Const(self.const_scalars[lhs], self.const_intervals[lhs]),
            OpCode::Var => TapeInstr::Var(lhs),
            OpCode::Unary(op) => TapeInstr::Unary(op, lhs),
            OpCode::Binary(op) => TapeInstr::Binary(op, lhs, self.rhs[slot] as usize),
            OpCode::Powi => TapeInstr::Powi(lhs, self.rhs[slot] as i32),
        }
    }

    fn check_scalar_inputs(&self, len: usize) {
        assert!(
            self.num_vars <= len,
            "expression references variable x{} but only {len} values were supplied",
            self.num_vars - 1
        );
    }

    fn check_box_inputs(&self, dim: usize) {
        assert!(
            self.num_vars <= dim,
            "expression references variable x{} but the box has {dim} dimensions",
            self.num_vars - 1
        );
    }

    /// Evaluates every slot at a point, reusing `slots` as the register file
    /// (it is resized to [`Tape::num_slots`] and overwritten in place; once
    /// warm no allocation occurs).
    ///
    /// Root values are read back via `slots[self.root_slot(k)]`.
    ///
    /// # Panics
    ///
    /// Panics if the tape references a variable index out of bounds for
    /// `values`.
    pub fn eval_scalar_into(&self, values: &[f64], slots: &mut Vec<f64>) {
        self.check_scalar_inputs(values.len());
        slots.resize(self.ops.len(), 0.0);
        let instrs = self.ops.iter().zip(&self.lhs).zip(&self.rhs);
        for (i, ((&op, &lhs), &rhs)) in instrs.enumerate() {
            let lhs = lhs as usize;
            slots[i] = match op {
                OpCode::Const => self.const_scalars[lhs],
                OpCode::Var => values[lhs],
                OpCode::Unary(op) => op.apply(slots[lhs]),
                OpCode::Binary(op) => op.apply(slots[lhs], slots[rhs as usize]),
                OpCode::Powi => slots[lhs].powi(rhs as i32),
            };
        }
    }

    /// Evaluates every slot over an interval box, reusing `slots` as the
    /// register file (cleared and refilled; no allocation once warm).
    ///
    /// # Panics
    ///
    /// Panics if the tape references a variable index out of bounds for the
    /// box.
    pub fn eval_interval_into(&self, region: &IntervalBox, slots: &mut Vec<Interval>) {
        slots.clear();
        self.eval_interval_extend_into(region, slots, self.ops.len());
    }

    /// Extends a partial forward evaluation: computes slots
    /// `slots.len()..count`, assuming the already-present prefix was
    /// produced by this tape on the *same* region.
    ///
    /// Because instructions are topologically ordered, the prefix
    /// `0..=self.root_slot(k)` contains everything root `k` depends on.  The
    /// δ-SAT contractor uses this to grow one shared forward sweep across the
    /// revises of a contraction pass instead of re-evaluating the common
    /// prefix per constraint; the computed values are bit-identical to a
    /// fresh evaluation.
    ///
    /// # Panics
    ///
    /// Panics if `count > self.num_slots()` or the evaluated range
    /// references a variable index out of bounds for the box.
    pub fn eval_interval_extend_into(
        &self,
        region: &IntervalBox,
        slots: &mut Vec<Interval>,
        count: usize,
    ) {
        assert!(count <= self.ops.len(), "prefix exceeds tape length");
        self.check_box_inputs(region.dim());
        slots.reserve(count.saturating_sub(slots.len()));
        for i in slots.len()..count {
            let lhs = self.lhs[i] as usize;
            let v = match self.ops[i] {
                OpCode::Const => self.const_intervals[lhs],
                OpCode::Var => region[lhs],
                OpCode::Unary(op) => op.apply_interval(slots[lhs]),
                OpCode::Binary(op) => op.apply_interval(slots[lhs], slots[self.rhs[i] as usize]),
                OpCode::Powi => slots[lhs].powi(self.rhs[i] as i32),
            };
            slots.push(v);
        }
    }

    /// Evaluates the first root at a point (convenience wrapper allocating a
    /// fresh slot buffer; hot paths should use [`Tape::eval_scalar_into`]).
    ///
    /// Bit-identical to [`Expr::eval`] on the compiled expression.
    ///
    /// # Panics
    ///
    /// Panics if the tape has no roots or references an out-of-bounds
    /// variable.
    pub fn eval(&self, values: &[f64]) -> f64 {
        let mut slots = Vec::new();
        self.eval_scalar_into(values, &mut slots);
        slots[self.root_slot(0)]
    }

    /// Evaluates the first root over a box (convenience wrapper; hot paths
    /// should use [`Tape::eval_interval_into`]).
    ///
    /// Bit-identical to [`Expr::eval_box`] on the compiled expression.
    ///
    /// # Panics
    ///
    /// Panics if the tape has no roots or references an out-of-bounds
    /// variable.
    pub fn eval_box(&self, region: &IntervalBox) -> Interval {
        let mut slots = Vec::new();
        self.eval_interval_into(region, &mut slots);
        slots[self.root_slot(0)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x() -> Expr {
        Expr::var(0)
    }

    fn y() -> Expr {
        Expr::var(1)
    }

    #[test]
    fn scalar_evaluation_is_bit_identical_to_tree() {
        let f = (x().sin() * y() + (-(x().powi(2))).exp()).tanh() / (y() + 3.0);
        let tape = Tape::compile(&f);
        for p in [[1.2, -0.5], [0.0, 0.0], [-3.3, 2.0]] {
            assert_eq!(tape.eval(&p).to_bits(), f.eval(&p).to_bits());
        }
    }

    #[test]
    fn interval_evaluation_is_bit_identical_to_tree() {
        let f = (x() * y()).tanh() + x().cos() - y().powi(3) + x().abs().sqrt();
        let tape = Tape::compile(&f);
        let region = IntervalBox::from_bounds(&[(-1.0, 1.0), (0.0, 2.0)]);
        let tree = f.eval_box(&region);
        let tape_val = tape.eval_box(&region);
        assert_eq!(tape_val.lo().to_bits(), tree.lo().to_bits());
        assert_eq!(tape_val.hi().to_bits(), tree.hi().to_bits());
    }

    #[test]
    fn cse_merges_arc_shared_and_structurally_equal_subtrees() {
        // `shared` is Arc-shared; `rebuilt` is structurally identical but a
        // distinct allocation. Both must land in one slot.
        let shared = (x() * 2.0).tanh();
        let rebuilt = (x() * 2.0).tanh();
        let f = shared.clone() + shared.clone() * rebuilt;
        let tape = Tape::compile(&f);
        // Slots: x, 2, x*2, tanh, tanh*tanh, tanh+product = 6 < node_count.
        assert!(tape.num_slots() < f.node_count());
        assert_eq!(tape.eval(&[0.7]).to_bits(), f.eval(&[0.7]).to_bits());
    }

    #[test]
    fn constant_folding_collapses_variable_free_subtrees() {
        let f = (Expr::constant(2.0) * Expr::constant(3.0)).sin() + x();
        let tape = Tape::compile(&f);
        // folded constant, x, sum.
        assert_eq!(tape.num_slots(), 3);
        assert_eq!(tape.eval(&[0.25]).to_bits(), f.eval(&[0.25]).to_bits());
        // The folded constant's interval enclosure matches the runtime one.
        let region = IntervalBox::from_bounds(&[(0.0, 1.0)]);
        let tree = f.eval_box(&region);
        let tape_val = tape.eval_box(&region);
        assert_eq!(tape_val.lo().to_bits(), tree.lo().to_bits());
        assert_eq!(tape_val.hi().to_bits(), tree.hi().to_bits());
    }

    #[test]
    fn folded_constants_with_distinct_enclosures_stay_distinct() {
        // 6.0 as a literal has a singleton enclosure; 2*3 folds to scalar 6.0
        // with an outward-rounded enclosure. They must not be conflated.
        let literal = Expr::constant(6.0) + x();
        let folded = Expr::constant(2.0) * Expr::constant(3.0) + x();
        let region = IntervalBox::from_bounds(&[(0.0, 0.0)]);
        let tape = Tape::compile_many(&[literal.clone(), folded.clone()]);
        let mut slots = Vec::new();
        tape.eval_interval_into(&region, &mut slots);
        let lit_val = slots[tape.root_slot(0)];
        let fold_val = slots[tape.root_slot(1)];
        assert_eq!(
            lit_val.lo().to_bits(),
            literal.eval_box(&region).lo().to_bits()
        );
        assert_eq!(
            fold_val.lo().to_bits(),
            folded.eval_box(&region).lo().to_bits()
        );
        assert_ne!(lit_val.lo().to_bits(), fold_val.lo().to_bits());
    }

    #[test]
    fn multi_root_compilation_shares_subexpressions() {
        let u = (x() * 0.5 + y()).tanh();
        let roots = [u.clone() + 1.0, u.clone() * 2.0, u.clone().powi(2)];
        let tape = Tape::compile_many(&roots);
        assert_eq!(tape.num_roots(), 3);
        let separate: usize = roots.iter().map(Expr::node_count).sum();
        assert!(tape.num_slots() < separate);
        let mut slots = Vec::new();
        tape.eval_scalar_into(&[0.4, -0.2], &mut slots);
        for (k, root) in roots.iter().enumerate() {
            assert_eq!(
                slots[tape.root_slot(k)].to_bits(),
                root.eval(&[0.4, -0.2]).to_bits()
            );
        }
    }

    #[test]
    fn instruction_views_cover_the_program() {
        let f = x().powi(3) + (y() * 2.0).sigmoid();
        let tape = Tape::compile(&f);
        let mut saw_powi = false;
        let mut saw_unary = false;
        for i in 0..tape.num_slots() {
            match tape.instr(i) {
                TapeInstr::Powi(a, n) => {
                    assert!(a < i);
                    assert_eq!(n, 3);
                    saw_powi = true;
                }
                TapeInstr::Unary(op, a) => {
                    assert!(a < i);
                    assert_eq!(op, UnaryOp::Sigmoid);
                    saw_unary = true;
                }
                TapeInstr::Binary(_, a, b) => {
                    assert!(a < i && b < i);
                }
                TapeInstr::Const(..) | TapeInstr::Var(_) => {}
            }
        }
        assert!(saw_powi && saw_unary);
        assert_eq!(tape.num_vars(), 2);
    }

    #[test]
    fn negative_powi_exponents_round_trip() {
        let f = (x() + 2.0).powi(-2);
        let tape = Tape::compile(&f);
        assert_eq!(tape.eval(&[1.0]).to_bits(), f.eval(&[1.0]).to_bits());
        let found = (0..tape.num_slots()).any(|i| matches!(tape.instr(i), TapeInstr::Powi(_, -2)));
        assert!(found, "negative exponent must survive encoding");
    }

    #[test]
    #[should_panic(expected = "references variable")]
    fn scalar_eval_with_missing_variable_panics() {
        let tape = Tape::compile(&Expr::var(3));
        let _ = tape.eval(&[1.0]);
    }

    #[test]
    #[should_panic(expected = "references variable")]
    fn interval_eval_with_missing_dimension_panics() {
        let tape = Tape::compile(&Expr::var(2));
        let _ = tape.eval_box(&IntervalBox::from_bounds(&[(0.0, 1.0)]));
    }
}
