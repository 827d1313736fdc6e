//! Fused scalar programs: the point-evaluation form of compiled expressions.
//!
//! Simulation evaluates the closed-loop field `f` at thousands of points per
//! trace.  A [`Tape`] dispatches one instruction per SSA slot, and for a
//! neural-network controller most of those slots are bookkeeping: one
//! `Const` load per weight and one multiply plus one add per synapse.  A
//! [`ScalarProgram`] is lowered from the tape (so it reuses the tape's CSE
//! and constant folding) and removes that bookkeeping without changing a
//! single result bit:
//!
//! * **Constants are registers.**  The register file starts with a constant
//!   prefix filled by one `copy_from_slice` per evaluation, followed by the
//!   variables (a second copy); no instruction loads a constant.
//! * **Linear chains are one instruction.**  Every chain
//!   `Add(Add(head, Mul(c₁, s₁)), Mul(c₂, s₂))…` with constant coefficients
//!   `cₖ` — the shape a dense layer's pre-activation `b + Σ wⱼ·xⱼ` exports
//!   to — runs as one `Lin` instruction that accumulates
//!   `acc = acc + cₖ * sₖ` left to right, in the tree's operand order.
//!
//! A product or partial sum is fused only when the chain is its single use
//! and it is not a root, so no value another instruction (or the caller)
//! reads is ever skipped.  A chain's head is either a register or its own
//! first product.  The accumulation is plain `+` and `*` — no fused
//! multiply-add, no reassociation, no vectorized reduction — so every root
//! is bit-identical to [`Expr::eval`] on the compiled expression.
//!
//! # Examples
//!
//! ```
//! use nncps_expr::{Expr, ScalarProgram};
//!
//! let (x, y) = (Expr::var(0), Expr::var(1));
//! // A tanh neuron: tanh(0.1 + 0.5·x − 2·y) exports as an add/mul chain.
//! let pre = Expr::constant(0.1) + Expr::constant(0.5) * x + Expr::constant(-2.0) * y;
//! let neuron = pre.tanh();
//! let program = ScalarProgram::compile(&neuron);
//! // One fused linear instruction and one tanh.
//! assert_eq!(program.num_ops(), 2);
//! assert_eq!(program.eval(&[0.3, -0.2]).to_bits(), neuron.eval(&[0.3, -0.2]).to_bits());
//! ```

use std::collections::HashMap;

use crate::tape::Step;
use crate::{BinaryOp, Expr, Tape, TapeInstr, UnaryOp};

/// One program instruction.  Operands are register indices; instruction `i`
/// writes the `i`-th register after the constants and variables.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Op {
    /// `op(a)`.
    Unary(UnaryOp, u32),
    /// `op(a, b)`.
    Binary(BinaryOp, u32, u32),
    /// `a.powi(n)`.
    Powi(u32, i32),
    /// `acc = head; acc = acc + cₖ * sₖ` for the terms `start..end`.
    Lin { head: u32, start: u32, end: u32 },
    /// `acc = c₀ * s₀; acc = acc + cₖ * sₖ` for the terms `start..end`
    /// (term `start` is the chain's leading product).
    LinFromProduct { start: u32, end: u32 },
}

/// A compiled point evaluator for one or more expressions, bit-identical to
/// [`Expr::eval`]: constants live in registers and every linear chain of
/// constant-weighted products runs as one instruction.
///
/// The register file is caller-owned: [`ScalarProgram::eval_into`] resizes
/// it once and afterwards evaluates without heap allocation.
///
/// # Examples
///
/// ```
/// use nncps_expr::{Expr, ScalarProgram};
///
/// let x = Expr::var(0);
/// let u = (x.clone() * 0.5).tanh();
/// let roots = [u.clone() + 1.0, u.clone() * 2.0];
/// let program = ScalarProgram::compile_many(&roots);
///
/// let mut registers = Vec::new();
/// program.eval_into(&[0.4], &mut registers);
/// for (k, root) in roots.iter().enumerate() {
///     let value = registers[program.root_register(k)];
///     assert_eq!(value.to_bits(), root.eval(&[0.4]).to_bits());
/// }
/// ```
#[derive(Debug, Clone)]
pub struct ScalarProgram {
    /// The constant register prefix.
    consts: Vec<f64>,
    /// `1 + max variable index`; variables occupy the registers right after
    /// the constants.
    num_vars: usize,
    ops: Vec<Op>,
    /// Coefficients of the `Lin` terms (struct-of-arrays with `sources`).
    coefficients: Vec<f64>,
    /// Source registers of the `Lin` terms.
    sources: Vec<u32>,
    /// Register holding root `k`.
    roots: Vec<u32>,
}

impl ScalarProgram {
    /// Compiles a single expression.
    pub fn compile(root: &Expr) -> ScalarProgram {
        ScalarProgram::compile_many(std::slice::from_ref(root))
    }

    /// Compiles several expressions into one program; root `k` corresponds
    /// to `roots[k]`, and subexpressions common to several roots are
    /// evaluated once.
    ///
    /// The expressions are first lowered to a [`Tape`] (CSE and constant
    /// folding), which is dropped once the program is built.
    pub fn compile_many(roots: &[Expr]) -> ScalarProgram {
        ScalarProgram::lower(&Tape::compile_many(roots))
    }

    /// Lowers a tape: follows its forward schedule (so the chains are the
    /// ones the tape's interval sweep fuses), assigns registers, and emits
    /// one instruction per step that is not a variable load.
    pub(crate) fn lower(tape: &Tape) -> ScalarProgram {
        let n = tape.num_slots();
        // Registers: constants that an instruction, chain head or root reads,
        // then the variables, then one register per emitted instruction.
        let mut read = vec![false; n];
        for k in 0..tape.num_steps() {
            match tape.step(k) {
                Step::Slot(i) => match tape.instr(i) {
                    TapeInstr::Const(..) | TapeInstr::Var(_) => {}
                    TapeInstr::Unary(_, a) | TapeInstr::Powi(a, _) => read[a] = true,
                    TapeInstr::Binary(_, a, b) => {
                        read[a] = true;
                        read[b] = true;
                    }
                },
                Step::Chain(chain) => {
                    let (head, products) = tape.chain_terms(chain);
                    if let Some(head) = head {
                        read[head] = true;
                    }
                    for p in products {
                        if let TapeInstr::Binary(_, _, s) = tape.instr(p) {
                            read[s] = true;
                        }
                    }
                }
            }
        }
        for k in 0..tape.num_roots() {
            read[tape.root_slot(k)] = true;
        }
        let mut register = vec![u32::MAX; n];
        let mut consts = Vec::new();
        let mut const_register: HashMap<u64, u32> = HashMap::new();
        for (i, reg) in register.iter_mut().enumerate() {
            if let TapeInstr::Const(value, _) = tape.instr(i) {
                if read[i] {
                    *reg = *const_register.entry(value.to_bits()).or_insert_with(|| {
                        consts.push(value);
                        (consts.len() - 1) as u32
                    });
                }
            }
        }
        let num_vars = tape.num_vars();
        let first_var = consts.len();
        let mut program = ScalarProgram {
            consts,
            num_vars,
            ops: Vec::with_capacity(tape.num_steps()),
            coefficients: Vec::with_capacity(tape.num_chain_terms()),
            sources: Vec::with_capacity(tape.num_chain_terms()),
            roots: Vec::new(),
        };
        let mut next = (first_var + num_vars) as u32;
        for k in 0..tape.num_steps() {
            let (slot, op) = match tape.step(k) {
                Step::Slot(i) => {
                    let op = match tape.instr(i) {
                        TapeInstr::Var(v) => {
                            register[i] = (first_var + v) as u32;
                            continue;
                        }
                        TapeInstr::Unary(op, a) => Op::Unary(op, register[a]),
                        TapeInstr::Binary(op, a, b) => Op::Binary(op, register[a], register[b]),
                        TapeInstr::Powi(a, e) => Op::Powi(register[a], e),
                        TapeInstr::Const(..) => unreachable!("constant slots have no step"),
                    };
                    (i, op)
                }
                Step::Chain(chain) => {
                    let (head, products) = tape.chain_terms(chain);
                    let start = program.sources.len() as u32;
                    for p in products {
                        let TapeInstr::Binary(_, c, s) = tape.instr(p) else {
                            unreachable!("chain terms are products");
                        };
                        let TapeInstr::Const(c, _) = tape.instr(c) else {
                            unreachable!("chain coefficients are constants");
                        };
                        program.coefficients.push(c);
                        program.sources.push(register[s]);
                    }
                    let end = program.sources.len() as u32;
                    let op = match head {
                        Some(head) => Op::Lin {
                            head: register[head],
                            start,
                            end,
                        },
                        None => Op::LinFromProduct { start, end },
                    };
                    (*chain.last().expect("chains are non-empty") as usize, op)
                }
            };
            register[slot] = next;
            next += 1;
            program.ops.push(op);
        }
        program.ops.shrink_to_fit();
        program.roots = (0..tape.num_roots())
            .map(|k| register[tape.root_slot(k)])
            .collect();
        program
    }

    /// Number of dispatched instructions per evaluation (constants and
    /// variables are registers, not instructions).
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }

    /// Size of the register file: constants, variables, then one register
    /// per instruction.
    pub fn num_registers(&self) -> usize {
        self.first_output() + self.ops.len()
    }

    /// Number of compiled root expressions.
    pub fn num_roots(&self) -> usize {
        self.roots.len()
    }

    /// The register holding root `k` after [`ScalarProgram::eval_into`].
    ///
    /// # Panics
    ///
    /// Panics if `k >= self.num_roots()`.
    pub fn root_register(&self, k: usize) -> usize {
        self.roots[k] as usize
    }

    /// Register written by instruction 0.
    fn first_output(&self) -> usize {
        self.consts.len() + self.num_vars
    }

    /// Evaluates the program at a point, reusing `registers` as the register
    /// file (resized to [`ScalarProgram::num_registers`]; once warm no
    /// allocation occurs).  Root `k` is read back as
    /// `registers[self.root_register(k)]`.
    ///
    /// # Panics
    ///
    /// Panics if the program references a variable index out of bounds for
    /// `values`.
    pub fn eval_into(&self, values: &[f64], registers: &mut Vec<f64>) {
        assert!(
            self.num_vars <= values.len(),
            "expression references variable x{} but only {} values were supplied",
            self.num_vars.saturating_sub(1),
            values.len()
        );
        let first_var = self.consts.len();
        let first_output = self.first_output();
        registers.resize(self.num_registers(), 0.0);
        registers[..first_var].copy_from_slice(&self.consts);
        registers[first_var..first_output].copy_from_slice(&values[..self.num_vars]);
        for (i, op) in self.ops.iter().enumerate() {
            let value = match *op {
                Op::Unary(op, a) => op.apply(registers[a as usize]),
                Op::Binary(op, a, b) => op.apply(registers[a as usize], registers[b as usize]),
                Op::Powi(a, n) => registers[a as usize].powi(n),
                Op::Lin { head, start, end } => {
                    self.accumulate(registers[head as usize], start, end, registers)
                }
                Op::LinFromProduct { start, end } => {
                    let start = start as usize;
                    let first = BinaryOp::Mul.apply(
                        self.coefficients[start],
                        registers[self.sources[start] as usize],
                    );
                    self.accumulate(first, start as u32 + 1, end, registers)
                }
            };
            registers[first_output + i] = value;
        }
    }

    /// `acc = acc + cₖ * sₖ` over the terms `start..end`, left to right.
    ///
    /// Each step goes through the operator functions [`Expr::eval`] applies
    /// rather than inline `+`/`*`: when both operands of an add are NaN,
    /// which one's sign and payload the result carries is up to code
    /// generation, and writing the arithmetic differently can change that
    /// choice (it did in unoptimized builds).
    #[inline]
    fn accumulate(&self, mut acc: f64, start: u32, end: u32, registers: &[f64]) -> f64 {
        let terms = start as usize..end as usize;
        for (&c, &s) in self.coefficients[terms.clone()]
            .iter()
            .zip(&self.sources[terms])
        {
            acc = BinaryOp::Add.apply(acc, BinaryOp::Mul.apply(c, registers[s as usize]));
        }
        acc
    }

    /// Evaluates the first root at a point (a convenience wrapper allocating
    /// a fresh register file; loops should use [`ScalarProgram::eval_into`]).
    ///
    /// # Panics
    ///
    /// Panics if the program has no roots or references an out-of-bounds
    /// variable.
    pub fn eval(&self, values: &[f64]) -> f64 {
        let mut registers = Vec::new();
        self.eval_into(values, &mut registers);
        registers[self.root_register(0)]
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

    fn c(value: f64) -> Expr {
        Expr::constant(value)
    }

    /// Asserts every root is bit-identical to the tree at a few points.
    fn assert_matches_tree(program: &ScalarProgram, roots: &[Expr]) {
        let mut registers = Vec::new();
        for p in [[0.3, -0.7], [0.0, -0.0], [-2.5, 1.25], [1e-310, 4.0]] {
            program.eval_into(&p, &mut registers);
            for (k, root) in roots.iter().enumerate() {
                assert_eq!(
                    registers[program.root_register(k)].to_bits(),
                    root.eval(&p).to_bits(),
                    "root {k} at {p:?}"
                );
            }
        }
    }

    /// The number of `Lin`/`LinFromProduct` instructions and their total
    /// term count.
    fn chains(program: &ScalarProgram) -> (usize, usize) {
        program.ops.iter().fold((0, 0), |(n, terms), op| match *op {
            Op::Lin { start, end, .. } | Op::LinFromProduct { start, end } => {
                (n + 1, terms + (end - start) as usize)
            }
            _ => (n, terms),
        })
    }

    #[test]
    fn scalar_evaluation_is_bit_identical_to_tree() {
        let f = (x().sin() * y() + (-(x().powi(2))).exp()).tanh() / (y() + 3.0);
        let program = ScalarProgram::compile(&f);
        for p in [[1.2, -0.5], [0.0, 0.0], [-3.3, 2.0]] {
            assert_eq!(program.eval(&p).to_bits(), f.eval(&p).to_bits());
        }
    }

    #[test]
    fn a_dense_pre_activation_runs_as_one_instruction() {
        // b + w0·x + w1·y + w2·tanh(x): the layer export's shape.
        let pre = c(0.1) + c(0.5) * x() + c(-2.0) * y() + c(3.0) * x().tanh();
        let program = ScalarProgram::compile(&pre);
        // tanh(x) and the fused chain; no constant loads, no mul/add.
        assert_eq!(program.num_ops(), 2);
        assert_eq!(chains(&program), (1, 3));
        assert!(matches!(program.ops[1], Op::Lin { .. }));
        // Only the bias is read as a register; the weights live in the chain.
        assert_eq!(program.consts, vec![0.1]);
        assert_eq!(program.num_registers(), 1 + 2 + 2);
        assert_matches_tree(&program, &[pre]);
    }

    #[test]
    fn a_chain_without_a_bias_starts_from_its_first_product() {
        let f = c(0.5) * x() + c(-2.0) * y();
        let program = ScalarProgram::compile(&f);
        assert_eq!(program.num_ops(), 1);
        assert!(matches!(
            program.ops[0],
            Op::LinFromProduct { start: 0, end: 2 }
        ));
        assert_matches_tree(&program, &[f]);
    }

    #[test]
    fn a_partial_sum_shared_by_two_parents_ends_the_chain() {
        // `partial` feeds two chains, so it must stay a register of its own;
        // each parent chain starts from it.
        let partial = c(0.1) + c(0.5) * x();
        let a = partial.clone() + c(2.0) * y();
        let b = partial.clone() + c(-1.0) * y();
        let roots = [a.tanh(), b.tanh()];
        let program = ScalarProgram::compile_many(&roots);
        // partial, a, b as three one-term chains, plus two tanh.
        assert_eq!(chains(&program), (3, 3));
        assert_eq!(program.num_ops(), 5);
        assert_matches_tree(&program, &roots);
    }

    #[test]
    fn a_root_inside_a_chain_is_not_absorbed() {
        let inner = c(0.1) + c(0.5) * x();
        let outer = inner.clone() + c(2.0) * y();
        let roots = [outer, inner];
        let program = ScalarProgram::compile_many(&roots);
        assert_eq!(chains(&program), (2, 2));
        assert_matches_tree(&program, &roots);
    }

    #[test]
    fn a_shared_product_is_not_absorbed() {
        let product = c(0.5) * x();
        let roots = [c(0.1) + product.clone(), product.clone().sin()];
        let program = ScalarProgram::compile_many(&roots);
        // The product is read by the sum and the sine, so it stays a
        // multiply; the sum has nothing to fuse.
        assert_eq!(chains(&program), (0, 0));
        assert_eq!(program.num_ops(), 3);
        assert_matches_tree(&program, &roots);
    }

    #[test]
    fn a_constant_on_the_right_is_not_a_term() {
        // `x * 0.5` evaluates `x * c`, not `c * x`, so it stays a multiply
        // and ends the chain; the product on the left of it still fuses.
        let f = c(0.1) + x() * c(0.5) + c(2.0) * y();
        let program = ScalarProgram::compile(&f);
        assert_eq!(chains(&program), (1, 1));
        assert_eq!(program.num_ops(), 3);
        assert!(program
            .ops
            .iter()
            .any(|op| matches!(op, Op::Binary(BinaryOp::Mul, ..))));
        assert_matches_tree(&program, &[f]);
    }

    #[test]
    fn subtraction_is_not_fused() {
        let f = c(0.1) - c(0.5) * x() + c(2.0) * y();
        let program = ScalarProgram::compile(&f);
        // The subtraction and its product stay; the final add fuses with
        // the difference as its head.
        assert_eq!(chains(&program), (1, 1));
        assert!(program
            .ops
            .iter()
            .any(|op| matches!(op, Op::Binary(BinaryOp::Sub, ..))));
        assert_matches_tree(&program, &[f]);
    }

    #[test]
    fn constant_and_variable_roots_read_their_registers() {
        let roots = [c(1.5), y(), (c(2.0) * c(3.0)).sin()];
        let program = ScalarProgram::compile_many(&roots);
        assert_eq!(program.num_ops(), 0);
        assert_matches_tree(&program, &roots);
    }

    #[test]
    #[should_panic(expected = "references variable")]
    fn scalar_eval_with_missing_variable_panics() {
        let program = ScalarProgram::compile(&Expr::var(3));
        let _ = program.eval(&[1.0]);
    }
}
