//! Structural fingerprints: 128-bit identity keys for expression DAGs.
//!
//! The scenario sweep engine reuses compiled artifacts (evaluation tapes,
//! compiled δ-SAT formulas) across family members that
//! share dynamics.  The cache key must capture *everything* the compiled
//! artifact depends on — operator structure, variable indices, and the exact
//! bits of every constant — so that a key hit is guaranteed to return an
//! artifact whose evaluation is bit-identical to recompiling.
//!
//! [`StructuralHasher`] is an incremental 128-bit FNV-1a variant (two
//! independently seeded 64-bit lanes) with a DAG-aware expression writer:
//! subtrees shared via `Arc` are serialized once and referenced by a local
//! id afterwards, so fingerprinting a neural-network closed loop costs one
//! walk of the *DAG*, not of the exponentially larger unshared tree.
//!
//! Two structurally identical expressions with different internal sharing
//! serialize differently (the reference structure participates in the key).
//! That is deliberate and safe: differing keys can only cause a cache miss
//! (a recompile), never a wrong hit, and expressions produced by the same
//! construction path — the case the sweep cache exists for — share bit-equal
//! keys.
//!
//! # Examples
//!
//! ```
//! use nncps_expr::{Expr, StructuralHasher};
//!
//! let fingerprint = |e: &Expr| {
//!     let mut h = StructuralHasher::new();
//!     h.write_expr(e);
//!     h.finish()
//! };
//! let a = (Expr::var(0) * 2.0).tanh();
//! let b = (Expr::var(0) * 2.0).tanh();
//! let c = (Expr::var(0) * 2.5).tanh();
//! assert_eq!(fingerprint(&a), fingerprint(&b));
//! assert_ne!(fingerprint(&a), fingerprint(&c));
//! ```

use crate::expr::Node;
use crate::keyhash::KeyMap;
use crate::Expr;

/// A 128-bit structural identity key (see the [module docs](self)).
///
/// With 128 bits, accidental collisions between distinct keys are
/// negligible for any realistic cache population (billions of entries), so
/// cache maps can store the fingerprint instead of the full serialized key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub u64, pub u64);

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}{:016x}", self.0, self.1)
    }
}

const OFFSET_A: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME_A: u64 = 0x0000_0100_0000_01b3;
// Second lane: same prime, different offset (FNV offset basis xored with a
// fixed pattern) and a per-byte lane-mixing tweak, so the two lanes are not
// simply equal.
const OFFSET_B: u64 = 0xcbf2_9ce4_8422_2325 ^ 0x9e37_79b9_7f4a_7c15;

/// Incremental structural hasher producing a [`Fingerprint`].
///
/// `Clone` is cheap enough to use for key derivation: callers absorb a
/// shared prefix once, then clone and extend per derived key.
#[derive(Debug, Clone)]
pub struct StructuralHasher {
    a: u64,
    b: u64,
    /// First-visit ids of `Arc`-shared subtrees, keyed by node address.
    /// The map's iteration order never reaches the digest (ids are
    /// assigned in visit order).
    seen: KeyMap<*const Node, u32>,
}

impl Default for StructuralHasher {
    fn default() -> Self {
        StructuralHasher::new()
    }
}

impl StructuralHasher {
    /// Creates an empty hasher.
    pub fn new() -> Self {
        StructuralHasher {
            a: OFFSET_A,
            b: OFFSET_B,
            seen: KeyMap::default(),
        }
    }

    /// Absorbs raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.a = (self.a ^ byte as u64).wrapping_mul(PRIME_A);
            // The second lane sees a rotated byte so the lanes decorrelate.
            self.b = (self.b ^ (byte as u64).rotate_left(17)).wrapping_mul(PRIME_A);
        }
    }

    /// Absorbs one `u8` tag (used to separate record kinds and fields).
    pub fn write_u8(&mut self, value: u8) {
        self.write_bytes(&[value]);
    }

    /// Absorbs a `u64`.
    pub fn write_u64(&mut self, value: u64) {
        self.write_bytes(&value.to_le_bytes());
    }

    /// Absorbs a `usize` (as 64 bits, so keys are portable across targets).
    pub fn write_usize(&mut self, value: usize) {
        self.write_u64(value as u64);
    }

    /// Absorbs the exact bits of an `f64` (distinguishing `-0.0` from `0.0`
    /// and every NaN payload — compiled artifacts are bit-sensitive).
    pub fn write_f64(&mut self, value: f64) {
        self.write_u64(value.to_bits());
    }

    /// Absorbs every bit of an expression DAG: operators, variable indices,
    /// constants, and the sharing structure (see the [module docs](self)).
    pub fn write_expr(&mut self, expr: &Expr) {
        // Explicit stack: NN closed-loop expressions can nest deeply enough
        // that recursion depth would depend on controller width.
        enum Step<'a> {
            Visit(&'a Expr),
        }
        let mut stack = vec![Step::Visit(expr)];
        while let Some(Step::Visit(e)) = stack.pop() {
            let address = std::sync::Arc::as_ptr(e.arc_node());
            // One lookup: a first visit inserts the next id, which no
            // earlier node holds.
            let id = self.seen.len() as u32;
            let seen_id = *self.seen.entry(address).or_insert(id);
            if seen_id != id {
                // Back-reference: shared subtree already serialized.
                self.write_u8(0x01);
                self.write_u64(seen_id as u64);
                continue;
            }
            match e.node() {
                Node::Const(c) => {
                    self.write_u8(0x02);
                    self.write_f64(*c);
                }
                Node::Var(i) => {
                    self.write_u8(0x03);
                    self.write_usize(*i);
                }
                Node::Unary(op, a) => {
                    self.write_u8(0x04);
                    self.write_u8(*op as u8);
                    stack.push(Step::Visit(a));
                }
                Node::Binary(op, a, b) => {
                    self.write_u8(0x05);
                    self.write_u8(*op as u8);
                    // Right first, so the left operand serializes first
                    // (pre-order), giving a canonical traversal order.
                    stack.push(Step::Visit(b));
                    stack.push(Step::Visit(a));
                }
                Node::Powi(a, n) => {
                    self.write_u8(0x06);
                    self.write_bytes(&n.to_le_bytes());
                    stack.push(Step::Visit(a));
                }
            }
        }
    }

    /// Finishes the hash.  The hasher can keep absorbing afterwards (the
    /// fingerprint is a running digest).
    pub fn finish(&self) -> Fingerprint {
        Fingerprint(self.a, self.b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(build: impl Fn() -> Expr) -> Fingerprint {
        let mut h = StructuralHasher::new();
        h.write_expr(&build());
        h.finish()
    }

    #[test]
    fn equal_structure_equal_fingerprint() {
        let a = fp(|| (Expr::var(0) + 1.0).sin() * Expr::var(1));
        let b = fp(|| (Expr::var(0) + 1.0).sin() * Expr::var(1));
        assert_eq!(a, b);
    }

    #[test]
    fn structure_differences_change_the_fingerprint() {
        let base = fp(|| Expr::var(0) + 1.0);
        assert_ne!(base, fp(|| Expr::var(0) + 2.0), "constant bits");
        assert_ne!(base, fp(|| Expr::var(1) + 1.0), "variable index");
        assert_ne!(base, fp(|| Expr::var(0) - 1.0), "operator");
        assert_ne!(base, fp(|| (Expr::var(0) + 1.0).sin()), "extra node");
        assert_ne!(
            fp(|| Expr::var(0).powi(2)),
            fp(|| Expr::var(0).powi(3)),
            "powi exponent"
        );
        assert_ne!(
            fp(|| Expr::constant(0.0)),
            fp(|| Expr::constant(-0.0)),
            "sign of zero is a distinct bit pattern"
        );
    }

    #[test]
    fn shared_subtrees_use_back_references() {
        // A deep chain of shared nodes: naive tree serialization would be
        // exponential; the DAG writer visits each node once.
        let mut e = Expr::var(0);
        for _ in 0..64 {
            e = e.clone() + e;
        }
        let mut h = StructuralHasher::new();
        h.write_expr(&e);
        // 65 unique nodes (the var plus 64 adds).
        assert_eq!(h.seen.len(), 65);
        let shared = h.finish();

        // The same value built without sharing (three levels are enough to
        // check the keys differ: sharing structure is part of identity).
        let x = Expr::var(0);
        let unshared = (x.clone() + x.clone()) + (x.clone() + x);
        let mut e2 = Expr::var(0);
        for _ in 0..2 {
            e2 = e2.clone() + e2;
        }
        let mut h2 = StructuralHasher::new();
        h2.write_expr(&e2);
        let mut h3 = StructuralHasher::new();
        h3.write_expr(&unshared);
        assert_ne!(shared, h3.finish());
        assert_ne!(h2.finish(), h3.finish());
    }

    #[test]
    fn scalar_writers_are_order_sensitive() {
        let mut h1 = StructuralHasher::new();
        h1.write_u64(1);
        h1.write_u64(2);
        let mut h2 = StructuralHasher::new();
        h2.write_u64(2);
        h2.write_u64(1);
        assert_ne!(h1.finish(), h2.finish());
        let mut h3 = StructuralHasher::new();
        h3.write_f64(1.5);
        h3.write_u8(7);
        h3.write_usize(9);
        assert_eq!(format!("{}", h3.finish()).len(), 32);
    }
}
