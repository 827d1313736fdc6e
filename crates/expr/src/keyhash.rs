//! The hasher of the crate's internal lookup tables.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Hashes keys the program makes itself — opcodes, slot indices and node
/// addresses — one word at a time with a folded 64×64→128-bit multiply.
///
/// The tables it serves only answer lookups — their iteration order never
/// reaches a tape, a program or a fingerprint — so the hasher cannot change
/// a result.  It has no seed, so a table whose keys carry input values
/// (constant bits) keeps the standard library's seeded hasher instead.
/// SipHash on the structural CSE and pointer tables was a large share of
/// lowering an expression to a tape.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct KeyHasher(u64);

impl KeyHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        let product = ((self.0 ^ word) as u128).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = (product as u64) ^ ((product >> 64) as u64);
    }
}

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.mix(byte as u64);
        }
    }

    fn write_u8(&mut self, value: u8) {
        self.mix(value as u64);
    }

    fn write_u32(&mut self, value: u32) {
        self.mix(value as u64);
    }

    fn write_u64(&mut self, value: u64) {
        self.mix(value);
    }

    fn write_usize(&mut self, value: usize) {
        self.mix(value as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A lookup table hashed by [`KeyHasher`].
pub(crate) type KeyMap<K, V> = HashMap<K, V, BuildHasherDefault<KeyHasher>>;
