//! The one hasher for the simulator's integer-keyed tables.
//!
//! Memory lines, page-table entries and predictor slots are all looked up
//! by a single integer (line number, virtual page number, pc) on every
//! simulated access. The standard library's randomly seeded SipHash
//! resists keys crafted to collide, and costs more than the rest of a
//! lookup. Here the keys are the addresses and pcs of a simulated program,
//! and a program that crafts colliding ones only slows its own simulation,
//! so [`IntMap`] hashes with one multiply instead: fixed, so table layout
//! is the same on every run, and cheap.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed by integers, hashed with [`IntHasher`].
pub(crate) type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// Odd multiplier of the FxHash mixing step (`rustc-hash`).
const MULTIPLIER: u64 = 0x517c_c1b7_2722_0a95;

/// Multiply-rotate hasher for integer keys.
///
/// Each word is folded in as `(h.rotl(5) ^ word) * MULTIPLIER`. The final
/// rotation moves the well-mixed high product bits down to where the table
/// takes its bucket index, so keys with many trailing zero bits (line
/// numbers of page-strided probe slots) still spread across buckets.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct IntHasher(u64);

impl Hasher for IntHasher {
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(MULTIPLIER);
    }

    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    fn hash(key: u64) -> u64 {
        BuildHasherDefault::<IntHasher>::default().hash_one(key)
    }

    #[test]
    fn hashing_is_fixed_across_instances() {
        assert_eq!(hash(0x1234), hash(0x1234));
        assert_ne!(hash(0x1234), hash(0x1235));
    }

    #[test]
    fn page_strided_keys_spread_over_low_bits() {
        // 256 line numbers one page apart: the Flush+Reload probe array.
        let mut buckets: Vec<u64> = (0..256u64).map(|i| hash(i * 64) & 511).collect();
        buckets.sort_unstable();
        buckets.dedup();
        assert!(buckets.len() > 128, "only {} of 512 buckets", buckets.len());
    }
}
