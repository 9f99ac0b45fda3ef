//! A multiply-rotate hasher for the profiler's integer-keyed tables.
//!
//! Every table the profiler touches per memory access is keyed by
//! addresses, loop ids, instruction ids or tuples of them, and the
//! [`ProfileData`](crate::ProfileData) sets and maps it hands over keep the
//! same hasher ([`IntMap`], [`IntSet`]). SipHash's DoS resistance buys
//! nothing there (the keys come from the program being profiled, not from
//! an adversary) and costs several times more than the table work itself.
//! Each word is added to the state and multiplied by an odd constant; the
//! final rotation brings the well-mixed high bits down, so strided
//! addresses (whose low bits repeat) still spread over the buckets.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// 2^64 / φ, odd.
const MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// Hasher state; see the module docs.
#[derive(Debug, Default, Clone, Copy)]
pub struct IntHasher(u64);

impl IntHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = self.0.wrapping_add(word).wrapping_mul(MUL);
    }
}

impl Hasher for IntHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// A `HashMap` hashed with a multiply-rotate integer hasher: a few
/// instructions per integer key, and no defence against keys chosen to
/// collide.
pub type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// A `HashSet` hashed like [`IntMap`].
pub type IntSet<T> = HashSet<T, BuildHasherDefault<IntHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: T) -> u64 {
        BuildHasherDefault::<IntHasher>::default().hash_one(v)
    }

    #[test]
    fn strided_keys_spread_over_low_bits() {
        // 1024 addresses with a stride of 64 must not share their low bits,
        // which pick the bucket.
        let buckets: HashSet<u64> = (0..1024u64).map(|i| hash_of(i * 64) & 1023).collect();
        assert!(buckets.len() > 512, "only {} of 1024 buckets used", buckets.len());
    }

    #[test]
    fn tuple_fields_are_not_interchangeable() {
        assert_ne!(hash_of((1u32, 2u64)), hash_of((2u32, 1u64)));
        assert_ne!(hash_of((0u32, 0u32, 5u64)), hash_of((0u32, 5u32, 0u64)));
    }

    #[test]
    fn byte_writes_cover_every_byte() {
        let hash_bytes = |bytes: &[u8]| {
            let mut h = IntHasher::default();
            h.write(bytes);
            h.finish()
        };
        assert_ne!(hash_bytes(&[1; 9]), hash_bytes(&[1; 8]));
        assert_ne!(hash_bytes(&[1, 2]), hash_bytes(&[2, 1]));
    }
}
