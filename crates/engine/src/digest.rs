//! Content digests for the artifact cache.
//!
//! FNV-1a (64-bit) — a tiny, stable, dependency-free hash. Cache keys only
//! need to distinguish artifact contents within one cache directory;
//! cryptographic strength is not required, but **stability across runs and
//! platforms is**, which rules out `std::collections`' SipHash with its
//! per-process keys being an implementation detail. FNV-1a's definition is
//! fixed forever, so a persisted cache stays valid across engine versions
//! that do not change the key derivation.

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

/// Incremental FNV-1a hasher.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64(FNV_OFFSET)
    }
}

impl Fnv64 {
    /// Fresh hasher.
    pub fn new() -> Self {
        Self::default()
    }

    /// Absorb raw bytes.
    pub fn write(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Absorb a `u64` (little-endian), e.g. an upstream digest.
    pub fn write_u64(&mut self, v: u64) -> &mut Self {
        self.write(&v.to_le_bytes())
    }

    /// Absorb an `f64` by bit pattern (exact, including sign of zero).
    pub fn write_f64(&mut self, v: f64) -> &mut Self {
        self.write(&v.to_bits().to_le_bytes())
    }

    /// The digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Formatting into the hasher absorbs the formatted bytes without building
/// a `String`: `write!(h, ...)` digests exactly what `format!(...)` would.
impl std::fmt::Write for Fnv64 {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.write(s.as_bytes());
        Ok(())
    }
}

/// One-shot digest of a byte string.
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;

    #[test]
    fn known_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(hash_bytes(b""), 0xcbf29ce484222325);
        assert_eq!(hash_bytes(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(hash_bytes(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn incremental_matches_oneshot() {
        let mut h = Fnv64::new();
        h.write(b"foo").write(b"bar");
        assert_eq!(h.finish(), hash_bytes(b"foobar"));
    }

    #[test]
    fn u64_and_f64_absorption_is_order_sensitive() {
        let mut a = Fnv64::new();
        a.write_u64(1).write_u64(2);
        let mut b = Fnv64::new();
        b.write_u64(2).write_u64(1);
        assert_ne!(a.finish(), b.finish());

        let mut c = Fnv64::new();
        c.write_f64(0.1);
        let mut d = Fnv64::new();
        d.write_f64(0.2);
        assert_ne!(c.finish(), d.finish());
    }
}
