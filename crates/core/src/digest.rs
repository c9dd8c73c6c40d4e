//! # Seeded FNV-1a — the workspace's one content digest
//!
//! Every divergence gate in the workspace reduces to the same
//! question: *do two runs hold bit-identical state?* Answering it by
//! comparing whole reports (or whole sessions) is O(state); hashing
//! each side down to a `u64` first makes the comparison O(1) and the
//! greppable trail one hex token wide. This module is that hash —
//! 64-bit FNV-1a, optionally seeded so independent digest domains
//! (report hashes, snapshot state digests) cannot collide by sharing
//! the plain offset basis.
//!
//! FNV-1a is deliberately *not* cryptographic: the inputs are our own
//! deterministic state, the adversary is a scheduling bug, and the
//! mixing step is one XOR and one 64-bit multiply — cheap enough to
//! run over megabytes of flat snapshot arrays without registering in
//! a phase profile.

/// The standard 64-bit FNV offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The standard 64-bit FNV prime.
pub const FNV_PRIME: u64 = 0x100_0000_01b3;

/// An incremental seeded FNV-1a hasher over bytes and words.
///
/// Words are folded in little-endian byte order so the digest of a
/// flat `u64` array equals the digest of its byte image on every
/// platform we build for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a {
    state: u64,
}

impl Fnv1a {
    /// A hasher starting from the standard offset basis — this is the
    /// domain [`debug_hash`] report hashes live in.
    #[must_use]
    pub fn new() -> Self {
        Self { state: FNV_OFFSET }
    }

    /// A hasher whose starting state folds `seed` into the offset
    /// basis, giving the caller a distinct digest domain: equal byte
    /// streams under different seeds yield unrelated digests.
    #[must_use]
    pub fn with_seed(seed: u64) -> Self {
        let mut h = Self::new();
        h.write_u64(seed);
        h
    }

    /// Folds one byte into the state (XOR then multiply — FNV-1a
    /// order, which diffuses better than classic FNV-1).
    #[inline]
    pub fn write_u8(&mut self, b: u8) {
        self.state ^= u64::from(b);
        self.state = self.state.wrapping_mul(FNV_PRIME);
    }

    /// Folds a byte slice into the state.
    #[inline]
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u8(b);
        }
    }

    /// Folds a `u64` in little-endian byte order.
    #[inline]
    pub fn write_u64(&mut self, w: u64) {
        self.write_bytes(&w.to_le_bytes());
    }

    /// Folds a `usize` widened to 64 bits (so 32- and 64-bit builds
    /// agree on the digest of the same logical value).
    #[inline]
    pub fn write_usize(&mut self, w: usize) {
        self.write_u64(w as u64);
    }

    /// Folds an `f64` by bit pattern — NaN payloads and signed zeros
    /// are distinguished, exactly what bit-identity gates want.
    #[inline]
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// The current digest.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

/// Unseeded FNV-1a over the `Debug` rendering of any value — the
/// one report-hash helper, so `repro whatif`'s `equal=` gate, the
/// snapshot digests and `d3t-bench`'s output hashes share one
/// implementation. Every float bit pattern, counter and pair loss in
/// the rendering lands in the digest, so two runs agreeing on the
/// hash agree on the whole rendering.
#[must_use]
pub fn debug_hash(value: &impl std::fmt::Debug) -> u64 {
    let mut h = Fnv1a::new();
    h.write_bytes(format!("{value:?}").as_bytes());
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_reference_vectors() {
        // Classic FNV-1a test vectors (empty string and "a").
        assert_eq!(Fnv1a::new().finish(), FNV_OFFSET);
        let mut h = Fnv1a::new();
        h.write_u8(b'a');
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn debug_hash_equals_manual_fold() {
        let report = (1u32, 2.5f64, "x");
        let mut h: u64 = FNV_OFFSET;
        for b in format!("{report:?}").bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        assert_eq!(debug_hash(&report), h);
    }

    #[test]
    fn seeds_separate_domains() {
        let mut a = Fnv1a::new();
        let mut b = Fnv1a::with_seed(0x5EED);
        a.write_bytes(b"same bytes");
        b.write_bytes(b"same bytes");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn word_writes_match_byte_writes() {
        let mut a = Fnv1a::new();
        a.write_u64(0x0102_0304_0506_0708);
        let mut b = Fnv1a::new();
        b.write_bytes(&[8, 7, 6, 5, 4, 3, 2, 1]);
        assert_eq!(a.finish(), b.finish());
    }
}
