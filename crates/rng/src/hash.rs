//! 64-bit FNV-1a, the workspace's one hash for persisted digests.
//!
//! Digests that outlive a process — the durable service's file
//! checksums and request keys, the board's structural digest — must be
//! the same on every run, toolchain and machine. [`std::hash::Hash`]
//! promises none of that, so they use this hasher over explicit
//! little-endian bytes instead. FNV-1a is tiny, allocation-free and
//! std-only; it is **not** cryptographic. `netpart-verify` keeps its own
//! copy so the verifier shares no code with what it checks.

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// An incremental 64-bit FNV-1a hasher.
///
/// # Examples
///
/// ```
/// use netpart_rng::Fnv1a;
///
/// let mut h = Fnv1a::new();
/// h.write(b"foobar");
/// assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
/// ```
#[derive(Clone, Debug)]
pub struct Fnv1a {
    state: u64,
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

impl Fnv1a {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv1a { state: FNV_OFFSET }
    }

    /// Absorbs raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorbs a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a test vectors (64-bit).
        let mut h = Fnv1a::new();
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325, "offset basis");
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv1a::new();
        h.write(b"foobar");
        assert_eq!(h.finish(), 0x85944171f73967e8);
        // `write_u64` is the little-endian byte write.
        let mut a = Fnv1a::new();
        a.write_u64(0x0102_0304_0506_0708);
        let mut b = Fnv1a::new();
        b.write(&[8, 7, 6, 5, 4, 3, 2, 1]);
        assert_eq!(a.finish(), b.finish());
    }
}
