//! A small, dependency-free, deterministic pseudo-random number
//! generator for the netpart workspace.
//!
//! The partitioner's randomness requirements are modest — shuffled
//! initial placements, carve-strategy coin flips, seed derivation for
//! multi-start runs — but two properties are hard requirements:
//!
//! * **Determinism**: the same seed must produce the same run on every
//!   platform and toolchain (results in the paper-reproduction tables
//!   are keyed by seed).
//! * **Hermeticity**: the workspace must build with no registry access,
//!   so this module replaces the external `rand` crate.
//!
//! The generator is xoshiro256\*\* (Blackman–Vigna) seeded through
//! SplitMix64, the standard recommendation for turning a single `u64`
//! seed into a full 256-bit state. [`Fnv1a`] is the matching stable
//! hash, for digests that must survive the process.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hash;

pub use hash::Fnv1a;

/// One step of SplitMix64: advances `state` and returns the next output.
///
/// Useful on its own for cheap stateless seed-mixing (e.g. deriving
/// per-run seeds from a base seed and a run index).
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// A seeded xoshiro256\*\* generator.
///
/// # Examples
///
/// ```
/// use netpart_rng::Rng;
///
/// let mut a = Rng::seed_from_u64(7);
/// let mut b = Rng::seed_from_u64(7);
/// assert_eq!(a.next_u64(), b.next_u64());
///
/// let mut r = Rng::seed_from_u64(1);
/// let x = r.gen_range(0..10);
/// assert!(x < 10);
/// assert!(r.gen_f64() < 1.0);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Creates a generator whose 256-bit state is expanded from `seed`
    /// with SplitMix64.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng { s }
    }

    /// The next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniform `f64` in `[0, 1)` (53 bits of precision).
    #[inline]
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform `f64` in `(0, 1]` — never exactly zero, handy for
    /// logarithms and inverse-power transforms.
    #[inline]
    pub fn gen_f64_open(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// A uniform integer in `[0, bound)` via Lemire's unbiased method.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[inline]
    pub fn gen_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_below bound must be positive");
        // Widening-multiply rejection sampling (unbiased).
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// A uniform `usize` in `range` (half-open).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    #[inline]
    pub fn gen_range(&mut self, range: std::ops::Range<usize>) -> usize {
        assert!(range.start < range.end, "gen_range on empty range");
        range.start + self.gen_below((range.end - range.start) as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.gen_below(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }

    /// A reference to a uniformly chosen element, or `None` if empty.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            Some(&slice[self.gen_range(0..slice.len())])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = Rng::seed_from_u64(42);
        let mut b = Rng::seed_from_u64(42);
        let mut c = Rng::seed_from_u64(43);
        let va: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        let vc: Vec<u64> = (0..16).map(|_| c.next_u64()).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn splitmix_reference_vector() {
        // Reference outputs for seed 0 from the SplitMix64 paper code.
        let mut s = 0u64;
        assert_eq!(splitmix64(&mut s), 0xE220A8397B1DCDAF);
        assert_eq!(splitmix64(&mut s), 0x6E789E6AA1B965F4);
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = Rng::seed_from_u64(1);
        for _ in 0..10_000 {
            let x = r.gen_range(3..17);
            assert!((3..17).contains(&x));
        }
        for _ in 0..1000 {
            assert!(r.gen_below(1) == 0);
        }
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng::seed_from_u64(2);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x = r.gen_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
            let y = r.gen_f64_open();
            assert!(y > 0.0 && y <= 1.0);
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} far from 0.5");
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut r = Rng::seed_from_u64(3);
        let hits = (0..10_000).filter(|_| r.gen_bool(0.3)).count();
        assert!((2700..3300).contains(&hits), "p=0.3 gave {hits}/10000");
        assert!(!r.gen_bool(0.0));
        assert!(r.gen_bool(1.1)); // clamped semantics: always true
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = Rng::seed_from_u64(4);
        let mut v: Vec<usize> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted, "a 100-element shuffle should move something");
    }

    #[test]
    fn choose_handles_empty_and_singleton() {
        let mut r = Rng::seed_from_u64(5);
        let empty: [u8; 0] = [];
        assert_eq!(r.choose(&empty), None);
        assert_eq!(r.choose(&[7u8]), Some(&7));
    }

    #[test]
    fn gen_below_uniformity_smoke() {
        let mut r = Rng::seed_from_u64(6);
        let mut counts = [0usize; 7];
        for _ in 0..70_000 {
            counts[r.gen_below(7) as usize] += 1;
        }
        for &c in &counts {
            assert!((9000..11000).contains(&c), "bucket count {c} skewed");
        }
    }
}
