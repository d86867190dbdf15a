//! A compact fixed-length bit vector with the three operations the paper
//! performs on adjacency vectors: complementation, logical AND and the norm
//! (population count). See §II of the paper ("There are three binary
//! operations we will perform on the adjacency vectors…").

use std::fmt;

/// A fixed-length vector of bits.
///
/// Used for the paper's adjacency vectors `A_Xi`, cutset adjacency vectors
/// `C^I`/`C^O` and critical-net vectors `Q^I`/`Q^O`.
///
/// # Examples
///
/// ```
/// use netpart_hypergraph::BitVec;
///
/// // A_X2 of Fig. 2: [0 0 0 1 1]
/// let a_x2 = BitVec::from_bools(&[false, false, false, true, true]);
/// assert_eq!(a_x2.norm(), 2);
/// assert_eq!(a_x2.complement().norm(), 3);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitVec {
    len: usize,
    words: Vec<u64>,
}

impl BitVec {
    /// Creates an all-zero vector of length `len`.
    pub fn zeros(len: usize) -> Self {
        BitVec {
            len,
            words: vec![0; len.div_ceil(64)],
        }
    }

    /// Creates an all-one vector of length `len`.
    pub fn ones(len: usize) -> Self {
        let mut v = Self::zeros(len);
        for i in 0..len {
            v.set(i, true);
        }
        v
    }

    /// Creates a vector from a slice of booleans.
    pub fn from_bools(bits: &[bool]) -> Self {
        let mut v = Self::zeros(bits.len());
        for (i, &b) in bits.iter().enumerate() {
            v.set(i, b);
        }
        v
    }

    /// Creates a vector of length `len` with exactly the listed indices set.
    ///
    /// # Panics
    ///
    /// Panics if any index is `>= len`.
    pub fn from_indices(len: usize, indices: &[usize]) -> Self {
        let mut v = Self::zeros(len);
        for &i in indices {
            v.set(i, true);
        }
        v
    }

    /// The number of bits in the vector.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the vector has zero length.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Sets bit `i` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        let (w, b) = (i / 64, i % 64);
        if value {
            self.words[w] |= 1 << b;
        } else {
            self.words[w] &= !(1 << b);
        }
    }

    /// The paper's *norm* `‖·‖`: the number of set bits.
    pub fn norm(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The paper's *complementation*: flips every bit.
    pub fn complement(&self) -> BitVec {
        let mut out = self.clone();
        for w in &mut out.words {
            *w = !*w;
        }
        out.mask_tail();
        out
    }

    /// The paper's *logical AND* of two vectors of equal length.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn and(&self, other: &BitVec) -> BitVec {
        assert_eq!(self.len, other.len, "bitvec length mismatch");
        let words = self
            .words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| a & b)
            .collect();
        BitVec {
            len: self.len,
            words,
        }
    }

    /// Logical OR of two vectors of equal length.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn or(&self, other: &BitVec) -> BitVec {
        assert_eq!(self.len, other.len, "bitvec length mismatch");
        let words = self
            .words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| a | b)
            .collect();
        BitVec {
            len: self.len,
            words,
        }
    }

    /// In-place OR with another vector of equal length.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn or_assign(&mut self, other: &BitVec) {
        assert_eq!(self.len, other.len, "bitvec length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Returns `true` if any bit is set.
    pub fn any(&self) -> bool {
        self.words.iter().any(|&w| w != 0)
    }

    /// Returns `true` if `self` and `other` share any set bit.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn intersects(&self, other: &BitVec) -> bool {
        assert_eq!(self.len, other.len, "bitvec length mismatch");
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    /// Iterates over the indices of the set bits in ascending order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.len).filter(move |&i| self.get(i))
    }

    /// The backing words, bit `i` at bit `i % 64` of word `i / 64`; the
    /// bits past `len` are always zero.
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    fn mask_tail(&mut self) {
        let rem = self.len % 64;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }
}

impl fmt::Debug for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitVec[")?;
        for i in 0..self.len {
            write!(f, "{}", u8::from(self.get(i)))?;
        }
        write!(f, "]")
    }
}

impl fmt::Display for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.len {
            write!(f, "{}", u8::from(self.get(i)))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_ones() {
        let z = BitVec::zeros(70);
        assert_eq!(z.norm(), 0);
        assert!(!z.any());
        let o = BitVec::ones(70);
        assert_eq!(o.norm(), 70);
        assert!(o.any());
    }

    #[test]
    fn set_get_roundtrip() {
        let mut v = BitVec::zeros(130);
        v.set(0, true);
        v.set(64, true);
        v.set(129, true);
        assert!(v.get(0) && v.get(64) && v.get(129));
        assert!(!v.get(1) && !v.get(63) && !v.get(128));
        assert_eq!(v.norm(), 3);
        v.set(64, false);
        assert_eq!(v.norm(), 2);
    }

    #[test]
    fn complement_respects_length() {
        let v = BitVec::from_bools(&[true, false, true]);
        let c = v.complement();
        assert_eq!(c, BitVec::from_bools(&[false, true, false]));
        // Tail bits beyond `len` must not leak into the norm.
        assert_eq!(c.norm(), 1);
        assert_eq!(v.complement().complement(), v);
    }

    #[test]
    fn and_or_norm_paper_example() {
        // Paper §II example: A_X2' = [0 0 0 1 1], complement = [1 1 1 0 0]
        // with norm 3; and the product example AND of complements.
        let a_x1 = BitVec::from_bools(&[true, true, true, true, false]);
        let a_x2 = BitVec::from_bools(&[false, false, false, true, true]);
        assert_eq!(a_x2.norm(), 2);
        // ψ contributions (eq. 4): inputs adjacent to X1 only and to X2 only.
        let only_x1 = a_x1.and(&a_x2.complement());
        let only_x2 = a_x2.and(&a_x1.complement());
        assert_eq!(only_x1.norm() + only_x2.norm(), 4);
        assert_eq!(a_x1.or(&a_x2), BitVec::ones(5));
    }

    #[test]
    fn intersects_and_iter_ones() {
        let a = BitVec::from_indices(10, &[1, 5, 9]);
        let b = BitVec::from_indices(10, &[5]);
        assert!(a.intersects(&b));
        assert!(!b.intersects(&BitVec::from_indices(10, &[0, 2])));
        assert_eq!(a.iter_ones().collect::<Vec<_>>(), vec![1, 5, 9]);
    }

    #[test]
    fn display_formats_bits() {
        let v = BitVec::from_bools(&[true, false, true]);
        assert_eq!(v.to_string(), "101");
        assert_eq!(format!("{v:?}"), "BitVec[101]");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        BitVec::zeros(3).get(3);
    }
}
