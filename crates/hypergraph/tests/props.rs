//! Property tests for the hypergraph primitives: bit vectors, adjacency
//! matrices, per-input output masks and the replication potential.
//!
//! Cases come from a seeded SplitMix64, so every run checks the same
//! inputs and a failing assertion names the case that reproduces it.
//! Matrices reach 32 outputs (the `OutputMask` width) and more than 64
//! inputs, so adjacency rows span several words.

use netpart_hypergraph::{AdjacencyMatrix, BitVec};

/// Cases per property.
const CASES: u64 = 256;

/// A self-contained SplitMix64 so the cases depend on nothing but this
/// file.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() % (hi - lo + 1) as u64) as usize
    }

    /// `len` booleans, each set with probability `1 / k`.
    fn bits(&mut self, len: usize, k: usize) -> Vec<bool> {
        (0..len)
            .map(|_| self.next().is_multiple_of(k as u64))
            .collect()
    }

    /// An `m × n` boolean matrix with a per-matrix density, sparse
    /// enough at high `m` that exclusive (ψ-counted) columns occur.
    fn rows(&mut self, m: usize, n: usize) -> Vec<Vec<bool>> {
        let k = self.range(1, 2 * m + 1);
        (0..m).map(|_| self.bits(n, k)).collect()
    }
}

/// Runs `check` on `CASES` generated cases, each with its own seeded
/// generator so a failing case reproduces alone.
fn for_cases(property: u64, mut check: impl FnMut(&mut Gen, u64)) {
    for case in 0..CASES {
        check(&mut Gen(property << 32 | case), case);
    }
}

fn matrix(rows: &[Vec<bool>], n: usize) -> AdjacencyMatrix {
    AdjacencyMatrix::from_bitvec_rows(n, rows.iter().map(|r| BitVec::from_bools(r)).collect())
}

/// The columns of a boolean matrix as output masks: bit `o` of
/// column `j` is `rows[o][j]`.
fn columns(rows: &[Vec<bool>], n: usize) -> Vec<u32> {
    let mut cols = vec![0u32; n];
    for (o, row) in rows.iter().enumerate() {
        for (col, &bit) in cols.iter_mut().zip(row) {
            if bit {
                *col |= 1 << o;
            }
        }
    }
    cols
}

/// The replication potential evaluated literally as eq. 4 of the paper:
/// `ψ = Σ_i ‖A_Xi ∧ Π_{j≠i} ¬A_Xj‖` with the bit-vector complement,
/// AND and norm, 0 for cells with at most one output.
fn psi_eq4(adj: &AdjacencyMatrix) -> usize {
    let m = adj.m_outputs();
    if m <= 1 {
        return 0;
    }
    (0..m)
        .map(|i| {
            (0..m)
                .filter(|&j| j != i)
                .fold(adj.row(i).clone(), |only_i, j| {
                    only_i.and(&adj.row(j).complement())
                })
                .norm()
        })
        .sum()
}

/// BitVec operations agree with a naive `Vec<bool>` model.
#[test]
fn bitvec_matches_bool_model() {
    for_cases(1, |g, case| {
        let n = g.range(1, 200);
        let (a, b) = (g.bits(n, 2), g.bits(n, 2));
        let va = BitVec::from_bools(&a);
        let vb = BitVec::from_bools(&b);
        assert_eq!(va.norm(), a.iter().filter(|&&x| x).count(), "case {case}");
        let and = va.and(&vb);
        let or = va.or(&vb);
        let not = va.complement();
        for i in 0..n {
            assert_eq!(and.get(i), a[i] && b[i], "case {case} bit {i}");
            assert_eq!(or.get(i), a[i] || b[i], "case {case} bit {i}");
            assert_eq!(not.get(i), !a[i], "case {case} bit {i}");
        }
        assert_eq!(
            va.intersects(&vb),
            a.iter().zip(&b).any(|(&x, &y)| x && y),
            "case {case}"
        );
        assert_eq!(
            va.iter_ones().collect::<Vec<_>>(),
            (0..n).filter(|&i| a[i]).collect::<Vec<_>>(),
            "case {case}"
        );
        // De Morgan: ¬(a ∧ b) = ¬a ∨ ¬b.
        assert_eq!(
            va.and(&vb).complement(),
            va.complement().or(&vb.complement()),
            "case {case}"
        );
    });
}

/// `or_assign` equals `or`.
#[test]
fn or_assign_equals_or() {
    for_cases(2, |g, case| {
        let n = g.range(1, 100);
        let va = BitVec::from_bools(&g.bits(n, 2));
        let vb = BitVec::from_bools(&g.bits(n, 2));
        let mut acc = va.clone();
        acc.or_assign(&vb);
        assert_eq!(acc, va.or(&vb), "case {case}");
    });
}

/// The replication potential ψ equals both the naive count of inputs
/// controlling exactly one output and the literal eq. 4 evaluation, and
/// is bounded by the input count.
#[test]
fn psi_matches_naive_count_and_eq4() {
    for_cases(3, |g, case| {
        let (m, n) = (g.range(1, 32), g.range(1, 150));
        let rows = g.rows(m, n);
        let adj = matrix(&rows, n);
        let naive = if m <= 1 {
            0
        } else {
            (0..n)
                .filter(|&j| rows.iter().filter(|r| r[j]).count() == 1)
                .count()
        };
        let psi = adj.replication_potential();
        assert_eq!(psi, naive, "case {case} ({m}x{n})");
        assert_eq!(psi, psi_eq4(&adj), "case {case} ({m}x{n})");
        assert!(psi <= n, "case {case}");
    });
}

/// `input_mask(j)` is column `j` of the matrix; global inputs are
/// exactly the zero masks.
#[test]
fn input_mask_is_the_column() {
    for_cases(4, |g, case| {
        let (m, n) = (g.range(1, 32), g.range(1, 150));
        let rows = g.rows(m, n);
        let adj = matrix(&rows, n);
        for (j, &column) in columns(&rows, n).iter().enumerate() {
            let mask = adj.input_mask(j);
            assert_eq!(mask, column, "case {case} ({m}x{n}) input {j}");
            assert_eq!(adj.is_global_input(j), mask == 0, "case {case} input {j}");
        }
    });
}

/// The support of a copy keeping the outputs in `mask` is the union of
/// the kept rows: input `j` is in it (`input_mask(j) & mask != 0`, the
/// rule `Placement::pin_connected` applies) iff some kept row has bit `j`.
#[test]
fn support_union_matches_input_masks() {
    for_cases(5, |g, case| {
        let (m, n) = (g.range(1, 32), g.range(1, 150));
        let rows = g.rows(m, n);
        let adj = matrix(&rows, n);
        let full = if m == 32 { u32::MAX } else { (1u32 << m) - 1 };
        let mask = g.next() as u32 & full;
        for j in 0..n {
            let in_union = rows
                .iter()
                .enumerate()
                .any(|(o, r)| mask >> o & 1 == 1 && r[j]);
            assert_eq!(
                adj.input_mask(j) & mask != 0,
                in_union,
                "case {case} input {j}"
            );
        }
    });
}
