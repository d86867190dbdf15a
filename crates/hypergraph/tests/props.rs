//! Property tests for the hypergraph primitives: adjacency matrices,
//! per-input output masks and the replication potential.
//!
//! Cases come from a seeded SplitMix64, so every run checks the same
//! inputs and a failing assertion names the case that reproduces it.
//! Matrices reach 32 outputs (the `OutputMask` width) and more than 64
//! inputs.

use netpart_hypergraph::AdjacencyMatrix;

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

/// The matrix with output `o` supported by the inputs set in `rows[o]`,
/// built through the row constructor.
fn matrix(rows: &[Vec<bool>], n: usize) -> AdjacencyMatrix {
    let supports: Vec<Vec<usize>> = rows
        .iter()
        .map(|r| (0..n).filter(|&j| r[j]).collect())
        .collect();
    let supports: Vec<&[usize]> = supports.iter().map(Vec::as_slice).collect();
    AdjacencyMatrix::from_rows(n, &supports)
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

/// The replication potential evaluated literally as eq. 4 of the paper
/// on the boolean rows: `ψ = Σ_i ‖A_Xi ∧ Π_{j≠i} ¬A_Xj‖`, 0 for cells
/// with at most one output.
fn psi_eq4(rows: &[Vec<bool>], n: usize) -> usize {
    if rows.len() <= 1 {
        return 0;
    }
    (0..rows.len())
        .map(|i| {
            (0..n)
                .filter(|&x| rows[i][x] && (0..rows.len()).filter(|&j| j != i).all(|j| !rows[j][x]))
                .count()
        })
        .sum()
}

/// `from_rows` agrees with an independent `Vec<Vec<bool>>` row model on
/// the shape, every dependency, every input mask, the global inputs and
/// ψ, for supports of up to 130 inputs and 32 outputs (empty ones too).
#[test]
fn from_rows_matches_bool_row_model() {
    for_cases(1, |g, case| {
        let (m, n) = (g.range(0, 32), g.range(0, 130));
        let rows = g.rows(m, n);
        let adj = matrix(&rows, n);
        assert_eq!((adj.n_inputs(), adj.m_outputs()), (n, m), "case {case}");
        for (j, &column) in columns(&rows, n).iter().enumerate() {
            for (o, row) in rows.iter().enumerate() {
                assert_eq!(adj.depends(o, j), row[j], "case {case} ({o}, {j})");
            }
            assert_eq!(adj.input_mask(j), column, "case {case} input {j}");
            assert_eq!(adj.is_global_input(j), column == 0, "case {case} input {j}");
        }
        assert_eq!(
            adj.replication_potential(),
            psi_eq4(&rows, n),
            "case {case} ({m}x{n})"
        );
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
        assert_eq!(psi, psi_eq4(&rows, n), "case {case} ({m}x{n})");
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
