//! Output→input functional dependency of a cell and the paper's
//! *replication potential* `ψ` (eq. 4).

use crate::placement::OutputMask;

/// The functional dependency of a cell's outputs on its inputs.
///
/// The paper writes it as one adjacency vector `A_Xi` per output: bit `j`
/// of `A_Xi` is set iff input `j` controls output `X_i`. Every use reads
/// it per input, so the matrix stores its columns: for each input, the
/// mask of the outputs it controls, in one word. A cell with `n` inputs
/// and `m ≤ 64` outputs stores `n` words.
///
/// # Examples
///
/// The 2-output cell of the paper's Fig. 2 (`X1 = f1(a1..a4)`,
/// `X2 = f2(a4, a5)`) has replication potential 4:
///
/// ```
/// use netpart_hypergraph::AdjacencyMatrix;
///
/// let adj = AdjacencyMatrix::from_rows(5, &[&[0, 1, 2, 3], &[3, 4]]);
/// assert_eq!(adj.replication_potential(), 4);
/// assert_eq!(adj.input_mask(3), 0b11);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AdjacencyMatrix {
    m_outputs: usize,
    /// `masks[j]`: bit `o` is set iff input `j` controls output `o`.
    masks: Vec<u64>,
}

/// The word with the low `m` bits set: every output of an `m`-output cell.
fn all_outputs(m: usize) -> u64 {
    assert!(m <= 64, "adjacency matrices hold at most 64 outputs");
    1u64.checked_shl(m as u32).unwrap_or(0).wrapping_sub(1)
}

impl AdjacencyMatrix {
    /// A matrix where every output depends on every input.
    ///
    /// This is the conservative assumption for cells whose internal function
    /// is unknown; it yields `ψ = 0` for multi-output cells, so functional
    /// replication degenerates to traditional replication.
    ///
    /// # Panics
    ///
    /// Panics if `m_outputs > 64`.
    pub fn full(n_inputs: usize, m_outputs: usize) -> Self {
        AdjacencyMatrix {
            m_outputs,
            masks: vec![all_outputs(m_outputs); n_inputs],
        }
    }

    /// The matrix of an I/O pad: no dependency information.
    ///
    /// Suitable for terminal nodes (0-input drivers or 0-output sinks).
    pub fn pad() -> Self {
        AdjacencyMatrix {
            m_outputs: 0,
            masks: Vec::new(),
        }
    }

    /// Builds a matrix from per-output support sets (input indices): the
    /// rows `A_Xi`.
    ///
    /// # Panics
    ///
    /// Panics if any listed input index is `>= n_inputs`, or if there are
    /// more than 64 outputs.
    pub fn from_rows(n_inputs: usize, supports: &[&[usize]]) -> Self {
        let mut masks = vec![0; n_inputs];
        for (o, support) in supports.iter().enumerate() {
            for &j in *support {
                masks[j] |= 1 << o;
            }
        }
        Self::from_input_masks(supports.len(), masks)
    }

    /// Builds a matrix from its columns: `masks[j]` has bit `o` set iff
    /// input `j` controls output `o`.
    ///
    /// # Panics
    ///
    /// Panics if `m_outputs > 64` or a mask names an output `>= m_outputs`.
    pub fn from_input_masks(m_outputs: usize, masks: Vec<u64>) -> Self {
        let all = all_outputs(m_outputs);
        assert!(
            masks.iter().all(|&mask| mask & !all == 0),
            "input mask names an output out of range"
        );
        AdjacencyMatrix { m_outputs, masks }
    }

    /// Number of inputs (matrix columns).
    pub fn n_inputs(&self) -> usize {
        self.masks.len()
    }

    /// Number of outputs (matrix rows).
    pub fn m_outputs(&self) -> usize {
        self.m_outputs
    }

    /// Returns `true` if input `j` controls output `o`.
    ///
    /// # Panics
    ///
    /// Panics if `o` or `j` is out of range.
    pub fn depends(&self, o: usize, j: usize) -> bool {
        assert!(o < self.m_outputs, "output index out of range");
        self.masks[j] >> o & 1 == 1
    }

    /// The outputs input `j` controls, as an [`OutputMask`]: bit `o` is
    /// set iff input `j` controls output `o` (column `j` of the matrix).
    /// 0 marks a [global input](Self::is_global_input).
    ///
    /// A copy keeping the outputs in `mask` connects input `j` iff
    /// `input_mask(j) & mask != 0`, i.e. iff `j` is in the union of the
    /// kept outputs' rows (global inputs are connected on every copy).
    ///
    /// # Panics
    ///
    /// Panics if the matrix has more than 32 outputs, or if it has
    /// outputs and `j >= n_inputs`.
    pub fn input_mask(&self, j: usize) -> OutputMask {
        assert!(
            self.m_outputs <= OutputMask::BITS as usize,
            "cells are limited to 32 outputs"
        );
        if self.m_outputs == 0 {
            return 0;
        }
        self.masks[j] as OutputMask
    }

    /// Returns `true` if input `j` controls no output at all.
    ///
    /// Such "global" inputs (e.g. a clock absorbed into a sequential cell
    /// model without a combinational output dependency) are treated as
    /// connected on every copy of a replicated cell — they can never float.
    ///
    /// # Panics
    ///
    /// Panics if the matrix has outputs and `j >= n_inputs`.
    pub fn is_global_input(&self, j: usize) -> bool {
        self.m_outputs == 0 || self.masks[j] == 0
    }

    /// The paper's replication potential `ψ` (eq. 4): the number of inputs
    /// that control **exactly one** output. Defined as 0 for cells with at
    /// most one output.
    ///
    /// ```
    /// use netpart_hypergraph::AdjacencyMatrix;
    ///
    /// // Fig. 1 cell: X depends on {a, b}, Y depends on {b, c} → ψ = 2.
    /// let adj = AdjacencyMatrix::from_rows(3, &[&[0, 1], &[1, 2]]);
    /// assert_eq!(adj.replication_potential(), 2);
    /// // Single-output cells have ψ = 0 by definition.
    /// assert_eq!(AdjacencyMatrix::full(4, 1).replication_potential(), 0);
    /// ```
    pub fn replication_potential(&self) -> usize {
        if self.m_outputs <= 1 {
            return 0;
        }
        // Summing eq. 4's ‖A_Xi ∧ Π_{j≠i} ¬A_Xj‖ over the outputs counts
        // each input whose mask holds exactly one output once.
        self.masks.iter().filter(|m| m.count_ones() == 1).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_replication_potential_is_4() {
        let adj = AdjacencyMatrix::from_rows(5, &[&[0, 1, 2, 3], &[3, 4]]);
        assert_eq!(adj.replication_potential(), 4);
    }

    #[test]
    fn fig1_replication_potential_is_2() {
        let adj = AdjacencyMatrix::from_rows(3, &[&[0, 1], &[1, 2]]);
        assert_eq!(adj.replication_potential(), 2);
    }

    #[test]
    fn single_output_psi_zero() {
        assert_eq!(AdjacencyMatrix::full(5, 1).replication_potential(), 0);
        assert_eq!(AdjacencyMatrix::pad().replication_potential(), 0);
    }

    #[test]
    fn identical_supports_psi_zero() {
        // Two outputs both depending on every input: no input is exclusive.
        assert_eq!(AdjacencyMatrix::full(4, 2).replication_potential(), 0);
    }

    #[test]
    fn disjoint_supports_psi_is_all_inputs() {
        let adj = AdjacencyMatrix::from_rows(6, &[&[0, 1, 2], &[3, 4, 5]]);
        assert_eq!(adj.replication_potential(), 6);
    }

    #[test]
    fn three_output_psi() {
        // input 0 → {X0}, input 1 → {X0,X1}, input 2 → {X1,X2}, input 3 → {X2}
        let adj = AdjacencyMatrix::from_rows(4, &[&[0, 1], &[1, 2], &[2, 3]]);
        assert_eq!(adj.replication_potential(), 2);
    }

    #[test]
    fn support_of_mask_unions_rows() {
        // A copy keeping the outputs in `mask` reads the union of their
        // rows: the inputs whose mask meets it.
        let adj = AdjacencyMatrix::from_rows(5, &[&[0, 1, 2, 3], &[3, 4]]);
        let support = |mask: u32| -> Vec<usize> {
            (0..5).filter(|&j| adj.input_mask(j) & mask != 0).collect()
        };
        assert_eq!(support(0b01), vec![0, 1, 2, 3]);
        assert_eq!(support(0b10), vec![3, 4]);
        assert_eq!(support(0b11), vec![0, 1, 2, 3, 4]);
        assert!(support(0).is_empty());
    }

    #[test]
    fn input_mask_is_the_column() {
        // Fig. 2: a4 controls both outputs, a5 only X2.
        let adj = AdjacencyMatrix::from_rows(6, &[&[0, 1, 2, 3], &[3, 4]]);
        let cols: Vec<u32> = (0..6).map(|j| adj.input_mask(j)).collect();
        assert_eq!(cols, vec![0b01, 0b01, 0b01, 0b11, 0b10, 0]);
        assert!(adj.is_global_input(5));
        assert_eq!(AdjacencyMatrix::full(1, 32).input_mask(0), u32::MAX);
        assert_eq!(AdjacencyMatrix::pad().input_mask(0), 0);
    }

    #[test]
    #[should_panic(expected = "limited to 32 outputs")]
    fn input_mask_rejects_33_outputs() {
        AdjacencyMatrix::full(1, 33).input_mask(0);
    }

    #[test]
    fn psi_counts_exclusive_columns_past_one_word() {
        // 130 inputs: 0..64 only X0, 64..100 X0 and X1, 100..129 only X2,
        // 129 global.
        let x0: Vec<usize> = (0..100).collect();
        let x1: Vec<usize> = (64..100).collect();
        let x2: Vec<usize> = (100..129).collect();
        let adj = AdjacencyMatrix::from_rows(130, &[&x0, &x1, &x2]);
        assert_eq!(adj.replication_potential(), 64 + 29);
    }

    #[test]
    fn global_inputs_detected() {
        let adj = AdjacencyMatrix::from_rows(3, &[&[0], &[2]]);
        assert!(adj.is_global_input(1));
        assert!(!adj.is_global_input(0));
        assert_eq!(adj.input_mask(0), 0b01);
        assert_eq!(adj.input_mask(1), 0);
    }
}
